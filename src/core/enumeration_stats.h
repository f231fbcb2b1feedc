#ifndef GSB_CORE_ENUMERATION_STATS_H
#define GSB_CORE_ENUMERATION_STATS_H

/// \file enumeration_stats.h
/// Per-level instrumentation of the Clique Enumerator.  These records back
/// three of the paper's evaluation artifacts directly:
///   * Figure 9 (memory vs. clique size)  — bytes_formula (the paper's
///     n-bit formula) / bytes_actual (the root-local layout as stored),
///   * Figure 8 (load balance)            — per-task costs,
///   * the Altix machine-model replays    — LevelTrace feeds gsb::altix.

#include <cstddef>
#include <cstdint>
#include <vector>

namespace gsb::core {

/// Counters for one level (candidate cliques of size k generating size k+1).
struct LevelStats {
  std::size_t k = 0;                  ///< candidate clique size at this level
  std::uint64_t sublists = 0;         ///< N[k]
  std::uint64_t candidates = 0;       ///< M[k]
  std::uint64_t maximal_emitted = 0;  ///< maximal (k+1)-cliques found here
  std::uint64_t pairs_checked = 0;    ///< tail-pair adjacency tests
  std::uint64_t edges_present = 0;    ///< pairs that were adjacent
  /// The paper's closed-form space for the level, with n-bit common
  /// strings (sublist.h: level_bytes_formula).
  std::size_t bytes_formula = 0;
  /// Measured bytes of the level as stored: the flat, root-local layout
  /// (|N(r)|-bit common strings) plus the root universes it uses.
  std::size_t bytes_actual = 0;
  double seconds = 0.0;               ///< wall time to process the level
};

/// Per-task (= per-sub-list) costs of one level, recorded when tracing is
/// enabled; the Altix simulator replays these through the scheduler.
struct LevelTrace {
  std::size_t k = 0;
  std::vector<std::uint64_t> task_work;  ///< pair_work proxy per sub-list
  std::vector<double> task_seconds;      ///< measured wall time per sub-list
};

/// Per-task costs of the k-clique seeding phase.  A seed task is one
/// canonical DFS unit — a (v, u) edge prefix for Init_K >= 3, or a root
/// vertex for Init_K = 2 — so granularity is fine enough for the scheduler
/// and the Altix replays to balance.
struct SeedTrace {
  std::vector<std::uint64_t> task_work;  ///< search-tree nodes per task
  std::vector<double> task_seconds;      ///< measured wall time per task
};

/// Whole-run summary.
struct EnumerationStats {
  std::vector<LevelStats> levels;
  std::vector<LevelTrace> traces;  ///< empty unless tracing was requested
  SeedTrace seed_trace;            ///< empty unless tracing was requested
  std::uint64_t total_maximal = 0;
  double seed_seconds = 0.0;   ///< time in the k-clique seeding phase
  double total_seconds = 0.0;  ///< seed + all levels
  std::size_t peak_bytes_formula = 0;
  std::size_t peak_bytes_actual = 0;

  /// Largest candidate level footprint (the Figure 9 peak).
  void finalize() noexcept {
    peak_bytes_formula = 0;
    peak_bytes_actual = 0;
    for (const auto& level : levels) {
      peak_bytes_formula = level.bytes_formula > peak_bytes_formula
                               ? level.bytes_formula
                               : peak_bytes_formula;
      peak_bytes_actual = level.bytes_actual > peak_bytes_actual
                              ? level.bytes_actual
                              : peak_bytes_actual;
    }
  }
};

}  // namespace gsb::core

#endif  // GSB_CORE_ENUMERATION_STATS_H
