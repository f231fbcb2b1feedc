#ifndef GSB_CORE_PARALLEL_ENUMERATOR_H
#define GSB_CORE_PARALLEL_ENUMERATOR_H

/// \file parallel_enumerator.h
/// The multithreaded Clique Enumerator for shared-memory machines (§2.3).
///
/// Structure, per the paper:
///   * threads are synchronized level-by-level so cliques are still emitted
///     in non-decreasing order of size;
///   * each thread works on its own sub-lists ("local instance") to keep
///     memory accesses local;
///   * a centralized dynamic task scheduler collects per-thread loads after
///     every level, makes load-balancing decisions, and transfers tasks
///     from heavily to lightly loaded threads (addresses are passed, not
///     data — the sub-lists live in shared memory);
///   * the seeding phase (k-clique enumeration at Init_K) is parallelized
///     over canonical seed tasks with the same scheduler.
///
/// The seeding phase and each level run as one ordered par::JobGraph
/// round.  A job is a contiguous chunk of seed tasks or sub-lists; chunks
/// are cut to about equal pair_work() sums and planned over the threads
/// by par::LoadBalancer, homed on the thread that produced them.  Idle
/// threads steal queued chunks (`dynamic_claiming`).  Each chunk's ordered
/// completion emits its cliques and appends its child sub-lists to the
/// next level, in chunk order, so the emission sequence — not only the
/// clique set — equals the sequential enumerator's at every thread count.

#include "core/clique.h"
#include "core/clique_enumerator.h"
#include "core/enumeration_stats.h"
#include "graph/graph_view.h"
#include "parallel/load_balancer.h"

namespace gsb::core {

/// Options for the multithreaded run.
struct ParallelOptions {
  /// Size window (`range.lo` = Init_K).
  SizeRange range{3, 0};
  /// Worker count; 0 = hardware concurrency.
  std::size_t threads = 0;
  /// Degree preprocessing, as in the sequential options.
  bool use_kcore = true;
  /// Scheduler policy knobs (plan-time assignment).
  par::LoadBalancerConfig balancer;
  /// Runtime transfers: idle threads steal queued chunks from other
  /// threads (§2.3's transfers to "light-loaded (or idle)" threads).
  /// Disable to measure the static-plan-only ablation.
  bool dynamic_claiming = true;
  /// Byte accounting sink; defaults to the process-global tracker.
  util::MemoryTracker* tracker = nullptr;
  /// Record per-task costs (enables the Altix machine-model replays).
  bool record_trace = false;
  /// Invoked after each level with that level's statistics.
  std::function<void(const LevelStats&)> progress;
};

/// Per-thread / scheduling metrics on top of the common statistics.
struct ParallelEnumerationStats {
  EnumerationStats base;
  std::size_t threads = 0;
  /// busy seconds per thread for the seeding round.
  std::vector<double> seed_thread_seconds;
  /// busy seconds per thread per level: [level][thread].
  std::vector<std::vector<double>> level_thread_seconds;
  /// total busy seconds per thread (seed + levels) — Figure 8's quantity.
  std::vector<double> thread_busy_seconds;
  /// scheduler transfers summed over levels.
  std::uint64_t total_transfers = 0;
};

/// Runs the multithreaded Clique Enumerator.  Cliques are streamed to
/// \p sink in the sequential enumerator's order, from the ordered
/// completions (the sink itself is never invoked concurrently).
ParallelEnumerationStats enumerate_maximal_cliques_parallel(
    const graph::GraphView& g, const CliqueCallback& sink,
    const ParallelOptions& options = {});

/// The Clique Enumerator as the CLI and the pipeline run it: the
/// sequential driver at \p threads == 1, the multithreaded driver
/// otherwise (0 = hardware concurrency).  Both emit the same sequence.
EnumerationStats enumerate_maximal_cliques_threads(const graph::GraphView& g,
                                                   const CliqueCallback& sink,
                                                   const SizeRange& range,
                                                   std::size_t threads);

}  // namespace gsb::core

#endif  // GSB_CORE_PARALLEL_ENUMERATOR_H
