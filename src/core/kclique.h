#ifndef GSB_CORE_KCLIQUE_H
#define GSB_CORE_KCLIQUE_H

/// \file kclique.h
/// The paper's **k-clique enumerator** (§2.2): enumerate *all* cliques of a
/// given size k — maximal and non-maximal — in non-repeating canonical
/// order, so they can seed the level-wise Clique Enumerator at a
/// user-supplied lower bound Init_K.
///
/// Following §2.2, the enumerator is a Base-BK-style depth-first canonical
/// extension with two modifications:
///   1. at depth k the clique is emitted, classified as maximal iff its
///      common-neighbor bit string is empty (one bitwise test), and the
///      branch returns;
///   2. the boundary condition: when |COMPSUB| + |CANDIDATES| < k the branch
///      cannot reach size k and returns immediately.
/// Base BK is used rather than Improved BK because, per the paper, pivot
/// pruning discards exactly the overlapping non-maximal cliques this phase
/// exists to find; and the degree-based preprocessing (drop vertices of
/// degree < k−1) replaces pivot selection as the effective reduction.

#include <cstdint>
#include <functional>
#include <memory>

#include "core/clique.h"
#include "core/enumeration_stats.h"
#include "core/sublist.h"
#include "graph/graph_view.h"

namespace gsb::core {

/// Receives every k-clique with its maximality classification.
using KCliqueCallback =
    std::function<void(std::span<const VertexId>, bool is_maximal)>;

/// Statistics from a k-clique enumeration pass.
struct KCliqueStats {
  std::uint64_t total = 0;        ///< all k-cliques found
  std::uint64_t maximal = 0;      ///< of which maximal
  std::uint64_t tree_nodes = 0;   ///< search-tree nodes visited
  std::uint64_t boundary_cuts = 0;///< branches cut by the boundary condition
};

/// Enumerates every k-clique of \p g in canonical (lexicographic) order.
/// \p k must be >= 1.
KCliqueStats enumerate_kcliques(const graph::GraphView& g, std::size_t k,
                                const KCliqueCallback& sink);

/// Counts k-cliques without materializing them.
std::uint64_t count_kcliques(const graph::GraphView& g, std::size_t k);

/// Builds the Clique Enumerator's seed level for clique size \p k (>= 2):
/// every *non-maximal* k-clique becomes a tail in the sub-list of its
/// (k-1)-prefix; sub-lists with fewer than two tails are dropped (they
/// cannot generate (k+1)-cliques in canonical order); every *maximal*
/// k-clique is streamed to \p maximal_sink.  The level comes out flat
/// and root-local (sublist.h), with the universe of every root that heads
/// a sub-list, and without memory accounting.
///
/// \p stats (optional) receives the pass counters.
Level build_seed_level(const graph::GraphView& g, std::size_t k,
                       const CliqueCallback& maximal_sink,
                       KCliqueStats* stats = nullptr);

/// As build_seed_level, but restricted to the canonical DFS roots in
/// \p roots (a clique's root is its smallest vertex), and optionally
/// recording per-root costs into \p trace.  The union of the levels
/// produced for a partition of [0, n) equals the unrestricted seed level.
Level build_seed_level_for_roots(const graph::GraphView& g, std::size_t k,
                                 std::span<const VertexId> roots,
                                 const CliqueCallback& maximal_sink,
                                 KCliqueStats* stats = nullptr,
                                 SeedTrace* trace = nullptr);

/// A canonical 2-prefix (v < u, adjacent): the finer-grained seeding task
/// used for Init_K >= 3.  Splitting by edge rather than by root keeps one
/// dense region from collapsing into a single unsplittable task — the unit
/// of work the scheduler and the Altix replays balance during seeding.
struct SeedPair {
  VertexId v = 0;
  VertexId u = 0;
};

/// All canonical seed pairs of \p g in lexicographic order.
std::vector<SeedPair> collect_seed_pairs(const graph::GraphView& g);

/// Seed-level construction over an explicit set of 2-prefix tasks
/// (requires k >= 3).  The union over a partition of collect_seed_pairs(g)
/// equals build_seed_level(g, k, ...).
Level build_seed_level_for_pairs(const graph::GraphView& g, std::size_t k,
                                 std::span<const SeedPair> pairs,
                                 const CliqueCallback& maximal_sink,
                                 KCliqueStats* stats = nullptr,
                                 SeedTrace* trace = nullptr);

/// Incremental seed-level construction: one worker per thread, fed one
/// task at a time (the parallel driver's dynamic scheduler hands tasks to
/// idle workers at runtime).  Each task processed here is equivalent to the
/// corresponding batch entry of build_seed_level_for_pairs/_for_roots.
class SeedLevelWorker {
 public:
  /// \p maximal_sink must outlive the worker.
  SeedLevelWorker(const graph::GraphView& g, std::size_t k,
                  const CliqueCallback& maximal_sink);
  ~SeedLevelWorker();
  SeedLevelWorker(SeedLevelWorker&&) noexcept;
  SeedLevelWorker& operator=(SeedLevelWorker&&) = delete;

  /// Processes one canonical 2-prefix (requires k >= 3).
  void process_pair(const SeedPair& pair);
  /// Processes one canonical root (requires k >= 2).
  void process_root(VertexId root);

  [[nodiscard]] const KCliqueStats& stats() const noexcept;
  /// Extracts the sub-lists accumulated so far (call once, when done).
  Level take_level();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace gsb::core

#endif  // GSB_CORE_KCLIQUE_H
