#ifndef GSB_CORE_PARALLEL_BK_H
#define GSB_CORE_PARALLEL_BK_H

/// \file parallel_bk.h
/// Work-stealing parallel Bron–Kerbosch over degeneracy-ordered roots.
///
/// The degeneracy variant (bron_kerbosch.h) already partitions the output:
/// vertex v_i of the degeneracy order roots an independent subtree holding
/// exactly the maximal cliques whose earliest-ordered member is v_i.  This
/// driver fans those roots out over the shared par::ThreadPool:
///
///   * per-root costs are estimated from the later-neighbor count (the
///     root's CANDIDATES size) and planned by the centralized
///     par::LoadBalancer, with roots dealt round-robin across threads so
///     completion order tracks the global root order;
///   * at runtime, a worker that drains its own queue steals unstarted
///     roots from the other queues through par::JobGraph (§2.3's
///     transfers to "light-loaded (or idle)" threads) — dense subtrees
///     cannot serialize the run;
///   * emission goes through a reorder buffer: each root's cliques are
///     buffered until every earlier root has been emitted, so with
///     `deterministic` (the default) the sink observes the exact sequence
///     the sequential degeneracy variant would produce, for every thread
///     count.  Pending bytes are tracked (MemTag::kCliqueStorage) and
///     held to a window (`reorder_window_bytes` plus in-flight roots) by
///     backpressure on claiming, never the full output — which is what
///     lets `gsb cliques --clique-out` spill cliques to a .gsbc stream
///     at terabyte-scale outputs.
///
/// The sink is never invoked concurrently.

#include <cstdint>
#include <vector>

#include "core/bron_kerbosch.h"
#include "core/clique.h"
#include "graph/graph_view.h"
#include "parallel/load_balancer.h"
#include "util/memory_tracker.h"

namespace gsb::core {

/// Options for the parallel run.
struct ParallelBkOptions {
  /// Emission size window (the search itself is unpruned, as in the
  /// sequential variants).
  SizeRange range{};
  /// Worker count; 0 = hardware concurrency.
  std::size_t threads = 0;
  /// Emit cliques in sequential degeneracy order regardless of thread
  /// count (reorder-buffer merge).  When false, each root's cliques are
  /// emitted as soon as the root completes — same clique *set*, lower
  /// latency, order dependent on scheduling.
  bool deterministic = true;
  /// Soft cap on reorder-buffer bytes awaiting emission (deterministic
  /// mode).  When pending output exceeds it, workers are redirected to
  /// claim the next-to-emit root (its queue head) instead of new work —
  /// or wait if that root is already running — so the merge drains
  /// instead of letting the remaining output pile up in RAM.  Peak
  /// pending can overshoot by the in-flight roots' outputs.
  /// 0 = unbounded.
  std::size_t reorder_window_bytes = 64u << 20;
  /// Scheduler policy knobs (plan-time assignment).
  par::LoadBalancerConfig balancer;
  /// Runtime stealing: idle threads claim unstarted roots from the
  /// heaviest remaining queue.  Disable to measure the static-plan-only
  /// ablation.
  bool dynamic_claiming = true;
  /// Byte accounting sink; defaults to the process-global tracker.
  util::MemoryTracker* tracker = nullptr;
};

/// Scheduling and memory metrics on top of the common statistics.
struct ParallelBkStats {
  BronKerboschStats base;
  std::size_t threads = 0;
  std::size_t degeneracy = 0;      ///< of the input graph
  std::uint64_t steals = 0;        ///< roots executed off their planned thread
  std::uint64_t transfers = 0;     ///< plan-time moves by the balancer
  double total_seconds = 0.0;
  /// busy seconds per thread (CPU time inside claimed roots).
  std::vector<double> thread_busy_seconds;
  /// High-water mark of reorder-buffer bytes awaiting emission — the
  /// quantity the bounded-output tests assert stays far below the total
  /// clique bytes.
  std::size_t peak_pending_bytes = 0;
};

/// Runs the parallel degeneracy-ordered Bron–Kerbosch.  The result clique
/// set is identical to degeneracy_bk's for every thread count; with
/// options.deterministic the emission *sequence* is identical too.
ParallelBkStats parallel_bk(const graph::GraphView& g,
                            const CliqueCallback& sink,
                            const ParallelBkOptions& options = {});

}  // namespace gsb::core

#endif  // GSB_CORE_PARALLEL_BK_H
