#ifndef GSB_CORE_PARALLEL_BK_H
#define GSB_CORE_PARALLEL_BK_H

/// \file parallel_bk.h
/// Parallel Bron–Kerbosch over chunked ranges of degeneracy-ordered roots.
///
/// The degeneracy variant (bron_kerbosch.h) already partitions the output:
/// vertex v_i of the degeneracy order roots an independent subtree holding
/// exactly the maximal cliques whose earliest-ordered member is v_i.  This
/// driver runs those roots in parallel the way the Clique Enumerator runs
/// its sub-lists (parallel/chunk_round.h):
///
///   * the peel records each root's later-neighbor count c (its
///     CANDIDATES size); the order is cut into contiguous root ranges of
///     about equal summed c³/6 + c + 1, par::kChunksPerWorker per worker;
///   * the ranges are dealt round-robin, planned by par::LoadBalancer and
///     run as one par::JobGraph round; a worker that drains its own queue
///     steals unstarted ranges from the others (§2.3's transfers to
///     "light-loaded (or idle)" threads);
///   * each range fills one flat buffer of its cliques, and with
///     `deterministic` (the default) the buffers drain in range order,
///     so the sink observes the exact sequence the sequential degeneracy
///     variant produces, at every thread count.  Buffered bytes are
///     tracked (MemTag::kCliqueStorage) and held to `reorder_window_bytes`
///     plus the ranges in flight by the scheduler's backpressure, never
///     the full output — which is what lets `gsb cliques --clique-out`
///     spill cliques to a .gsbc stream at terabyte-scale outputs.
///
/// With one worker the sequential kernel writes straight into the sink.
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
  /// count (ordered drain).  When false, each root range's cliques are
  /// emitted as soon as the range completes — same clique *set*, lower
  /// latency, order dependent on scheduling.
  bool deterministic = true;
  /// Soft cap on buffered bytes awaiting emission (deterministic mode).
  /// When pending output exceeds it, workers are redirected to claim the
  /// next-to-emit root range instead of new work — or wait if that range
  /// is already running — so the merge drains instead of letting the
  /// remaining output pile up in RAM.  Peak pending can overshoot by the
  /// in-flight ranges' outputs.  0 = unbounded.
  std::size_t reorder_window_bytes = 64u << 20;
  /// Scheduler policy knobs (plan-time assignment).
  par::LoadBalancerConfig balancer;
  /// Runtime stealing: idle threads claim unstarted root ranges from
  /// other threads' queues.  Disable to measure the static-plan-only
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
  std::size_t chunks = 0;          ///< root ranges (1 with one worker)
  std::uint64_t steals = 0;        ///< ranges executed off their planned thread
  std::uint64_t transfers = 0;     ///< ranges moved by the balancer's plan
  double total_seconds = 0.0;
  /// busy seconds per thread (CPU time inside claimed root ranges).
  std::vector<double> thread_busy_seconds;
  /// High-water mark of buffered bytes awaiting emission — the
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
