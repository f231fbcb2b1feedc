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
///   * output goes through a CliqueStage in two steps.  The worker that
///     finds a clique runs `stage`, which appends the clique's record to
///     its range's byte buffer; parallel_bk tallies the clique's size
///     beside it.  Whole ranges then reach `commit` one at a time.  With
///     `deterministic` (the default) they commit in range order, so the
///     output is the exact sequence the sequential degeneracy variant
///     produces, at every thread count;
///   * staged bytes are tracked (MemTag::kCliqueStorage) and held to
///     `reorder_window_bytes` plus the ranges in flight by the
///     scheduler's backpressure, never the full output — which is what
///     lets `gsb cliques --clique-out` spill cliques to a .gsbc stream at
///     terabyte-scale outputs.
///
/// What a record is belongs to the stage.  The CliqueCallback overload's
/// CallbackStage stages size-prefixed ids and replays them into the
/// callback at commit.  storage::GsbcStage (storage/gsbc_stage.h) stages
/// finished .gsbc records: relabelled, sorted, validated and
/// varint-coded on the workers, so its commit only splices bytes.
///
/// With one worker the sequential kernel runs the roots in order and
/// commits whenever its staged bytes pass kOneWorkerCommitBytes.  `stage`
/// runs on every worker at once; `commit` never runs concurrently.

#include <cstdint>
#include <span>
#include <vector>

#include "core/bron_kerbosch.h"
#include "core/clique.h"
#include "graph/graph_view.h"
#include "parallel/load_balancer.h"
#include "util/memory_tracker.h"

namespace gsb::core {

/// One root range's staged output: the records its cliques' `stage` calls
/// wrote, in emission order, and how many cliques of each size they hold.
struct StagedCliques {
  std::vector<unsigned char> bytes;
  std::vector<std::uint64_t> by_size;  ///< by_size[k]: cliques of k members
};

/// Where parallel_bk's cliques go, split into per-clique work that runs on
/// the worker that found the clique and an in-order step per range.
class CliqueStage {
 public:
  CliqueStage() = default;
  CliqueStage(const CliqueStage&) = delete;
  CliqueStage& operator=(const CliqueStage&) = delete;
  virtual ~CliqueStage() = default;

  /// Appends \p clique's record to \p out.  Runs on every worker at
  /// once, each into its own range's buffer, so it must change no shared
  /// state.  A throw cancels the run and propagates out of parallel_bk.
  virtual void stage(std::span<const VertexId> clique,
                     std::vector<unsigned char>& out) const = 0;

  /// Consumes one range's staged records: in range order with
  /// `deterministic`, else in completion order; never concurrently.
  virtual void commit(const StagedCliques& staged) = 0;
};

/// The stage behind the CliqueCallback overload: stages each clique as
/// its size and ids, and at commit replays them into the callback.
class CallbackStage final : public CliqueStage {
 public:
  explicit CallbackStage(const CliqueCallback& sink) : sink_(sink) {}

  void stage(std::span<const VertexId> clique,
             std::vector<unsigned char>& out) const override;
  void commit(const StagedCliques& staged) override;

 private:
  const CliqueCallback& sink_;
  std::vector<VertexId> clique_;  ///< one replayed clique
};

/// With one worker, staged bytes are committed once they pass this.
inline constexpr std::size_t kOneWorkerCommitBytes = 64u << 10;

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
  /// Wall seconds spent inside commits: the run's serial stage.
  double drain_seconds = 0.0;
  /// by_size[k]: emitted cliques of k members, summed over the commits.
  std::vector<std::uint64_t> by_size;
  /// busy seconds per thread (CPU time inside claimed root ranges).
  std::vector<double> thread_busy_seconds;
  /// High-water mark of buffered bytes awaiting emission — the
  /// quantity the bounded-output tests assert stays far below the total
  /// clique bytes.
  std::size_t peak_pending_bytes = 0;
};

/// Runs the parallel degeneracy-ordered Bron–Kerbosch.  The result clique
/// set is identical to degeneracy_bk's for every thread count; with
/// options.deterministic the commit *sequence* is identical too.
ParallelBkStats parallel_bk(const graph::GraphView& g, CliqueStage& stage,
                            const ParallelBkOptions& options = {});

/// The same run into a callback, through a CallbackStage.  The sink is
/// never invoked concurrently.
ParallelBkStats parallel_bk(const graph::GraphView& g,
                            const CliqueCallback& sink,
                            const ParallelBkOptions& options = {});

}  // namespace gsb::core

#endif  // GSB_CORE_PARALLEL_BK_H
