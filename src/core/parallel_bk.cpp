#include "core/parallel_bk.h"

#include <algorithm>
#include <cstring>
#include <memory>

#include "core/detail/bk_kernel.h"
#include "graph/transforms.h"
#include "obs/metrics.h"
#include "parallel/chunk_round.h"
#include "parallel/thread_pool.h"
#include "util/timer.h"

namespace gsb::core {
namespace {

using graph::VertexId;

/// Per-worker search state, built lazily on a worker's first chunk.  The
/// sink object must outlive the search (BkPivotSearch keeps a reference),
/// so both live here together; the sink stages each clique into whichever
/// chunk the worker is filling and tallies its size.
struct BkWorker {
  StagedCliques* out = nullptr;
  CliqueCallback local_sink;
  std::unique_ptr<detail::BkPivotSearch> search;

  BkWorker(const graph::GraphView& g, const CliqueStage& stage,
           const SizeRange& range, std::size_t degeneracy) {
    local_sink = [this, &stage](std::span<const VertexId> clique) {
      stage.stage(clique, out->bytes);
      std::vector<std::uint64_t>& by_size = out->by_size;
      if (clique.size() >= by_size.size()) by_size.resize(clique.size() + 1);
      ++by_size[clique.size()];
    };
    search = std::make_unique<detail::BkPivotSearch>(g, local_sink, range,
                                                     degeneracy);
  }
};

/// One chunk's staged cliques, parked until its commit; the bytes are
/// tracked (MemTag::kCliqueStorage) from the end of staging to the end of
/// the commit.
struct ChunkOutput {
  StagedCliques staged;
  std::size_t bytes = 0;
};

/// Commits one staged chunk, timing it into drain_seconds and merging its
/// tallies into by_size, then releases its tracked bytes.
void commit_chunk(CliqueStage& stage, ChunkOutput& out,
                  ParallelBkStats& stats, util::MemoryTracker& tracker) {
  util::Timer timer;
  stage.commit(out.staged);
  stats.drain_seconds += timer.seconds();
  const std::vector<std::uint64_t>& by_size = out.staged.by_size;
  if (by_size.size() > stats.by_size.size()) {
    stats.by_size.resize(by_size.size());
  }
  for (std::size_t k = 0; k < by_size.size(); ++k) {
    stats.by_size[k] += by_size[k];
  }
  tracker.release(out.bytes, util::MemTag::kCliqueStorage);
  out.bytes = 0;
}

void publish_metrics(const ParallelBkStats& stats) {
  // Fold the run's scheduling behaviour into the metrics registry so a
  // serving process exposes enumeration health without plumbing stats
  // structs through every caller.  The reorder-window high-water mark is
  // NOT mirrored here: the scheduler already publishes it on
  // gsb_sched_pending_peak_bytes, the one gauge `gsb serve --metrics`
  // and the pipeline report both read.
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  static const obs::Counter runs = registry.counter(
      "gsb_bk_runs_total", "Parallel Bron-Kerbosch enumerations.");
  static const obs::Counter steals = registry.counter(
      "gsb_bk_steals_total", "Root chunks stolen across worker threads.");
  runs.inc();
  steals.inc(stats.steals);
}

}  // namespace

void CallbackStage::stage(std::span<const VertexId> clique,
                          std::vector<unsigned char>& out) const {
  const auto size = static_cast<VertexId>(clique.size());
  const std::size_t at = out.size();
  out.resize(at + sizeof(size) + clique.size_bytes());
  std::memcpy(out.data() + at, &size, sizeof(size));
  std::memcpy(out.data() + at + sizeof(size), clique.data(),
              clique.size_bytes());
}

void CallbackStage::commit(const StagedCliques& staged) {
  const unsigned char* p = staged.bytes.data();
  const unsigned char* const end = p + staged.bytes.size();
  while (p != end) {
    VertexId size = 0;
    std::memcpy(&size, p, sizeof(size));
    p += sizeof(size);
    clique_.resize(size);
    std::memcpy(clique_.data(), p, size * sizeof(VertexId));
    p += size * sizeof(VertexId);
    sink_(clique_);
  }
}

ParallelBkStats parallel_bk(const graph::GraphView& g,
                            const CliqueCallback& sink,
                            const ParallelBkOptions& options) {
  CallbackStage stage(sink);
  return parallel_bk(g, stage, options);
}

ParallelBkStats parallel_bk(const graph::GraphView& g, CliqueStage& stage,
                            const ParallelBkOptions& options) {
  util::Timer total_timer;
  ParallelBkStats stats;
  util::MemoryTracker& tracker = options.tracker != nullptr
                                     ? *options.tracker
                                     : util::global_memory_tracker();
  const std::size_t n = g.order();
  const std::size_t num_threads = options.threads != 0
                                      ? options.threads
                                      : par::ThreadPool::default_threads();
  stats.threads = num_threads;
  stats.thread_busy_seconds.assign(num_threads, 0.0);
  if (n == 0) {
    stats.total_seconds = total_timer.seconds();
    return stats;
  }

  const graph::DegeneracyResult deg = graph::degeneracy_order(g);
  stats.degeneracy = deg.degeneracy;
  std::vector<std::size_t> pos(n);
  for (std::size_t i = 0; i < n; ++i) pos[deg.order[i]] = i;

  // One worker: the sequential kernel over the whole order, committing
  // whenever enough is staged.
  if (num_threads == 1) {
    const double cpu_begin = util::thread_cpu_seconds();
    BkWorker worker(g, stage, options.range, deg.degeneracy);
    ChunkOutput out;
    worker.out = &out.staged;
    const auto commit = [&] {
      out.bytes = out.staged.bytes.size();
      tracker.allocate(out.bytes, util::MemTag::kCliqueStorage);
      commit_chunk(stage, out, stats, tracker);
      out.staged.bytes.clear();
      out.staged.by_size.clear();
    };
    try {
      for (const VertexId v : deg.order) {
        worker.search->run_root(v, pos);
        if (out.staged.bytes.size() >= kOneWorkerCommitBytes) commit();
      }
      commit();
    } catch (...) {
      tracker.release(out.bytes, util::MemTag::kCliqueStorage);
      throw;
    }
    stats.base = worker.search->stats();
    stats.chunks = 1;
    stats.thread_busy_seconds[0] = util::thread_cpu_seconds() - cpu_begin;
    stats.total_seconds = total_timer.seconds();
    publish_metrics(stats);
    return stats;
  }

  // --- plan: contiguous root ranges of about equal estimated cost ----------
  // A root's CANDIDATES size c (its later-neighbor count, recorded by the
  // peel) bounds its subtree by 3^(c/3); the cubic proxy matches the
  // enumerator's seeding estimator and only needs to balance chunks, not
  // predict absolute cost.
  const auto root_cost = [&](std::size_t i) -> std::uint64_t {
    const std::uint64_t c = deg.later[deg.order[i]];
    return c * c * c / 6 + c + 1;
  };
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < n; ++i) total += root_cost(i);
  std::vector<par::Chunk> chunks = par::plan_chunks(
      n, total, num_threads,
      [&, i = std::size_t{0}]() mutable { return root_cost(i++); });
  // Chunks are dealt round-robin so every worker's queue spans the whole
  // root order and the ordered drain advances steadily.
  for (std::size_t c = 0; c < chunks.size(); ++c) {
    chunks[c].home = static_cast<std::uint32_t>(c % num_threads);
  }
  stats.chunks = chunks.size();

  // --- run: one ordered round, one job per chunk ----------------------------
  // Chunk c's completion commits its staged records in chunk order, which
  // is root order, so the stage sees degeneracy_bk's exact sequence; the
  // reorder window holds staged-but-uncommitted chunks to
  // `reorder_window_bytes`.
  par::ThreadPool pool(num_threads);
  par::RoundOptions round_options;
  round_options.ordered = options.deterministic;
  round_options.steal = options.dynamic_claiming;
  round_options.window_bytes = options.reorder_window_bytes;
  const par::LoadBalancer balancer(options.balancer);

  std::vector<std::unique_ptr<BkWorker>> workers(pool.size());
  std::vector<ChunkOutput> outputs(chunks.size());
  par::RoundStats round;
  try {
    round = par::run_round(
        pool, round_options, balancer, chunks,
        [&](std::size_t c, std::size_t wid) {
          if (!workers[wid]) {
            workers[wid] = std::make_unique<BkWorker>(g, stage, options.range,
                                                      deg.degeneracy);
          }
          BkWorker& w = *workers[wid];
          ChunkOutput& out = outputs[c];
          w.out = &out.staged;
          const par::Chunk& chunk = chunks[c];
          for (std::size_t i = chunk.first; i < chunk.first + chunk.count;
               ++i) {
            w.search->run_root(deg.order[i], pos);
          }
          out.bytes = out.staged.bytes.size();
          tracker.allocate(out.bytes, util::MemTag::kCliqueStorage);
          return out.bytes;
        },
        [&](std::size_t c) {
          commit_chunk(stage, outputs[c], stats, tracker);
          outputs[c] = ChunkOutput{};
        });
  } catch (...) {
    // A throwing stage or commit cancels the run; release the accounting
    // of whatever never committed before propagating.
    for (const ChunkOutput& out : outputs) {
      tracker.release(out.bytes, util::MemTag::kCliqueStorage);
    }
    throw;
  }

  stats.steals = round.steals;
  stats.transfers = round.transfers;
  stats.peak_pending_bytes = round.peak_pending_bytes;
  for (std::size_t wid = 0; wid < workers.size(); ++wid) {
    if (wid < stats.thread_busy_seconds.size()) {
      stats.thread_busy_seconds[wid] = round.busy_seconds[wid];
    }
    if (!workers[wid]) continue;
    const BronKerboschStats ws = workers[wid]->search->stats();
    stats.base.maximal_cliques += ws.maximal_cliques;
    stats.base.tree_nodes += ws.tree_nodes;
    stats.base.max_depth = std::max(stats.base.max_depth, ws.max_depth);
  }
  stats.total_seconds = total_timer.seconds();
  publish_metrics(stats);
  return stats;
}

}  // namespace gsb::core
