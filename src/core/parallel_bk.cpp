#include "core/parallel_bk.h"

#include <algorithm>
#include <memory>
#include <mutex>
#include <utility>

#include "core/detail/bk_kernel.h"
#include "graph/transforms.h"
#include "obs/metrics.h"
#include "parallel/job_graph.h"
#include "parallel/thread_pool.h"
#include "util/timer.h"

namespace gsb::core {
namespace {

using graph::VertexId;

/// Per-worker enumeration state, built lazily on a worker's first root.
/// The sink object must outlive the search (BkPivotSearch keeps a
/// reference), so both live here together.
struct BkWorker {
  std::vector<VertexId> buffer;  ///< flat size-prefixed clique records
  CliqueCallback local_sink;
  std::unique_ptr<detail::BkPivotSearch> search;
  double busy_seconds = 0.0;

  BkWorker(const graph::GraphView& g, const SizeRange& range,
           std::size_t degeneracy) {
    local_sink = [this](std::span<const VertexId> clique) {
      buffer.push_back(static_cast<VertexId>(clique.size()));
      buffer.insert(buffer.end(), clique.begin(), clique.end());
    };
    search = std::make_unique<detail::BkPivotSearch>(g, local_sink, range,
                                                     degeneracy);
  }
};

/// Replays one root's flat buffer into the caller's sink.
void drain_flat(const CliqueCallback& sink, const std::vector<VertexId>& flat) {
  std::size_t i = 0;
  while (i < flat.size()) {
    const std::size_t size = flat[i++];
    sink(std::span<const VertexId>(&flat[i], size));
    i += size;
  }
}

}  // namespace

ParallelBkStats parallel_bk(const graph::GraphView& g,
                            const CliqueCallback& sink,
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

  // --- plan: one task per degeneracy root -----------------------------------
  const graph::DegeneracyResult deg = graph::degeneracy_order(g);
  stats.degeneracy = deg.degeneracy;
  std::vector<std::size_t> pos(n);
  for (std::size_t i = 0; i < n; ++i) pos[deg.order[i]] = i;

  // Cost estimate: the root's CANDIDATES size c (later-ordered neighbors)
  // bounds its subtree by 3^(c/3); the cubic proxy matches the seeding
  // estimator of the parallel Clique Enumerator and only needs to rank
  // roots, not predict absolute cost.
  std::vector<std::uint64_t> costs(n);
  for (std::size_t i = 0; i < n; ++i) {
    const VertexId v = deg.order[i];
    std::uint64_t later = 0;
    g.neighbors(v).for_each([&](std::size_t u) {
      if (pos[u] > i) ++later;
    });
    costs[i] = later * later * later / 6 + later + 1;
  }
  // Roots are dealt round-robin so every thread's queue spans the whole
  // root order: the scheduler's reorder window then drains steadily
  // instead of waiting for thread 0's contiguous block to finish.
  std::vector<std::uint32_t> home(n);
  for (std::size_t i = 0; i < n; ++i) {
    home[i] = static_cast<std::uint32_t>(i % num_threads);
  }
  const par::LoadBalancer balancer(options.balancer);
  const par::Assignment assignment = balancer.assign(costs, home, num_threads);
  stats.transfers = assignment.transfers;
  std::vector<std::uint32_t> queue_of(n, 0);
  for (std::uint32_t t = 0; t < num_threads; ++t) {
    for (const std::uint32_t task_index : assignment.tasks[t]) {
      queue_of[task_index] = t;
    }
  }

  // --- schedule: one job per root on the DAG scheduler ----------------------
  // JobId == root index, so the scheduler's ordered-completion drain
  // (strict JobId order) reproduces the sequential degeneracy emission
  // sequence, and its window backpressure replaces the old bespoke
  // reorder buffer: when finished-but-undrained output exceeds the
  // window, workers are redirected to the next-to-emit root.
  par::ThreadPool pool(num_threads);
  par::JobGraph::Options graph_options;
  graph_options.ordered = options.deterministic;
  graph_options.window_bytes = options.reorder_window_bytes;
  graph_options.steal = options.dynamic_claiming;
  par::JobGraph jobs(&pool, graph_options);

  std::vector<std::unique_ptr<BkWorker>> workers(jobs.workers());
  auto worker_for = [&](std::size_t wid) -> BkWorker& {
    if (!workers[wid]) {
      workers[wid] =
          std::make_unique<BkWorker>(g, options.range, deg.degeneracy);
    }
    return *workers[wid];
  };

  // Per-root output parked between body finish and ordered drain; the
  // bytes are tracked (MemTag::kCliqueStorage) for exactly that span.
  std::vector<std::vector<VertexId>> slots(options.deterministic ? n : 0);
  std::vector<std::size_t> slot_bytes(options.deterministic ? n : 0, 0);
  // Completion-order mode drains inside the body; the sink contract
  // ("never invoked concurrently") then needs its own serialization.
  std::mutex emit_mutex;

  for (std::size_t i = 0; i < n; ++i) {
    par::JobGraph::JobSpec spec;
    spec.home = queue_of[i];
    spec.run = [&, i](std::size_t wid) {
      const double cpu_begin = util::thread_cpu_seconds();
      BkWorker& w = worker_for(wid);
      w.buffer.clear();
      w.search->run_root(deg.order[i], pos);
      if (options.deterministic) {
        const std::size_t bytes = w.buffer.size() * sizeof(VertexId);
        slots[i] = std::move(w.buffer);
        w.buffer = {};
        slot_bytes[i] = bytes;
        tracker.allocate(bytes, util::MemTag::kCliqueStorage);
        jobs.set_bytes(static_cast<par::JobId>(i), bytes);
      } else {
        const std::lock_guard<std::mutex> lock(emit_mutex);
        drain_flat(sink, w.buffer);
      }
      w.busy_seconds += util::thread_cpu_seconds() - cpu_begin;
    };
    if (options.deterministic) {
      spec.complete = [&, i] {
        drain_flat(sink, slots[i]);
        tracker.release(slot_bytes[i], util::MemTag::kCliqueStorage);
        slots[i] = {};
        slot_bytes[i] = 0;
      };
    }
    jobs.add(std::move(spec));
  }

  try {
    jobs.run();
  } catch (...) {
    // A throwing sink cancels the run mid-drain; release the window
    // accounting of whatever never drained before propagating.
    for (std::size_t i = 0; i < slot_bytes.size(); ++i) {
      tracker.release(slot_bytes[i], util::MemTag::kCliqueStorage);
    }
    throw;
  }

  stats.steals = jobs.stats().jobs_stolen;
  stats.peak_pending_bytes = jobs.stats().peak_pending_bytes;
  for (std::size_t wid = 0; wid < workers.size(); ++wid) {
    if (!workers[wid]) continue;
    const BronKerboschStats ws = workers[wid]->search->stats();
    stats.base.maximal_cliques += ws.maximal_cliques;
    stats.base.tree_nodes += ws.tree_nodes;
    stats.base.max_depth = std::max(stats.base.max_depth, ws.max_depth);
    if (wid < stats.thread_busy_seconds.size()) {
      stats.thread_busy_seconds[wid] = workers[wid]->busy_seconds;
    }
  }
  stats.total_seconds = total_timer.seconds();

  // Fold the run's scheduling behaviour into the metrics registry so a
  // serving process exposes enumeration health without plumbing stats
  // structs through every caller.  The reorder-window high-water mark is
  // NOT mirrored here: the scheduler already publishes it on
  // gsb_sched_pending_peak_bytes, the one gauge `gsb serve --metrics`
  // and the pipeline report both read.
  {
    obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
    static const obs::Counter runs = registry.counter(
        "gsb_bk_runs_total", "Parallel Bron-Kerbosch enumerations.");
    static const obs::Counter steals = registry.counter(
        "gsb_bk_steals_total", "Root tasks stolen across worker threads.");
    runs.inc();
    steals.inc(stats.steals);
  }
  return stats;
}

}  // namespace gsb::core
