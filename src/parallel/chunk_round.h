#ifndef GSB_PARALLEL_CHUNK_ROUND_H
#define GSB_PARALLEL_CHUNK_ROUND_H

/// \file chunk_round.h
/// Contiguous task chunks run as one JobGraph round: the scheduling shape
/// both clique engines share (§2.3's "balanced groups of sub-lists").
///
/// plan_chunks cuts a sequence of tasks (seed pairs, sub-lists,
/// Bron–Kerbosch roots) into contiguous runs of about equal estimated
/// cost, kChunksPerWorker per worker.  run_round plans the chunks over the
/// workers with par::LoadBalancer from their costs and homes, runs each
/// chunk's body as one job (idle workers steal queued chunks unless
/// `steal` is off) and calls `complete(c)` one chunk at a time: in chunk
/// order when `ordered`, else as each chunk finishes.  Emitting only from
/// `complete` in ordered mode therefore yields the same sequence at every
/// worker count.
///
/// A body returns the bytes its output holds until its completion; with
/// `window_bytes` set, those bytes count against the scheduler's reorder
/// window, so workers drain the next chunk in order instead of opening
/// new ones while finished output piles up.

#include <algorithm>
#include <cstdint>
#include <mutex>
#include <span>
#include <vector>

#include "parallel/job_graph.h"
#include "parallel/load_balancer.h"
#include "parallel/thread_pool.h"
#include "util/timer.h"

namespace gsb::par {

/// Jobs per worker in one round: enough slack for stealing to even out
/// cost-estimate errors, few enough that scheduling stays negligible.
inline constexpr std::size_t kChunksPerWorker = 8;

/// A contiguous run of tasks run by one job.
struct Chunk {
  std::size_t first = 0;  ///< index of the first task in the round
  std::size_t count = 0;
  std::uint64_t cost = 0;
  std::uint32_t home = 0;  ///< preferred worker (e.g. the input's producer)
};

/// Cuts \p count tasks into contiguous chunks of about equal cost;
/// next_cost() yields the task costs in order, and they sum to \p total.
template <typename CostFn>
std::vector<Chunk> plan_chunks(std::size_t count, std::uint64_t total,
                               std::size_t workers, CostFn&& next_cost) {
  const std::uint64_t target =
      std::max<std::uint64_t>(1, total / (workers * kChunksPerWorker));
  std::vector<Chunk> chunks;
  Chunk chunk;
  for (std::size_t i = 0; i < count; ++i) {
    if (chunk.count == 0) chunk.first = i;
    chunk.cost += next_cost();
    ++chunk.count;
    if (chunk.cost >= target) {
      chunks.push_back(chunk);
      chunk = Chunk{};
    }
  }
  if (chunk.count != 0) chunks.push_back(chunk);
  return chunks;
}

struct RoundOptions {
  /// Run completions in chunk order (else as each chunk finishes).
  bool ordered = true;
  /// Idle workers take queued chunks planned for other workers.
  bool steal = true;
  /// Reorder-window bound in bytes for ordered rounds; 0 = unbounded.
  std::size_t window_bytes = 0;
};

/// Per-worker CPU seconds and plan/steal counts of one round.
struct RoundStats {
  std::vector<double> busy_seconds;
  std::uint64_t transfers = 0;  ///< chunks moved off their home by the plan
  std::uint64_t steals = 0;     ///< chunks run off their planned worker
  std::uint64_t peak_pending_bytes = 0;  ///< reorder-window high-water mark
};

/// Runs one JobGraph round, one job per chunk: `body(c, worker)` returns
/// the bytes chunk c's output holds until `complete(c)` drains it.
template <typename BodyFn, typename CompleteFn>
RoundStats run_round(ThreadPool& pool, const RoundOptions& options,
                     const LoadBalancer& balancer,
                     std::span<const Chunk> chunks, BodyFn&& body,
                     CompleteFn&& complete) {
  const std::size_t workers = pool.size();
  std::vector<std::uint64_t> costs(chunks.size());
  std::vector<std::uint32_t> homes(chunks.size());
  for (std::size_t c = 0; c < chunks.size(); ++c) {
    costs[c] = chunks[c].cost;
    homes[c] = chunks[c].home;
  }
  const Assignment plan = balancer.assign(costs, homes, workers);
  std::vector<std::uint32_t> queue_of(chunks.size(), 0);
  for (std::uint32_t t = 0; t < plan.tasks.size(); ++t) {
    for (const std::uint32_t c : plan.tasks[t]) queue_of[c] = t;
  }

  RoundStats round;
  round.busy_seconds.assign(workers, 0.0);
  JobGraph::Options graph_options;
  graph_options.ordered = options.ordered;
  graph_options.steal = options.steal;
  graph_options.window_bytes = options.window_bytes;
  JobGraph jobs(&pool, graph_options);
  // Unordered completions run on the finishing worker; serialize them so
  // `complete` is never called concurrently in either mode.
  std::mutex complete_mutex;
  for (std::size_t c = 0; c < chunks.size(); ++c) {
    JobGraph::JobSpec spec;
    spec.home = queue_of[c];
    spec.run = [&, c](std::size_t wid) {
      const double cpu_begin = util::thread_cpu_seconds();
      jobs.set_bytes(static_cast<JobId>(c), body(c, wid));
      round.busy_seconds[wid] += util::thread_cpu_seconds() - cpu_begin;
    };
    spec.complete = [&, c] {
      if (options.ordered) {
        complete(c);
      } else {
        const std::lock_guard<std::mutex> lock(complete_mutex);
        complete(c);
      }
    };
    jobs.add(std::move(spec));
  }
  jobs.run();
  round.transfers = plan.transfers;
  round.steals = jobs.stats().jobs_stolen;
  round.peak_pending_bytes = jobs.stats().peak_pending_bytes;
  return round;
}

}  // namespace gsb::par

#endif  // GSB_PARALLEL_CHUNK_ROUND_H
