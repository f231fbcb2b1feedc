#include "core/parallel_enumerator.h"

#include <algorithm>

#include "core/detail/mapped_sink.h"
#include "core/detail/sublist_kernel.h"
#include "core/kclique.h"
#include "graph/transforms.h"
#include "parallel/chunk_round.h"
#include "parallel/thread_pool.h"
#include "util/timer.h"

namespace gsb::core {
namespace {

using detail::MappedSink;
using graph::VertexId;
using par::Chunk;

/// Output of one job, parked until its ordered completion.
struct ChunkOutput {
  std::vector<VertexId> emitted;  ///< maximal cliques, flat, fixed stride
  Level seed_level;               ///< seeding round: the chunk's sub-lists
  SublistBlock block;             ///< level rounds: the chunk's children
  detail::KernelCounters counters;
  std::uint32_t producer = 0;
};

/// Streams a chunk's flat fixed-stride cliques to the sink.
void emit_flat(MappedSink& mapped, const std::vector<VertexId>& flat,
               std::size_t stride) {
  for (std::size_t i = 0; i + stride <= flat.size(); i += stride) {
    mapped.emit(std::span<const VertexId>(&flat[i], stride));
  }
}

}  // namespace

ParallelEnumerationStats enumerate_maximal_cliques_parallel(
    const graph::GraphView& g, const CliqueCallback& sink,
    const ParallelOptions& options) {
  util::Timer total_timer;
  ParallelEnumerationStats pstats;
  EnumerationStats& stats = pstats.base;
  util::MemoryTracker& tracker = options.tracker != nullptr
                                     ? *options.tracker
                                     : util::global_memory_tracker();
  const SizeRange range = options.range;
  const std::size_t lo = std::max<std::size_t>(range.lo, 1);
  const std::size_t num_threads = options.threads != 0
                                      ? options.threads
                                      : par::ThreadPool::default_threads();
  pstats.threads = num_threads;
  pstats.seed_thread_seconds.assign(num_threads, 0.0);
  pstats.thread_busy_seconds.assign(num_threads, 0.0);

  // Size-1 maximal cliques (isolated vertices) are only reachable here.
  if (lo == 1) {
    Clique buf(1);
    for (VertexId v = 0; v < g.order(); ++v) {
      if (g.degree(v) == 0) {
        buf[0] = v;
        ++stats.total_maximal;
        sink(buf);
      }
    }
  }
  const std::size_t seed_k = std::max<std::size_t>(lo, 2);
  if (range.hi != 0 && range.hi < seed_k) {
    stats.total_seconds = total_timer.seconds();
    stats.finalize();
    return pstats;
  }

  // --- degree preprocessing (identical to the sequential driver) ----------
  graph::GraphView work = g;
  graph::InducedSubgraph reduced;
  const std::vector<VertexId>* mapping = nullptr;
  if (options.use_kcore && seed_k >= 2) {
    reduced = graph::kcore_subgraph(g, seed_k - 1);
    if (reduced.graph.order() < g.order()) {
      work = graph::GraphView(reduced.graph);
      mapping = &reduced.mapping;
    }
  }
  MappedSink mapped(sink, mapping);
  const std::size_t n = work.order();

  par::ThreadPool pool(num_threads);
  const par::LoadBalancer balancer(options.balancer);
  par::RoundOptions round_options;
  round_options.steal = options.dynamic_claiming;
  const auto add_busy = [&](const std::vector<double>& busy) {
    for (std::size_t t = 0; t < busy.size(); ++t) {
      pstats.thread_busy_seconds[t] += busy[t];
    }
  };

  // --- parallel seeding -------------------------------------------------------
  // Seed tasks are canonical 2-prefixes (edges) at Init_K >= 3 — fine
  // enough that no single dense region becomes an unsplittable task — or
  // root vertices at Init_K = 2.  Costs are estimated from the size of the
  // admissible candidate set (one bitwise AND per task).  Chunks of tasks
  // are dealt round-robin, then balanced by the centralized scheduler.
  util::Timer seed_timer;
  Level current(&tracker);
  std::vector<std::uint32_t> home;  // producing worker of each block
  {
    const bool pair_seed = seed_k >= 3;
    std::vector<SeedPair> pairs;
    std::vector<std::uint64_t> costs;
    if (pair_seed) {
      pairs = collect_seed_pairs(work);
      costs.resize(pairs.size());
      bits::DynamicBitset scratch(n);
      for (std::size_t i = 0; i < pairs.size(); ++i) {
        scratch.assign_and(work.neighbors(pairs[i].v),
                           work.neighbors(pairs[i].u));
        const std::uint64_t cand = scratch.count_from(pairs[i].u + 1);
        costs[i] = cand * cand * cand / 6 + cand + 1;
      }
    } else {
      costs.resize(n);
      for (VertexId v = 0; v < n; ++v) {
        const std::uint64_t d = work.degree(v);
        costs[v] = d * d + 1;
      }
    }
    std::uint64_t total = 0;
    for (const std::uint64_t cost : costs) total += cost;
    std::vector<Chunk> chunks =
        par::plan_chunks(costs.size(), total, num_threads,
                    [&, i = std::size_t{0}]() mutable { return costs[i++]; });
    for (std::size_t c = 0; c < chunks.size(); ++c) {
      chunks[c].home = static_cast<std::uint32_t>(c % num_threads);
    }

    std::vector<ChunkOutput> outputs(chunks.size());
    if (options.record_trace) {
      stats.seed_trace.task_work.assign(costs.size(), 0);
      stats.seed_trace.task_seconds.assign(costs.size(), 0.0);
    }
    const par::RoundStats round = par::run_round(
        pool, round_options, balancer, chunks,
        [&](std::size_t c, std::size_t wid) {
          ChunkOutput& out = outputs[c];
          out.producer = static_cast<std::uint32_t>(wid);
          const CliqueCallback local_sink =
              [&out](std::span<const VertexId> clique) {
                out.emitted.insert(out.emitted.end(), clique.begin(),
                                   clique.end());
              };
          SeedLevelWorker worker(work, seed_k, local_sink);
          for (std::size_t i = chunks[c].first;
               i < chunks[c].first + chunks[c].count; ++i) {
            util::Timer task_timer;
            const std::uint64_t nodes_before = worker.stats().tree_nodes;
            if (pair_seed) {
              worker.process_pair(pairs[i]);
            } else {
              worker.process_root(static_cast<VertexId>(i));
            }
            if (options.record_trace) {
              stats.seed_trace.task_work[i] =
                  worker.stats().tree_nodes - nodes_before;
              stats.seed_trace.task_seconds[i] = task_timer.seconds();
            }
          }
          out.seed_level = worker.take_level();
          return std::size_t{0};
        },
        [&](std::size_t c) {
          ChunkOutput& out = outputs[c];
          stats.total_maximal += out.emitted.size() / seed_k;
          emit_flat(mapped, out.emitted, seed_k);
          current.append(std::move(out.seed_level));
          home.resize(current.blocks().size(), out.producer);
          out = ChunkOutput{};
        });
    pstats.seed_thread_seconds = round.busy_seconds;
    add_busy(round.busy_seconds);
    pstats.total_transfers += round.transfers + round.steals;
  }
  stats.seed_seconds = seed_timer.seconds();

  // --- level-synchronous enumeration -----------------------------------------
  // Each level is one ordered round: chunks of sub-lists are expanded in
  // parallel, and each chunk's completion emits its cliques and appends
  // its children as the next block of the next level, in chunk order —
  // so the emission sequence and the next level are exactly the
  // sequential driver's at every thread count.
  std::vector<std::vector<Word>> scratch(pool.size());
  std::vector<SublistBlock> spare;  // retired blocks, storage reused
  std::size_t k = seed_k;
  while (!current.empty() && range.open_above(k)) {
    util::Timer level_timer;
    LevelStats level;
    level.k = k;
    const LevelCounts counts = count_level(current);
    level.sublists = counts.sublists;
    level.candidates = counts.candidates;
    level.bytes_formula = level_bytes_formula(counts, k, n);
    level.bytes_actual = level_bytes_actual(current);

    // Per-task cost estimates are the pair-comparison work each sub-list
    // will perform; a chunk is homed on the worker that produced the
    // block holding its first sub-list.
    const auto blocks = current.blocks();
    std::uint64_t total = 0;
    for (const SublistBlock& block : blocks) {
      for (std::size_t i = 0; i < block.size(); ++i) {
        total += block.pair_work(i) + 1;
      }
    }
    std::size_t b = 0;
    std::size_t i = 0;
    std::vector<Chunk> chunks =
        par::plan_chunks(counts.sublists, total, num_threads, [&]() {
          while (i == blocks[b].size()) {
            ++b;
            i = 0;
          }
          return blocks[b].pair_work(i++) + 1;
        });
    std::size_t block = 0;
    std::size_t block_end = blocks[0].size();
    for (Chunk& chunk : chunks) {
      while (chunk.first >= block_end) block_end += blocks[++block].size();
      chunk.home = home[block];
    }

    LevelTrace trace;
    if (options.record_trace) {
      trace.k = k;
      trace.task_work.assign(counts.sublists, 0);
      trace.task_seconds.assign(counts.sublists, 0.0);
    }

    const std::size_t emit_stride = k + 1;
    std::vector<ChunkOutput> outputs(chunks.size());
    Level next(&tracker);
    std::vector<std::uint32_t> next_home;
    const par::RoundStats round = par::run_round(
        pool, round_options, balancer, chunks,
        [&](std::size_t c, std::size_t wid) {
          ChunkOutput& out = outputs[c];
          if (c < spare.size()) out.block = std::move(spare[c]);
          out.block.reset(k);
          out.producer = static_cast<std::uint32_t>(wid);
          const auto emit = [&](std::span<const VertexId> prefix, VertexId v,
                                VertexId u) {
            out.emitted.insert(out.emitted.end(), prefix.begin(),
                               prefix.end());
            out.emitted.push_back(v);
            out.emitted.push_back(u);
          };
          std::size_t task = chunks[c].first;
          current.for_each(
              chunks[c].first, chunks[c].count, [&](const SublistView& sub) {
                if (!options.record_trace) {
                  out.counters += detail::expand_sublist(sub, emit, out.block,
                                                         scratch[wid]);
                  return;
                }
                util::Timer task_timer;
                out.counters += detail::expand_sublist(sub, emit, out.block,
                                                       scratch[wid]);
                trace.task_work[task] = sub.pair_work();
                trace.task_seconds[task] = task_timer.seconds();
                ++task;
              });
          return std::size_t{0};
        },
        [&](std::size_t c) {
          ChunkOutput& out = outputs[c];
          level.pairs_checked += out.counters.pairs_checked;
          level.edges_present += out.counters.edges_present;
          level.maximal_emitted += out.counters.maximal_emitted;
          stats.total_maximal += out.counters.maximal_emitted;
          emit_flat(mapped, out.emitted, emit_stride);
          next.append(std::move(out.block));
          next_home.resize(next.blocks().size(), out.producer);
          out = ChunkOutput{};
        });
    next.inherit_universes(current);
    spare = current.take_blocks();
    current = std::move(next);
    home = std::move(next_home);
    ++k;

    level.seconds = level_timer.seconds();
    stats.levels.push_back(level);
    add_busy(round.busy_seconds);
    pstats.level_thread_seconds.push_back(round.busy_seconds);
    pstats.total_transfers += round.transfers + round.steals;
    if (options.record_trace) stats.traces.push_back(std::move(trace));
    if (options.progress) options.progress(level);
  }

  stats.total_seconds = total_timer.seconds();
  stats.finalize();
  return pstats;
}

EnumerationStats enumerate_maximal_cliques_threads(const graph::GraphView& g,
                                                   const CliqueCallback& sink,
                                                   const SizeRange& range,
                                                   std::size_t threads) {
  if (threads == 1) {
    CliqueEnumeratorOptions options;
    options.range = range;
    return enumerate_maximal_cliques(g, sink, options);
  }
  ParallelOptions options;
  options.range = range;
  options.threads = threads;
  return enumerate_maximal_cliques_parallel(g, sink, options).base;
}

}  // namespace gsb::core
