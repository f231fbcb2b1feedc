#include "core/clique_enumerator.h"

#include <algorithm>

#include "core/detail/mapped_sink.h"
#include "core/detail/sublist_kernel.h"
#include "core/kclique.h"
#include "graph/transforms.h"
#include "util/timer.h"

namespace gsb::core {

using detail::MappedSink;
using graph::VertexId;

EnumerationStats enumerate_maximal_cliques(
    const graph::GraphView& g, const CliqueCallback& sink,
    const CliqueEnumeratorOptions& options) {
  util::Timer total_timer;
  EnumerationStats stats;
  util::MemoryTracker& tracker = options.tracker != nullptr
                                     ? *options.tracker
                                     : util::global_memory_tracker();
  const SizeRange range = options.range;
  const std::size_t lo = std::max<std::size_t>(range.lo, 1);

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
  // Window closing below the first enumerable size: only the size-1 pass
  // above (if any) applies.
  const std::size_t seed_k = std::max<std::size_t>(lo, 2);
  if (range.hi != 0 && range.hi < seed_k) {
    stats.total_seconds = total_timer.seconds();
    stats.finalize();
    return stats;
  }

  // --- degree preprocessing -------------------------------------------------
  // Vertices of a clique of size >= seed_k have >= seed_k - 1 neighbors
  // inside it, so the iterated (seed_k - 1)-core contains every such clique
  // and every witness to (non-)maximality of cliques at or above the seed.
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

  // --- seeding ---------------------------------------------------------------
  // Seed tasks are canonical 2-prefixes (edges) for Init_K >= 3, or root
  // vertices at Init_K = 2; both cover every k-clique exactly once.
  util::Timer seed_timer;
  KCliqueStats seed_stats;
  SeedTrace* seed_trace = options.record_trace ? &stats.seed_trace : nullptr;
  const CliqueCallback seed_sink = [&](std::span<const VertexId> clique) {
    ++stats.total_maximal;
    mapped.emit(clique);
  };
  Level current(&tracker);
  if (seed_k >= 3) {
    const auto pairs = collect_seed_pairs(work);
    current.append(build_seed_level_for_pairs(work, seed_k, pairs, seed_sink,
                                              &seed_stats, seed_trace));
  } else {
    std::vector<VertexId> roots(n);
    for (VertexId v = 0; v < n; ++v) roots[v] = v;
    current.append(build_seed_level_for_roots(work, seed_k, roots, seed_sink,
                                              &seed_stats, seed_trace));
  }
  stats.seed_seconds = seed_timer.seconds();

  // --- level loop -------------------------------------------------------------
  // Each level is retired whole once the next one is built; the next level
  // keeps only the root universes its sub-lists still use, and the one
  // after it is built into the retired level's storage.
  std::vector<Word> scratch;
  std::vector<SublistBlock> spare;
  std::size_t k = seed_k;  // size of candidate cliques in `current`
  while (!current.empty() && range.open_above(k)) {
    util::Timer level_timer;
    LevelStats level;
    level.k = k;
    const LevelCounts counts = count_level(current);
    level.sublists = counts.sublists;
    level.candidates = counts.candidates;
    level.bytes_formula = level_bytes_formula(counts, k, n);
    level.bytes_actual = level_bytes_actual(current);

    LevelTrace trace;
    if (options.record_trace) {
      trace.k = k;
      trace.task_work.reserve(counts.sublists);
      trace.task_seconds.reserve(counts.sublists);
    }

    SublistBlock out;
    if (!spare.empty()) out = std::move(spare.back());
    out.reset(k);
    detail::KernelCounters counters;
    const auto emit = [&](std::span<const VertexId> prefix, VertexId v,
                          VertexId u) { mapped.emit_parts(prefix, v, u); };
    current.for_each([&](const SublistView& sub) {
      if (!options.record_trace) {
        counters += detail::expand_sublist(sub, emit, out, scratch);
        return;
      }
      util::Timer task_timer;
      counters += detail::expand_sublist(sub, emit, out, scratch);
      trace.task_work.push_back(sub.pair_work());
      trace.task_seconds.push_back(task_timer.seconds());
    });
    level.pairs_checked = counters.pairs_checked;
    level.edges_present = counters.edges_present;
    level.maximal_emitted = counters.maximal_emitted;
    stats.total_maximal += counters.maximal_emitted;

    Level next(&tracker);
    next.append(std::move(out));
    next.inherit_universes(current);
    spare = current.take_blocks();
    current = std::move(next);
    ++k;

    level.seconds = level_timer.seconds();
    stats.levels.push_back(level);
    if (options.record_trace) stats.traces.push_back(std::move(trace));
    if (options.progress) options.progress(level);
  }

  stats.total_seconds = total_timer.seconds();
  stats.finalize();
  return stats;
}

}  // namespace gsb::core
