#include "pipeline/overlap.h"

#include <algorithm>
#include <functional>
#include <string>
#include <thread>
#include <utility>

#include "core/parallel_enumerator.h"
#include "parallel/thread_pool.h"
#include "util/timer.h"

namespace gsb::pipeline {

namespace {

/// Touches one word per page of the container's CSR sections so the
/// kernel faults them in while the compute stages start on whatever is
/// already resident.  Returns the bytes walked.
std::uint64_t prefetch_container(const storage::MappedGraph& mapped) {
  constexpr std::size_t kPage = 4096;
  std::uint64_t sink = 0;
  std::uint64_t bytes = 0;
  const auto offsets = mapped.csr_offsets();
  for (std::size_t i = 0; i < offsets.size(); i += kPage / sizeof(offsets[0])) {
    sink += offsets[i];
  }
  bytes += offsets.size_bytes();
  const auto targets = mapped.csr_targets();
  for (std::size_t i = 0; i < targets.size(); i += kPage / sizeof(targets[0])) {
    sink += targets[i];
  }
  bytes += targets.size_bytes();
  // The sum is unused; keep the loads observable so they are not elided.
  asm volatile("" : : "r"(sink));
  return bytes;
}

}  // namespace

AnalysisResult run_analysis(const graph::GraphView& g,
                            const AnalysisOptions& options) {
  util::Timer timer;
  AnalysisResult result;
  result.streamed = !options.clique_out.empty();

  // Four stages, at most four runnable at once; the enumeration stage
  // parallelizes internally with its own worker team, so the scheduler
  // pool only needs enough workers to keep the independent stages and
  // the prefetch job concurrent.  Clamped to the hardware unless the
  // caller asked for a thread count explicitly (an explicit request
  // opts into oversubscription, like every other --threads site): with
  // a single core and no request, stage overlap is pure
  // oversubscription, and a one-worker pool takes JobGraph's inline
  // path — identical to staged.
  const std::size_t parallelism =
      options.threads != 0
          ? options.threads
          : std::max<std::size_t>(1, std::thread::hardware_concurrency());
  const std::size_t stage_workers =
      options.overlap ? std::min<std::size_t>(4, parallelism) : 1;
  par::ThreadPool pool(stage_workers);
  par::JobGraph graph(options.overlap && stage_workers > 1 ? &pool : nullptr);

  // Stage jobs carry timeline labels so a --trace-out capture shows the
  // overlap schedule as named lanes (prefetch visible against compute).
  const auto add_stage = [&graph](std::string label,
                                  std::function<void(std::size_t)> body) {
    par::JobGraph::JobSpec spec;
    spec.run = std::move(body);
    spec.label = std::move(label);
    return graph.add(std::move(spec));
  };

  if (options.prefetch != nullptr && options.prefetch->is_open()) {
    const storage::MappedGraph* mapped = options.prefetch;
    add_stage("prefetch", [&result, mapped](std::size_t) {
      result.prefetched_bytes = prefetch_container(*mapped);
    });
  }

  add_stage("maximum-clique", [&result, &g](std::size_t) {
    result.maximum = core::maximum_clique(g);
  });

  const par::JobId enum_job = add_stage(
      "enumeration", [&result, &g, &options](std::size_t) {
    if (!result.streamed) {
      core::CliqueCollector collector;
      result.enumeration = core::enumerate_maximal_cliques_threads(
          g, collector.callback(), options.range, options.threads);
      result.cliques = std::move(collector.cliques());
      result.spectrum = analysis::clique_spectrum(result.cliques);
      return;
    }
    storage::GsbcWriter writer(options.clique_out, g.order());
    result.participation.assign(g.order(), 0);
    std::vector<graph::VertexId> members;
    const core::CliqueCallback sink =
        [&](std::span<const graph::VertexId> clique) {
          for (const graph::VertexId v : clique) ++result.participation[v];
          result.spectrum.add(clique.size());
          members.assign(clique.begin(), clique.end());
          if (options.original_id) {
            for (auto& v : members) v = options.original_id(v);
          }
          writer.append(members);
        };
    result.enumeration = core::enumerate_maximal_cliques_threads(
        g, sink, options.range, options.threads);
    result.stream = writer.close();
    result.spectrum.finalize();
  });

  add_stage("paracliques", [&result, &g, &options](std::size_t) {
    analysis::ParacliqueOptions para;
    para.glom = options.glom;
    result.paracliques =
        analysis::extract_all_paracliques(g, options.min_paraclique, para);
  });

  par::JobGraph::JobSpec hubs;
  hubs.label = "hubs";
  hubs.deps = {enum_job};
  hubs.run = [&result, &g, &options](std::size_t) {
    result.hubs = result.streamed
                      ? analysis::top_hubs(g, result.participation,
                                           options.hub_count)
                      : analysis::top_hubs(g, result.cliques,
                                           options.hub_count);
  };
  graph.add(std::move(hubs));

  graph.run();
  result.sched = graph.stats();
  result.seconds = timer.seconds();
  return result;
}

}  // namespace gsb::pipeline
