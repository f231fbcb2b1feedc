// End-to-end pipeline benchmarks (google-benchmark): staged vs
// overlapped execution of the analysis stages, per ROADMAP ("measure
// end-to-end pipeline wall-clock, not per-stage").  Run via the
// `bench_pipeline_json` target to emit BENCH_pipeline.json, the
// artifact CI uploads and checks for overlapped <= staged.
//
//   * staged: maximum clique -> enumeration -> paraclique -> hubs run
//     strictly in sequence (the pre-scheduler `gsb pipeline` shape);
//   * overlapped: the same stages as a par::JobGraph — independent
//     stages run concurrently, hubs release the moment enumeration
//     finishes, and a prefetch job pages the .gsbg container in behind
//     compute;
//   * both again with the .gsbc spill path, whose stream must stay
//     byte-identical between modes (scheduler_test and the robustness
//     chaos suite assert that; here it is the I/O-heavy variant);
//   * the paraclique stage on its own (residue build, maximum clique and
//     glom per extraction), the one analysis stage that mutates a copy.

#include <benchmark/benchmark.h>

#include <chrono>
#include <filesystem>
#include <string>

#include "analysis/paraclique.h"
#include "bench/overhead_pairs.h"
#include "graph/generators.h"
#include "graph/graph_view.h"
#include "obs/timeline.h"
#include "pipeline/overlap.h"
#include "storage/gsbg_writer.h"
#include "storage/mapped_graph.h"
#include "util/rng.h"

namespace {

namespace fs = std::filesystem;

struct Fixture {
  gsb::graph::Graph graph;
  std::string gsbg_path;
  std::string gsbc_path;

  Fixture() {
    gsb::util::Rng rng(2005);
    gsb::graph::ModuleGraphConfig config;
    config.n = 1800;
    config.num_modules = 200;
    config.max_module_size = 16;
    config.overlap = 0.3;
    graph = gsb::graph::planted_modules(config, rng).graph;
    gsbg_path = (fs::temp_directory_path() / "bench_pipeline.gsbg").string();
    gsbc_path = (fs::temp_directory_path() / "bench_pipeline.gsbc").string();
    gsb::storage::write_gsbg_file(graph, gsbg_path);
  }
  ~Fixture() {
    std::error_code ec;
    fs::remove(gsbg_path, ec);
    fs::remove(gsbc_path, ec);
  }
};

const Fixture& fixture() {
  static Fixture f;
  return f;
}

gsb::pipeline::AnalysisOptions base_options(std::size_t threads,
                                            bool overlap) {
  gsb::pipeline::AnalysisOptions options;
  options.range = gsb::core::SizeRange{4, 0};
  options.threads = threads;
  options.overlap = overlap;
  return options;
}

void run_analysis_bench(benchmark::State& state, bool overlap,
                        bool spill) {
  const gsb::graph::GraphView g(fixture().graph);
  const auto threads = static_cast<std::size_t>(state.range(0));
  std::uint64_t cliques = 0;
  std::uint64_t steals = 0;
  for (auto _ : state) {
    auto options = base_options(threads, overlap);
    if (spill) options.clique_out = fixture().gsbc_path;
    const auto result = gsb::pipeline::run_analysis(g, options);
    cliques = result.enumeration.total_maximal;
    steals += result.sched.jobs_stolen;
    benchmark::DoNotOptimize(result.hubs.data());
  }
  std::error_code ec;
  fs::remove(fixture().gsbc_path, ec);
  state.SetItemsProcessed(static_cast<std::int64_t>(
      cliques * static_cast<std::uint64_t>(state.iterations())));
  state.counters["sched_steals"] = static_cast<double>(steals);
}

void BM_PipelineStaged(benchmark::State& state) {
  run_analysis_bench(state, /*overlap=*/false, /*spill=*/false);
}
BENCHMARK(BM_PipelineStaged)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_PipelineOverlapped(benchmark::State& state) {
  run_analysis_bench(state, /*overlap=*/true, /*spill=*/false);
}
BENCHMARK(BM_PipelineOverlapped)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_PipelineStagedSpill(benchmark::State& state) {
  run_analysis_bench(state, /*overlap=*/false, /*spill=*/true);
}
BENCHMARK(BM_PipelineStagedSpill)
    ->Arg(2)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_PipelineOverlappedSpill(benchmark::State& state) {
  run_analysis_bench(state, /*overlap=*/true, /*spill=*/true);
}
BENCHMARK(BM_PipelineOverlappedSpill)
    ->Arg(2)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// The mapped-container variant exercises the prefetch job: page-in of
// the .gsbg happens behind the compute stages instead of inside them.
void BM_PipelineOverlappedMapped(benchmark::State& state) {
  const auto mapped = gsb::storage::MappedGraph::open(fixture().gsbg_path);
  const gsb::graph::GraphView g = mapped.view();
  std::uint64_t cliques = 0;
  for (auto _ : state) {
    auto options = base_options(static_cast<std::size_t>(state.range(0)),
                                /*overlap=*/true);
    options.prefetch = &mapped;
    const auto result = gsb::pipeline::run_analysis(g, options);
    cliques = result.enumeration.total_maximal;
    benchmark::DoNotOptimize(result.prefetched_bytes);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(
      cliques * static_cast<std::uint64_t>(state.iterations())));
}
BENCHMARK(BM_PipelineOverlappedMapped)
    ->Arg(2)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// The paraclique stage alone, with the pipeline's defaults (glom 1,
// min size 5).
void BM_ExtractAllParacliques(benchmark::State& state) {
  const gsb::graph::GraphView g(fixture().graph);
  const gsb::pipeline::AnalysisOptions defaults;
  gsb::analysis::ParacliqueOptions para;
  para.glom = defaults.glom;
  std::size_t found = 0;
  for (auto _ : state) {
    const auto paras = gsb::analysis::extract_all_paracliques(
        g, defaults.min_paraclique, para);
    found = paras.size();
    benchmark::DoNotOptimize(paras.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(
      found * static_cast<std::size_t>(state.iterations())));
  state.counters["paracliques"] = static_cast<double>(found);
}
BENCHMARK(BM_ExtractAllParacliques)->Unit(benchmark::kMillisecond)->UseRealTime();

// The timeline acceptance number: the same overlapped run with the
// journal off and on (job + queue-wait + steal + stage spans live), one
// alternating pair per iteration (about 100 in the 6 s).  The median
// per-pair overhead lands in `timeline_overhead_pct` and its
// interquartile range in `timeline_overhead_iqr_pct` — the budget is < 3%, mirroring
// `instr_overhead_pct` on the serving side, and the .gsbc stream is
// byte-identical either way (scheduler_test pins that part).
void BM_PipelineTimelineOverhead(benchmark::State& state) {
  const gsb::graph::GraphView g(fixture().graph);
  const auto threads = static_cast<std::size_t>(state.range(0));
  gsb::obs::TimelineJournal& journal = gsb::obs::TimelineJournal::global();
  using Clock = std::chrono::steady_clock;

  gsb::bench::OverheadPairs pairs;
  std::uint64_t cliques = 0;
  for (auto _ : state) {
    pairs.measure([&](bool on) {
      auto options = base_options(threads, /*overlap=*/true);
      journal.reset();
      journal.set_enabled(on);
      const auto start = Clock::now();
      const auto result = gsb::pipeline::run_analysis(g, options);
      const double seconds =
          std::chrono::duration<double>(Clock::now() - start).count();
      journal.set_enabled(false);
      cliques = result.enumeration.total_maximal;
      benchmark::DoNotOptimize(cliques);
      return seconds;
    });
  }
  journal.reset();
  state.SetItemsProcessed(static_cast<std::int64_t>(
      2 * cliques * static_cast<std::uint64_t>(state.iterations())));
  pairs.report(state, "timeline_overhead");
}
BENCHMARK(BM_PipelineTimelineOverhead)
    ->Arg(2)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->MinTime(6.0);

}  // namespace

BENCHMARK_MAIN();
