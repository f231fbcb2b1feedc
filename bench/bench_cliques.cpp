// Clique-engine benchmarks (google-benchmark): the perf trajectory of the
// Bron–Kerbosch rebuild.  Run via the `bench_cliques_json` target (or
// directly with --benchmark_out) to emit BENCH_cliques.json, the artifact
// CI uploads alongside the storage and correlation trajectories:
//
//   * sequential improved BK (§2.2 version 2 — the pre-rebuild speed
//     baseline this PR's acceptance criterion measures against);
//   * sequential degeneracy-ordered BK with max-candidate pivoting;
//   * the same, directly off a memory-mapped .gsbg (storage-aware path);
//   * the chunked parallel driver at 1/2/4/8 threads;
//   * parallel BK spilling into a .gsbc clique stream: from the in-memory
//     graph through a per-clique GsbcWriter::append callback, and from
//     the mapped .gsbg through storage::GsbcStage, the path `gsb cliques
//     --clique-out` takes (records encoded on the workers, whole ranges
//     spliced in order) — the shape of perfbench's dense-cliques
//     workload.  Both report `drain_seconds`, the wall time of the
//     ordered commits, so the serial share of the run is visible.
//
// Every variant reports cliques/s (items) on the same planted-module
// graph — a dense overlapping-clique workload where pivot quality and
// load balance both matter — so degeneracy-vs-improved and thread-scaling
// speedups read directly off the JSON.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <filesystem>
#include <string>

#include "core/bron_kerbosch.h"
#include "core/clique.h"
#include "core/parallel_bk.h"
#include "graph/generators.h"
#include "graph/graph_view.h"
#include "storage/clique_stream.h"
#include "storage/gsbc_stage.h"
#include "storage/gsbg_writer.h"
#include "storage/mapped_graph.h"
#include "util/rng.h"

namespace {

namespace fs = std::filesystem;
using gsb::core::CliqueCounter;

struct Fixture {
  gsb::graph::Graph graph;
  std::string gsbg_path;
  std::string gsbc_path;

  Fixture() {
    gsb::util::Rng rng(2005);
    gsb::graph::ModuleGraphConfig config;
    config.n = 3000;
    config.num_modules = 340;
    config.max_module_size = 18;
    config.overlap = 0.35;
    graph = gsb::graph::planted_modules(config, rng).graph;
    gsbg_path = (fs::temp_directory_path() / "bench_cliques.gsbg").string();
    gsbc_path = (fs::temp_directory_path() / "bench_cliques.gsbc").string();
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

void BM_ImprovedBkSequential(benchmark::State& state) {
  const gsb::graph::GraphView g(fixture().graph);
  std::uint64_t cliques = 0;
  for (auto _ : state) {
    CliqueCounter counter;
    gsb::core::improved_bk(g, counter.callback());
    cliques = counter.total();
    benchmark::DoNotOptimize(cliques);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(
      cliques * static_cast<std::uint64_t>(state.iterations())));
}
BENCHMARK(BM_ImprovedBkSequential)->Unit(benchmark::kMillisecond);

void BM_DegeneracyBkSequential(benchmark::State& state) {
  const gsb::graph::GraphView g(fixture().graph);
  std::uint64_t cliques = 0;
  for (auto _ : state) {
    CliqueCounter counter;
    gsb::core::degeneracy_bk(g, counter.callback());
    cliques = counter.total();
    benchmark::DoNotOptimize(cliques);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(
      cliques * static_cast<std::uint64_t>(state.iterations())));
}
BENCHMARK(BM_DegeneracyBkSequential)->Unit(benchmark::kMillisecond);

void BM_DegeneracyBkMapped(benchmark::State& state) {
  const auto mapped = gsb::storage::MappedGraph::open(fixture().gsbg_path);
  const gsb::graph::GraphView g = mapped.view();
  std::uint64_t cliques = 0;
  for (auto _ : state) {
    CliqueCounter counter;
    gsb::core::degeneracy_bk(g, counter.callback());
    cliques = counter.total();
    benchmark::DoNotOptimize(cliques);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(
      cliques * static_cast<std::uint64_t>(state.iterations())));
}
BENCHMARK(BM_DegeneracyBkMapped)->Unit(benchmark::kMillisecond);

void BM_ParallelBk(benchmark::State& state) {
  const gsb::graph::GraphView g(fixture().graph);
  gsb::core::ParallelBkOptions options;
  options.threads = static_cast<std::size_t>(state.range(0));
  std::uint64_t cliques = 0;
  for (auto _ : state) {
    CliqueCounter counter;
    const auto stats = gsb::core::parallel_bk(g, counter.callback(), options);
    cliques = counter.total();
    benchmark::DoNotOptimize(stats.steals);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(
      cliques * static_cast<std::uint64_t>(state.iterations())));
}
BENCHMARK(BM_ParallelBk)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_ParallelBkToGsbcStream(benchmark::State& state) {
  const gsb::graph::GraphView g(fixture().graph);
  gsb::core::ParallelBkOptions options;
  options.threads = static_cast<std::size_t>(state.range(0));
  std::uint64_t cliques = 0;
  double drain_seconds = 0.0;
  for (auto _ : state) {
    gsb::storage::GsbcWriter writer(fixture().gsbc_path, g.order());
    const auto stats = gsb::core::parallel_bk(
        g,
        [&writer](std::span<const gsb::graph::VertexId> clique) {
          writer.append(clique);
        },
        options);
    drain_seconds += stats.drain_seconds;
    cliques = writer.clique_count();
    writer.close();
    benchmark::DoNotOptimize(cliques);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(
      cliques * static_cast<std::uint64_t>(state.iterations())));
  state.counters["drain_seconds"] =
      benchmark::Counter(drain_seconds, benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_ParallelBkToGsbcStream)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_ParallelBkMappedStream(benchmark::State& state) {
  const auto mapped = gsb::storage::MappedGraph::open(fixture().gsbg_path);
  const gsb::graph::GraphView g = mapped.view();
  gsb::core::ParallelBkOptions options;
  options.threads = static_cast<std::size_t>(state.range(0));
  std::uint64_t cliques = 0;
  double drain_seconds = 0.0;
  for (auto _ : state) {
    gsb::storage::GsbcWriter writer(fixture().gsbc_path, g.order());
    gsb::storage::GsbcStage stage(writer, mapped.permutation());
    drain_seconds += gsb::core::parallel_bk(g, stage, options).drain_seconds;
    cliques = writer.clique_count();
    writer.close();
    benchmark::DoNotOptimize(cliques);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(
      cliques * static_cast<std::uint64_t>(state.iterations())));
  state.counters["drain_seconds"] =
      benchmark::Counter(drain_seconds, benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_ParallelBkMappedStream)
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
