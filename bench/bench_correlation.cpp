// Correlation-engine benchmarks (google-benchmark): the perf trajectory of
// the pipeline's dominant cost, the all-pairs gene correlation sweep.  Run
// via the `bench_correlation_json` target (or directly with
// --benchmark_out) to emit BENCH_correlation.json, the artifact CI uploads
// alongside BENCH_storage.json:
//
//   * scalar all-pairs sweep (profile_dot row loops — the pre-kernel
//     baseline, kept as the reference);
//   * blocked all-pairs sweep at 1/2/4/8 threads (the shared
//     register-tiled kernel both builders call);
//   * the exact integer Spearman sweep (pmaddwd rank kernel) at 1 and 4
//     threads, including the pipeline's 8000 x 300 shape;
//   * quantile normalization and Spearman standardization (midranks plus
//     the int16 rank profiles) of the pipeline's 8000 x 300 matrix at 1
//     and 4 threads;
//   * the full in-memory graph build (standardize + sweep + bitmap graph);
//   * the tiled out-of-core .gsbg build at 1/2/4/8 threads (kernel plus
//     scratch/spill I/O).
//
// Every variant reports pairs/s (items) on the same synthetic matrices, so
// blocked-vs-scalar speedup and thread scaling read directly off the JSON.

#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "bio/corr_kernel.h"
#include "bio/correlation.h"
#include "bio/generator.h"
#include "bio/normalize.h"
#include "bio/tiled_correlation.h"
#include "parallel/thread_pool.h"
#include "util/rng.h"

namespace {

namespace fs = std::filesystem;

constexpr double kThreshold = 0.85;

struct Fixture {
  gsb::bio::ExpressionMatrix raw;         // as generated, before normalizing
  gsb::bio::ExpressionMatrix expression;  // quantile-normalized
  gsb::bio::StandardizedRows rows;  // Spearman-standardized once, not timed
};

const Fixture& fixture(std::size_t genes, std::size_t samples) {
  static std::map<std::pair<std::size_t, std::size_t>,
                  std::unique_ptr<Fixture>>
      cache;
  auto& slot = cache[{genes, samples}];
  if (!slot) {
    slot = std::make_unique<Fixture>();
    gsb::util::Rng rng(2005);
    gsb::bio::MicroarrayConfig config;
    config.genes = genes;
    config.samples = samples;
    config.modules = genes / 40 + 1;
    auto data = gsb::bio::generate_microarray(config, rng);
    slot->raw = data.expression;
    gsb::bio::quantile_normalize(data.expression);
    slot->expression = std::move(data.expression);
    slot->rows = gsb::bio::standardize_rows(
        slot->expression, gsb::bio::CorrelationMethod::kSpearman);
  }
  return *slot;
}

double pairs_of(std::size_t genes) {
  return static_cast<double>(genes) * static_cast<double>(genes - 1) / 2.0;
}

/// The pre-kernel baseline: scalar profile_dot over the upper triangle.
void BM_AllPairsScalar(benchmark::State& state) {
  const auto genes = static_cast<std::size_t>(state.range(0));
  const auto samples = static_cast<std::size_t>(state.range(1));
  const Fixture& f = fixture(genes, samples);
  std::uint64_t edges = 0;
  for (auto _ : state) {
    edges = 0;
    for (std::size_t i = 0; i < genes; ++i) {
      if (f.rows.valid[i] == 0) continue;
      const double* row_i = f.rows.rows.row(i);
      for (std::size_t j = i + 1; j < genes; ++j) {
        if (f.rows.valid[j] == 0) continue;
        const double corr =
            gsb::bio::profile_dot(row_i, f.rows.rows.row(j), samples);
        edges += std::fabs(corr) >= kThreshold;
      }
    }
    benchmark::DoNotOptimize(edges);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(
      static_cast<double>(state.iterations()) * pairs_of(genes)));
  state.counters["edges"] = static_cast<double>(edges);
}
BENCHMARK(BM_AllPairsScalar)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->Args({512, 64})
    ->Args({2048, 64});

/// The shared blocked kernel, threads in arg 2 (1 = no pool).
void BM_AllPairsBlocked(benchmark::State& state) {
  const auto genes = static_cast<std::size_t>(state.range(0));
  const auto samples = static_cast<std::size_t>(state.range(1));
  const auto threads = static_cast<std::size_t>(state.range(2));
  const Fixture& f = fixture(genes, samples);
  std::optional<gsb::par::ThreadPool> pool;
  if (threads > 1) pool.emplace(threads);
  gsb::bio::CorrSweepOptions options;
  options.pool = pool ? &*pool : nullptr;
  std::uint64_t edges = 0;
  for (auto _ : state) {
    edges = 0;
    gsb::bio::correlation_self(
        f.rows.rows, genes, f.rows.valid.data(), kThreshold, options,
        [&](std::uint32_t, std::uint32_t, double) { ++edges; });
    benchmark::DoNotOptimize(edges);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(
      static_cast<double>(state.iterations()) * pairs_of(genes)));
  state.counters["edges"] = static_cast<double>(edges);
}
BENCHMARK(BM_AllPairsBlocked)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->Args({512, 64, 1})
    ->Args({2048, 64, 1})
    ->Args({2048, 64, 2})
    ->Args({2048, 64, 4})
    ->Args({2048, 64, 8})
    ->Args({8000, 300, 4});

/// The exact integer Spearman sweep over the same rows, threads in arg 2.
void BM_AllPairsRankInt(benchmark::State& state) {
  const auto genes = static_cast<std::size_t>(state.range(0));
  const auto samples = static_cast<std::size_t>(state.range(1));
  const auto threads = static_cast<std::size_t>(state.range(2));
  const Fixture& f = fixture(genes, samples);
  std::optional<gsb::par::ThreadPool> pool;
  if (threads > 1) pool.emplace(threads);
  gsb::bio::CorrSweepOptions options;
  options.pool = pool ? &*pool : nullptr;
  std::uint64_t edges = 0;
  for (auto _ : state) {
    edges = 0;
    gsb::bio::rank_correlation_self(
        f.rows, genes, kThreshold, options,
        [&](std::uint32_t, std::uint32_t, double) { ++edges; });
    benchmark::DoNotOptimize(edges);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(
      static_cast<double>(state.iterations()) * pairs_of(genes)));
  state.counters["edges"] = static_cast<double>(edges);
}
BENCHMARK(BM_AllPairsRankInt)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->Args({2048, 64, 1})
    ->Args({2048, 64, 4})
    ->Args({8000, 300, 1})
    ->Args({8000, 300, 4});

/// Quantile normalization of the pipeline's 8000 x 300 matrix, threads in
/// arg 0 (the copy of the raw matrix is not timed).
void BM_QuantileNormalize(benchmark::State& state) {
  const auto threads = static_cast<std::size_t>(state.range(0));
  const Fixture& f = fixture(8000, 300);
  gsb::bio::ExpressionMatrix matrix;
  for (auto _ : state) {
    state.PauseTiming();
    matrix = f.raw;
    state.ResumeTiming();
    gsb::bio::quantile_normalize(matrix, threads);
    benchmark::DoNotOptimize(matrix.at(0, 0));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(
      state.iterations() * f.raw.genes() * f.raw.samples()));
}
BENCHMARK(BM_QuantileNormalize)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->Arg(1)
    ->Arg(4);

/// Spearman standardization of the pipeline's 8000 x 300 matrix (midranks,
/// double profiles and int16 rank profiles), threads in arg 0.
void BM_StandardizeRows(benchmark::State& state) {
  const auto threads = static_cast<std::size_t>(state.range(0));
  const Fixture& f = fixture(8000, 300);
  std::optional<gsb::par::ThreadPool> pool;
  if (threads > 1) pool.emplace(threads);
  for (auto _ : state) {
    const auto rows = gsb::bio::standardize_rows(
        f.expression, gsb::bio::CorrelationMethod::kSpearman,
        pool ? &*pool : nullptr);
    benchmark::DoNotOptimize(rows.valid.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(
      state.iterations() * f.expression.genes() * f.expression.samples()));
}
BENCHMARK(BM_StandardizeRows)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->Arg(1)
    ->Arg(4);

/// Full in-memory build: standardization + sweep (the integer one, since
/// the fixture is Spearman) + bitmap graph.
void BM_InMemoryGraphBuild(benchmark::State& state) {
  const auto genes = static_cast<std::size_t>(state.range(0));
  const auto samples = static_cast<std::size_t>(state.range(1));
  const auto threads = static_cast<std::size_t>(state.range(2));
  const Fixture& f = fixture(genes, samples);
  gsb::bio::CorrelationGraphOptions options;
  options.method = gsb::bio::CorrelationMethod::kSpearman;
  options.threshold = kThreshold;
  options.threads = threads;
  for (auto _ : state) {
    gsb::util::Rng rng(1);
    const auto result =
        gsb::bio::build_correlation_graph(f.expression, options, rng);
    benchmark::DoNotOptimize(result.graph.num_edges());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(
      static_cast<double>(state.iterations()) * pairs_of(genes)));
}
BENCHMARK(BM_InMemoryGraphBuild)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->Args({2048, 64, 1})
    ->Args({2048, 64, 4});

/// Tiled out-of-core build: blocked kernel + scratch/spill/container I/O.
void BM_TiledGsbgBuild(benchmark::State& state) {
  const auto genes = static_cast<std::size_t>(state.range(0));
  const auto samples = static_cast<std::size_t>(state.range(1));
  const auto threads = static_cast<std::size_t>(state.range(2));
  const Fixture& f = fixture(genes, samples);
  const std::string out =
      (fs::temp_directory_path() / "bench_correlation.gsbg").string();
  gsb::bio::TiledCorrelationOptions options;
  options.method = gsb::bio::CorrelationMethod::kSpearman;
  options.threshold = kThreshold;
  options.tile_rows = 512;
  options.threads = threads;
  std::uint64_t edges = 0;
  for (auto _ : state) {
    const auto result =
        gsb::bio::build_correlation_gsbg(f.expression, out, options);
    edges = result.edges;
    benchmark::DoNotOptimize(edges);
  }
  std::error_code ec;
  fs::remove(out, ec);
  state.SetItemsProcessed(static_cast<std::int64_t>(
      static_cast<double>(state.iterations()) * pairs_of(genes)));
  state.counters["edges"] = static_cast<double>(edges);
}
BENCHMARK(BM_TiledGsbgBuild)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->Args({2048, 64, 1})
    ->Args({2048, 64, 2})
    ->Args({2048, 64, 4})
    ->Args({2048, 64, 8});

}  // namespace

BENCHMARK_MAIN();
