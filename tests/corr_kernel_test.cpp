// Tests for the shared blocked correlation kernel: the blocked block
// product must be bit-identical to the scalar profile_dot reference on
// randomized inputs, the sweep drivers must emit the same edge sequence at
// every thread count and block size, the in-memory builder's graph must be
// invariant under --threads, and the tiled builder's .gsbg output must be
// byte-identical across thread counts — for Pearson and Spearman alike.
// The exact integer Spearman sweep must emit the double sweep's edge
// sequence, including for pairs planted exactly at the threshold.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "bio/corr_kernel.h"
#include "bio/correlation.h"
#include "bio/generator.h"
#include "bio/normalize.h"
#include "bio/tiled_correlation.h"
#include "graph/graph.h"
#include "parallel/thread_pool.h"
#include "storage/mapped_graph.h"
#include "util/rng.h"

namespace gsb {
namespace {

namespace fs = std::filesystem;

class TempPath {
 public:
  explicit TempPath(const std::string& stem) {
    static int counter = 0;
    path_ = (fs::temp_directory_path() /
             (stem + "_" + std::to_string(counter++) + ".gsbg"))
                .string();
  }
  ~TempPath() {
    std::error_code ec;
    fs::remove(path_, ec);
  }
  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
};

std::vector<char> read_file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

bio::ExpressionMatrix synthetic_expression(std::size_t genes,
                                           std::size_t samples,
                                           std::uint64_t seed) {
  util::Rng rng(seed);
  bio::MicroarrayConfig config;
  config.genes = genes;
  config.samples = samples;
  config.modules = genes / 40 + 1;
  auto data = bio::generate_microarray(config, rng);
  bio::quantile_normalize(data.expression);
  return std::move(data.expression);
}

using Edge = std::tuple<std::uint32_t, std::uint32_t, double>;

std::vector<Edge> sweep_edges(const bio::StandardizedRows& rows,
                              std::size_t count, double threshold,
                              std::size_t block, par::ThreadPool* pool) {
  bio::CorrSweepOptions options;
  options.block = block;
  options.pool = pool;
  std::vector<Edge> edges;
  bio::correlation_self(rows.rows, count, rows.valid.data(), threshold,
                        options,
                        [&](std::uint32_t u, std::uint32_t v, double corr) {
                          edges.emplace_back(u, v, corr);
                        });
  return edges;
}

TEST(CorrKernel, BlockedBlockMatchesScalarDotBitwise) {
  util::Rng rng(99);
  std::vector<double> out;
  std::vector<double> scratch;
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t a_count = 1 + static_cast<std::size_t>(rng.below(21));
    const std::size_t b_count = 1 + static_cast<std::size_t>(rng.below(27));
    const std::size_t samples = 1 + static_cast<std::size_t>(rng.below(70));
    bio::AlignedRows a(a_count, samples);
    bio::AlignedRows b(b_count, samples);
    EXPECT_EQ(a.stride() % bio::AlignedRows::kAlignDoubles, 0u);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(a.row(0)) %
                  bio::AlignedRows::kAlignment,
              0u);
    for (std::size_t i = 0; i < a_count; ++i) {
      for (std::size_t k = 0; k < samples; ++k) a.row(i)[k] = rng.normal();
    }
    for (std::size_t j = 0; j < b_count; ++j) {
      for (std::size_t k = 0; k < samples; ++k) b.row(j)[k] = rng.normal();
    }
    out.assign(a_count * b_count, 0.0);
    bio::correlation_block(a.row(0), a_count, b.row(0), b_count, samples,
                           a.stride(), b.stride(), out.data(), b_count,
                           scratch);
    for (std::size_t i = 0; i < a_count; ++i) {
      for (std::size_t j = 0; j < b_count; ++j) {
        const double reference =
            bio::profile_dot(a.row(i), b.row(j), samples);
        // Exact equality: the kernel accumulates every pair in the scalar
        // reference order, so not even the last ulp may differ.
        EXPECT_EQ(out[i * b_count + j], reference)
            << "trial " << trial << " pair (" << i << ", " << j << ")";
      }
    }
  }
}

TEST(CorrKernel, SweepSequenceInvariantAcrossThreadsAndBlocks) {
  const auto expression = synthetic_expression(150, 24, 31);
  for (const auto method : {bio::CorrelationMethod::kPearson,
                            bio::CorrelationMethod::kSpearman}) {
    const auto rows = bio::standardize_rows(expression, method);
    const std::size_t n = expression.genes();
    for (const double threshold : {0.5, 0.7, 0.85}) {
      // Scalar reference: plain double loop over the upper triangle.
      std::vector<Edge> reference;
      for (std::size_t i = 0; i < n; ++i) {
        if (rows.valid[i] == 0) continue;
        for (std::size_t j = i + 1; j < n; ++j) {
          if (rows.valid[j] == 0) continue;
          const double corr = bio::profile_dot(
              rows.rows.row(i), rows.rows.row(j), expression.samples());
          if (std::fabs(corr) >= threshold) {
            reference.emplace_back(static_cast<std::uint32_t>(i),
                                   static_cast<std::uint32_t>(j), corr);
          }
        }
      }
      ASSERT_FALSE(reference.empty());

      const auto baseline = sweep_edges(rows, n, threshold, 32, nullptr);
      // Same pairs and bit-identical correlations as the scalar loop
      // (emission order differs: block pairs vs rows).
      auto sorted = baseline;
      std::sort(sorted.begin(), sorted.end());
      auto expected = reference;
      std::sort(expected.begin(), expected.end());
      EXPECT_EQ(sorted, expected);

      for (const std::size_t threads : {2u, 4u, 8u}) {
        par::ThreadPool pool(threads);
        EXPECT_EQ(sweep_edges(rows, n, threshold, 32, &pool), baseline)
            << threads << " threads";
      }
      for (const std::size_t block : {8u, 64u, 1024u}) {
        auto other = sweep_edges(rows, n, threshold, block, nullptr);
        std::sort(other.begin(), other.end());
        EXPECT_EQ(other, expected) << "block " << block;
      }
    }
  }
}

TEST(CorrKernel, InMemoryGraphInvariantAcrossThreadCounts) {
  const auto expression = synthetic_expression(160, 20, 47);
  for (const auto method : {bio::CorrelationMethod::kPearson,
                            bio::CorrelationMethod::kSpearman}) {
    bio::CorrelationGraphOptions options;
    options.method = method;
    options.threshold = 0.6;
    options.threads = 1;
    util::Rng rng(1);
    const auto baseline =
        bio::build_correlation_graph(expression, options, rng);
    EXPECT_GT(baseline.graph.num_edges(), 0u);
    for (const std::size_t threads : {2u, 4u, 8u}) {
      options.threads = threads;
      options.corr_block = 16;  // force many blocks per round
      util::Rng thread_rng(1);
      const auto built =
          bio::build_correlation_graph(expression, options, thread_rng);
      EXPECT_TRUE(built.graph == baseline.graph)
          << threads << " threads, method "
          << (method == bio::CorrelationMethod::kPearson ? "pearson"
                                                         : "spearman");
    }
  }
}

TEST(CorrKernel, TiledGsbgByteIdenticalAcrossThreadCounts) {
  const auto expression = synthetic_expression(200, 24, 53);
  for (const auto method : {bio::CorrelationMethod::kPearson,
                            bio::CorrelationMethod::kSpearman}) {
    bio::TiledCorrelationOptions options;
    options.method = method;
    options.threshold = 0.6;
    options.tile_rows = 48;   // multi-tile sweep with a ragged tail
    options.block_rows = 16;  // multiple blocks per tile pair
    options.threads = 1;
    TempPath baseline_path("corr_threads1");
    bio::build_correlation_gsbg(expression, baseline_path.path(), options);
    const auto baseline_bytes = read_file_bytes(baseline_path.path());
    ASSERT_FALSE(baseline_bytes.empty());

    for (const std::size_t threads : {2u, 4u, 8u}) {
      options.threads = threads;
      TempPath path("corr_threadsN");
      bio::build_correlation_gsbg(expression, path.path(), options);
      EXPECT_EQ(read_file_bytes(path.path()), baseline_bytes)
          << threads << " threads";
    }

    // And the mapped edge set equals the in-memory builder's graph.
    bio::CorrelationGraphOptions in_memory;
    in_memory.method = method;
    in_memory.threshold = 0.6;
    in_memory.threads = 4;
    util::Rng rng(1);
    const auto expected =
        bio::build_correlation_graph(expression, in_memory, rng);
    const auto mapped = storage::MappedGraph::open(baseline_path.path());
    EXPECT_TRUE(mapped.load() == expected.graph);
  }
}

TEST(CorrKernel, CorrelationMatrixThreadedMatchesSequential) {
  // > 2 x kDefaultCorrBlock genes so the threaded branch really runs
  // multiple block-pair tasks (a single task falls back to sequential).
  const auto expression = synthetic_expression(300, 16, 61);
  const auto sequential = bio::correlation_matrix(
      expression, bio::CorrelationMethod::kSpearman, 1);
  const auto threaded = bio::correlation_matrix(
      expression, bio::CorrelationMethod::kSpearman, 4);
  ASSERT_EQ(sequential.size(), threaded.size());
  const auto rows =
      bio::standardize_rows(expression, bio::CorrelationMethod::kSpearman);
  for (std::size_t i = 0; i < sequential.size(); ++i) {
    EXPECT_FLOAT_EQ(sequential.at(i, i), 1.0f);
    for (std::size_t j = 0; j < sequential.size(); ++j) {
      EXPECT_EQ(sequential.at(i, j), threaded.at(i, j));
      if (j > i) {
        const float reference = static_cast<float>(bio::profile_dot(
            rows.rows.row(i), rows.rows.row(j), expression.samples()));
        EXPECT_EQ(sequential.at(i, j), reference);
        EXPECT_EQ(sequential.at(j, i), reference);
      }
    }
  }
}

// -- exact integer Spearman sweep --------------------------------------------

using Pair = std::pair<std::uint32_t, std::uint32_t>;

std::vector<Pair> pairs_of(const std::vector<Edge>& edges) {
  std::vector<Pair> out;
  for (const auto& [u, v, corr] : edges) out.emplace_back(u, v);
  return out;
}

std::vector<Edge> rank_sweep_edges(const bio::StandardizedRows& rows,
                                   double threshold, std::size_t block,
                                   par::ThreadPool* pool,
                                   std::uint64_t* band = nullptr) {
  bio::CorrSweepOptions options;
  options.block = block;
  options.pool = pool;
  std::vector<Edge> edges;
  const std::uint64_t in_band = bio::rank_correlation_self(
      rows, rows.rows.rows(), threshold, options,
      [&](std::uint32_t u, std::uint32_t v, double corr) {
        edges.emplace_back(u, v, corr);
      });
  if (band != nullptr) *band = in_band;
  return edges;
}

TEST(CorrKernel, RankBlockMatchesScalarIntegerDot) {
  util::Rng rng(1290);
  std::vector<std::int32_t> out;
  std::vector<std::int32_t> portable;
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t rows = 1 + static_cast<std::size_t>(rng.below(70));
    const std::size_t samples = 1 + static_cast<std::size_t>(rng.below(90));
    // Arbitrary lanes in ±(S−1), not only rank profiles.
    bio::RankRows ranks(rows, samples);
    ASSERT_EQ(ranks.pairs(), (samples + 1) / 2);
    std::vector<std::int16_t> lanes(2 * ranks.pairs(), 0);
    for (std::size_t g = 0; g < rows; ++g) {
      for (std::size_t k = 0; k < samples; ++k) {
        lanes[k] = static_cast<std::int16_t>(
            static_cast<std::int64_t>(rng.below(2 * samples - 1)) -
            static_cast<std::int64_t>(samples - 1));
      }
      ranks.set_row(g, lanes.data());
    }
    const std::size_t i0 = static_cast<std::size_t>(rng.below(rows));
    const std::size_t j0 = static_cast<std::size_t>(rng.below(rows));
    const std::size_t ci = 1 + static_cast<std::size_t>(rng.below(rows - i0));
    const std::size_t cj = 1 + static_cast<std::size_t>(rng.below(rows - j0));
    out.assign(ci * cj, -1);
    portable.assign(ci * cj, -1);
    bio::rank_block(ranks, i0, ci, j0, cj, out.data(), cj);
    bio::rank_block_portable(ranks, i0, ci, j0, cj, portable.data(), cj);
    for (std::size_t i = 0; i < ci; ++i) {
      for (std::size_t j = 0; j < cj; ++j) {
        std::int64_t dot = 0;
        for (std::size_t k = 0; k < samples; ++k) {
          dot += std::int64_t{ranks.at(i0 + i, k)} * ranks.at(j0 + j, k);
        }
        EXPECT_EQ(out[i * cj + j], dot)
            << "trial " << trial << " pair (" << i0 + i << ", " << j0 + j
            << ")";
        EXPECT_EQ(portable[i * cj + j], dot) << "trial " << trial;
      }
      std::int64_t ss = 0;
      for (std::size_t k = 0; k < samples; ++k) {
        ss += std::int64_t{ranks.at(i0 + i, k)} * ranks.at(i0 + i, k);
      }
      EXPECT_EQ(ranks.ss(i0 + i), ss);
    }
  }
}

TEST(CorrKernel, RankProfilesAreDoubledCentredMidranks) {
  const auto expression = synthetic_expression(40, 13, 3);
  const auto rows =
      bio::standardize_rows(expression, bio::CorrelationMethod::kSpearman);
  ASSERT_FALSE(rows.ranks.empty());
  for (std::size_t g = 0; g < expression.genes(); ++g) {
    const auto ranks = bio::midranks(expression.row(g));
    for (std::size_t k = 0; k < expression.samples(); ++k) {
      EXPECT_EQ(rows.ranks.at(g, k), 2.0 * ranks[k] - 14.0);
    }
  }
  // Pearson and over-long profiles keep the double path only.
  EXPECT_TRUE(
      bio::standardize_rows(expression, bio::CorrelationMethod::kPearson)
          .ranks.empty());
  EXPECT_TRUE(bio::standardize_rows(bio::ExpressionMatrix(3, 1291),
                                    bio::CorrelationMethod::kSpearman)
                  .ranks.empty());
}

TEST(CorrKernel, RankSweepDecidesPairsPlantedAtTheThresholdLikeDouble) {
  const auto expression = synthetic_expression(160, 40, 71);
  const auto rows =
      bio::standardize_rows(expression, bio::CorrelationMethod::kSpearman);
  const std::size_t n = expression.genes();
  const std::size_t samples = expression.samples();
  // Plant the threshold on a strongly and a weakly correlated pair.
  std::vector<double> planted;
  double strongest = 0.0;
  for (std::size_t j = 1; j < n; ++j) {
    strongest = std::max(strongest, std::fabs(bio::profile_dot(
                                        rows.rows.row(0), rows.rows.row(j),
                                        samples)));
  }
  planted.push_back(strongest);
  planted.push_back(std::fabs(
      bio::profile_dot(rows.rows.row(5), rows.rows.row(150), samples)));
  for (const double at : planted) {
    for (const double threshold :
         {at, std::nextafter(at, 2.0), std::nextafter(at, 0.0)}) {
      SCOPED_TRACE("threshold " + std::to_string(threshold));
      const auto expected = sweep_edges(rows, n, threshold, 32, nullptr);
      std::uint64_t band = 0;
      const auto actual = rank_sweep_edges(rows, threshold, 32, nullptr, &band);
      EXPECT_EQ(pairs_of(actual), pairs_of(expected));
      EXPECT_GE(band, 1u) << "the planted pair must be decided in the band";

      bio::CorrelationGraphOptions options;
      options.threshold = threshold;
      util::Rng rng(1);
      const auto built = bio::build_correlation_graph(expression, options, rng);
      graph::Graph reference(n);
      for (const auto& [u, v, corr] : expected) reference.add_edge(u, v);
      EXPECT_TRUE(built.graph == reference);
    }
  }
}

/// \p genes rows of \p samples values with heavy ties (values drawn from
/// five levels), continuous rows, two constant rows, and exact copies and
/// reversals of earlier rows (|ρ| = 1).
bio::ExpressionMatrix tied_expression(std::size_t genes, std::size_t samples,
                                      std::uint64_t seed) {
  util::Rng rng(seed);
  bio::ExpressionMatrix m(genes, samples);
  for (std::size_t g = 0; g < genes; ++g) {
    for (std::size_t k = 0; k < samples; ++k) {
      switch (g % 5) {
        case 0: m.at(g, k) = static_cast<double>(rng.below(5)); break;
        case 1: m.at(g, k) = rng.normal(); break;
        case 2: m.at(g, k) = g >= 5 ? m.at(g - 5, k) : rng.normal(); break;
        case 3: m.at(g, k) = g >= 5 ? -m.at(g - 4, k) : rng.normal(); break;
        default: m.at(g, k) = g == 4 || g == 29 ? 7.0 : rng.normal(); break;
      }
    }
  }
  return m;
}

TEST(CorrKernel, RankSweepMatchesDoubleSweepAcrossShapes) {
  par::ThreadPool pool(4);
  for (const std::size_t samples :
       {2u, 3u, 31u, 32u, 33u, 300u, 1290u, 1291u}) {
    SCOPED_TRACE("samples " + std::to_string(samples));
    const auto expression = tied_expression(70, samples, samples);
    const auto rows =
        bio::standardize_rows(expression, bio::CorrelationMethod::kSpearman);
    ASSERT_EQ(rows.ranks.empty(), samples > bio::kMaxRankSamples);
    const std::size_t n = expression.genes();
    for (const double threshold : {0.0, 0.3, 0.6, 1.0}) {
      SCOPED_TRACE("threshold " + std::to_string(threshold));
      for (const std::size_t block : {32u, 128u}) {
        const auto expected = sweep_edges(rows, n, threshold, block, nullptr);
        if (!rows.ranks.empty()) {
          EXPECT_EQ(pairs_of(rank_sweep_edges(rows, threshold, block, nullptr)),
                    pairs_of(expected))
              << "block " << block;
          EXPECT_EQ(pairs_of(rank_sweep_edges(rows, threshold, block, &pool)),
                    pairs_of(expected))
              << "block " << block << ", 4 threads";
        }
        for (const std::size_t threads : {1u, 4u}) {
          bio::CorrelationGraphOptions options;
          options.threshold = threshold;
          options.threads = threads;
          options.corr_block = block;
          util::Rng rng(1);
          const auto built =
              bio::build_correlation_graph(expression, options, rng);
          graph::Graph reference(n);
          for (const auto& [u, v, corr] : expected) reference.add_edge(u, v);
          EXPECT_TRUE(built.graph == reference)
              << "block " << block << ", " << threads << " threads";
        }
      }
    }
  }
}

}  // namespace
}  // namespace gsb
