// Tests for the microarray substrate: synthesis, normalization, rank
// correlation and thresholded graph construction.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <numeric>
#include <vector>

#include "bio/correlation.h"
#include "bio/expression.h"
#include "bio/generator.h"
#include "bio/normalize.h"
#include "bio/presets.h"
#include "bio/radix_order.h"
#include "util/rng.h"

namespace gsb::bio {
namespace {

TEST(Expression, BasicAccess) {
  ExpressionMatrix m(3, 4);
  EXPECT_EQ(m.genes(), 3u);
  EXPECT_EQ(m.samples(), 4u);
  m.at(1, 2) = 5.5;
  EXPECT_DOUBLE_EQ(m.at(1, 2), 5.5);
  EXPECT_DOUBLE_EQ(m.row(1)[2], 5.5);
  EXPECT_EQ(m.name_of(0), "gene0");
  m.set_names({"a", "b", "c"});
  EXPECT_EQ(m.name_of(2), "c");
}

TEST(Midranks, HandlesTies) {
  const std::vector<double> values{3.0, 1.0, 3.0, 2.0};
  const auto ranks = midranks(values);
  EXPECT_DOUBLE_EQ(ranks[1], 1.0);
  EXPECT_DOUBLE_EQ(ranks[3], 2.0);
  EXPECT_DOUBLE_EQ(ranks[0], 3.5);
  EXPECT_DOUBLE_EQ(ranks[2], 3.5);
}

/// The brute-force midrank: values below, plus the middle of the values
/// equal to this one (itself included), under < and ==.
std::vector<double> brute_force_midranks(const std::vector<double>& values) {
  std::vector<double> ranks;
  for (const double v : values) {
    std::size_t less = 0;
    std::size_t equal = 0;
    for (const double w : values) {
      less += w < v ? 1 : 0;
      equal += w == v ? 1 : 0;
    }
    ranks.push_back(static_cast<double>(less) +
                    static_cast<double>(equal + 1) / 2.0);
  }
  return ranks;
}

TEST(Midranks, MatchBruteForce) {
  util::Rng rng(1291);
  const double signed_zeros[] = {-0.0, 0.0, -1.0, 1.0};
  for (const std::size_t s : {1u, 2u, 3u, 300u, 1291u}) {
    std::vector<double> ties;  // small integers, heavily tied
    std::vector<double> constant(s, 7.5);
    std::vector<double> zeros;  // -0.0 and +0.0 tie, among +-1
    for (std::size_t k = 0; k < s; ++k) {
      ties.push_back(std::round(rng.normal(0.0, 2.0)));
      zeros.push_back(signed_zeros[rng.below(4)]);
    }
    for (const auto& values : {ties, constant, zeros}) {
      const std::vector<double> expected = brute_force_midranks(values);
      const std::vector<double> actual = midranks(values);
      ASSERT_EQ(actual.size(), s);
      for (std::size_t k = 0; k < s; ++k) {
        ASSERT_EQ(actual[k], expected[k]) << "S=" << s << " k=" << k;
      }
    }
  }
}

TEST(RadixOrder, MatchesStableSort) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kMin = std::numeric_limits<double>::denorm_min();
  const double specials[] = {-0.0, 0.0, kInf, -kInf, kMin, -kMin,
                             std::numeric_limits<double>::min() / 3.0,
                             -std::numeric_limits<double>::min() / 5.0,
                             std::numeric_limits<double>::max(),
                             std::numeric_limits<double>::lowest(),
                             1.0, -1.0, 0.5, -2.0};
  util::Rng rng(256);
  RadixScratch scratch;
  std::vector<std::uint32_t> actual;
  for (const std::size_t n : {0u, 1u, 255u, 256u, 257u, 8000u}) {
    std::vector<double> random;
    std::vector<double> mixed;
    for (std::size_t i = 0; i < n; ++i) {
      random.push_back(rng.normal(0.0, 1.0) *
                       std::ldexp(1.0, static_cast<int>(rng.below(40)) - 20));
      mixed.push_back(specials[rng.below(std::size(specials))]);
    }
    std::vector<double> sorted = random;
    std::sort(sorted.begin(), sorted.end());
    const std::vector<double> reversed(sorted.rbegin(), sorted.rend());
    const std::vector<double> equal(n, -3.25);
    for (const auto& values : {random, equal, sorted, reversed, mixed}) {
      std::vector<std::uint32_t> expected(n);
      std::iota(expected.begin(), expected.end(), 0u);
      std::stable_sort(expected.begin(), expected.end(),
                       [&](std::uint32_t a, std::uint32_t b) {
                         return values[a] < values[b];
                       });
      radix_order(values, actual, scratch);
      ASSERT_EQ(actual, expected) << "n=" << n;
    }
  }
}

TEST(Correlation, PearsonKnownValues) {
  const std::vector<double> x{1, 2, 3, 4};
  const std::vector<double> y{2, 4, 6, 8};
  EXPECT_NEAR(pearson(x, y), 1.0, 1e-12);
  const std::vector<double> neg{8, 6, 4, 2};
  EXPECT_NEAR(pearson(x, neg), -1.0, 1e-12);
  const std::vector<double> constant{5, 5, 5, 5};
  EXPECT_DOUBLE_EQ(pearson(x, constant), 0.0);
}

TEST(Correlation, SpearmanMonotoneInvariance) {
  util::Rng rng(3);
  std::vector<double> x(50);
  std::vector<double> y(50);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = rng.normal();
    y[i] = 0.8 * x[i] + 0.2 * rng.normal();
  }
  const double rho = spearman(x, y);
  // Monotone transform of x leaves Spearman unchanged.
  std::vector<double> ex(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) ex[i] = std::exp(x[i]);
  EXPECT_NEAR(spearman(ex, y), rho, 1e-9);
  // Pearson, by contrast, moves.
  EXPECT_GT(std::fabs(pearson(ex, y) - pearson(x, y)), 1e-3);
}

TEST(Correlation, MatrixSymmetricUnitDiagonal) {
  util::Rng rng(5);
  MicroarrayConfig config;
  config.genes = 30;
  config.samples = 20;
  config.modules = 3;
  const auto data = generate_microarray(config, rng);
  const auto matrix =
      correlation_matrix(data.expression, CorrelationMethod::kSpearman);
  ASSERT_EQ(matrix.size(), 30u);
  for (std::size_t i = 0; i < matrix.size(); ++i) {
    EXPECT_FLOAT_EQ(matrix.at(i, i), 1.0f);
    for (std::size_t j = 0; j < matrix.size(); ++j) {
      EXPECT_FLOAT_EQ(matrix.at(i, j), matrix.at(j, i));
      EXPECT_LE(std::fabs(matrix.at(i, j)), 1.0f + 1e-5f);
    }
  }
}

TEST(Normalize, ZscoreRows) {
  util::Rng rng(7);
  ExpressionMatrix m(5, 30);
  for (std::size_t g = 0; g < 5; ++g) {
    for (std::size_t s = 0; s < 30; ++s) {
      m.at(g, s) = rng.normal(10.0 * static_cast<double>(g), 3.0);
    }
  }
  zscore_rows(m);
  for (std::size_t g = 0; g < 5; ++g) {
    const auto row = m.row(g);
    const double mean =
        std::accumulate(row.begin(), row.end(), 0.0) / 30.0;
    double ss = 0;
    for (double v : row) ss += (v - mean) * (v - mean);
    EXPECT_NEAR(mean, 0.0, 1e-9);
    EXPECT_NEAR(std::sqrt(ss / 29.0), 1.0, 1e-9);
  }
}

TEST(Normalize, ZscoreConstantRowBecomesZero) {
  ExpressionMatrix m(1, 4);
  for (std::size_t s = 0; s < 4; ++s) m.at(0, s) = 7.0;
  zscore_rows(m);
  for (double v : m.row(0)) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(Normalize, QuantileMakesSampleDistributionsEqual) {
  util::Rng rng(9);
  ExpressionMatrix m(40, 6);
  for (std::size_t g = 0; g < 40; ++g) {
    for (std::size_t s = 0; s < 6; ++s) {
      m.at(g, s) = rng.normal(static_cast<double>(s), 1.0 + s);
    }
  }
  quantile_normalize(m);
  // After normalization every column has the same sorted values.
  std::vector<double> reference;
  for (std::size_t g = 0; g < 40; ++g) reference.push_back(m.at(g, 0));
  std::sort(reference.begin(), reference.end());
  for (std::size_t s = 1; s < 6; ++s) {
    std::vector<double> column;
    for (std::size_t g = 0; g < 40; ++g) column.push_back(m.at(g, s));
    std::sort(column.begin(), column.end());
    for (std::size_t g = 0; g < 40; ++g) {
      EXPECT_NEAR(column[g], reference[g], 1e-9);
    }
  }
}

/// The sample-at-a-time serial quantile normalization the parallel one
/// replaced, kept as the reference: strided column sorts, and the rank-r
/// reference value summed over samples in ascending order.
void serial_quantile_normalize(ExpressionMatrix& matrix) {
  const std::size_t genes = matrix.genes();
  const std::size_t samples = matrix.samples();
  std::vector<std::vector<std::uint32_t>> order(
      samples, std::vector<std::uint32_t>(genes));
  for (std::size_t s = 0; s < samples; ++s) {
    auto& idx = order[s];
    std::iota(idx.begin(), idx.end(), 0u);
    std::stable_sort(idx.begin(), idx.end(),
                     [&](std::uint32_t a, std::uint32_t b) {
                       return matrix.at(a, s) < matrix.at(b, s);
                     });
  }
  std::vector<double> reference(genes, 0.0);
  for (std::size_t s = 0; s < samples; ++s) {
    for (std::size_t r = 0; r < genes; ++r) {
      reference[r] += matrix.at(order[s][r], s);
    }
  }
  for (double& v : reference) v /= static_cast<double>(samples);
  for (std::size_t s = 0; s < samples; ++s) {
    for (std::size_t r = 0; r < genes; ++r) {
      matrix.at(order[s][r], s) = reference[r];
    }
  }
}

TEST(Normalize, ParallelMatchesSerialWithTies) {
  // Quantized values tie heavily within every column, and column 3 is
  // one value throughout, so the placement of tied genes decides which
  // reference value each gets: tied genes rank in gene-index order (the
  // stable sort of the reference), at every thread count, and ties are
  // not averaged.
  util::Rng rng(2005);
  ExpressionMatrix input(300, 17);
  for (std::size_t g = 0; g < input.genes(); ++g) {
    for (std::size_t s = 0; s < input.samples(); ++s) {
      input.at(g, s) =
          s == 3 ? 4.25 : std::round(rng.normal(0.0, 2.0) * 2.0) / 2.0;
    }
  }
  ExpressionMatrix expected = input;
  serial_quantile_normalize(expected);
  std::vector<double> column3;
  for (std::size_t g = 0; g < expected.genes(); ++g) {
    column3.push_back(expected.at(g, 3));
  }
  std::sort(column3.begin(), column3.end());
  EXPECT_NE(column3.front(), column3.back())
      << "tied genes take consecutive reference values, not their mean";
  for (const std::size_t threads : {1u, 2u, 4u}) {
    ExpressionMatrix actual = input;
    quantile_normalize(actual, threads);
    EXPECT_EQ(std::memcmp(actual.row(0).data(), expected.row(0).data(),
                          input.genes() * input.samples() * sizeof(double)),
              0)
        << threads << " threads";
  }
}

TEST(Normalize, TiedGenesTakeReferenceValuesInGeneOrder) {
  // Sample 0 ties genes 0 and 1, sample 2 ties them as +0.0 and -0.0.
  // Genes in rank order: (2, 0, 1), (0, 2, 1), (0, 1, 2); the rank sums are
  // 0+3+0, 1+5-0 and 1+6+2, so the reference is (1, 2, 3).
  ExpressionMatrix input(3, 3);
  const double cells[3][3] = {{1.0, 3.0, 0.0}, {1.0, 6.0, -0.0},
                              {0.0, 5.0, 2.0}};
  for (std::size_t g = 0; g < 3; ++g) {
    for (std::size_t s = 0; s < 3; ++s) input.at(g, s) = cells[g][s];
  }
  const double expected[3][3] = {{2.0, 1.0, 1.0}, {3.0, 3.0, 2.0},
                                 {1.0, 2.0, 3.0}};
  for (const std::size_t threads : {1u, 2u}) {
    ExpressionMatrix actual = input;
    quantile_normalize(actual, threads);
    for (std::size_t g = 0; g < 3; ++g) {
      for (std::size_t s = 0; s < 3; ++s) {
        EXPECT_EQ(actual.at(g, s), expected[g][s])
            << "gene " << g << " sample " << s << ", " << threads
            << " threads";
      }
    }
  }
}

TEST(Normalize, Log2TransformPositive) {
  ExpressionMatrix m(1, 3);
  m.at(0, 0) = -5.0;
  m.at(0, 1) = 0.0;
  m.at(0, 2) = 3.0;
  log2_transform(m);
  EXPECT_DOUBLE_EQ(m.at(0, 0), 0.0);
  EXPECT_NEAR(m.at(0, 1), std::log2(6.0), 1e-12);
  EXPECT_NEAR(m.at(0, 2), std::log2(9.0), 1e-12);
}

TEST(Generator, ShapesAndGroundTruth) {
  util::Rng rng(11);
  MicroarrayConfig config;
  config.genes = 100;
  config.samples = 25;
  config.modules = 6;
  config.min_module_size = 4;
  config.max_module_size = 12;
  const auto data = generate_microarray(config, rng);
  EXPECT_EQ(data.expression.genes(), 100u);
  EXPECT_EQ(data.expression.samples(), 25u);
  ASSERT_EQ(data.modules.size(), 6u);
  EXPECT_EQ(data.modules[0].size(), 12u);
  for (const auto& module : data.modules) {
    EXPECT_GE(module.size(), 4u);
    EXPECT_LE(module.size(), 12u);
  }
  EXPECT_EQ(data.expression.name_of(3), "probe_3");
}

TEST(Generator, WithinModuleCorrelationIsHigh) {
  util::Rng rng(13);
  MicroarrayConfig config;
  config.genes = 60;
  config.samples = 60;
  config.modules = 2;
  config.min_module_size = 10;
  config.max_module_size = 10;
  config.overlap = 0.0;
  config.within_module_corr = 0.9;
  const auto data = generate_microarray(config, rng);
  const auto& module = data.modules[0];
  double total = 0;
  int pairs = 0;
  for (std::size_t i = 0; i < module.size(); ++i) {
    for (std::size_t j = i + 1; j < module.size(); ++j) {
      total += pearson(data.expression.row(module[i]),
                       data.expression.row(module[j]));
      ++pairs;
    }
  }
  EXPECT_GT(total / pairs, 0.7);
}

TEST(CorrelationGraph, RecoversModules) {
  util::Rng rng(17);
  MicroarrayConfig config;
  config.genes = 120;
  config.samples = 80;
  config.modules = 3;
  config.min_module_size = 8;
  config.max_module_size = 8;
  config.overlap = 0.0;
  config.within_module_corr = 0.95;
  const auto data = generate_microarray(config, rng);

  CorrelationGraphOptions options;
  options.method = CorrelationMethod::kSpearman;
  options.threshold = 0.7;
  const auto result = build_correlation_graph(data.expression, options, rng);
  // Within-module edges should dominate: check module 0 forms a near-clique.
  const auto& module = data.modules[0];
  std::size_t present = 0;
  std::size_t pairs = 0;
  for (std::size_t i = 0; i < module.size(); ++i) {
    for (std::size_t j = i + 1; j < module.size(); ++j) {
      ++pairs;
      present += result.graph.has_edge(module[i], module[j]);
    }
  }
  EXPECT_GE(present, pairs - 2);
  // Background density stays tiny.
  EXPECT_LT(result.graph.density(), 0.05);
}

TEST(CorrelationGraph, TargetEdgesApproximatelyHit) {
  util::Rng rng(19);
  MicroarrayConfig config;
  config.genes = 150;
  config.samples = 40;
  config.modules = 8;
  const auto data = generate_microarray(config, rng);
  CorrelationGraphOptions options;
  options.target_edges = 400;
  options.quantile_samples = 20000;
  const auto result = build_correlation_graph(data.expression, options, rng);
  EXPECT_GT(result.threshold_used, 0.0);
  EXPECT_GT(result.graph.num_edges(), 150u);
  EXPECT_LT(result.graph.num_edges(), 1000u);
}

TEST(Presets, SpecsMatchPaperAtFullScale) {
  const auto sparse = paper_spec(PaperDataset::kBrainSparse, 1.0);
  EXPECT_EQ(sparse.vertices, 12422u);
  EXPECT_EQ(sparse.edges, 6151u);
  EXPECT_EQ(sparse.max_clique, 17u);
  EXPECT_NEAR(sparse.edge_density, 0.00008, 0.00002);

  const auto dense = paper_spec(PaperDataset::kBrainDense, 1.0);
  EXPECT_EQ(dense.edges, 229297u);
  EXPECT_EQ(dense.max_clique, 110u);

  const auto myo = paper_spec(PaperDataset::kMyogenic, 1.0);
  EXPECT_EQ(myo.vertices, 2895u);
  EXPECT_EQ(myo.edges, 10914u);
  EXPECT_EQ(myo.max_clique, 28u);
  EXPECT_NEAR(myo.edge_density, 0.0026, 0.001);
}

TEST(Presets, ScalingPreservesCliqueAndShrinksCounts) {
  const auto full = paper_spec(PaperDataset::kMyogenic, 1.0);
  const auto half = paper_spec(PaperDataset::kMyogenic, 0.5);
  EXPECT_EQ(half.max_clique, full.max_clique);
  EXPECT_NEAR(static_cast<double>(half.vertices),
              static_cast<double>(full.vertices) / 2.0, 2.0);
  EXPECT_NEAR(static_cast<double>(half.edges),
              static_cast<double>(full.edges) / 2.0, 2.0);
}

TEST(Presets, GeneratedGraphMatchesSpec) {
  util::Rng rng(23);
  const double scale = 0.15;
  const auto spec = paper_spec(PaperDataset::kMyogenic, scale);
  const auto mg = make_paper_graph(PaperDataset::kMyogenic, scale, rng);
  EXPECT_EQ(mg.graph.order(), spec.vertices);
  EXPECT_NEAR(static_cast<double>(mg.graph.num_edges()),
              static_cast<double>(spec.edges),
              static_cast<double>(spec.edges) * 0.15);
  EXPECT_EQ(mg.modules[0].size(), spec.max_clique);
}

}  // namespace
}  // namespace gsb::bio
