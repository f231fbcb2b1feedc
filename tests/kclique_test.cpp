// Tests for the k-clique enumerator (§2.2) and the seed-level builder.

#include <gtest/gtest.h>

#include <map>

#include "core/kclique.h"
#include "core/verify.h"
#include "tests/test_helpers.h"

namespace gsb::core {
namespace {

std::vector<Clique> collect_kcliques(const graph::Graph& g, std::size_t k,
                                     KCliqueStats* stats = nullptr) {
  std::vector<Clique> out;
  const auto s = enumerate_kcliques(
      g, k, [&](std::span<const VertexId> clique, bool) {
        out.emplace_back(clique.begin(), clique.end());
      });
  if (stats != nullptr) *stats = s;
  return normalize(std::move(out));
}

TEST(KClique, TrianglePendantByK) {
  const auto g = graph::Graph::from_edges(4, {{0, 1}, {1, 2}, {0, 2}, {2, 3}});
  EXPECT_EQ(collect_kcliques(g, 1).size(), 4u);
  EXPECT_EQ(collect_kcliques(g, 2).size(), 4u);
  EXPECT_EQ(collect_kcliques(g, 3).size(), 1u);
  EXPECT_TRUE(collect_kcliques(g, 4).empty());
}

TEST(KClique, MaximalityClassification) {
  const auto g = graph::Graph::from_edges(4, {{0, 1}, {1, 2}, {0, 2}, {2, 3}});
  std::map<Clique, bool> classified;
  enumerate_kcliques(g, 2,
                     [&](std::span<const VertexId> clique, bool maximal) {
                       classified[Clique(clique.begin(), clique.end())] =
                           maximal;
                     });
  ASSERT_EQ(classified.size(), 4u);
  EXPECT_FALSE((classified[{0, 1}]));  // inside the triangle
  EXPECT_FALSE((classified[{1, 2}]));
  EXPECT_FALSE((classified[{0, 2}]));
  EXPECT_TRUE((classified[{2, 3}]));  // the pendant edge is maximal
}

TEST(KClique, MaximalityMatchesOracle) {
  const auto g = test::random_graph(25, 0.35, 11);
  for (std::size_t k = 2; k <= 5; ++k) {
    enumerate_kcliques(g, k,
                       [&](std::span<const VertexId> clique, bool maximal) {
                         EXPECT_EQ(maximal, is_maximal_clique(g, clique))
                             << "k=" << k;
                       });
  }
}

TEST(KClique, SingletonLevel) {
  const auto g = graph::Graph::from_edges(3, {{0, 1}});
  std::map<Clique, bool> classified;
  enumerate_kcliques(g, 1,
                     [&](std::span<const VertexId> clique, bool maximal) {
                       classified[Clique(clique.begin(), clique.end())] =
                           maximal;
                     });
  ASSERT_EQ(classified.size(), 3u);
  EXPECT_FALSE((classified[{0}]));
  EXPECT_FALSE((classified[{1}]));
  EXPECT_TRUE((classified[{2}]));  // isolated
}

TEST(KClique, CanonicalLexicographicOrder) {
  const auto g = test::random_graph(20, 0.5, 3);
  std::vector<Clique> order;
  enumerate_kcliques(g, 3, [&](std::span<const VertexId> clique, bool) {
    order.emplace_back(clique.begin(), clique.end());
  });
  for (std::size_t i = 1; i < order.size(); ++i) {
    EXPECT_LT(order[i - 1], order[i]) << "not lexicographic at " << i;
  }
}

TEST(KClique, CountMatchesEnumeration) {
  const auto g = test::random_graph(30, 0.4, 17);
  for (std::size_t k = 2; k <= 6; ++k) {
    EXPECT_EQ(count_kcliques(g, k), collect_kcliques(g, k).size());
  }
}

TEST(KClique, BoundaryCutsRecorded) {
  // Star graph: no 3-cliques; every root branch is boundary-cut.
  graph::Graph star(8);
  for (graph::VertexId v = 1; v < 8; ++v) star.add_edge(0, v);
  KCliqueStats stats;
  const auto cliques = collect_kcliques(star, 3, &stats);
  EXPECT_TRUE(cliques.empty());
  EXPECT_GT(stats.boundary_cuts, 0u);
}

class KCliqueSweepTest
    : public ::testing::TestWithParam<
          std::tuple<std::size_t, double, std::size_t, int>> {};

TEST_P(KCliqueSweepTest, MatchesReference) {
  const auto [n, p, k, seed] = GetParam();
  const auto g = test::random_graph(n, p, static_cast<std::uint64_t>(seed));
  KCliqueStats stats;
  const auto got = collect_kcliques(g, k, &stats);
  const auto expect = reference_kcliques(g, k);
  EXPECT_EQ(got, expect);
  EXPECT_EQ(stats.total, expect.size());
}

INSTANTIATE_TEST_SUITE_P(
    RandomSweep, KCliqueSweepTest,
    ::testing::Combine(::testing::Values<std::size_t>(15, 30),
                       ::testing::Values(0.2, 0.5),
                       ::testing::Values<std::size_t>(2, 3, 4),
                       ::testing::Values(1, 2)));

TEST(SeedLevel, SublistInvariants) {
  const auto g = test::random_graph(40, 0.35, 23);
  const std::size_t k = 3;
  CliqueCollector maximal;
  KCliqueStats stats;
  const Level level = build_seed_level(g, k, maximal.callback(), &stats);
  ASSERT_GT(level.size(), 0u);

  constexpr std::size_t kBits = bits::BitsetView::kWordBits;
  const auto test_bit = [&](const Word* words, std::size_t j) {
    return ((words[j / kBits] >> (j % kBits)) & 1u) != 0;
  };
  level.for_each([&](const SublistView& sublist) {
    // Prefix is a (k-1)-clique; tails extend it to non-maximal k-cliques.
    ASSERT_EQ(sublist.prefix.size(), k - 1);
    const Clique prefix(sublist.prefix.begin(), sublist.prefix.end());
    EXPECT_TRUE(is_clique(g, prefix));
    EXPECT_GE(sublist.tails.size(), 2u);
    // The universe is N(prefix[0]) in ascending order.
    const RootUniverse& universe = *sublist.universe;
    ASSERT_EQ(universe.root(), prefix[0]);
    EXPECT_EQ(std::vector<graph::VertexId>(universe.members().begin(),
                                           universe.members().end()),
              g.neighbor_list(prefix[0]));
    ASSERT_EQ(sublist.common.size(), universe.words());
    // common, mapped back to global ids = intersection of prefix
    // neighborhoods; no bit is set past |L|.
    bits::DynamicBitset expect_common = g.neighbors(prefix[0]);
    for (std::size_t i = 1; i < prefix.size(); ++i) {
      expect_common &= g.neighbors(prefix[i]);
    }
    bits::DynamicBitset got_common(g.order());
    for (std::size_t j = 0; j < universe.words() * kBits; ++j) {
      if (!test_bit(sublist.common.data(), j)) continue;
      ASSERT_LT(j, universe.width());
      got_common.set(universe.global(static_cast<std::uint32_t>(j)));
    }
    EXPECT_TRUE(got_common == expect_common);
    graph::VertexId prev = prefix.back();
    for (const std::uint32_t local : sublist.tails) {
      const graph::VertexId tail = universe.global(local);
      EXPECT_GT(tail, prev);  // ascending, above the prefix
      prev = tail;
      // The tail's local row is N(tail) ∩ L.
      for (std::size_t j = 0; j < universe.width(); ++j) {
        EXPECT_EQ(test_bit(universe.row(local), j),
                  g.has_edge(tail, universe.global(
                                       static_cast<std::uint32_t>(j))));
      }
      Clique clique = prefix;
      clique.push_back(tail);
      std::sort(clique.begin(), clique.end());
      EXPECT_TRUE(is_clique(g, clique));
      EXPECT_FALSE(is_maximal_clique(g, clique));
    }
  });
  // Emitted seed cliques are exactly the maximal k-cliques.
  auto got = normalize(std::move(maximal.cliques()));
  std::vector<Clique> expect;
  for (const auto& clique : reference_kcliques(g, k)) {
    if (is_maximal_clique(g, clique)) expect.push_back(clique);
  }
  EXPECT_EQ(got, normalize(std::move(expect)));
}

TEST(SeedLevel, RootPartitionIsLossless) {
  const auto g = test::random_graph(35, 0.4, 31);
  const std::size_t k = 3;
  CliqueCollector whole_max;
  const Level whole = build_seed_level(g, k, whole_max.callback());

  // Split roots into three arbitrary parts; union of parts == whole.
  std::vector<graph::VertexId> part1, part2, part3;
  for (graph::VertexId v = 0; v < g.order(); ++v) {
    (v % 3 == 0 ? part1 : v % 3 == 1 ? part2 : part3).push_back(v);
  }
  CliqueCollector split_max;
  Level merged;
  for (const auto& part : {part1, part2, part3}) {
    merged.append(
        build_seed_level_for_roots(g, k, part, split_max.callback()));
  }
  EXPECT_EQ(normalize(std::move(whole_max.cliques())),
            normalize(std::move(split_max.cliques())));

  auto a = test::sublist_keys(whole);
  auto b = test::sublist_keys(merged);
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  EXPECT_EQ(a, b);
  EXPECT_EQ(merged.universes().size(), whole.universes().size());
}

TEST(SeedLevel, TraceRecordsPerRootCosts) {
  const auto g = test::random_graph(30, 0.4, 41);
  std::vector<graph::VertexId> roots(g.order());
  for (graph::VertexId v = 0; v < g.order(); ++v) roots[v] = v;
  CliqueCollector sink;
  SeedTrace trace;
  build_seed_level_for_roots(g, 3, roots, sink.callback(), nullptr, &trace);
  EXPECT_EQ(trace.task_work.size(), g.order());
  EXPECT_EQ(trace.task_seconds.size(), g.order());
  std::uint64_t total_work = 0;
  for (auto w : trace.task_work) total_work += w;
  EXPECT_GT(total_work, 0u);
}

TEST(SeedLevel, PairPartitionIsLossless) {
  const auto g = test::random_graph(35, 0.4, 47);
  const std::size_t k = 4;
  CliqueCollector whole_max;
  const Level whole = build_seed_level(g, k, whole_max.callback());

  const auto pairs = collect_seed_pairs(g);
  EXPECT_EQ(pairs.size(), g.num_edges());
  // Split pairs across three arbitrary parts; union of parts == whole.
  CliqueCollector split_max;
  Level merged;
  KCliqueStats stats;
  SeedTrace trace;
  for (std::size_t part = 0; part < 3; ++part) {
    std::vector<SeedPair> mine;
    for (std::size_t i = part; i < pairs.size(); i += 3) {
      mine.push_back(pairs[i]);
    }
    merged.append(build_seed_level_for_pairs(g, k, mine, split_max.callback(),
                                             &stats, &trace));
  }
  EXPECT_EQ(trace.task_work.size(), pairs.size());
  EXPECT_EQ(normalize(std::move(whole_max.cliques())),
            normalize(std::move(split_max.cliques())));

  auto a = test::sublist_keys(whole);
  auto b = test::sublist_keys(merged);
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  EXPECT_EQ(a, b);
  EXPECT_EQ(merged.universes().size(), whole.universes().size());
}

}  // namespace
}  // namespace gsb::core
