// Tests for clique bounds and the branch-and-bound maximum clique solver.

#include <gtest/gtest.h>

#include "core/maximum_clique.h"
#include "core/verify.h"
#include "graph/generators.h"
#include "tests/test_helpers.h"

namespace gsb::core {
namespace {

std::size_t exhaustive_omega(const graph::Graph& g) {
  std::size_t best = 0;
  for (const auto& clique : exhaustive_maximal_cliques(g)) {
    best = std::max(best, clique.size());
  }
  return best;
}

TEST(MaxClique, SmallKnownGraphs) {
  const auto triangle =
      graph::Graph::from_edges(4, {{0, 1}, {1, 2}, {0, 2}, {2, 3}});
  EXPECT_EQ(maximum_clique(triangle).clique, (Clique{0, 1, 2}));

  graph::Graph path(5);
  for (VertexId v = 0; v + 1 < 5; ++v) path.add_edge(v, v + 1);
  EXPECT_EQ(maximum_clique(path).clique.size(), 2u);

  const graph::Graph isolated(3);
  EXPECT_EQ(maximum_clique(isolated).clique.size(), 1u);

  const graph::Graph empty(0);
  EXPECT_TRUE(maximum_clique(empty).clique.empty());
}

TEST(MaxClique, BoundsSandwichOmega) {
  for (int seed = 1; seed <= 5; ++seed) {
    const auto g = test::random_graph(40, 0.4, seed);
    const auto lb = greedy_clique_lower_bound(g);
    const auto ub = greedy_coloring_upper_bound(g);
    const auto omega = maximum_clique(g).clique.size();
    EXPECT_TRUE(is_clique(g, lb));
    EXPECT_LE(lb.size(), omega);
    EXPECT_GE(ub, omega);
  }
}

TEST(MaxClique, GreedySeedsBreakDegreeTiesByLowestId) {
  // Thirteen disjoint triangles: every vertex ties at degree 2, enough of
  // them that an unstable sort would reorder the ties.
  graph::Graph g(39);
  for (VertexId t = 0; t < 39; t += 3) {
    g.add_edge(t, t + 1);
    g.add_edge(t + 1, t + 2);
    g.add_edge(t, t + 2);
  }
  EXPECT_EQ(greedy_clique_lower_bound(g, 1), (Clique{0, 1, 2}));
  EXPECT_EQ(greedy_clique_lower_bound(g), (Clique{0, 1, 2}));
  EXPECT_EQ(maximum_clique(g).clique, (Clique{0, 1, 2}));
}

TEST(MaxClique, ColoringOfBipartiteIsTwo) {
  graph::Graph bipartite(10);
  for (VertexId u = 0; u < 5; ++u) {
    for (VertexId v = 5; v < 10; ++v) bipartite.add_edge(u, v);
  }
  EXPECT_EQ(greedy_coloring_upper_bound(bipartite), 2u);
  EXPECT_EQ(maximum_clique(bipartite).clique.size(), 2u);
}

TEST(MaxClique, RecoversPlantedClique) {
  util::Rng rng(7);
  const auto planted = graph::planted_clique(150, 16, 0.05, rng);
  const auto result = maximum_clique(planted.graph);
  EXPECT_EQ(result.clique.size(), 16u);
  EXPECT_EQ(result.clique, planted.members);
}

TEST(MaxClique, ModulePresetHitsConfiguredOmega) {
  util::Rng rng(9);
  graph::ModuleGraphConfig config;
  config.n = 250;
  config.num_modules = 20;
  config.max_module_size = 18;
  config.p_in = 1.0;
  config.background_edges = 200;
  const auto mg = graph::planted_modules(config, rng);
  EXPECT_GE(maximum_clique(mg.graph).clique.size(), 18u);
}

class MaxCliqueSweepTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, double, int>> {};

TEST_P(MaxCliqueSweepTest, MatchesExhaustive) {
  const auto [n, p, seed] = GetParam();
  const auto g = test::random_graph(n, p, static_cast<std::uint64_t>(seed));
  const auto result = maximum_clique(g);
  EXPECT_TRUE(is_clique(g, result.clique));
  EXPECT_EQ(result.clique.size(), exhaustive_omega(g));
}

INSTANTIATE_TEST_SUITE_P(
    RandomSweep, MaxCliqueSweepTest,
    ::testing::Combine(::testing::Values<std::size_t>(10, 14, 17),
                       ::testing::Values(0.3, 0.6, 0.85),
                       ::testing::Values(1, 2, 3)));

}  // namespace
}  // namespace gsb::core
