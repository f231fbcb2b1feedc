// Tests for paraclique extraction, clique statistics and hub reporting.

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/clique_stats.h"
#include "analysis/hubs.h"
#include "analysis/paraclique.h"
#include "core/maximum_clique.h"
#include "core/verify.h"
#include "graph/generators.h"
#include "graph/transforms.h"
#include "storage/gsbg_writer.h"
#include "storage/mapped_graph.h"
#include "tests/test_helpers.h"
#include "util/rng.h"

namespace gsb::analysis {
namespace {

using core::Clique;
using graph::Graph;
using graph::VertexId;

Graph clique_with_satellite() {
  // K5 on {0..4}; vertex 5 adjacent to 4 of them; vertex 6 to 2.
  Graph g(7);
  for (VertexId u = 0; u < 5; ++u) {
    for (VertexId v = u + 1; v < 5; ++v) g.add_edge(u, v);
  }
  for (VertexId v = 0; v < 4; ++v) g.add_edge(5, v);
  g.add_edge(6, 0);
  g.add_edge(6, 1);
  return g;
}

TEST(Paraclique, GlomOneAbsorbsNearMember) {
  const Graph g = clique_with_satellite();
  const Clique seed{0, 1, 2, 3, 4};
  ParacliqueOptions options;
  options.glom = 1;
  const auto para = grow_paraclique(g, seed, options);
  EXPECT_EQ(para.members, (Clique{0, 1, 2, 3, 4, 5}));
  EXPECT_EQ(para.seed_size, 5u);
  EXPECT_LT(para.density, 1.0);
  EXPECT_GT(para.density, 0.9);
}

TEST(Paraclique, GlomZeroAddsOnlyFullNeighbors) {
  const Graph g = clique_with_satellite();
  const Clique seed{0, 1, 2, 3};  // vertices 4 and 5 both see all of these
  ParacliqueOptions options;
  options.glom = 0;
  const auto para = grow_paraclique(g, seed, options);
  // Scan order admits 4 first; afterwards 5 misses member 4, and with
  // glom = 0 the result must stay a clique — so 5 stays out.
  EXPECT_EQ(para.members, (Clique{0, 1, 2, 3, 4}));
  EXPECT_DOUBLE_EQ(para.density, 1.0);
}

TEST(Paraclique, MaxRoundsLimitsGrowth) {
  // Chain of near-members: each round admits one more vertex.
  const Graph g = clique_with_satellite();
  ParacliqueOptions options;
  options.glom = 3;
  options.max_rounds = 1;
  const auto one_round = grow_paraclique(g, {0, 1, 2, 3, 4}, options);
  options.max_rounds = 0;
  const auto fixpoint = grow_paraclique(g, {0, 1, 2, 3, 4}, options);
  EXPECT_LE(one_round.members.size(), fixpoint.members.size());
}

TEST(Paraclique, ExtractUsesMaximumClique) {
  const Graph g = clique_with_satellite();
  const auto para = extract_paraclique(g, ParacliqueOptions{1, 0});
  EXPECT_EQ(para.seed_size, 5u);
  EXPECT_EQ(para.members.size(), 6u);
}

TEST(Paraclique, ExtractAllFindsPlantedModules) {
  util::Rng rng(13);
  graph::ModuleGraphConfig config;
  config.n = 120;
  config.num_modules = 4;
  config.min_module_size = 8;
  config.max_module_size = 12;
  config.overlap = 0.0;
  config.background_edges = 30;
  const auto mg = graph::planted_modules(config, rng);
  const auto paras = extract_all_paracliques(mg.graph, 6, {1, 0});
  EXPECT_GE(paras.size(), 3u);
  EXPECT_GE(paras.front().members.size(), 12u);
}

/// The n-bit glom that preceded the incremental one: every round scans all
/// n vertices in ascending order and recounts |members ∩ N(v)|.  Kept as
/// the oracle the incremental link counts and candidates must reproduce.
Paraclique reference_grow(const graph::GraphView& g, const Clique& seed,
                          const ParacliqueOptions& options) {
  Paraclique result;
  result.seed_size = seed.size();
  bits::DynamicBitset members(g.order());
  for (VertexId v : seed) members.set(v);
  std::size_t member_count = seed.size();
  std::size_t rounds = 0;
  bool grew = true;
  while (grew && (options.max_rounds == 0 || rounds < options.max_rounds)) {
    grew = false;
    ++rounds;
    for (VertexId v = 0; v < g.order(); ++v) {
      if (members.test(v)) continue;
      const std::size_t links =
          bits::DynamicBitset::count_and(members, g.neighbors(v));
      if (links + options.glom >= member_count && links > 0) {
        members.set(v);
        ++member_count;
        grew = true;
      }
    }
  }
  members.for_each([&](std::size_t v) {
    result.members.push_back(static_cast<VertexId>(v));
  });
  result.density = graph::induced_subgraph(g, result.members).graph.density();
  return result;
}

/// \p g with isolated vertices interleaved: old vertex v becomes id[v]
/// (ascending), 0-2 unused ids precede every vertex, and two follow the
/// last.
struct Spread {
  Graph graph;
  std::vector<VertexId> id;
};

Spread with_isolated(const Graph& g, std::uint64_t seed) {
  util::Rng rng(seed);
  Spread out;
  VertexId next = 0;
  for (VertexId v = 0; v < g.order(); ++v) {
    next += static_cast<VertexId>(rng.below(3));
    out.id.push_back(next++);
  }
  out.graph = Graph(next + 2);
  for (const auto& [u, v] : g.edge_list()) {
    out.graph.add_edge(out.id[u], out.id[v]);
  }
  return out;
}

/// Near-clique modules (p_in < 1, so glom has work to do) on a sparse
/// background that leaves many vertices isolated.
Graph near_clique_modules(std::uint64_t seed) {
  util::Rng rng(seed);
  graph::ModuleGraphConfig config;
  config.n = 160;
  config.num_modules = 8;
  config.min_module_size = 6;
  config.max_module_size = 14;
  config.p_in = 0.85;
  config.background_edges = 60;
  return graph::planted_modules(config, rng).graph;
}

/// Seed cliques of every shape: the maximum clique, the greedy one, a
/// single vertex, an edge, and an isolated vertex when there is one.
std::vector<Clique> oracle_seeds(const Graph& g) {
  std::vector<Clique> seeds{core::maximum_clique(g).clique,
                            core::greedy_clique_lower_bound(g)};
  const auto edges = g.edge_list();
  if (!edges.empty()) {
    const auto& [u, v] = edges[edges.size() / 2];
    seeds.push_back({u});
    seeds.push_back({u, v});
  }
  for (VertexId v = 0; v < g.order(); ++v) {
    if (g.degree(v) == 0) {
      seeds.push_back({v});
      break;
    }
  }
  return seeds;
}

void expect_same_paraclique(const Paraclique& expected,
                            const Paraclique& actual) {
  EXPECT_EQ(actual.members, expected.members);
  EXPECT_EQ(actual.seed_size, expected.seed_size);
  EXPECT_EQ(actual.density, expected.density);
}

TEST(ParacliqueOracle, IncrementalGlomMatchesFullScan) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("analysis_oracle_" + std::to_string(::getpid()) + ".gsbg"))
          .string();
  std::size_t grown = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const Graph base = seed % 2 == 0 ? near_clique_modules(seed)
                                     : test::random_graph(48, 0.3, seed);
    const Graph g = with_isolated(base, seed).graph;
    storage::write_gsbg_file(g, path);
    const auto mapped = storage::MappedGraph::open(path);
    for (const Clique& clique : oracle_seeds(g)) {
      for (std::size_t glom = 0; glom <= 2; ++glom) {
        for (std::size_t rounds = 0; rounds <= 2; ++rounds) {
          SCOPED_TRACE("graph seed " + std::to_string(seed) + ", glom " +
                       std::to_string(glom) + ", max_rounds " +
                       std::to_string(rounds) + ", seed size " +
                       std::to_string(clique.size()));
          const ParacliqueOptions options{glom, rounds};
          const auto expected = reference_grow(g, clique, options);
          expect_same_paraclique(expected, grow_paraclique(g, clique, options));
          expect_same_paraclique(expected,
                                 grow_paraclique(mapped.view(), clique, options));
          if (expected.members.size() > clique.size()) ++grown;
        }
      }
    }
  }
  std::filesystem::remove(path);
  // The sweep must exercise growth, not only fixed points.
  EXPECT_GT(grown, 100u);
}

TEST(Paraclique, ExtractAllIgnoresIsolatedVertices) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE("graph seed " + std::to_string(seed));
    const Graph base = seed % 2 == 0 ? near_clique_modules(seed)
                                     : test::random_graph(48, 0.3, seed);
    const auto spread = with_isolated(base, seed + 100);
    const auto expected = extract_all_paracliques(base, 3, {1, 0});
    const auto actual = extract_all_paracliques(spread.graph, 3, {1, 0});
    ASSERT_EQ(actual.size(), expected.size());
    ASSERT_FALSE(expected.empty());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      Clique relabelled;
      for (const VertexId v : expected[i].members) {
        relabelled.push_back(spread.id[v]);
      }
      EXPECT_EQ(actual[i].members, relabelled) << "paraclique " << i;
      EXPECT_EQ(actual[i].seed_size, expected[i].seed_size);
      EXPECT_EQ(actual[i].density, expected[i].density);
    }
  }
}

TEST(Paraclique, ExtractAllStopsBelowAnEdge) {
  // A seed of one vertex removes no edge; extraction must still end.
  const Graph g = clique_with_satellite();
  for (const std::size_t min_size : {0u, 1u, 2u}) {
    const auto paras = extract_all_paracliques(g, min_size, {1, 0});
    ASSERT_FALSE(paras.empty());
    EXPECT_GE(paras.back().members.size(), 2u);
  }
  EXPECT_TRUE(extract_all_paracliques(Graph(5), 1, {1, 0}).empty());
}

/// FNV-1a over each paraclique's size, seed size and members, in
/// extraction order.
std::uint64_t paraclique_hash(const std::vector<Paraclique>& paras) {
  std::uint64_t hash = 14695981039346656037ull;
  const auto mix = [&](std::uint64_t value) {
    for (int byte = 0; byte < 4; ++byte) {
      hash ^= (value >> (8 * byte)) & 0xFFu;
      hash *= 1099511628211ull;
    }
  };
  for (const auto& para : paras) {
    mix(para.members.size());
    mix(para.seed_size);
    for (const VertexId v : para.members) mix(v);
  }
  return hash;
}

// Recorded with the residue restricted to vertices of nonzero degree and
// the greedy bound's ties broken by ascending id; any change to seed
// choice, glom order or edge removal moves the hash.
TEST(ParacliquePin, PlantedModulesMemberHash) {
  util::Rng rng(2005);
  graph::ModuleGraphConfig config;
  config.n = 400;
  config.num_modules = 24;
  config.min_module_size = 5;
  config.max_module_size = 16;
  config.p_in = 0.9;
  config.background_edges = 200;
  const auto mg = graph::planted_modules(config, rng);
  const auto paras = extract_all_paracliques(mg.graph, 5, {1, 0});
  EXPECT_EQ(paras.size(), 19u);
  EXPECT_EQ(paraclique_hash(paras), 8366032632743362473ull);
  // The pin covers glommed members, not only bare seed cliques.
  std::size_t glommed = 0;
  for (const auto& para : paras) glommed += para.members.size() - para.seed_size;
  EXPECT_GT(glommed, 0u);
}

TEST(CliqueStats, SpectrumAggregates) {
  const std::vector<Clique> cliques{{0, 1}, {1, 2, 3}, {0, 2}, {4, 5, 6, 7}};
  const auto spectrum = clique_spectrum(cliques);
  EXPECT_EQ(spectrum.total, 4u);
  EXPECT_EQ(spectrum.min_size, 2u);
  EXPECT_EQ(spectrum.max_size, 4u);
  EXPECT_DOUBLE_EQ(spectrum.mean_size, 11.0 / 4.0);
  EXPECT_EQ(spectrum.size_histogram.at(2), 2u);
}

TEST(CliqueStats, EmptySpectrum) {
  const auto spectrum = clique_spectrum({});
  EXPECT_EQ(spectrum.total, 0u);
  EXPECT_EQ(spectrum.max_size, 0u);
}

TEST(CliqueStats, Participation) {
  const std::vector<Clique> cliques{{0, 1}, {1, 2}, {1, 3}};
  const auto counts = vertex_participation(5, cliques);
  EXPECT_EQ(counts[1], 3u);
  EXPECT_EQ(counts[0], 1u);
  EXPECT_EQ(counts[4], 0u);
}

TEST(CliqueStats, JaccardOverlap) {
  EXPECT_DOUBLE_EQ(clique_overlap({0, 1, 2}, {1, 2, 3}), 0.5);
  EXPECT_DOUBLE_EQ(clique_overlap({0, 1}, {2, 3}), 0.0);
  EXPECT_DOUBLE_EQ(clique_overlap({0, 1}, {0, 1}), 1.0);
  EXPECT_DOUBLE_EQ(clique_overlap({}, {}), 0.0);
}

TEST(CliqueStats, MeanPairwiseOverlap) {
  const std::vector<Clique> cliques{{0, 1, 2}, {1, 2, 3}, {4, 5}};
  EXPECT_NEAR(mean_pairwise_overlap(cliques), 0.5 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(mean_pairwise_overlap({{0, 1}}), 0.0);
}

TEST(Hubs, RanksByDegreeThenParticipation) {
  const Graph g = clique_with_satellite();
  core::CliqueCollector sink;
  core::base_bk(g, sink.callback());
  const auto hubs = top_hubs(g, sink.cliques(), 3);
  ASSERT_EQ(hubs.size(), 3u);
  // Vertices 0 and 1 have degree 6 (K5 + satellite 5 + satellite 6).
  EXPECT_EQ(hubs[0].degree, 6u);
  EXPECT_TRUE(hubs[0].vertex == 0 || hubs[0].vertex == 1);
  EXPECT_GE(hubs[0].clique_participation, 1u);
  const auto top = most_connected_vertex(g, sink.cliques());
  EXPECT_EQ(top.vertex, hubs[0].vertex);
}

TEST(Hubs, PartialRankingMatchesFullSort) {
  // Few distinct degrees and participation counts, so most of the order
  // comes from the id tie-break.
  util::Rng rng(404);
  const std::size_t n = 300;
  Graph g(static_cast<VertexId>(n));
  for (VertexId v = 0; v < n; ++v) {
    const auto fan = static_cast<VertexId>(rng.below(4));
    for (VertexId d = 1; d <= fan; ++d) g.add_edge(v, (v + d * 37) % n);
  }
  std::vector<std::uint32_t> participation(n);
  for (auto& p : participation) p = static_cast<std::uint32_t>(rng.below(3));

  std::vector<HubReport> full;
  for (VertexId v = 0; v < n; ++v) {
    full.push_back(HubReport{v, g.degree(v), participation[v]});
  }
  std::sort(full.begin(), full.end(), [](const HubReport& a,
                                         const HubReport& b) {
    return std::tuple(b.degree, b.clique_participation, a.vertex) <
           std::tuple(a.degree, a.clique_participation, b.vertex);
  });
  for (const std::size_t k : {std::size_t{0}, std::size_t{1}, std::size_t{10},
                              n, n + 5}) {
    const auto hubs = top_hubs(g, participation, k);
    ASSERT_EQ(hubs.size(), std::min(k, n)) << "k " << k;
    for (std::size_t r = 0; r < hubs.size(); ++r) {
      EXPECT_EQ(hubs[r].vertex, full[r].vertex) << "k " << k << " rank " << r;
      EXPECT_EQ(hubs[r].degree, full[r].degree);
      EXPECT_EQ(hubs[r].clique_participation, full[r].clique_participation);
    }
  }
}

TEST(Hubs, EmptyGraphThrows) {
  const Graph g(0);
  EXPECT_THROW(most_connected_vertex(g, {}), std::invalid_argument);
}

}  // namespace
}  // namespace gsb::analysis
