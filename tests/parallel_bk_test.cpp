// Differential tests for the degeneracy-ordered Bron–Kerbosch engine and
// its chunked parallel driver: BK over a mapped .gsbg equals BK over the
// in-memory Graph equals the Clique Enumerator's maximal set on 20 seeded
// graphs, across threads 1/2/4/8; the peel over a mapped view's CSR rows
// equals the peel over bit rows; deterministic-merge emission is
// identical to the sequential sequence at every thread count, mapped or
// in memory; the reorder window stays bounded; the search tree and
// emission sequence match constants recorded from the global-width search
// on roots whose neighborhoods straddle word boundaries; a clique the
// .gsbc stage rejects on a worker cancels the run with the writer's error
// and publishes nothing.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>

#include <unistd.h>

#include "core/bron_kerbosch.h"
#include "core/parallel_bk.h"
#include "core/verify.h"
#include "graph/transforms.h"
#include "storage/gsbc_stage.h"
#include "storage/gsbg_writer.h"
#include "storage/mapped_graph.h"
#include "tests/test_helpers.h"
#include "util/memory_tracker.h"

namespace gsb::core {
namespace {

namespace fs = std::filesystem;

std::vector<Clique> run_degeneracy_bk(const graph::GraphView& g,
                                      const SizeRange& range = {}) {
  CliqueCollector out;
  degeneracy_bk(g, out.callback(), range);
  return normalize(std::move(out.cliques()));
}

std::vector<Clique> run_parallel_bk(const graph::GraphView& g,
                                    ParallelBkOptions options = {}) {
  CliqueCollector out;
  parallel_bk(g, out.callback(), options);
  return normalize(std::move(out.cliques()));
}

/// Flat emission transcript (size-prefixed), order-sensitive.
std::vector<graph::VertexId> emission_sequence(const graph::GraphView& g,
                                               ParallelBkOptions options) {
  std::vector<graph::VertexId> flat;
  parallel_bk(
      g,
      [&](std::span<const graph::VertexId> clique) {
        flat.push_back(static_cast<graph::VertexId>(clique.size()));
        flat.insert(flat.end(), clique.begin(), clique.end());
      },
      options);
  return flat;
}

/// Writes \p g to a temporary .gsbg and returns the path (unique per
/// process, so concurrent runs of this binary do not collide).
std::string write_temp_gsbg(const graph::Graph& g, int tag) {
  const std::string path =
      (fs::temp_directory_path() /
       ("parallel_bk_test_" + std::to_string(::getpid()) + "_" +
        std::to_string(tag) + ".gsbg"))
          .string();
  storage::write_gsbg_file(g, path);
  return path;
}

TEST(DegeneracyBk, MatchesReferenceOnSmallGraphs) {
  const auto g =
      graph::Graph::from_edges(4, {{0, 1}, {1, 2}, {0, 2}, {2, 3}});
  EXPECT_EQ(run_degeneracy_bk(g), reference_maximal_cliques(g));

  const graph::Graph edgeless(5);
  const auto singletons = run_degeneracy_bk(edgeless);
  ASSERT_EQ(singletons.size(), 5u);
  for (const auto& clique : singletons) EXPECT_EQ(clique.size(), 1u);

  const graph::Graph empty(0);
  EXPECT_TRUE(run_degeneracy_bk(empty).empty());

  const auto complete = test::random_graph(12, 1.0, 1);
  const auto one = run_degeneracy_bk(complete);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0].size(), 12u);
}

TEST(DegeneracyBk, SizeRangeFiltersEmissionOnly) {
  const auto g = test::random_graph(30, 0.4, 7);
  const auto all = run_degeneracy_bk(g);
  const SizeRange range{3, 4};
  EXPECT_EQ(run_degeneracy_bk(g, range), filter_by_size(all, range));
  CliqueCollector sink;
  const auto stats = degeneracy_bk(g, sink.callback(), range);
  EXPECT_EQ(stats.maximal_cliques, all.size());
}

TEST(DegeneracyBk, VisitsFewerNodesThanImprovedOnModuleGraphs) {
  util::Rng rng(5);
  graph::ModuleGraphConfig config;
  config.n = 120;
  config.num_modules = 15;
  config.max_module_size = 12;
  config.overlap = 0.4;
  const auto mg = graph::planted_modules(config, rng);
  CliqueCounter a;
  CliqueCounter b;
  const auto improved_stats = improved_bk(mg.graph, a.callback());
  const auto degeneracy_stats = degeneracy_bk(mg.graph, b.callback());
  EXPECT_EQ(a.total(), b.total());
  EXPECT_LT(degeneracy_stats.tree_nodes, improved_stats.tree_nodes);
}

TEST(ParallelBk, DifferentialSweepMemoryMappedEnumerator) {
  for (int seed = 0; seed < 20; ++seed) {
    const std::size_t n = 30 + static_cast<std::size_t>(seed) * 2;
    const double p = 0.10 + 0.05 * (seed % 5);
    const graph::Graph g =
        test::random_graph(n, p, static_cast<std::uint64_t>(seed));
    SCOPED_TRACE("seed " + std::to_string(seed));

    // The structurally independent yardsticks: the reference enumerator
    // and the paper's Clique Enumerator (full maximal set).
    const auto expect = reference_maximal_cliques(g);
    CliqueEnumeratorOptions enum_options;
    enum_options.range = SizeRange{1, 0};
    ASSERT_EQ(test::run_clique_enumerator(g, enum_options), expect);

    // Sequential degeneracy BK over the in-memory graph.
    ASSERT_EQ(run_degeneracy_bk(g), expect);

    // Sequential degeneracy BK directly off the mapped .gsbg bitmap.
    const std::string path = write_temp_gsbg(g, seed);
    {
      const auto mapped = storage::MappedGraph::open(path);
      ASSERT_EQ(run_degeneracy_bk(mapped.view()), expect);

      // The parallel driver, over the mapped view, at every thread count.
      for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
        ParallelBkOptions options;
        options.threads = threads;
        ASSERT_EQ(run_parallel_bk(mapped.view(), options), expect)
            << "threads " << threads;
      }
    }
    std::remove(path.c_str());
  }
}

/// Flat emission transcript of the sequential degeneracy variant.
std::vector<graph::VertexId> sequential_sequence(const graph::GraphView& g) {
  std::vector<graph::VertexId> flat;
  degeneracy_bk(g, [&](std::span<const graph::VertexId> clique) {
    flat.push_back(static_cast<graph::VertexId>(clique.size()));
    flat.insert(flat.end(), clique.begin(), clique.end());
  });
  return flat;
}

/// An overlapping-module graph: enough roots, and enough cost spread
/// between them, that every thread count cuts many uneven chunks.
graph::Graph module_graph(std::uint64_t seed) {
  util::Rng rng(seed);
  graph::ModuleGraphConfig config;
  config.n = 600;
  config.num_modules = 60;
  config.max_module_size = 16;
  config.overlap = 0.3;
  config.background_edges = 900;
  return graph::planted_modules(config, rng).graph;
}

TEST(DegeneracyOrder, CsrViewMatchesBitRows) {
  for (int seed = 0; seed < 6; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const graph::Graph built =
        seed < 3 ? test::random_graph(80 + 10 * seed, 0.15, seed)
                 : module_graph(static_cast<std::uint64_t>(seed));
    const std::string path = write_temp_gsbg(built, 100 + seed);
    {
      const auto mapped = storage::MappedGraph::open(path);
      const graph::GraphView csr = mapped.view();
      ASSERT_TRUE(csr.has_csr());
      const graph::Graph loaded = mapped.load();
      const graph::GraphView bits(loaded);
      ASSERT_FALSE(bits.has_csr());

      for (graph::VertexId v = 0; v < csr.order(); ++v) {
        std::vector<graph::VertexId> walked;
        csr.for_each_neighbor(v, [&](graph::VertexId u) {
          walked.push_back(u);
        });
        ASSERT_EQ(walked, bits.neighbor_list(v)) << "vertex " << v;
      }

      const graph::DegeneracyResult from_csr = graph::degeneracy_order(csr);
      const graph::DegeneracyResult from_bits = graph::degeneracy_order(bits);
      EXPECT_EQ(from_csr.order, from_bits.order);
      EXPECT_EQ(from_csr.degeneracy, from_bits.degeneracy);
      EXPECT_EQ(from_csr.later, from_bits.later);

      // later[v] is v's neighbor count after it in the order, and the
      // degeneracy is its maximum.
      std::vector<std::size_t> position(csr.order());
      for (std::size_t i = 0; i < from_csr.order.size(); ++i) {
        position[from_csr.order[i]] = i;
      }
      std::size_t max_later = 0;
      for (graph::VertexId v = 0; v < csr.order(); ++v) {
        std::size_t later = 0;
        for (const graph::VertexId u : bits.neighbor_list(v)) {
          if (position[u] > position[v]) ++later;
        }
        ASSERT_EQ(from_csr.later[v], later) << "vertex " << v;
        max_later = std::max(max_later, later);
      }
      EXPECT_EQ(from_csr.degeneracy, max_later);
    }
    std::remove(path.c_str());
  }
}

TEST(ParallelBk, EmissionSequenceMatchesSequentialAcrossThreadCounts) {
  const graph::Graph g = module_graph(29);
  const std::string path = write_temp_gsbg(g, 200);
  {
    const auto mapped = storage::MappedGraph::open(path);
    const std::vector<graph::VertexId> expect = sequential_sequence(g);
    ASSERT_FALSE(expect.empty());
    // The CSR walks list the same neighbors in the same order, so the
    // mapped view's search tree and sequence equal the in-memory ones.
    ASSERT_EQ(sequential_sequence(mapped.view()), expect);
    for (const bool on_disk : {false, true}) {
      const graph::GraphView view =
          on_disk ? mapped.view() : graph::GraphView(g);
      for (const std::size_t threads : {1u, 2u, 3u, 4u, 8u}) {
        SCOPED_TRACE((on_disk ? "mapped, threads " : "in memory, threads ") +
                     std::to_string(threads));
        ParallelBkOptions options;
        options.threads = threads;
        options.deterministic = true;
        EXPECT_EQ(emission_sequence(view, options), expect);
      }
    }
  }
  std::remove(path.c_str());
}

TEST(ParallelBk, OneWorkerRunsTheSequentialKernel) {
  const graph::Graph g = module_graph(31);
  std::vector<graph::VertexId> flat;
  ParallelBkOptions options;
  options.threads = 1;
  const ParallelBkStats stats = parallel_bk(
      g,
      [&](std::span<const graph::VertexId> clique) {
        flat.push_back(static_cast<graph::VertexId>(clique.size()));
        flat.insert(flat.end(), clique.begin(), clique.end());
      },
      options);
  EXPECT_EQ(flat, sequential_sequence(g));
  CliqueCounter counter;
  const BronKerboschStats sequential = degeneracy_bk(g, counter.callback());
  EXPECT_EQ(stats.base.tree_nodes, sequential.tree_nodes);
  EXPECT_EQ(stats.base.maximal_cliques, sequential.maximal_cliques);
  EXPECT_EQ(stats.steals, 0u);
  EXPECT_EQ(stats.transfers, 0u);
  EXPECT_EQ(stats.peak_pending_bytes, 0u);
}

TEST(ParallelBk, CommitsCarryEveryCliqueTallyAndDrainTime) {
  // Output several times kOneWorkerCommitBytes, so one worker commits in
  // several slices as well as four workers in many chunks.
  const graph::Graph g = test::random_graph(100, 0.5, 23);
  const std::vector<graph::VertexId> expect = sequential_sequence(g);
  ASSERT_GT(expect.size() * sizeof(graph::VertexId),
            3 * kOneWorkerCommitBytes);
  CliqueCounter sizes;
  degeneracy_bk(g, sizes.callback());
  for (const std::size_t threads : {1u, 4u}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    std::vector<graph::VertexId> flat;
    ParallelBkOptions options;
    options.threads = threads;
    const ParallelBkStats stats = parallel_bk(
        g,
        [&](std::span<const graph::VertexId> clique) {
          flat.push_back(static_cast<graph::VertexId>(clique.size()));
          flat.insert(flat.end(), clique.begin(), clique.end());
        },
        options);
    EXPECT_EQ(flat, expect);
    CliqueCounter tallied;
    tallied.add(stats.by_size);
    EXPECT_EQ(tallied.by_size(), sizes.by_size());
    EXPECT_EQ(tallied.total(), stats.base.maximal_cliques);
    EXPECT_GT(stats.drain_seconds, 0.0);
    EXPECT_LE(stats.drain_seconds, stats.total_seconds);
  }
}

TEST(ParallelBk, DeterministicMergeEmitsIdenticalSequences) {
  const graph::Graph g = test::random_graph(60, 0.3, 11);
  // The reference sequence: sequential degeneracy BK.
  std::vector<graph::VertexId> sequential;
  degeneracy_bk(g, [&](std::span<const graph::VertexId> clique) {
    sequential.push_back(static_cast<graph::VertexId>(clique.size()));
    sequential.insert(sequential.end(), clique.begin(), clique.end());
  });
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    ParallelBkOptions options;
    options.threads = threads;
    options.deterministic = true;
    EXPECT_EQ(emission_sequence(g, options), sequential)
        << "threads " << threads;
  }
}

TEST(ParallelBk, CompletionOrderModeStillYieldsTheSameSet) {
  const graph::Graph g = test::random_graph(50, 0.35, 13);
  const auto expect = run_degeneracy_bk(g);
  for (const std::size_t threads : {2u, 4u}) {
    ParallelBkOptions options;
    options.threads = threads;
    options.deterministic = false;
    EXPECT_EQ(run_parallel_bk(g, options), expect);
  }
}

TEST(ParallelBk, StaticPlanAblationMatchesToo) {
  const graph::Graph g = test::random_graph(50, 0.3, 17);
  const auto expect = run_degeneracy_bk(g);
  ParallelBkOptions options;
  options.threads = 4;
  options.dynamic_claiming = false;
  EXPECT_EQ(run_parallel_bk(g, options), expect);
}

TEST(ParallelBk, StatsAreCoherent) {
  const graph::Graph g = test::random_graph(60, 0.4, 19);
  CliqueCounter counter;
  ParallelBkOptions options;
  options.threads = 4;
  const auto stats = parallel_bk(g, counter.callback(), options);
  EXPECT_EQ(stats.base.maximal_cliques, counter.total());
  EXPECT_EQ(stats.threads, 4u);
  EXPECT_EQ(stats.degeneracy, graph::degeneracy_order(g).degeneracy);
  EXPECT_GT(stats.base.tree_nodes, 0u);
  EXPECT_EQ(stats.thread_busy_seconds.size(), 4u);
}

TEST(ParallelBk, ReorderWindowStaysBoundedAndBalanced) {
  // A clique-dense graph whose total emitted bytes dwarf any sane reorder
  // window: full buffering would hold every clique at once.
  const graph::Graph g = test::random_graph(70, 0.5, 23);
  util::MemoryTracker tracker;
  std::size_t total_flat_bytes = 0;
  ParallelBkOptions options;
  options.threads = 4;
  options.tracker = &tracker;
  // The default window (64 MiB) dwarfs this graph's whole output, so
  // nothing would bound the peak but scheduling luck; pin a window small
  // enough that backpressure is what holds the line.
  options.reorder_window_bytes = 16u * 1024u;
  const auto stats = parallel_bk(
      g,
      [&](std::span<const graph::VertexId> clique) {
        total_flat_bytes += (clique.size() + 1) * sizeof(graph::VertexId);
      },
      options);
  ASSERT_GT(total_flat_bytes, 64u * 1024u);
  // The deterministic merge may only ever hold an in-flight window, never
  // the full output.
  EXPECT_LT(stats.peak_pending_bytes, total_flat_bytes / 2);
  EXPECT_LT(tracker.peak(), total_flat_bytes / 2);
  EXPECT_EQ(tracker.current(), 0u);  // everything drained and released
  // The tracker allocates in the job body (before the scheduler's
  // finish-lock) and releases in the completion (after the scheduler's
  // drain-claim deduction), so its window strictly contains the
  // scheduler's: the peaks are close but tracker >= scheduler.
  EXPECT_GE(tracker.peak(), stats.peak_pending_bytes);
}

TEST(ParallelBk, TinyReorderWindowThrottlesAndStaysCorrect) {
  const graph::Graph g = test::random_graph(70, 0.5, 23);
  const auto expect = run_degeneracy_bk(g);
  std::size_t total_flat_bytes = 0;
  degeneracy_bk(g, [&](std::span<const graph::VertexId> clique) {
    total_flat_bytes += (clique.size() + 1) * sizeof(graph::VertexId);
  });
  ParallelBkOptions options;
  options.threads = 4;
  options.reorder_window_bytes = 4096;
  CliqueCollector out;
  const auto stats = parallel_bk(g, out.callback(), options);
  EXPECT_EQ(normalize(std::move(out.cliques())), expect);
  // Backpressure holds pending output to the window plus the outputs of
  // roots already in flight when the cap was hit — far under the total.
  EXPECT_LT(stats.peak_pending_bytes, total_flat_bytes / 4);
}

TEST(ParallelBk, StageRejectionCancelsTheRunAndPublishesNothing) {
  const graph::Graph g = module_graph(37);
  const auto n = static_cast<graph::VertexId>(g.order());
  std::vector<graph::VertexId> identity(n);
  for (graph::VertexId v = 0; v < n; ++v) identity[v] = v;
  // Every vertex lies in some maximal clique, so each bad table is hit.
  std::vector<graph::VertexId> out_of_range = identity;
  out_of_range[n / 2] = n;
  std::vector<graph::VertexId> duplicate = identity;
  const graph::VertexId u = g.neighbor_list(0).front();
  duplicate[u] = duplicate[0];
  const std::vector<graph::VertexId> too_short(identity.begin(),
                                               identity.end() - 1);
  const std::string path =
      (fs::temp_directory_path() /
       ("parallel_bk_test_" + std::to_string(::getpid()) + "_reject.gsbc"))
          .string();
  const std::pair<const char*, const std::vector<graph::VertexId>*>
      tables[] = {{"out of range", &out_of_range},
                  {"duplicate", &duplicate},
                  {"too short", &too_short}};
  for (const auto& [name, table] : tables) {
    for (const std::size_t threads : {1u, 2u, 4u}) {
      SCOPED_TRACE(std::string(name) + ", threads " +
                   std::to_string(threads));
      util::MemoryTracker tracker;
      ParallelBkOptions options;
      options.threads = threads;
      options.tracker = &tracker;
      std::string error;
      try {
        storage::GsbcWriter writer(path, g.order());
        storage::GsbcStage stage(writer, *table);
        parallel_bk(g, stage, options);
        writer.close();
      } catch (const std::runtime_error& e) {
        error = e.what();
      }
      EXPECT_EQ(error.rfind("gsbc: ", 0), 0u) << error;
      EXPECT_EQ(tracker.current(util::MemTag::kCliqueStorage), 0u);
      EXPECT_FALSE(fs::exists(path));
      EXPECT_FALSE(fs::exists(path + ".tmp." + std::to_string(::getpid())));
    }
  }
}

// -- search-tree pin ---------------------------------------------------------

/// A graph whose roots straddle word boundaries: for each width s, a root
/// r with exactly s neighbors — 10 of them in a dense 30-vertex core that
/// the degeneracy order removes after r (CANDIDATES), the rest low-degree
/// fringe vertices removed before it (NOT), each tied to two of r's core
/// neighbors and sparsely to each other — plus the hub of a 150-vertex
/// fan (a path whose vertices all join the hub), removed after its whole
/// neighborhood, so its CANDIDATES are empty.  Vertex ids are
/// shuffled so CANDIDATES and NOT interleave in id order.
struct PinGraph {
  graph::Graph graph;
  std::vector<graph::VertexId> roots;  ///< r per width, then the hub
};

PinGraph wide_root_graph(const std::vector<std::size_t>& widths) {
  util::Rng rng(2005);
  std::vector<std::pair<graph::VertexId, graph::VertexId>> edges;
  std::vector<graph::VertexId> roots;
  graph::VertexId next = 0;
  constexpr std::size_t kCore = 30;
  constexpr std::size_t kRootCore = 10;
  for (const std::size_t width : widths) {
    const graph::VertexId root = next++;
    const graph::VertexId core = next;
    next += kCore;
    const graph::VertexId fringe = next;
    const std::size_t fringe_size = width - kRootCore;
    next += static_cast<graph::VertexId>(fringe_size);
    roots.push_back(root);
    for (std::size_t a = 0; a < kCore; ++a) {
      for (std::size_t b = a + 1; b < kCore; ++b) {
        if (rng.chance(0.9)) edges.emplace_back(core + a, core + b);
      }
    }
    for (std::size_t c = 0; c < kRootCore; ++c) edges.emplace_back(root, core + c);
    for (std::size_t f = 0; f < fringe_size; ++f) {
      const auto v = static_cast<graph::VertexId>(fringe + f);
      edges.emplace_back(root, v);
      const auto c0 = static_cast<graph::VertexId>(
          rng.uniform_int(0, kRootCore - 1));
      const auto c1 = static_cast<graph::VertexId>(
          (c0 + rng.uniform_int(1, kRootCore - 1)) % kRootCore);
      edges.emplace_back(v, core + c0);
      edges.emplace_back(v, core + c1);
      for (std::size_t h = f + 1; h < fringe_size; ++h) {
        if (rng.chance(0.05)) {
          edges.emplace_back(v, static_cast<graph::VertexId>(fringe + h));
        }
      }
    }
  }
  constexpr std::size_t kFan = 150;
  const graph::VertexId hub = next++;
  roots.push_back(hub);
  for (std::size_t i = 0; i < kFan; ++i) {
    edges.emplace_back(hub, next + i);
    if (i + 1 < kFan) edges.emplace_back(next + i, next + i + 1);
  }
  next += kFan;

  std::vector<graph::VertexId> relabel(next);
  for (graph::VertexId v = 0; v < next; ++v) relabel[v] = v;
  rng.shuffle(relabel);
  // Id 0 for the hub: degree ties pop the most recently re-filed vertex,
  // and a removal re-files its neighbors in id order, so the hub then
  // outlasts its last fan neighbor.
  std::swap(relabel[hub], *std::find(relabel.begin(), relabel.end(), 0u));
  for (auto& [u, v] : edges) {
    u = relabel[u];
    v = relabel[v];
  }
  for (auto& root : roots) root = relabel[root];
  return {graph::Graph::from_edges(next, edges), roots};
}

struct TreePin {
  std::uint64_t emission_hash = 0;  ///< FNV-1a over the flat transcript
  std::size_t emission_words = 0;
  std::uint64_t tree_nodes = 0;
  std::size_t max_depth = 0;
  std::uint64_t maximal_cliques = 0;
};

std::uint64_t fnv1a(const std::vector<graph::VertexId>& flat) {
  std::uint64_t hash = 14695981039346656037ull;
  for (const graph::VertexId v : flat) {
    for (int byte = 0; byte < 4; ++byte) {
      hash ^= (v >> (8 * byte)) & 0xFFu;
      hash *= 1099511628211ull;
    }
  }
  return hash;
}

void expect_pinned_tree(const graph::GraphView& g, const TreePin& pin) {
  std::vector<graph::VertexId> flat;
  const auto record = [&](std::span<const graph::VertexId> clique) {
    flat.push_back(static_cast<graph::VertexId>(clique.size()));
    flat.insert(flat.end(), clique.begin(), clique.end());
  };
  const BronKerboschStats sequential = degeneracy_bk(g, record);
  EXPECT_EQ(fnv1a(flat), pin.emission_hash);
  EXPECT_EQ(flat.size(), pin.emission_words);
  EXPECT_EQ(sequential.tree_nodes, pin.tree_nodes);
  EXPECT_EQ(sequential.max_depth, pin.max_depth);
  EXPECT_EQ(sequential.maximal_cliques, pin.maximal_cliques);
  for (const std::size_t threads : {1u, 2u, 4u}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    flat.clear();
    ParallelBkOptions options;
    options.threads = threads;
    const ParallelBkStats parallel = parallel_bk(g, record, options);
    EXPECT_EQ(fnv1a(flat), pin.emission_hash);
    EXPECT_EQ(flat.size(), pin.emission_words);
    EXPECT_EQ(parallel.base.tree_nodes, pin.tree_nodes);
    EXPECT_EQ(parallel.base.max_depth, pin.max_depth);
    EXPECT_EQ(parallel.base.maximal_cliques, pin.maximal_cliques);
  }
}

// The constants below were recorded with the global-width (n-bit) search
// that preceded the root-local universe; the local search must reproduce
// its tree node for node and its emission sequence byte for byte.
TEST(BkTreePin, WordStraddlingRootsMatchRecordedTree) {
  const PinGraph pin = wide_root_graph({63, 64, 65, 140});
  const graph::GraphView g(pin.graph);
  // The construction must produce the neighborhoods it is named for.
  const graph::DegeneracyResult deg = graph::degeneracy_order(g);
  std::vector<std::size_t> position(g.order());
  for (std::size_t i = 0; i < deg.order.size(); ++i) position[deg.order[i]] = i;
  const std::vector<std::size_t> widths = {63, 64, 65, 140, 150};
  for (std::size_t k = 0; k < pin.roots.size(); ++k) {
    const graph::VertexId root = pin.roots[k];
    std::size_t later = 0;
    g.neighbors(root).for_each([&](std::size_t u) {
      if (position[u] > position[root]) ++later;
    });
    EXPECT_EQ(g.degree(root), widths[k]) << "root " << k;
    if (k + 1 < pin.roots.size()) {
      EXPECT_GT(later, 0u) << "root " << k;
      EXPECT_LT(later, widths[k]) << "root " << k;
    } else {
      EXPECT_EQ(later, 0u) << "the hub must have empty CANDIDATES";
    }
  }
  expect_pinned_tree(g, {13412286978558071241ull, 59971, 12930, 16, 5226});
}

TEST(BkTreePin, MappedModuleGraphMatchesRecordedTree) {
  util::Rng rng(7919);
  graph::ModuleGraphConfig config;
  config.n = 2000;
  config.num_modules = 80;
  config.max_module_size = 24;
  config.p_in = 0.9;
  config.overlap = 0.3;
  config.background_edges = 6000;
  const auto mg = graph::planted_modules(config, rng);
  const std::string path = write_temp_gsbg(mg.graph, 9000);
  {
    const auto mapped = storage::MappedGraph::open(path);
    expect_pinned_tree(mapped.view(),
                       {16285557874225924114ull, 29703, 11529, 16, 6999});
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace gsb::core
