#ifndef GSB_TESTS_TEST_HELPERS_H
#define GSB_TESTS_TEST_HELPERS_H

/// Shared fixtures for the clique-algorithm test suites: seeded random
/// graphs and collector-based wrappers that return normalized clique sets
/// for order-insensitive comparison.

#include <tuple>
#include <vector>

#include "core/bron_kerbosch.h"
#include "core/clique.h"
#include "core/clique_enumerator.h"
#include "core/kose.h"
#include "core/parallel_enumerator.h"
#include "core/sublist.h"
#include "core/verify.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "util/rng.h"

namespace gsb::test {

inline graph::Graph random_graph(std::size_t n, double p,
                                 std::uint64_t seed) {
  util::Rng rng(seed);
  return graph::gnp(n, p, rng);
}

/// A sub-list in global ids: (prefix, tails, common set).
using SublistKey = std::tuple<core::Clique, std::vector<graph::VertexId>,
                              std::vector<graph::VertexId>>;

/// Every sub-list of \p level in global ids, in level order: tails and
/// common bits are mapped back through the root's universe.
inline std::vector<SublistKey> sublist_keys(const core::Level& level) {
  constexpr std::size_t kBits = bits::BitsetView::kWordBits;
  std::vector<SublistKey> keys;
  level.for_each([&](const core::SublistView& s) {
    SublistKey key;
    auto& [prefix, tails, common] = key;
    prefix.assign(s.prefix.begin(), s.prefix.end());
    for (const std::uint32_t t : s.tails) {
      tails.push_back(s.universe->global(t));
    }
    for (std::size_t j = 0; j < s.universe->width(); ++j) {
      if ((s.common[j / kBits] >> (j % kBits)) & 1u) {
        common.push_back(s.universe->global(static_cast<std::uint32_t>(j)));
      }
    }
    keys.push_back(std::move(key));
  });
  return keys;
}

inline std::vector<core::Clique> run_base_bk(const graph::Graph& g,
                                             const core::SizeRange& range = {}) {
  core::CliqueCollector out;
  core::base_bk(g, out.callback(), range);
  return core::normalize(std::move(out.cliques()));
}

inline std::vector<core::Clique> run_improved_bk(
    const graph::Graph& g, const core::SizeRange& range = {}) {
  core::CliqueCollector out;
  core::improved_bk(g, out.callback(), range);
  return core::normalize(std::move(out.cliques()));
}

inline std::vector<core::Clique> run_clique_enumerator(
    const graph::Graph& g, core::CliqueEnumeratorOptions options = {}) {
  core::CliqueCollector out;
  core::enumerate_maximal_cliques(g, out.callback(), options);
  return core::normalize(std::move(out.cliques()));
}

inline std::vector<core::Clique> run_parallel_enumerator(
    const graph::Graph& g, core::ParallelOptions options = {}) {
  core::CliqueCollector out;
  core::enumerate_maximal_cliques_parallel(g, out.callback(), options);
  return core::normalize(std::move(out.cliques()));
}

inline std::vector<core::Clique> run_kose(const graph::Graph& g,
                                          core::KoseOptions options = {}) {
  core::CliqueCollector out;
  core::kose_ram(g, out.callback(), options);
  return core::normalize(std::move(out.cliques()));
}

/// Reference maximal cliques filtered to a size window.
inline std::vector<core::Clique> reference_in_range(
    const graph::Graph& g, const core::SizeRange& range) {
  return core::filter_by_size(core::reference_maximal_cliques(g), range);
}

}  // namespace gsb::test

#endif  // GSB_TESTS_TEST_HELPERS_H
