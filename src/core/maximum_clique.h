#ifndef GSB_CORE_MAXIMUM_CLIQUE_H
#define GSB_CORE_MAXIMUM_CLIQUE_H

/// \file maximum_clique.h
/// Maximum clique: bounds and an exact branch-and-bound solver.
///
/// The paper (§2.1) uses maximum clique to fix the *upper* bound of the
/// enumeration window (and lists further uses: microarray threshold
/// selection, cis-regulatory elements, phylogeny).  Its preferred exact
/// route is FPT vertex cover on the complement (src/fpt); the greedy-
/// coloring-bounded branch-and-bound here is the direct alternative used to
/// cross-validate that route and to serve dense instances where the
/// complement is large.

#include <cstdint>

#include "core/clique.h"
#include "graph/graph_view.h"

namespace gsb::core {

/// Greedy lower bound: grows a clique from each of the highest-degree
/// seeds (equal degrees: lower id first); returns the best found (a valid
/// clique, not necessarily maximum).
Clique greedy_clique_lower_bound(const graph::GraphView& g,
                                 std::size_t seeds = 8);

/// Greedy (Welsh–Powell) coloring upper bound: chi_greedy >= omega.
/// Vertices are colored by degree, highest first (equal degrees: lower id
/// first).
std::size_t greedy_coloring_upper_bound(const graph::GraphView& g);

/// Exact maximum clique result.
struct MaxCliqueResult {
  Clique clique;
  std::uint64_t tree_nodes = 0;
  double seconds = 0.0;
};

/// Exact maximum clique by branch-and-bound with greedy-coloring pruning
/// (Tomita-style).  Exponential worst case; effective on the sparse
/// correlation graphs this framework targets.
MaxCliqueResult maximum_clique(const graph::GraphView& g);

}  // namespace gsb::core

#endif  // GSB_CORE_MAXIMUM_CLIQUE_H
