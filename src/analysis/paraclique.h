#ifndef GSB_ANALYSIS_PARACLIQUE_H
#define GSB_ANALYSIS_PARACLIQUE_H

/// \file paraclique.h
/// Paraclique extraction.
///
/// The paper motivates "cliques, paracliques and other forms of
/// densely-connected subgraphs" for separating co-variation sources in
/// expression networks: measurement noise turns true modules into
/// near-cliques, so after a maximum clique is found it is "glommed"
/// outward with vertices adjacent to almost all current members.

#include "core/clique.h"
#include "graph/graph_view.h"
#include "storage/clique_stream.h"

namespace gsb::analysis {

/// Glom policy: a vertex joins when it misses at most `glom` members of the
/// current paraclique.
struct ParacliqueOptions {
  std::size_t glom = 1;        ///< allowed non-neighbors per joining vertex
  std::size_t max_rounds = 0;  ///< growth iterations; 0 = until fixpoint
};

/// Result of one extraction.
struct Paraclique {
  core::Clique members;       ///< sorted member vertices
  std::size_t seed_size = 0;  ///< size of the seed clique
  double density = 0.0;       ///< edge density of the induced subgraph
};

/// Grows a paraclique from \p seed_clique (assumed to be a clique of g).
Paraclique grow_paraclique(const graph::GraphView& g,
                           const core::Clique& seed_clique,
                           const ParacliqueOptions& options = {});

/// Convenience: finds a maximum clique (branch and bound) and gloms it.
Paraclique extract_paraclique(const graph::GraphView& g,
                              const ParacliqueOptions& options = {});

/// Seeds from a `.gsbc` clique stream instead of re-running maximum clique:
/// one forward pass keeps the largest streamed clique (ties: first
/// encountered) in O(1) clique memory and gloms it.  Drains the reader;
/// throws if the stream is empty.  Stream ids must live in \p g's vertex
/// namespace.
Paraclique extract_paraclique_from_stream(const graph::GraphView& g,
                                          storage::GsbcReader& stream,
                                          const ParacliqueOptions& options = {});

/// Iteratively extracts paracliques until no seed clique of at least
/// \p min_size vertices remains (a seed needs an edge, so sizes below 2
/// act as 2).  Each round seeds from a maximum clique of the residue graph,
/// gloms it, and removes the edges among its members from the residue.
std::vector<Paraclique> extract_all_paracliques(
    const graph::GraphView& g, std::size_t min_size,
    const ParacliqueOptions& options = {});

}  // namespace gsb::analysis

#endif  // GSB_ANALYSIS_PARACLIQUE_H
