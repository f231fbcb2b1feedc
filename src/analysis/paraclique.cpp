#include "analysis/paraclique.h"

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "bitset/dynamic_bitset.h"
#include "core/maximum_clique.h"
#include "graph/transforms.h"
#include "util/memory_tracker.h"

namespace gsb::analysis {

using bits::DynamicBitset;
using core::Clique;
using graph::VertexId;

Paraclique grow_paraclique(const graph::GraphView& g, const Clique& seed_clique,
                           const ParacliqueOptions& options) {
  const std::size_t n = g.order();
  Paraclique result;
  result.seed_size = seed_clique.size();

  // links[u] = |members ∩ N(u)| and candidates = N(members) \ members are
  // kept current as vertices join.  A non-member outside the candidates has
  // no link to the paraclique, so it can never join.
  DynamicBitset members(n);
  DynamicBitset candidates(n);
  std::vector<std::uint32_t> links(n, 0);
  const auto join = [&](VertexId v) {
    members.set(v);
    candidates.reset(v);
    g.neighbors(v).for_each([&](std::size_t u) {
      ++links[u];
      if (!members.test(u)) candidates.set(u);
    });
  };
  for (VertexId v : seed_clique) {
    if (!members.test(v)) join(v);
  }
  std::size_t member_count = seed_clique.size();

  std::size_t rounds = 0;
  bool grew = true;
  while (grew && (options.max_rounds == 0 || rounds < options.max_rounds)) {
    grew = false;
    ++rounds;
    // Ascending scan: a vertex that joins exposes its higher neighbors to
    // this same round and its lower ones to the next.
    for (std::size_t v = candidates.find_first(); v < n;
         v = candidates.find_next(v)) {
      if (links[v] + options.glom >= member_count) {
        join(static_cast<VertexId>(v));
        ++member_count;
        grew = true;
      }
    }
  }

  members.for_each([&](std::size_t v) {
    result.members.push_back(static_cast<VertexId>(v));
  });
  const auto sub = graph::induced_subgraph(g, result.members);
  result.density = sub.graph.density();
  return result;
}

Paraclique extract_paraclique(const graph::GraphView& g,
                              const ParacliqueOptions& options) {
  const auto seed = core::maximum_clique(g);
  return grow_paraclique(g, seed.clique, options);
}

Paraclique extract_paraclique_from_stream(const graph::GraphView& g,
                                          storage::GsbcReader& stream,
                                          const ParacliqueOptions& options) {
  Clique best;
  Clique current;
  while (stream.next(current)) {
    if (current.size() > best.size()) best.swap(current);
  }
  if (best.empty()) {
    throw std::invalid_argument(
        "extract_paraclique_from_stream: empty clique stream");
  }
  return grow_paraclique(g, best, options);
}

std::vector<Paraclique> extract_all_paracliques(
    const graph::GraphView& g, std::size_t min_size,
    const ParacliqueOptions& options) {
  // Iterative extraction removes edges, so this is the one analysis stage
  // that cannot run off a read-only mapping: it builds a mutable residue.
  // The residue holds only the vertices of nonzero degree, relabelled in
  // ascending order.  An isolated vertex never seeds or joins a paraclique,
  // takes color 1 in the maximum-clique search without touching another
  // vertex's color class, and ranks after every vertex with an edge in the
  // greedy bound, so dropping it changes neither search nor glom.  Recorded
  // with the tracker so out-of-core runs report it in their memory summary.
  std::vector<VertexId> original;  // residue id -> g id
  std::vector<VertexId> local(g.order(), 0);
  for (VertexId v = 0; v < g.order(); ++v) {
    if (g.degree(v) == 0) continue;
    local[v] = static_cast<VertexId>(original.size());
    original.push_back(v);
  }
  graph::Graph residue(original.size());
  for (VertexId u = 0; u < residue.order(); ++u) {
    g.neighbors(original[u]).for_each([&](std::size_t v) {
      if (local[v] > u) residue.add_edge(u, local[v]);
    });
  }
  util::ScopedAllocation residue_bytes(util::global_memory_tracker(),
                                       residue.adjacency_bytes(),
                                       util::MemTag::kGraph);

  // A seed of one vertex has no edge to remove, so extraction would repeat
  // it forever: every paraclique needs at least two members.
  const std::size_t min_seed = std::max<std::size_t>(min_size, 2);
  std::vector<Paraclique> out;
  while (true) {
    const auto seed = core::maximum_clique(residue);
    if (seed.clique.size() < min_seed) break;
    Paraclique para = grow_paraclique(residue, seed.clique, options);
    // Remove the paraclique's edges from the residue graph.
    for (std::size_t i = 0; i < para.members.size(); ++i) {
      for (std::size_t j = i + 1; j < para.members.size(); ++j) {
        residue.remove_edge(para.members[i], para.members[j]);
      }
    }
    for (VertexId& v : para.members) v = original[v];
    out.push_back(std::move(para));
  }
  return out;
}

}  // namespace gsb::analysis
