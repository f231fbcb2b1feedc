#include "graph/graph_view.h"

#include <algorithm>

namespace gsb::graph {

GraphView::GraphView(const Graph& g)
    : n_(g.order()), num_edges_(g.num_edges()), degrees_(g.degrees_data()) {
  rows_.resize(n_);
  for (std::size_t v = 0; v < n_; ++v) {
    rows_[v] = g.neighbors(static_cast<VertexId>(v)).words().data();
  }
}

GraphView::GraphView(const Word* base, std::size_t words_per_row,
                     std::size_t n, std::size_t num_edges,
                     const std::size_t* degrees,
                     const std::uint64_t* csr_offsets,
                     const std::uint32_t* csr_targets)
    : n_(n),
      num_edges_(num_edges),
      degrees_(degrees),
      csr_offsets_(csr_offsets),
      csr_targets_(csr_targets) {
  rows_.resize(n_);
  for (std::size_t v = 0; v < n_; ++v) {
    rows_[v] = base + v * words_per_row;
  }
}

std::size_t GraphView::max_degree() const noexcept {
  std::size_t best = 0;
  for (std::size_t v = 0; v < n_; ++v) best = std::max(best, degrees_[v]);
  return best;
}

std::vector<std::pair<VertexId, VertexId>> GraphView::edge_list() const {
  std::vector<std::pair<VertexId, VertexId>> edges;
  edges.reserve(num_edges_);
  for (VertexId u = 0; u < n_; ++u) {
    neighbors(u).for_each([&](std::size_t v) {
      if (v > u) edges.emplace_back(u, static_cast<VertexId>(v));
    });
  }
  return edges;
}

}  // namespace gsb::graph
