#ifndef GSB_GRAPH_GRAPH_VIEW_H
#define GSB_GRAPH_GRAPH_VIEW_H

/// \file graph_view.h
/// Non-owning, backend-agnostic read view of a bitmap-adjacency graph.
///
/// Every clique algorithm in core/, analysis/ and parallel/ consumes a graph
/// through exactly this surface: order, degrees, and per-vertex neighborhood
/// bit strings.  A GraphView can be built from
///   * an in-memory graph::Graph (implicit conversion — existing callers
///     compile unchanged), or
///   * the bitmap section of a memory-mapped .gsbg file
///     (storage::MappedGraph::view()), in which case the enumerators run
///     directly off disk: the OS pages in only the rows they touch.  The
///     file's CSR section rides along, so walks over a vertex's neighbors
///     (for_each_neighbor) read its degree-many ids, not an n-bit row.
///
/// The view borrows: its source (and, for mapped graphs, the mapping) must
/// outlive it.  Construction is O(n) (a row-pointer table); all accessors
/// are as cheap as the Graph originals.

#include <cstdint>
#include <utility>
#include <vector>

#include "bitset/bitset_view.h"
#include "graph/graph.h"

namespace gsb::graph {

class GraphView {
 public:
  using Word = bits::BitsetView::Word;

  GraphView() = default;

  /// View of an in-memory graph (intentionally implicit so `const Graph&`
  /// call sites keep working against view-based signatures).
  GraphView(const Graph& g);  // NOLINT

  /// View over a contiguous row-major bitmap: row v occupies
  /// words_per_row words starting at base + v * words_per_row.  \p degrees
  /// must hold n entries and outlive the view.  \p csr_offsets (n + 1
  /// entries) and \p csr_targets, when given, list the same adjacency as
  /// ascending ids per row.  This is the mapped-file entry point.
  GraphView(const Word* base, std::size_t words_per_row, std::size_t n,
            std::size_t num_edges, const std::size_t* degrees,
            const std::uint64_t* csr_offsets = nullptr,
            const std::uint32_t* csr_targets = nullptr);

  [[nodiscard]] std::size_t order() const noexcept { return n_; }
  [[nodiscard]] std::size_t num_edges() const noexcept { return num_edges_; }

  /// Edge density: m / (n choose 2).
  [[nodiscard]] double density() const noexcept {
    const double n = static_cast<double>(n_);
    if (n < 2) return 0.0;
    return static_cast<double>(num_edges_) / (n * (n - 1.0) / 2.0);
  }

  [[nodiscard]] bool has_edge(VertexId u, VertexId v) const noexcept {
    return neighbors(u).test(v);
  }

  /// The neighborhood bit string N(v).
  [[nodiscard]] bits::BitsetView neighbors(VertexId v) const noexcept {
    return bits::BitsetView(rows_[v], n_);
  }

  [[nodiscard]] std::size_t degree(VertexId v) const noexcept {
    return degrees_[v];
  }

  [[nodiscard]] std::size_t max_degree() const noexcept;

  /// True when for_each_neighbor reads CSR rows rather than bit rows.
  [[nodiscard]] bool has_csr() const noexcept {
    return csr_targets_ != nullptr;
  }

  /// Calls fn(u) for every neighbor u of \p v in increasing order: off
  /// the CSR row when the view has one, else off the bit row.
  template <typename Fn>
  void for_each_neighbor(VertexId v, Fn&& fn) const {
    if (csr_targets_ != nullptr) {
      const std::uint32_t* end = csr_targets_ + csr_offsets_[v + 1];
      for (const std::uint32_t* u = csr_targets_ + csr_offsets_[v]; u != end;
           ++u) {
        fn(static_cast<VertexId>(*u));
      }
    } else {
      neighbors(v).for_each(
          [&](std::size_t u) { fn(static_cast<VertexId>(u)); });
    }
  }

  /// Neighbor indices of \p v in increasing order.
  [[nodiscard]] std::vector<VertexId> neighbor_list(VertexId v) const {
    return neighbors(v).to_vector();
  }

  /// All edges as (u < v) pairs in lexicographic order.
  [[nodiscard]] std::vector<std::pair<VertexId, VertexId>> edge_list() const;

 private:
  std::size_t n_ = 0;
  std::size_t num_edges_ = 0;
  std::vector<const Word*> rows_;   ///< row word pointers, one per vertex
  const std::size_t* degrees_ = nullptr;
  const std::uint64_t* csr_offsets_ = nullptr;  ///< n + 1, or null
  const std::uint32_t* csr_targets_ = nullptr;
};

}  // namespace gsb::graph

#endif  // GSB_GRAPH_GRAPH_VIEW_H
