#ifndef GSB_STORAGE_MAPPED_GRAPH_H
#define GSB_STORAGE_MAPPED_GRAPH_H

/// \file mapped_graph.h
/// Memory-mapped read access to a `.gsbg` graph container.
///
/// Opening is O(n + m) (header/section validation plus one scan of the CSR
/// offsets and targets) and maps the file read-only; no adjacency data is
/// copied.  When the file carries a bitmap section, view() exposes it, with
/// the CSR rows beside it, through the same graph::GraphView every clique
/// algorithm consumes, so enumeration,
/// maximum clique, paracliques and hub analysis run directly off disk —
/// the OS pages in exactly the rows the algorithms touch, which is the
/// storage/compute separation the genome-scale instances need.
///
/// Files without a bitmap section (written with bitmap=false for
/// compactness) are still fully usable through load(), which materializes
/// an in-memory Graph from the CSR sections.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "bitset/wah_bitset.h"
#include "graph/graph.h"
#include "graph/graph_view.h"
#include "storage/gsbg_format.h"

namespace gsb::storage {

class MappedGraph {
 public:
  struct Options {
    /// Re-hash the payload at open and reject on checksum mismatch.  Costs
    /// one sequential pass over the file; off by default so that opening
    /// stays O(n) for trusted files.
    bool verify_checksum = false;
  };

  MappedGraph() = default;
  ~MappedGraph();
  MappedGraph(MappedGraph&& other) noexcept;
  MappedGraph& operator=(MappedGraph&& other) noexcept;
  MappedGraph(const MappedGraph&) = delete;
  MappedGraph& operator=(const MappedGraph&) = delete;

  /// Maps \p path read-only, validating magic, version, section table and
  /// CSR structure.  Throws std::runtime_error on any malformation.
  static MappedGraph open(const std::string& path, const Options& options);
  static MappedGraph open(const std::string& path) {
    return open(path, Options{});
  }

  [[nodiscard]] bool is_open() const noexcept { return base_ != nullptr; }
  [[nodiscard]] std::size_t order() const noexcept { return header_.n; }
  [[nodiscard]] std::size_t num_edges() const noexcept { return header_.m; }
  [[nodiscard]] double density() const noexcept;
  [[nodiscard]] const GsbgHeader& header() const noexcept { return header_; }
  [[nodiscard]] const std::vector<GsbgSection>& sections() const noexcept {
    return sections_;
  }
  [[nodiscard]] std::size_t file_bytes() const noexcept { return map_bytes_; }

  [[nodiscard]] bool has_bitmap() const noexcept { return bitmap_ != nullptr; }
  [[nodiscard]] bool has_wah() const noexcept { return !wah_offsets_.empty(); }
  [[nodiscard]] bool degree_sorted() const noexcept {
    return (header_.flags & kFlagDegreeSorted) != 0;
  }

  [[nodiscard]] std::size_t degree(graph::VertexId v) const noexcept {
    return degrees_[v];
  }

  /// CSR accessors (always present).
  [[nodiscard]] std::span<const std::uint64_t> csr_offsets() const noexcept {
    return offsets_;
  }
  [[nodiscard]] std::span<const std::uint32_t> csr_targets() const noexcept {
    return targets_;
  }
  /// Sorted neighbors of \p v straight out of the mapped CSR.
  [[nodiscard]] std::span<const std::uint32_t> csr_row(graph::VertexId v)
      const noexcept {
    return targets_.subspan(offsets_[v], offsets_[v + 1] - offsets_[v]);
  }

  /// Stored-id -> original-id permutation; empty unless degree_sorted().
  [[nodiscard]] std::span<const std::uint32_t> permutation() const noexcept {
    return permutation_;
  }

  /// Zero-copy adjacency view over the mapped bitmap and CSR sections
  /// (GraphView::for_each_neighbor walks the CSR rows).  Throws if
  /// the file was written without one.  The view (and anything holding it)
  /// must not outlive this MappedGraph.
  [[nodiscard]] graph::GraphView view() const;

  /// Materializes an in-memory Graph from the CSR sections.
  [[nodiscard]] graph::Graph load() const;

  /// One row of the WAH section, reconstituted.  Throws without has_wah().
  [[nodiscard]] bits::WahBitset wah_row(graph::VertexId v) const;

  /// Full payload checksum pass; throws on mismatch.
  void verify_checksum() const;

 private:
  void release() noexcept;

  GsbgHeader header_;
  std::vector<GsbgSection> sections_;
  const char* base_ = nullptr;     ///< mapped (or heap fallback) file bytes
  std::size_t map_bytes_ = 0;
  bool heap_backed_ = false;       ///< base_ owns heap memory, not a mapping
  std::span<const std::uint64_t> offsets_;
  std::span<const std::uint32_t> targets_;
  const std::uint64_t* bitmap_ = nullptr;
  std::size_t words_per_row_ = 0;
  std::span<const std::uint64_t> wah_offsets_;
  std::span<const std::uint32_t> wah_words_;
  std::span<const std::uint32_t> permutation_;
  std::vector<std::size_t> degrees_;  ///< from CSR offsets, for GraphView
};

}  // namespace gsb::storage

#endif  // GSB_STORAGE_MAPPED_GRAPH_H
