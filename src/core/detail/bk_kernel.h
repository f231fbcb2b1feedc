#ifndef GSB_CORE_DETAIL_BK_KERNEL_H
#define GSB_CORE_DETAIL_BK_KERNEL_H

/// \file bk_kernel.h
/// The pivoted Bron–Kerbosch subtree search shared by the sequential
/// degeneracy-ordered variant (bron_kerbosch.cpp) and the chunked
/// parallel driver (parallel_bk.cpp).
///
/// Both slice the problem the same way: vertex v_i of a degeneracy order
/// roots one independent subproblem whose CANDIDATES P are v_i's
/// later-ordered neighbors and whose NOT set X is its earlier-ordered
/// neighbors, so every maximal clique is found in exactly one subtree and
/// the deepest CANDIDATES set is bounded by the degeneracy, not the
/// maximum degree.  Inside a subtree the pivot is chosen from
/// CANDIDATES ∪ NOT with the maximum number of connections into
/// CANDIDATES (max-candidate pivoting), so only non-neighbors of the
/// pivot spawn branches.
///
/// Root-local universe.  Every set a subtree touches lies inside
/// L = P ∪ X = N(v_i), so the search re-indexes L in ascending global
/// order and runs on |L|-bit sets instead of the graph's n-bit rows: on a
/// 20,000-vertex graph whose roots have a few dozen neighbors that is one
/// word per set operation instead of 313.  Local order equals global
/// order, so candidate iteration, pivot tie-breaking (CANDIDATES first,
/// then NOT, each ascending) and branch order — hence the search tree and
/// the emission sequence — are exactly those of a global-width search.
/// Per root the local rows cost |L|·⌈|L|/64⌉ words, reused across roots;
/// a root with empty P builds none.  L and, on a view with CSR rows (a
/// mapped .gsbg), the local rows come from GraphView::for_each_neighbor:
/// each P vertex's ascending neighbor ids are looked up in a vertex-
/// indexed slot table (n ids per search, set and cleared per root), so a
/// root reads its members' degree-many ids instead of probing n-bit rows.
/// Without CSR rows each P vertex costs |L| bit tests of its n-bit row.
///
/// The search owns its buffers (pooled, no allocation after warm-up) and
/// is deliberately single-threaded: the parallel driver holds one
/// instance per worker.

#include <algorithm>
#include <cassert>
#include <span>
#include <vector>

#include "bitset/dynamic_bitset.h"
#include "core/bron_kerbosch.h"
#include "core/clique.h"
#include "graph/graph_view.h"

namespace gsb::core::detail {

/// One root's pivoted EXTEND search.  Reusable across roots; the sink and
/// size window are fixed for the lifetime of the object.
class BkPivotSearch {
 public:
  /// \p degeneracy is that of \p g: it bounds |P| for every root, hence
  /// the search depth.
  BkPivotSearch(const graph::GraphView& g, const CliqueCallback& sink,
                const SizeRange& range, std::size_t degeneracy)
      : g_(g), sink_(sink), range_(range) {
    compsub_.reserve(degeneracy + 1);
    // One frame per depth below a node with CANDIDATES left, at most
    // |P| + 1 of them; the vector must never reallocate while references
    // into it are live, so size it once up front.
    frames_.resize(degeneracy + 1);
  }

  /// Enumerates every maximal clique whose earliest member in a
  /// degeneracy order is \p root; \p position[v] is v's index in that
  /// order.
  void run_root(VertexId root, std::span<const std::size_t> position) {
    const std::size_t rank = position[root];
    local_.clear();
    g_.for_each_neighbor(root, [&](VertexId u) { local_.push_back(u); });
    width_ = local_.size();
    Frame& f = frame(0);
    f.cand.clear_all();
    f.not_set.clear_all();
    for (std::size_t j = 0; j < width_; ++j) {
      if (position[local_[j]] > rank) {
        f.cand.set(j);
      } else {
        f.not_set.set(j);
      }
    }
    if (f.cand.any()) build_rows(f.cand);
    compsub_.assign(1, root);
    extend(f.cand, f.not_set, 1);
  }

  [[nodiscard]] const BronKerboschStats& stats() const noexcept {
    return stats_;
  }

 private:
  using Word = bits::BitsetView::Word;

  struct Frame {
    bits::DynamicBitset cand;
    bits::DynamicBitset not_set;
  };

  Frame& frame(std::size_t depth) {
    assert(depth < frames_.size());
    Frame& f = frames_[depth];
    if (f.cand.size() != width_) {
      f.cand.resize(width_);
      f.not_set.resize(width_);
    }
    return f;
  }

  [[nodiscard]] bits::BitsetView row(std::size_t v) const noexcept {
    return bits::BitsetView(rows_.data() + v * row_words_, width_);
  }

  void link(std::size_t u, std::size_t v) noexcept {
    constexpr std::size_t kBits = bits::BitsetView::kWordBits;
    rows_[u * row_words_ + v / kBits] |= Word{1} << (v % kBits);
    rows_[v * row_words_ + u / kBits] |= Word{1} << (u % kBits);
  }

  /// Local adjacency rows of L.  Every pair with an endpoint in P is
  /// tested once, from its P endpoint, and set on both sides.  A P-row
  /// is therefore complete; an X-row holds only its P-columns, which is
  /// all the search reads from it: X vertices enter only as pivots, and
  /// a pivot's row is read only against CANDIDATES ⊆ P.
  void build_rows(const bits::DynamicBitset& p) {
    row_words_ = bits::BitsetView::word_count(width_);
    rows_.assign(width_ * row_words_, 0);
    const auto tested_from = [&](std::size_t u, std::size_t v) {
      return v > u || !p.test(v);
    };
    if (!g_.has_csr()) {
      p.for_each([&](std::size_t u) {
        const bits::BitsetView adjacent = g_.neighbors(local_[u]);
        for (std::size_t v = 0; v < width_; ++v) {
          if (tested_from(u, v) && adjacent.test(local_[v])) link(u, v);
        }
      });
      return;
    }
    // CSR rows: walk u's neighbor ids and look each up in L.
    if (slot_.empty()) slot_.assign(g_.order(), 0);
    for (std::size_t v = 0; v < width_; ++v) {
      slot_[local_[v]] = static_cast<VertexId>(v + 1);
    }
    p.for_each([&](std::size_t u) {
      g_.for_each_neighbor(local_[u], [&](VertexId w) {
        const std::size_t slot = slot_[w];
        if (slot != 0 && tested_from(u, slot - 1)) link(u, slot - 1);
      });
    });
    for (std::size_t v = 0; v < width_; ++v) slot_[local_[v]] = 0;
  }

  void emit() {
    ++stats_.maximal_cliques;
    if (range_.contains(compsub_.size())) {
      sink_(std::span<const VertexId>(compsub_));
    }
  }

  void extend(bits::DynamicBitset& candidates, bits::DynamicBitset& not_set,
              std::size_t depth) {
    ++stats_.tree_nodes;
    stats_.max_depth = std::max(stats_.max_depth, depth);
    if (candidates.none()) {
      if (not_set.none()) emit();
      return;
    }

    // Max-candidate pivot from CANDIDATES ∪ NOT: branching is restricted
    // to candidates not adjacent to the pivot.
    std::size_t pivot = width_;
    std::size_t best = 0;
    const auto consider = [&](std::size_t v) {
      const std::size_t links =
          bits::DynamicBitset::count_and(candidates, row(v));
      if (pivot == width_ || links > best) {
        pivot = v;
        best = links;
      }
    };
    candidates.for_each(consider);
    not_set.for_each(consider);
    const bits::BitsetView pivot_row = row(pivot);

    Frame& f = frame(depth);
    for (std::size_t v = candidates.find_first(); v < width_;
         v = candidates.find_next(v)) {
      if (v != pivot && pivot_row.test(v)) {
        continue;  // covered by the pivot's branch
      }
      candidates.reset(v);
      compsub_.push_back(local_[v]);
      const bits::BitsetView nv = row(v);
      f.cand.assign_and(candidates, nv);
      f.not_set.assign_and(not_set, nv);
      extend(f.cand, f.not_set, depth + 1);
      compsub_.pop_back();
      not_set.set(v);
    }
  }

  const graph::GraphView& g_;
  const CliqueCallback& sink_;
  SizeRange range_;
  std::vector<VertexId> compsub_;  ///< global ids, root first
  std::vector<Frame> frames_;
  std::vector<VertexId> local_;  ///< L: local index -> global id, ascending
  std::vector<VertexId> slot_;   ///< global id -> local index + 1 (0: not in L)
  std::size_t width_ = 0;        ///< |L|
  std::vector<Word> rows_;       ///< |L| local rows, row_words_ words each
  std::size_t row_words_ = 0;
  BronKerboschStats stats_;
};

}  // namespace gsb::core::detail

#endif  // GSB_CORE_DETAIL_BK_KERNEL_H
