#ifndef GSB_CORE_SUBLIST_H
#define GSB_CORE_SUBLIST_H

/// \file sublist.h
/// The candidate k-clique **sub-list** — the paper's central data structure
/// (§2.3).
///
/// All candidate k-cliques that share a (k−1)-clique prefix are stored
/// together as:
///   * the shared prefix, kept **once** (k−1 vertex ids),
///   * the bit string of the prefix's common neighbors, and
///   * the array of k-th vertices ("tails"), ascending, each one standing
///     for the candidate clique prefix ∪ {tail}.
///
/// This factorization is what turns the level-by-level enumeration from
/// memory-infeasible (Kose et al. store every clique explicitly) into the
/// paper's compact form, and it is also the unit of parallel work: a
/// sub-list is processed independently of every other sub-list.
///
/// **Flat levels.**  Every sub-list of level k has a prefix of length k−1,
/// so a level is stored as plain arrays rather than one heap object per
/// sub-list: a SublistBlock holds the prefixes at stride k−1, all tails
/// in one array and all common strings in one word array, each with one
/// 32-bit end offset per sub-list.  The two offsets take the place of the
/// paper's per-sub-list pointer.
///
/// **Root-local universes.**  A sub-list whose prefix starts at root r
/// only ever touches vertices of L = N(r): its tails are common neighbors
/// of the prefix, and so is every witness w of the maximality test.  So
/// the common string is a |L|-bit string over L (ascending global order),
/// tails are local indices into L, and the kernel reads the root's local
/// adjacency rows instead of n-bit graph rows (RootUniverse).  Local order
/// equals global order, so tail order, every counter and the emission
/// sequence are those of the n-bit layout.  Per sub-list that is the
/// paper's space formula with ⌈|N(r)|/64⌉ words in place of ⌈n/8⌉ bytes.

#include <cstdint>
#include <span>
#include <vector>

#include "bitset/bitset_view.h"
#include "graph/graph_view.h"
#include "util/memory_tracker.h"

namespace gsb::core {

using Word = bits::BitsetView::Word;

/// Root-local universe of root r: L = N(r) in ascending global order, and
/// the local adjacency rows N(x) ∩ L of the members x above r — only those
/// can be tails of a sub-list rooted at r.
class RootUniverse {
 public:
  RootUniverse(const graph::GraphView& g, graph::VertexId root);

  [[nodiscard]] graph::VertexId root() const noexcept { return root_; }
  /// |L|.
  [[nodiscard]] std::size_t width() const noexcept { return members_.size(); }
  /// Words per local bit string: ⌈|L|/64⌉.
  [[nodiscard]] std::size_t words() const noexcept { return words_; }
  /// L: local index -> global id, ascending.
  [[nodiscard]] std::span<const graph::VertexId> members() const noexcept {
    return members_;
  }
  [[nodiscard]] graph::VertexId global(std::uint32_t local) const noexcept {
    return members_[local];
  }
  /// Local row of member \p local, which must lie above the root.
  [[nodiscard]] const Word* row(std::uint32_t local) const noexcept {
    return rows_.data() + (local - first_row_) * words_;
  }
  /// Bytes held (members and rows).
  [[nodiscard]] std::size_t bytes() const noexcept;

 private:
  graph::VertexId root_ = 0;
  std::vector<graph::VertexId> members_;
  std::size_t first_row_ = 0;  ///< local index of the first member above r
  std::size_t words_ = 0;
  std::vector<Word> rows_;
};

/// A run of sub-lists of one level, stored flat, in canonical order.
/// Tails are local indices into the universe of the sub-list's root
/// (prefix[0]); common strings are words over that universe.
class SublistBlock {
 public:
  SublistBlock() noexcept = default;
  /// \p prefix_len is k−1 for a block of candidate k-cliques.
  explicit SublistBlock(std::size_t prefix_len) noexcept
      : prefix_len_(prefix_len) {}

  /// Number of sub-lists (N[k] contribution).
  [[nodiscard]] std::size_t size() const noexcept { return tail_end_.size(); }
  [[nodiscard]] bool empty() const noexcept { return tail_end_.empty(); }
  /// Number of candidate cliques (M[k] contribution).
  [[nodiscard]] std::size_t candidates() const noexcept {
    return tails_.size() - pending_;
  }

  [[nodiscard]] std::span<const graph::VertexId> prefix(
      std::size_t i) const noexcept {
    return {prefixes_.data() + i * prefix_len_, prefix_len_};
  }
  [[nodiscard]] graph::VertexId root(std::size_t i) const noexcept {
    return prefixes_[i * prefix_len_];
  }
  /// The distinct roots of the block's sub-lists, in order.
  [[nodiscard]] std::span<const graph::VertexId> roots() const noexcept {
    return roots_;
  }
  [[nodiscard]] std::span<const std::uint32_t> tails(
      std::size_t i) const noexcept {
    const std::uint32_t begin = i == 0 ? 0 : tail_end_[i - 1];
    return {tails_.data() + begin, tail_end_[i] - begin};
  }
  [[nodiscard]] std::span<const Word> common(std::size_t i) const noexcept {
    const std::uint32_t begin = i == 0 ? 0 : common_end_[i - 1];
    return {common_.data() + begin, common_end_[i] - begin};
  }
  /// Upper bound on pair-comparison work when sub-list \p i generates the
  /// next level: the paper's O((n-k)^2) inner loop, exactly t*(t-1)/2.
  [[nodiscard]] std::uint64_t pair_work(std::size_t i) const noexcept {
    const std::uint64_t t = tails(i).size();
    return t * (t - 1) / 2;
  }

  /// Bytes of the flat layout in use (array slack is not counted).
  [[nodiscard]] std::size_t bytes() const noexcept;

  /// Empties the block for reuse at prefix length \p prefix_len; its
  /// arrays keep their storage, so a level built into recycled blocks
  /// neither reallocates nor faults in fresh pages.
  void reset(std::size_t prefix_len) noexcept;

  // --- building ---------------------------------------------------------
  // Tails of the next sub-list are pushed first; commit() closes it with
  // its prefix and common string, drop_pending() discards them.

  void push_tail(std::uint32_t local) {
    tails_.push_back(local);
    ++pending_;
  }
  [[nodiscard]] std::size_t pending_tails() const noexcept { return pending_; }
  void drop_pending() noexcept {
    tails_.resize(tails_.size() - pending_);
    pending_ = 0;
  }
  /// Closes the pending tails as a sub-list with prefix \p prefix.
  void commit(std::span<const graph::VertexId> prefix,
              std::span<const Word> common);
  /// As commit(), with prefix \p head ∪ {last}.
  void commit(std::span<const graph::VertexId> head, graph::VertexId last,
              std::span<const Word> common);

 private:
  void close(graph::VertexId root, std::span<const Word> common);

  std::size_t prefix_len_ = 0;
  std::vector<graph::VertexId> prefixes_;  ///< stride prefix_len_, global
  std::vector<std::uint32_t> tails_;       ///< local ids
  std::vector<std::uint32_t> tail_end_;    ///< per sub-list, into tails_
  std::vector<Word> common_;
  std::vector<std::uint32_t> common_end_;  ///< per sub-list, into common_
  std::vector<graph::VertexId> roots_;     ///< distinct, in order
  std::size_t pending_ = 0;
};

/// One sub-list as read from a level.
struct SublistView {
  std::span<const graph::VertexId> prefix;  ///< global ids, ascending
  std::span<const std::uint32_t> tails;     ///< local ids into *universe
  std::span<const Word> common;             ///< bit string over *universe
  const RootUniverse* universe = nullptr;

  /// Pair-comparison work of expanding this sub-list, t*(t-1)/2.
  [[nodiscard]] std::uint64_t pair_work() const noexcept {
    const std::uint64_t t = tails.size();
    return t * (t - 1) / 2;
  }
};

/// A level: every candidate k-clique sub-list for one k, as blocks in
/// canonical order, plus the universes of the roots that head them.
/// With a tracker, the level accounts every byte it holds under
/// MemTag::kCliqueStorage until it is destroyed.
class Level {
 public:
  Level() noexcept = default;
  explicit Level(util::MemoryTracker* tracker) noexcept : tracker_(tracker) {}
  ~Level();
  Level(Level&& other) noexcept;
  Level& operator=(Level&& other) noexcept;
  Level(const Level&) = delete;
  Level& operator=(const Level&) = delete;

  [[nodiscard]] std::span<const SublistBlock> blocks() const noexcept {
    return blocks_;
  }
  [[nodiscard]] std::span<const RootUniverse> universes() const noexcept {
    return universes_;
  }
  /// Universe of \p root; it must head a sub-list of this level.
  [[nodiscard]] const RootUniverse& universe(graph::VertexId root) const;
  /// Universe of \p root, or null when the level has none.
  [[nodiscard]] const RootUniverse* find_universe(
      graph::VertexId root) const noexcept;

  /// Number of sub-lists (the paper's N[k]).
  [[nodiscard]] std::size_t size() const noexcept;
  [[nodiscard]] bool empty() const noexcept { return size() == 0; }
  /// Number of candidate cliques (the paper's M[k]).
  [[nodiscard]] std::uint64_t candidates() const noexcept;
  /// Bytes in use: blocks, root universes and the level's own arrays.
  [[nodiscard]] std::size_t bytes() const noexcept;

  /// Calls fn(const SublistView&) for \p count sub-lists in order,
  /// starting at the \p first-th.
  template <typename Fn>
  void for_each(std::size_t first, std::size_t count, Fn&& fn) const {
    const RootUniverse* universe = nullptr;
    for (const SublistBlock& block : blocks_) {
      if (count == 0) break;
      if (first >= block.size()) {
        first -= block.size();
        continue;
      }
      for (std::size_t i = first; count != 0 && i < block.size();
           ++i, --count) {
        if (universe == nullptr || universe->root() != block.root(i)) {
          universe = &this->universe(block.root(i));
        }
        fn(SublistView{block.prefix(i), block.tails(i), block.common(i),
                       universe});
      }
      first = 0;
    }
  }
  /// Calls fn(const SublistView&) for every sub-list in order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for_each(0, size(), fn);
  }

  /// Appends a block (empty blocks are dropped).
  void append(SublistBlock&& block);
  /// Hands over the level's blocks, e.g. to reuse their storage; the
  /// universes stay.
  std::vector<SublistBlock> take_blocks() noexcept;
  /// Adds a root universe unless one for the same root is present.
  void add_universe(RootUniverse&& universe);
  /// Appends another level's blocks and universes (its accounting moves
  /// to this level's tracker).
  void append(Level&& fragment);
  /// Moves over from \p parent the universes of the roots that head a
  /// sub-list of this level; the rest are freed with \p parent.
  void inherit_universes(Level& parent);

 private:
  void track(std::size_t bytes) noexcept;
  void release_all() noexcept;

  std::vector<SublistBlock> blocks_;
  std::vector<RootUniverse> universes_;  ///< sorted by root
  util::MemoryTracker* tracker_ = nullptr;
  std::size_t tracked_ = 0;
};

/// Aggregate counts for a level.
struct LevelCounts {
  std::uint64_t sublists = 0;    ///< the paper's N[k]
  std::uint64_t candidates = 0;  ///< the paper's M[k]
};

/// Counts sub-lists and candidate cliques of a level.
LevelCounts count_level(const Level& level) noexcept;

/// The paper's closed-form space requirement for a level at clique size k:
///   M[k]*c + N[k]*((k-1)*c + ceil(n/8)) + N[k]*sizeof(pointer)
/// with c = sizeof(VertexId): n-bit common strings, as in the paper.
std::size_t level_bytes_formula(const LevelCounts& counts, std::size_t k,
                                std::size_t n) noexcept;

/// Actual bytes of a level in the flat, root-local layout.
std::size_t level_bytes_actual(const Level& level) noexcept;

}  // namespace gsb::core

#endif  // GSB_CORE_SUBLIST_H
