#ifndef GSB_CORE_DETAIL_SUBLIST_KERNEL_H
#define GSB_CORE_DETAIL_SUBLIST_KERNEL_H

/// \file sublist_kernel.h
/// The inner loop of the Clique Enumerator (§2.3, Figure 3), shared by the
/// sequential and the multithreaded drivers.  Processing one sub-list is an
/// independent unit of work: it reads only its own sub-list and its root's
/// universe, and appends to a caller-supplied output block — which is what
/// makes the algorithm "parallel because the generation of (k+1)-cliques
/// from one k-clique sub-list is independent of any other k-clique
/// sub-lists".
///
/// Everything runs in the root-local universe L = N(r) of the sub-list's
/// root (sublist.h): bit strings and rows are ⌈|L|/64⌉ words wide, and a
/// child sub-list keeps its parent's root, so it stays in the same
/// universe.

#include <cstdint>
#include <vector>

#include "core/sublist.h"

namespace gsb::core::detail {

/// Counters produced by one sub-list expansion.
struct KernelCounters {
  std::uint64_t pairs_checked = 0;
  std::uint64_t edges_present = 0;
  std::uint64_t maximal_emitted = 0;

  KernelCounters& operator+=(const KernelCounters& other) noexcept {
    pairs_checked += other.pairs_checked;
    edges_present += other.edges_present;
    maximal_emitted += other.maximal_emitted;
    return *this;
  }
};

/// Expands sub-list \p sub into maximal (k+1)-cliques and candidate
/// (k+1)-clique sub-lists appended to \p next.
///
/// \p emit_maximal is called as emit_maximal(prefix, v, u) for each maximal
/// (k+1)-clique prefix ∪ {v, u} (global ids); the callee owns
/// assembling/translating the clique.  \p scratch is reused across calls.
template <typename EmitFn>
KernelCounters expand_sublist(const SublistView& sub, EmitFn&& emit_maximal,
                              SublistBlock& next, std::vector<Word>& scratch) {
  constexpr std::size_t kBits = bits::BitsetView::kWordBits;
  const RootUniverse& universe = *sub.universe;
  KernelCounters counters;
  const std::size_t words = universe.words();
  scratch.resize(words);
  Word* const child_common = scratch.data();
  const std::size_t tail_count = sub.tails.size();

  for (std::size_t i = 0; i + 1 < tail_count; ++i) {
    const std::uint32_t v = sub.tails[i];
    const Word* const nv = universe.row(v);

    // Common neighbors of (prefix + v): one bitwise AND, per the paper's
    // incremental scheme — CommonNeighbors[S_{k+1}] =
    // BitAND(CommonNeighbors[S_k], Neighbors(v)).
    for (std::size_t w = 0; w < words; ++w) {
      child_common[w] = sub.common[w] & nv[w];
    }

    for (std::size_t j = i + 1; j < tail_count; ++j) {
      const std::uint32_t u = sub.tails[j];
      ++counters.pairs_checked;
      if (((nv[u / kBits] >> (u % kBits)) & 1u) == 0) continue;  // no edge
      ++counters.edges_present;
      // Maximality: BitOneExists(BitAND(child_common, Neighbors(u))),
      // evaluated without materializing the intersection.
      const Word* const nu = universe.row(u);
      bool extendable = false;
      for (std::size_t w = 0; w < words && !extendable; ++w) {
        extendable = (child_common[w] & nu[w]) != 0;
      }
      if (extendable) {
        next.push_tail(u);  // candidate (k+1)-clique
      } else {
        ++counters.maximal_emitted;
        emit_maximal(sub.prefix, universe.global(v), universe.global(u));
      }
    }

    // Keep the child sub-list only when it holds at least two candidate
    // cliques; smaller sub-lists cannot generate further cliques in
    // canonical order.
    if (next.pending_tails() > 1) {
      next.commit(sub.prefix, universe.global(v),
                  std::span<const Word>(child_common, words));
    } else {
      next.drop_pending();
    }
  }
  return counters;
}

}  // namespace gsb::core::detail

#endif  // GSB_CORE_DETAIL_SUBLIST_KERNEL_H
