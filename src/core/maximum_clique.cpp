#include "core/maximum_clique.h"

#include <algorithm>
#include <numeric>

#include "bitset/dynamic_bitset.h"
#include "util/timer.h"

namespace gsb::core {
namespace {

using bits::DynamicBitset;

/// Orders vertices by degree, highest first, and ties by ascending id, so
/// the greedy bounds pick the same seeds whatever the sort implementation
/// and however the graph's vertices are laid out.
auto by_degree_then_id(const graph::GraphView& g) {
  return [&g](VertexId a, VertexId b) {
    const std::size_t da = g.degree(a);
    const std::size_t db = g.degree(b);
    return da != db ? da > db : a < b;
  };
}

}  // namespace

Clique greedy_clique_lower_bound(const graph::GraphView& g, std::size_t seeds) {
  const std::size_t n = g.order();
  if (n == 0) return {};
  std::vector<VertexId> by_degree(n);
  std::iota(by_degree.begin(), by_degree.end(), VertexId{0});
  std::sort(by_degree.begin(), by_degree.end(), by_degree_then_id(g));

  Clique best;
  DynamicBitset cand(n);
  seeds = std::min(seeds, n);
  for (std::size_t s = 0; s < seeds; ++s) {
    const VertexId seed = by_degree[s];
    Clique clique{seed};
    cand.assign_and(g.neighbors(seed), g.neighbors(seed));
    while (true) {
      // Extend with the candidate of maximum residual degree into cand.
      VertexId pick = static_cast<VertexId>(n);
      std::size_t pick_links = 0;
      for (std::size_t v = cand.find_first(); v < n; v = cand.find_next(v)) {
        const std::size_t links =
            DynamicBitset::count_and(cand, g.neighbors(static_cast<VertexId>(v)));
        if (pick == n || links > pick_links) {
          pick = static_cast<VertexId>(v);
          pick_links = links;
        }
      }
      if (pick == n) break;
      clique.push_back(pick);
      cand &= g.neighbors(pick);
    }
    if (clique.size() > best.size()) best = std::move(clique);
  }
  std::sort(best.begin(), best.end());
  return best;
}

std::size_t greedy_coloring_upper_bound(const graph::GraphView& g) {
  const std::size_t n = g.order();
  if (n == 0) return 0;
  std::vector<VertexId> order(n);
  std::iota(order.begin(), order.end(), VertexId{0});
  std::sort(order.begin(), order.end(), by_degree_then_id(g));
  std::vector<DynamicBitset> classes;  // members per color
  for (VertexId v : order) {
    bool placed = false;
    for (auto& cls : classes) {
      if (!DynamicBitset::intersects(cls, g.neighbors(v))) {
        cls.set(v);
        placed = true;
        break;
      }
    }
    if (!placed) {
      classes.emplace_back(n);
      classes.back().set(v);
    }
  }
  return classes.size();
}

namespace {

/// Tomita-style search: candidates are greedily colored; vertices are
/// expanded in decreasing color order, pruning when |R| + color <= |best|.
class MaxCliqueSearch {
 public:
  explicit MaxCliqueSearch(const graph::GraphView& g)
      : g_(g), n_(g.order()) {}

  MaxCliqueResult run() {
    util::Timer timer;
    MaxCliqueResult result;
    best_ = greedy_clique_lower_bound(g_);
    if (n_ > 0) {
      DynamicBitset cand(n_);
      cand.set_all();
      current_.reserve(n_);
      // Pre-size the frame pool: the vector must never reallocate while
      // frame references are live across recursive calls.
      frames_.resize(n_ + 1);
      expand(cand, 0);
    }
    result.clique = best_;
    std::sort(result.clique.begin(), result.clique.end());
    result.tree_nodes = nodes_;
    result.seconds = timer.seconds();
    return result;
  }

 private:
  struct Frame {
    std::vector<VertexId> order;
    std::vector<std::uint32_t> color;
    DynamicBitset next_cand;
  };

  Frame& frame(std::size_t depth) {
    Frame& f = frames_[depth];
    if (f.next_cand.size() != n_) f.next_cand.resize(n_);
    return f;
  }

  /// Sequential greedy coloring of `cand`; fills order/color with vertices
  /// sorted by ascending color.
  void color_sort(const DynamicBitset& cand, Frame& f) {
    f.order.clear();
    f.color.clear();
    DynamicBitset uncolored = cand;
    std::uint32_t color = 0;
    DynamicBitset cls(n_);
    while (uncolored.any()) {
      ++color;
      cls.clear_all();
      for (std::size_t v = uncolored.find_first(); v < n_;
           v = uncolored.find_next(v)) {
        if (!DynamicBitset::intersects(cls,
                                       g_.neighbors(static_cast<VertexId>(v)))) {
          cls.set(v);
          f.order.push_back(static_cast<VertexId>(v));
          f.color.push_back(color);
        }
      }
      uncolored.and_not(cls);
    }
  }

  void expand(DynamicBitset& cand, std::size_t depth) {
    ++nodes_;
    Frame& f = frame(depth);
    color_sort(cand, f);
    for (std::size_t i = f.order.size(); i-- > 0;) {
      if (current_.size() + f.color[i] <= best_.size()) return;
      const VertexId v = f.order[i];
      current_.push_back(v);
      f.next_cand.assign_and(cand, g_.neighbors(v));
      if (f.next_cand.none()) {
        if (current_.size() > best_.size()) best_ = current_;
      } else {
        // Safe to pass this depth's buffer: the callee touches only deeper
        // frames, and the buffer is rebuilt before the next iteration.
        expand(f.next_cand, depth + 1);
      }
      current_.pop_back();
      cand.reset(v);
    }
  }

  const graph::GraphView g_;
  const std::size_t n_;
  Clique current_;
  Clique best_;
  std::uint64_t nodes_ = 0;
  std::vector<Frame> frames_;
};

}  // namespace

MaxCliqueResult maximum_clique(const graph::GraphView& g) {
  MaxCliqueSearch search(g);
  return search.run();
}

}  // namespace gsb::core
