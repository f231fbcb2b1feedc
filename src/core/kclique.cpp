#include "core/kclique.h"

#include <cassert>
#include <numeric>

#include "bitset/dynamic_bitset.h"
#include "util/timer.h"

namespace gsb::core {
namespace {

using bits::DynamicBitset;

/// Canonical DFS over clique prefixes, one root vertex at a time.  At depth
/// d the state is
///   prefix_ = v_1 < ... < v_d   (a d-clique)
///   common_[d-1] = N(v_1) ∩ ... ∩ N(v_d)   (all common neighbors)
/// Children extend with common neighbors larger than v_d, which yields each
/// k-clique exactly once in lexicographic order — the "non-repeating
/// canonical order" required for sub-list grouping.  Requires k >= 2.
class KCliqueSearch {
 public:
  KCliqueSearch(const graph::GraphView& g, std::size_t k)
      : g_(g), k_(k), common_(k, DynamicBitset(g.order())) {
    assert(k >= 2);
    prefix_.reserve(k);
  }

  /// Explores every k-clique whose smallest vertex is \p root.
  /// on_leaf(prefix, common_of_prefix) is invoked at depth k-1 with the
  /// prefix's full common-neighbor set; the callee scans the admissible
  /// tails itself.  This shape serves both plain enumeration and seed-level
  /// construction without duplicating the search.
  /// Explores every k-clique whose two smallest vertices are (v, u).
  /// Requires k >= 3 and (v, u) in E with v < u.
  template <typename LeafFn>
  void run_pair(VertexId v, VertexId u, LeafFn&& on_leaf,
                KCliqueStats& stats) {
    ++stats.tree_nodes;
    common_[0].assign_and(g_.neighbors(v), g_.neighbors(v));
    common_[1].assign_and(common_[0], g_.neighbors(u));
    if (2 + common_[1].count_from(u + 1) < k_) {
      ++stats.boundary_cuts;
      return;
    }
    prefix_.assign({v, u});
    descend(2, on_leaf, stats);
  }

  template <typename LeafFn>
  void run_root(VertexId root, LeafFn&& on_leaf, KCliqueStats& stats) {
    ++stats.tree_nodes;
    // Boundary condition: |COMPSUB| + |CANDIDATES| < k.  In canonical order
    // the candidates are the neighbors *above* the root (the root is the
    // clique's smallest vertex), so the count is taken from root+1 — this
    // is exactly the paper's §2.2 cut and it is what makes high Init_K
    // seeding cheap on graphs whose dense regions cannot reach size k.
    if (1 + g_.neighbors(root).count_from(root + 1) < k_) {
      ++stats.boundary_cuts;
      return;
    }
    prefix_.assign(1, root);
    common_[0].assign_and(g_.neighbors(root), g_.neighbors(root));
    descend(1, on_leaf, stats);
  }

 private:
  template <typename LeafFn>
  void descend(std::size_t depth, LeafFn&& on_leaf, KCliqueStats& stats) {
    if (depth == k_ - 1) {
      on_leaf(prefix_, common_[depth - 1]);
      return;
    }
    const DynamicBitset& common = common_[depth - 1];
    const VertexId last = prefix_.back();
    for (std::size_t c = common.find_next(last); c < g_.order();
         c = common.find_next(c)) {
      ++stats.tree_nodes;
      const auto v = static_cast<VertexId>(c);
      common_[depth].assign_and(common, g_.neighbors(v));
      // Boundary condition: |COMPSUB| + |CANDIDATES| < k, with CANDIDATES
      // being the common neighbors above v (canonical extension is upward
      // only, so this count is exact, not a heuristic).
      if (depth + 1 + common_[depth].count_from(c + 1) < k_) {
        ++stats.boundary_cuts;
        continue;
      }
      prefix_.push_back(v);
      descend(depth + 1, on_leaf, stats);
      prefix_.pop_back();
    }
  }

  const graph::GraphView g_;
  const std::size_t k_;
  std::vector<DynamicBitset> common_;
  Clique prefix_;
};

std::vector<VertexId> all_roots(const graph::GraphView& g) {
  std::vector<VertexId> roots(g.order());
  std::iota(roots.begin(), roots.end(), VertexId{0});
  return roots;
}

}  // namespace

KCliqueStats enumerate_kcliques(const graph::GraphView& g, std::size_t k,
                                const KCliqueCallback& sink) {
  KCliqueStats stats;
  if (k == 0) return stats;
  if (k == 1) {
    Clique buf(1);
    for (VertexId v = 0; v < g.order(); ++v) {
      buf[0] = v;
      ++stats.total;
      const bool maximal = g.degree(v) == 0;
      if (maximal) ++stats.maximal;
      sink(buf, maximal);
    }
    return stats;
  }

  KCliqueSearch search(g, k);
  Clique buf;
  buf.reserve(k);
  auto leaf = [&](const Clique& prefix, const DynamicBitset& common) {
    const VertexId last = prefix.back();
    for (std::size_t t = common.find_next(last); t < g.order();
         t = common.find_next(t)) {
      const auto tail = static_cast<VertexId>(t);
      buf.assign(prefix.begin(), prefix.end());
      buf.push_back(tail);
      ++stats.total;
      const bool maximal =
          !DynamicBitset::intersects(common, g.neighbors(tail));
      if (maximal) ++stats.maximal;
      sink(buf, maximal);
    }
  };
  for (VertexId root = 0; root < g.order(); ++root) {
    search.run_root(root, leaf, stats);
  }
  return stats;
}

std::uint64_t count_kcliques(const graph::GraphView& g, std::size_t k) {
  if (k == 0) return 0;
  if (k == 1) return g.order();
  std::uint64_t count = 0;
  KCliqueStats stats;
  KCliqueSearch search(g, k);
  auto leaf = [&](const Clique& prefix, const DynamicBitset& common) {
    const VertexId last = prefix.back();
    for (std::size_t t = common.find_next(last); t < g.order();
         t = common.find_next(t)) {
      ++count;
    }
  };
  for (VertexId root = 0; root < g.order(); ++root) {
    search.run_root(root, leaf, stats);
  }
  return count;
}

namespace {

/// Shared leaf handler for seed-level construction: classifies each tail as
/// a maximal k-clique (streamed out) or a candidate (grouped into the
/// prefix's sub-list), and writes kept sub-lists straight into the flat,
/// root-local form (sublist.h).
class SeedLevelBuilder {
 public:
  SeedLevelBuilder(const graph::GraphView& g, std::size_t k,
                   const CliqueCallback& maximal_sink)
      : g_(g), maximal_sink_(maximal_sink), block_(k - 1) {
    buf_.reserve(k);
  }

  void operator()(const Clique& prefix, const DynamicBitset& common) {
    candidates_.clear();
    const VertexId last = prefix.back();
    for (std::size_t t = common.find_next(last); t < g_.order();
         t = common.find_next(t)) {
      const auto tail = static_cast<VertexId>(t);
      ++stats_.total;
      if (!DynamicBitset::intersects(common, g_.neighbors(tail))) {
        ++stats_.maximal;
        buf_.assign(prefix.begin(), prefix.end());
        buf_.push_back(tail);
        maximal_sink_(buf_);
      } else {
        candidates_.push_back(tail);
      }
    }
    // Sub-lists that cannot pair two candidate cliques are dropped; the
    // canonical-path argument guarantees their cliques' maximal supersets
    // are reached through other prefixes.
    if (candidates_.size() < 2) return;

    // Re-express the common set and the tails over the root's universe;
    // both are subsets of N(prefix[0]), walked in ascending order.
    const RootUniverse& universe = universe_for(prefix.front());
    const auto members = universe.members();
    local_common_.assign(universe.words(), 0);
    auto next_tail = candidates_.begin();
    for (std::size_t j = 0; j < members.size(); ++j) {
      if (!common.test(members[j])) continue;
      local_common_[j / bits::BitsetView::kWordBits] |=
          Word{1} << (j % bits::BitsetView::kWordBits);
      if (next_tail != candidates_.end() && *next_tail == members[j]) {
        block_.push_tail(static_cast<std::uint32_t>(j));
        ++next_tail;
      }
    }
    block_.commit(prefix, local_common_);
  }

  KCliqueStats& stats() noexcept { return stats_; }
  const KCliqueStats& stats() const noexcept { return stats_; }

  /// Hands over the level built so far (call once, when done).
  Level take_level() {
    level_.append(std::move(block_));
    return std::move(level_);
  }

 private:
  const RootUniverse& universe_for(VertexId root) {
    if (universe_ == nullptr || universe_->root() != root) {
      universe_ = level_.find_universe(root);
      if (universe_ == nullptr) {
        level_.add_universe(RootUniverse(g_, root));
        universe_ = level_.find_universe(root);
      }
    }
    return *universe_;
  }

  const graph::GraphView g_;
  const CliqueCallback& maximal_sink_;
  Clique buf_;
  std::vector<VertexId> candidates_;
  std::vector<Word> local_common_;
  Level level_;
  SublistBlock block_;
  const RootUniverse* universe_ = nullptr;  ///< last root's, in level_
  KCliqueStats stats_;
};

}  // namespace

Level build_seed_level_for_roots(const graph::GraphView& g, std::size_t k,
                                 std::span<const VertexId> roots,
                                 const CliqueCallback& maximal_sink,
                                 KCliqueStats* stats_out, SeedTrace* trace) {
  assert(k >= 2);
  SeedLevelBuilder builder(g, k, maximal_sink);
  KCliqueStats& stats = builder.stats();
  KCliqueSearch search(g, k);
  for (VertexId root : roots) {
    if (trace != nullptr) {
      util::Timer timer;
      const std::uint64_t nodes_before = stats.tree_nodes;
      search.run_root(root, builder, stats);
      trace->task_work.push_back(stats.tree_nodes - nodes_before);
      trace->task_seconds.push_back(timer.seconds());
    } else {
      search.run_root(root, builder, stats);
    }
  }
  if (stats_out != nullptr) *stats_out = stats;
  return builder.take_level();
}

std::vector<SeedPair> collect_seed_pairs(const graph::GraphView& g) {
  std::vector<SeedPair> pairs;
  pairs.reserve(g.num_edges());
  for (const auto& [v, u] : g.edge_list()) {
    pairs.push_back(SeedPair{v, u});
  }
  return pairs;
}

Level build_seed_level_for_pairs(const graph::GraphView& g, std::size_t k,
                                 std::span<const SeedPair> pairs,
                                 const CliqueCallback& maximal_sink,
                                 KCliqueStats* stats_out, SeedTrace* trace) {
  assert(k >= 3);
  SeedLevelBuilder builder(g, k, maximal_sink);
  KCliqueStats& stats = builder.stats();
  KCliqueSearch search(g, k);
  for (const SeedPair& pair : pairs) {
    if (trace != nullptr) {
      util::Timer timer;
      const std::uint64_t nodes_before = stats.tree_nodes;
      search.run_pair(pair.v, pair.u, builder, stats);
      trace->task_work.push_back(stats.tree_nodes - nodes_before);
      trace->task_seconds.push_back(timer.seconds());
    } else {
      search.run_pair(pair.v, pair.u, builder, stats);
    }
  }
  if (stats_out != nullptr) *stats_out = stats;
  return builder.take_level();
}

Level build_seed_level(const graph::GraphView& g, std::size_t k,
                       const CliqueCallback& maximal_sink,
                       KCliqueStats* stats_out) {
  const std::vector<VertexId> roots = all_roots(g);
  return build_seed_level_for_roots(g, k, roots, maximal_sink, stats_out,
                                    nullptr);
}

struct SeedLevelWorker::Impl {
  Impl(const graph::GraphView& g, std::size_t k, const CliqueCallback& sink)
      : builder(g, k, sink), search(g, k) {}
  SeedLevelBuilder builder;
  KCliqueSearch search;
};

SeedLevelWorker::SeedLevelWorker(const graph::GraphView& g, std::size_t k,
                                 const CliqueCallback& maximal_sink)
    : impl_(std::make_unique<Impl>(g, k, maximal_sink)) {}

SeedLevelWorker::~SeedLevelWorker() = default;
SeedLevelWorker::SeedLevelWorker(SeedLevelWorker&&) noexcept = default;

void SeedLevelWorker::process_pair(const SeedPair& pair) {
  impl_->search.run_pair(pair.v, pair.u, impl_->builder,
                         impl_->builder.stats());
}

void SeedLevelWorker::process_root(VertexId root) {
  impl_->search.run_root(root, impl_->builder, impl_->builder.stats());
}

const KCliqueStats& SeedLevelWorker::stats() const noexcept {
  return impl_->builder.stats();
}

Level SeedLevelWorker::take_level() {
  return impl_->builder.take_level();
}

}  // namespace gsb::core
