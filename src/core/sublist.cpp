#include "core/sublist.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>

namespace gsb::core {

using graph::VertexId;

// --- RootUniverse -------------------------------------------------------------

RootUniverse::RootUniverse(const graph::GraphView& g, VertexId root)
    : root_(root) {
  g.neighbors(root).for_each(
      [&](std::size_t v) { members_.push_back(static_cast<VertexId>(v)); });
  const std::size_t width = members_.size();
  first_row_ = static_cast<std::size_t>(
      std::upper_bound(members_.begin(), members_.end(), root) -
      members_.begin());
  words_ = bits::BitsetView::word_count(width);
  rows_.assign((width - first_row_) * words_, 0);
  constexpr std::size_t kBits = bits::BitsetView::kWordBits;
  const auto link = [&](std::size_t x, std::size_t y) {
    rows_[(x - first_row_) * words_ + y / kBits] |= Word{1} << (y % kBits);
  };
  // Each pair with both ends above the root is tested once and set on
  // both rows; members below the root only appear as columns.
  for (std::size_t x = first_row_; x < width; ++x) {
    const bits::BitsetView adjacent = g.neighbors(members_[x]);
    for (std::size_t y = 0; y < width; ++y) {
      if (y >= first_row_ && y <= x) continue;
      if (!adjacent.test(members_[y])) continue;
      link(x, y);
      if (y >= first_row_) link(y, x);
    }
  }
}

std::size_t RootUniverse::bytes() const noexcept {
  return members_.size() * sizeof(VertexId) + rows_.size() * sizeof(Word);
}

// --- SublistBlock -------------------------------------------------------------

std::size_t SublistBlock::bytes() const noexcept {
  return prefixes_.size() * sizeof(VertexId) +
         tails_.size() * sizeof(std::uint32_t) +
         tail_end_.size() * sizeof(std::uint32_t) +
         common_.size() * sizeof(Word) +
         common_end_.size() * sizeof(std::uint32_t) +
         roots_.size() * sizeof(VertexId);
}

void SublistBlock::reset(std::size_t prefix_len) noexcept {
  prefix_len_ = prefix_len;
  prefixes_.clear();
  tails_.clear();
  tail_end_.clear();
  common_.clear();
  common_end_.clear();
  roots_.clear();
  pending_ = 0;
}

void SublistBlock::commit(std::span<const VertexId> prefix,
                          std::span<const Word> common) {
  prefixes_.insert(prefixes_.end(), prefix.begin(), prefix.end());
  close(prefix.front(), common);
}

void SublistBlock::commit(std::span<const VertexId> head, VertexId last,
                          std::span<const Word> common) {
  prefixes_.insert(prefixes_.end(), head.begin(), head.end());
  prefixes_.push_back(last);
  close(head.front(), common);
}

void SublistBlock::close(VertexId root, std::span<const Word> common) {
  if (roots_.empty() || roots_.back() != root) roots_.push_back(root);
  common_.insert(common_.end(), common.begin(), common.end());
  constexpr std::size_t kMaxOffset = std::numeric_limits<std::uint32_t>::max();
  if (tails_.size() > kMaxOffset || common_.size() > kMaxOffset) {
    throw std::length_error("SublistBlock: 32-bit offsets exhausted");
  }
  tail_end_.push_back(static_cast<std::uint32_t>(tails_.size()));
  common_end_.push_back(static_cast<std::uint32_t>(common_.size()));
  pending_ = 0;
}

// --- Level --------------------------------------------------------------------

Level::~Level() { release_all(); }

Level::Level(Level&& other) noexcept
    : blocks_(std::move(other.blocks_)),
      universes_(std::move(other.universes_)),
      tracker_(other.tracker_),
      tracked_(std::exchange(other.tracked_, 0)) {}

Level& Level::operator=(Level&& other) noexcept {
  if (this != &other) {
    release_all();
    blocks_ = std::move(other.blocks_);
    universes_ = std::move(other.universes_);
    tracker_ = other.tracker_;
    tracked_ = std::exchange(other.tracked_, 0);
  }
  return *this;
}

void Level::track(std::size_t bytes) noexcept {
  if (tracker_ == nullptr || bytes == 0) return;
  tracker_->allocate(bytes, util::MemTag::kCliqueStorage);
  tracked_ += bytes;
}

void Level::release_all() noexcept {
  if (tracker_ != nullptr && tracked_ != 0) {
    tracker_->release(tracked_, util::MemTag::kCliqueStorage);
  }
  tracked_ = 0;
}

namespace {

bool root_below(const RootUniverse& universe, VertexId root) {
  return universe.root() < root;
}

}  // namespace

const RootUniverse* Level::find_universe(VertexId root) const noexcept {
  const auto it = std::lower_bound(universes_.begin(), universes_.end(), root,
                                   root_below);
  return it != universes_.end() && it->root() == root ? &*it : nullptr;
}

const RootUniverse& Level::universe(VertexId root) const {
  const RootUniverse* universe = find_universe(root);
  if (universe == nullptr) {
    throw std::out_of_range("Level: no universe for root");
  }
  return *universe;
}

std::size_t Level::size() const noexcept {
  std::size_t total = 0;
  for (const auto& block : blocks_) total += block.size();
  return total;
}

std::uint64_t Level::candidates() const noexcept {
  std::uint64_t total = 0;
  for (const auto& block : blocks_) total += block.candidates();
  return total;
}

std::size_t Level::bytes() const noexcept {
  std::size_t total = blocks_.size() * sizeof(SublistBlock) +
                      universes_.size() * sizeof(RootUniverse);
  for (const auto& block : blocks_) total += block.bytes();
  for (const auto& universe : universes_) total += universe.bytes();
  return total;
}

void Level::append(SublistBlock&& block) {
  if (block.empty()) return;
  track(block.bytes());
  blocks_.push_back(std::move(block));
}

std::vector<SublistBlock> Level::take_blocks() noexcept {
  std::size_t bytes = 0;
  for (const auto& block : blocks_) bytes += block.bytes();
  if (tracker_ != nullptr && bytes != 0) {
    tracker_->release(bytes, util::MemTag::kCliqueStorage);
    tracked_ -= bytes;
  }
  std::vector<SublistBlock> out;
  out.swap(blocks_);
  return out;
}

void Level::add_universe(RootUniverse&& universe) {
  const auto it = std::lower_bound(universes_.begin(), universes_.end(),
                                   universe.root(), root_below);
  if (it != universes_.end() && it->root() == universe.root()) return;
  track(universe.bytes());
  universes_.insert(it, std::move(universe));
}

void Level::append(Level&& fragment) {
  for (auto& universe : fragment.universes_) add_universe(std::move(universe));
  for (auto& block : fragment.blocks_) append(std::move(block));
  fragment.universes_.clear();
  fragment.blocks_.clear();
  fragment.release_all();
}

void Level::inherit_universes(Level& parent) {
  std::vector<VertexId> roots;
  for (const auto& block : blocks_) {
    roots.insert(roots.end(), block.roots().begin(), block.roots().end());
  }
  std::sort(roots.begin(), roots.end());
  roots.erase(std::unique(roots.begin(), roots.end()), roots.end());
  std::size_t moved = 0;
  auto root = roots.begin();
  for (auto& universe : parent.universes_) {
    while (root != roots.end() && *root < universe.root()) ++root;
    if (root == roots.end()) break;
    if (*root != universe.root()) continue;
    moved += universe.bytes();
    universes_.push_back(std::move(universe));
  }
  // Parent universes are sorted by root, so the moved ones are too; a
  // level inherits before it adds universes of its own.
  if (parent.tracker_ != nullptr) {
    parent.tracker_->release(moved, util::MemTag::kCliqueStorage);
    parent.tracked_ -= moved;
  }
  track(moved);
}

LevelCounts count_level(const Level& level) noexcept {
  return LevelCounts{level.size(), level.candidates()};
}

std::size_t level_bytes_formula(const LevelCounts& counts, std::size_t k,
                                std::size_t n) noexcept {
  constexpr std::size_t c = sizeof(VertexId);
  const std::size_t bitmap_bytes = (n + 7) / 8;
  return counts.candidates * c +
         counts.sublists * ((k - 1) * c + bitmap_bytes) +
         counts.sublists * sizeof(void*);
}

std::size_t level_bytes_actual(const Level& level) noexcept {
  return level.bytes();
}

}  // namespace gsb::core
