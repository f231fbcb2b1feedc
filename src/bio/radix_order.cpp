#include "bio/radix_order.h"

#include <algorithm>
#include <array>
#include <bit>
#include <numeric>

namespace gsb::bio {
namespace {

constexpr std::uint64_t kSignBit = std::uint64_t{1} << 63;

/// Unsigned key whose order is the order of the doubles under <.
std::uint64_t order_key(double value) noexcept {
  // Adding +0.0 turns -0.0 into +0.0 and leaves every other value as it is.
  const auto bits = std::bit_cast<std::uint64_t>(value + 0.0);
  return (bits & kSignBit) != 0 ? ~bits : bits | kSignBit;
}

}  // namespace

void radix_order(std::span<const double> values,
                 std::vector<std::uint32_t>& order, RadixScratch& scratch) {
  constexpr std::size_t kDigits = sizeof(std::uint64_t);
  const std::size_t n = values.size();
  order.resize(n);
  std::iota(order.begin(), order.end(), 0u);
  if (n < 2) return;
  scratch.keys.resize(n);
  scratch.keys_next.resize(n);
  scratch.order_next.resize(n);

  // One read of the values fills every digit's histogram.
  std::array<std::array<std::uint32_t, 256>, kDigits> counts{};
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t key = order_key(values[i]);
    scratch.keys[i] = key;
    for (std::size_t d = 0; d < kDigits; ++d) {
      ++counts[d][(key >> (8 * d)) & 0xff];
    }
  }

  std::uint64_t* keys = scratch.keys.data();
  std::uint64_t* keys_next = scratch.keys_next.data();
  std::uint32_t* index = order.data();
  std::uint32_t* index_next = scratch.order_next.data();
  for (std::size_t d = 0; d < kDigits; ++d) {
    const unsigned shift = static_cast<unsigned>(8 * d);
    auto& bucket = counts[d];
    // Every key shares this digit: the pass would not move anything.
    if (bucket[(keys[0] >> shift) & 0xff] == n) continue;
    std::uint32_t start = 0;
    for (std::uint32_t& count : bucket) {
      const std::uint32_t size = count;
      count = start;
      start += size;
    }
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint32_t at = bucket[(keys[i] >> shift) & 0xff]++;
      keys_next[at] = keys[i];
      index_next[at] = index[i];
    }
    std::swap(keys, keys_next);
    std::swap(index, index_next);
  }
  if (index != order.data()) std::copy(index, index + n, order.data());
}

}  // namespace gsb::bio
