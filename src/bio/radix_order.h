#ifndef GSB_BIO_RADIX_ORDER_H
#define GSB_BIO_RADIX_ORDER_H

/// \file radix_order.h
/// Exact ranking without comparisons: the one sort behind quantile
/// normalization's column ranks and the Spearman midranks.

#include <cstdint>
#include <span>
#include <vector>

namespace gsb::bio {

/// Reusable buffers for radix_order: two key arrays and a second index
/// array to ping-pong between passes (20 bytes per value).  Keep one per
/// worker; after the first call of a given length nothing is allocated.
struct RadixScratch {
  std::vector<std::uint64_t> keys;
  std::vector<std::uint64_t> keys_next;
  std::vector<std::uint32_t> order_next;
};

/// Writes to \p order the indices 0..n-1 of \p values in ascending value
/// order, with tied values in index order: exactly what std::stable_sort
/// of the indices under `values[a] < values[b]` returns.  It is a stable
/// LSD radix sort, one 8-bit digit per pass, of order-preserving 64-bit
/// keys: -0.0 is folded into +0.0 (they tie under <), negative values have
/// every bit flipped, and non-negative values have the sign bit set.  A
/// pass whose digit is the same in every key is skipped.  NaNs sort by
/// their bit pattern, after +inf (or before -inf when the sign bit is set).
void radix_order(std::span<const double> values,
                 std::vector<std::uint32_t>& order, RadixScratch& scratch);

}  // namespace gsb::bio

#endif  // GSB_BIO_RADIX_ORDER_H
