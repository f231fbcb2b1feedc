#ifndef GSB_CORE_CLIQUE_H
#define GSB_CORE_CLIQUE_H

/// \file clique.h
/// Common vocabulary types for the clique algorithms: cliques are sorted
/// vertex vectors; enumeration results stream through sinks so that callers
/// choose between collecting, counting, and on-line processing (the paper's
/// instances produce terabyte-scale outputs, so storing every clique must be
/// the caller's explicit decision, never the algorithm's default).

#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <vector>

#include "graph/graph.h"

namespace gsb::core {

using graph::VertexId;

/// A clique as a sorted list of vertex ids.
using Clique = std::vector<VertexId>;

/// Streaming consumer of enumerated cliques.  The span is only valid for the
/// duration of the call; implementations must copy if they retain it.
using CliqueCallback = std::function<void(std::span<const VertexId>)>;

/// Collects every emitted clique (tests and small instances only).
class CliqueCollector {
 public:
  /// Adapter usable as a CliqueCallback.
  CliqueCallback callback() {
    return [this](std::span<const VertexId> clique) {
      cliques_.emplace_back(clique.begin(), clique.end());
    };
  }

  [[nodiscard]] const std::vector<Clique>& cliques() const noexcept {
    return cliques_;
  }
  [[nodiscard]] std::vector<Clique>& cliques() noexcept { return cliques_; }

 private:
  std::vector<Clique> cliques_;
};

/// Counts emitted cliques, bucketed by size.
class CliqueCounter {
 public:
  CliqueCallback callback() {
    return [this](std::span<const VertexId> clique) {
      ++total_;
      ++by_size_[clique.size()];
    };
  }

  /// Adds a tally counted elsewhere: \p by_size[k] cliques of k members.
  void add(std::span<const std::uint64_t> by_size) {
    for (std::size_t k = 0; k < by_size.size(); ++k) {
      if (by_size[k] == 0) continue;
      total_ += by_size[k];
      by_size_[k] += by_size[k];
    }
  }

  [[nodiscard]] std::uint64_t total() const noexcept { return total_; }
  [[nodiscard]] const std::map<std::size_t, std::uint64_t>& by_size()
      const noexcept {
    return by_size_;
  }
  [[nodiscard]] std::size_t max_size() const noexcept {
    return by_size_.empty() ? 0 : by_size_.rbegin()->first;
  }

 private:
  std::uint64_t total_ = 0;
  std::map<std::size_t, std::uint64_t> by_size_;
};

/// Inclusive size window for bounded enumeration.  `hi == 0` means
/// unbounded above.
struct SizeRange {
  std::size_t lo = 1;
  std::size_t hi = 0;

  [[nodiscard]] bool contains(std::size_t size) const noexcept {
    return size >= lo && (hi == 0 || size <= hi);
  }
  /// True if sizes above `size` can still fall inside the range.
  [[nodiscard]] bool open_above(std::size_t size) const noexcept {
    return hi == 0 || size < hi;
  }
};

}  // namespace gsb::core

#endif  // GSB_CORE_CLIQUE_H
