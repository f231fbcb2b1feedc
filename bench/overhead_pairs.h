#ifndef GSB_BENCH_OVERHEAD_PAIRS_H
#define GSB_BENCH_OVERHEAD_PAIRS_H

/// \file overhead_pairs.h
/// The overhead of a feature switched on over the same work with it off,
/// as the median of many alternating pairs.  One on/off pair on a shared
/// host drifts by several percent, which hides a 2% regression against a
/// 3% budget; the median of per-pair ratios, with the order flipped every
/// pair so a drift in host speed weighs on both sides alike, does not.

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "util/stats.h"

namespace gsb::bench {

class OverheadPairs {
 public:
  /// Times one pair: \p run(false) and \p run(true) each do the work with
  /// the feature off / on and return its seconds.  Even pairs run off
  /// first, odd pairs on first.
  template <class Run>
  void measure(Run&& run) {
    const bool on_first = percent_.size() % 2 == 1;
    const double first = run(on_first);
    const double second = run(!on_first);
    const double off = on_first ? second : first;
    const double on = on_first ? first : second;
    if (off > 0.0) percent_.push_back((on / off - 1.0) * 100.0);
  }

  /// Publishes `<stem>_pct` (the median per-pair overhead, percent),
  /// `<stem>_iqr_pct` (its interquartile range) and `<stem>_pairs`.
  void report(benchmark::State& state, const std::string& stem) const {
    state.counters[stem + "_pct"] = util::quantile(percent_, 0.5);
    state.counters[stem + "_iqr_pct"] =
        util::quantile(percent_, 0.75) - util::quantile(percent_, 0.25);
    state.counters[stem + "_pairs"] = static_cast<double>(percent_.size());
  }

 private:
  std::vector<double> percent_;
};

}  // namespace gsb::bench

#endif  // GSB_BENCH_OVERHEAD_PAIRS_H
