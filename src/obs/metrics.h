#ifndef GSB_OBS_METRICS_H
#define GSB_OBS_METRICS_H

/// Process-wide metrics registry: named counters, settable gauges, and
/// log2-bucketed latency histograms.
///
/// Hot-path increments must stay uncontended: every registering thread
/// gets its own fixed-size shard of relaxed atomics, and a scrape merges
/// the shards.  Shards are owned by the registry and are never freed
/// while it lives, so counts contributed by retired threads persist and
/// merged totals are exact.  The whole subsystem sits behind a single
/// `enabled` flag — when it is off (the default) an increment is one
/// relaxed atomic load and a branch, so instrumented code paths cost
/// nothing measurable in unobserved runs.
///
/// Gauges come in two flavours: settable gauges (registry-level atomics
/// with `set`/`set_max`) and collector callbacks sampled at scrape time
/// for values that live elsewhere (MemoryTracker tags, cache sizes,
/// process RSS).

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace gsb::obs {

class MetricsRegistry;

enum class MetricType { kCounter, kGauge, kHistogram };

/// Histogram buckets are powers of two in microseconds: the i-th finite
/// bucket has upper bound 2^i us (1us .. ~134s), plus an +Inf overflow
/// bucket.  `observe(v)` lands in the first bucket whose bound >= v.
inline constexpr std::size_t kHistogramBuckets = 28;

/// Upper bound of finite bucket `i` in microseconds (2^i).
constexpr std::uint64_t histogram_bucket_bound(std::size_t i) {
  return std::uint64_t{1} << i;
}

struct HistogramSnapshot {
  /// Per-bucket (non-cumulative) counts; index kHistogramBuckets is +Inf.
  std::array<std::uint64_t, kHistogramBuckets + 1> buckets{};
  std::uint64_t count = 0;
  std::uint64_t sum_micros = 0;
};

/// Interpolated quantile in microseconds from a log2-bucketed snapshot
/// (`q` in [0, 1]).  Walks the cumulative counts to the target rank and
/// interpolates linearly inside the covering bucket, so a p50/p99 read
/// off 28 coarse buckets is still monotone and bounded by the bucket
/// edges.  Returns 0 for an empty histogram; ranks landing in the +Inf
/// bucket clamp to twice the last finite bound.
std::uint64_t histogram_quantile_micros(const HistogramSnapshot& h, double q);

struct MetricSnapshot {
  std::string name;
  std::string help;
  /// Pre-rendered label body without braces, e.g. `type="neighbors"`;
  /// empty for unlabelled metrics.
  std::string labels;
  MetricType type = MetricType::kCounter;
  std::uint64_t value = 0;  ///< counters and gauges
  HistogramSnapshot histogram;
};

struct RegistrySnapshot {
  /// Registration order; same-name series are adjacent after rendering
  /// groups them into one family.
  std::vector<MetricSnapshot> metrics;
};

/// Cheap copyable handle; default-constructed handles are inert no-ops.
class Counter {
 public:
  Counter() = default;
  void inc(std::uint64_t n = 1) const noexcept;

 private:
  friend class MetricsRegistry;
  Counter(MetricsRegistry* registry, std::uint32_t index)
      : registry_(registry), index_(index) {}
  MetricsRegistry* registry_ = nullptr;
  std::uint32_t index_ = 0;
};

class Gauge {
 public:
  Gauge() = default;
  void set(std::uint64_t value) const noexcept;
  /// Monotone high-water update (used for peak-bytes style gauges).
  void set_max(std::uint64_t value) const noexcept;

 private:
  friend class MetricsRegistry;
  Gauge(MetricsRegistry* registry, std::uint32_t index)
      : registry_(registry), index_(index) {}
  MetricsRegistry* registry_ = nullptr;
  std::uint32_t index_ = 0;
};

class Histogram {
 public:
  Histogram() = default;
  void observe_micros(std::uint64_t micros) const noexcept;
  /// Whether an observation would be recorded now.
  bool enabled() const noexcept;

 private:
  friend class MetricsRegistry;
  Histogram(MetricsRegistry* registry, std::uint32_t index)
      : registry_(registry), index_(index) {}
  MetricsRegistry* registry_ = nullptr;
  std::uint32_t index_ = 0;
};

class MetricsRegistry {
 public:
  /// Fixed shard capacities; registration beyond a cap throws.  The
  /// catalog is code-controlled, so hitting a cap is a programming error.
  static constexpr std::size_t kMaxCounters = 192;
  static constexpr std::size_t kMaxGauges = 64;
  static constexpr std::size_t kMaxHistograms = 48;

  MetricsRegistry();
  ~MetricsRegistry();
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-wide registry every instrumented layer reports to.  The
  /// first call also installs the default process collectors (uptime,
  /// RSS, MemoryTracker tags, tracer activity).
  static MetricsRegistry& global();

  void set_enabled(bool enabled) noexcept {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Register (or look up) a series.  Re-registering the same
  /// name+labels returns a handle to the same cells; re-registering with
  /// a different type throws.
  Counter counter(std::string name, std::string help, std::string labels = {});
  Gauge gauge(std::string name, std::string help, std::string labels = {});
  Histogram histogram(std::string name, std::string help,
                      std::string labels = {});

  /// Collectors run at scrape time and may append sampled metrics to the
  /// snapshot.  `remove_collector` makes short-lived owners (e.g. a
  /// ResultCache) safe to destroy.
  using Collector = std::function<void(RegistrySnapshot&)>;
  std::size_t add_collector(Collector collector);
  void remove_collector(std::size_t id);

  RegistrySnapshot scrape() const;

  /// Zero every counter, gauge and histogram cell (tests).
  void reset();

 private:
  friend class Counter;
  friend class Gauge;
  friend class Histogram;

  // 28 finite buckets + overflow + sum + count cells per histogram.
  static constexpr std::size_t kHistogramCells = kHistogramBuckets + 3;

  struct Shard {
    std::array<std::atomic<std::uint64_t>, kMaxCounters> counters{};
    std::array<std::atomic<std::uint64_t>, kMaxHistograms * kHistogramCells>
        histograms{};
  };

  struct Series {
    std::string name;
    std::string help;
    std::string labels;
    MetricType type;
    std::uint32_t index;  ///< slot within its type's cell space
  };

  Shard& local_shard();
  void add_counter(std::uint32_t index, std::uint64_t n) noexcept;
  void observe(std::uint32_t index, std::uint64_t micros) noexcept;
  std::uint32_t register_series(MetricType type, std::string name,
                                std::string help, std::string labels);

  const std::uint64_t id_;  ///< process-unique, never reused
  std::atomic<bool> enabled_{false};

  mutable std::mutex mutex_;
  std::vector<Series> series_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::array<std::atomic<std::uint64_t>, kMaxGauges> gauges_{};
  std::uint32_t counters_used_ = 0;
  std::uint32_t gauges_used_ = 0;
  std::uint32_t histograms_used_ = 0;
  std::vector<std::pair<std::size_t, Collector>> collectors_;
  std::size_t next_collector_id_ = 0;
};

inline bool Histogram::enabled() const noexcept {
  return registry_ != nullptr && registry_->enabled();
}

/// Seconds since the process anchor.  `anchor_process_start()` pins the
/// anchor; `main()` calls it first thing so serve-loop uptime matches
/// process uptime (otherwise the anchor is the first observability call).
void anchor_process_start() noexcept;
std::uint64_t process_uptime_seconds() noexcept;

}  // namespace gsb::obs

#endif  // GSB_OBS_METRICS_H
