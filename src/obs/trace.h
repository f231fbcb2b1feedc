#ifndef GSB_OBS_TRACE_H
#define GSB_OBS_TRACE_H

/// Slowest-N request traces and the slow-query log: the request-trace sink
/// of obs::Span (obs/span.h).
///
/// A request scope activates a Trace for its thread; the request-phase
/// spans inside it (queue wait, parse, cache lookup, execute) add their
/// durations to its slots, and the closing scope hands it to the
/// `Tracer`, which retains the slowest-N in a bounded buffer and
/// optionally logs a slot breakdown for requests over the
/// `--slow-query-log` threshold.  Disabled (the default), no trace is
/// activated and the request spans feed only the other sinks.

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "obs/timeline.h"

namespace gsb::obs {

/// Request-trace slots: one per request-phase kind, in kind order.
inline constexpr std::size_t kTraceSlots = 4;

/// The slot \p kind fills, or kTraceSlots for kinds outside the request
/// phases.
constexpr std::size_t trace_slot(TimelineEventKind kind) noexcept {
  const std::size_t slot =
      static_cast<std::size_t>(kind) -
      static_cast<std::size_t>(TimelineEventKind::kDispatchWait);
  return slot < kTraceSlots ? slot : kTraceSlots;
}

/// "queue_wait", "parse", "cache_lookup", "execute".
const char* trace_slot_name(std::size_t slot) noexcept;

struct Trace {
  std::string request;  ///< truncated to kMaxRequestChars
  const char* transport = "";
  std::array<std::uint64_t, kTraceSlots> span_micros{};
  std::uint64_t total_micros = 0;

  static constexpr std::size_t kMaxRequestChars = 160;
};

class Tracer {
 public:
  static Tracer& global();

  void set_enabled(bool enabled) noexcept {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Requests at or above this total are logged with a span breakdown
  /// through util::log_warn; 0 disables slow logging.
  void set_slow_log_micros(std::uint64_t micros) noexcept {
    slow_log_micros_.store(micros, std::memory_order_relaxed);
  }

  /// Maximum number of slowest traces retained (default 32).
  void set_capacity(std::size_t capacity);

  void complete(Trace trace);

  /// Retained traces, slowest first.
  std::vector<Trace> slowest() const;

  std::uint64_t slow_logged() const noexcept {
    return slow_logged_.load(std::memory_order_relaxed);
  }
  std::size_t retained() const;

  void clear();

 private:
  mutable std::mutex mutex_;
  std::vector<Trace> heap_;  ///< min-heap on total_micros
  std::size_t capacity_ = 32;
  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> slow_log_micros_{0};
  std::atomic<std::uint64_t> slow_logged_{0};
};

}  // namespace gsb::obs

#endif  // GSB_OBS_TRACE_H
