#ifndef GSB_OBS_SPAN_H
#define GSB_OBS_SPAN_H

/// obs::Span — the one timing scope of every measured boundary.  On close
/// a span feeds each of its sinks that is on:
///   - the active request trace (obs/trace.h): a request-phase kind adds
///     its duration to the trace's slot for that kind;
///   - the timeline journal (obs/timeline.h): one complete event;
///   - its latency histogram (obs/metrics.h), if it was given one.
/// It reads the clock only when a sink is on, once at each end; with every
/// sink off it costs a thread-local load and a relaxed load per gate, and
/// allocates nothing.

#include <chrono>
#include <cstdint>
#include <string_view>

#include "obs/metrics.h"
#include "obs/timeline.h"
#include "obs/trace.h"

namespace gsb::obs {

/// The trace the current thread is filling in, or nullptr.
Trace* active_trace() noexcept;

class Span {
 public:
  /// Times one boundary of \p kind.  \p label must outlive the span.
  Span(TimelineEventKind kind, std::string_view label, std::uint64_t id = 0,
       const Histogram* histogram = nullptr) noexcept;

  /// Request scope: a kRequest span that, while \p tracer is enabled,
  /// activates a trace of \p request for this thread and on close hands
  /// it to \p tracer, its total the scope's duration plus the waits
  /// recorded into it.  \p request must outlive the span.
  Span(Tracer& tracer, const char* transport, std::string_view request,
       std::uint64_t id = 0, const Histogram* histogram = nullptr);

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span();

  /// Retargets the histogram (same registry), e.g. to a request's type
  /// once its line has parsed.
  void set_histogram(const Histogram* histogram) noexcept {
    histogram_ = histogram;
  }

  /// Records an interval that began at \p since and ends now, measured
  /// outside any scope (a socket hand-off, a job's ready-to-claim wait),
  /// into the same sinks.  A request-phase wait also counts into the
  /// active trace's total.
  static void record_wait(TimelineEventKind kind,
                          std::chrono::steady_clock::time_point since,
                          std::string_view label, std::uint64_t id = 0,
                          const Histogram* histogram = nullptr) noexcept;

 private:
  void arm() noexcept;

  Tracer* tracer_ = nullptr;      ///< request scope: where trace_ goes
  Trace* slot_trace_ = nullptr;   ///< request phase: the trace it adds to
  Trace* previous_ = nullptr;     ///< request scope: the trace it shadows
  const Histogram* histogram_;
  std::string_view label_;
  std::uint64_t id_;
  std::chrono::steady_clock::time_point start_;
  TimelineEventKind kind_;
  bool journal_ = false;
  bool armed_ = false;
  Trace trace_;  ///< request scope's own trace
};

}  // namespace gsb::obs

#endif  // GSB_OBS_SPAN_H
