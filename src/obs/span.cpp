#include "obs/span.h"

namespace gsb::obs {

namespace {

using Clock = std::chrono::steady_clock;

thread_local Trace* tl_active_trace = nullptr;

/// Hands the interval from \p start to now to the sinks a span armed:
/// one duration for the trace slot, the journal event and the histogram.
std::uint64_t deliver(TimelineEventKind kind, Clock::time_point start,
                      Trace* slot_trace, bool journal,
                      const Histogram* histogram, std::string_view label,
                      std::uint64_t id) noexcept {
  const auto dur = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                            start)
          .count());
  if (slot_trace != nullptr) slot_trace->span_micros[trace_slot(kind)] += dur;
  if (journal) {
    TimelineJournal::global().record(kind, TimelineJournal::micros_at(start),
                                     dur, id, label);
  }
  if (histogram != nullptr) histogram->observe_micros(dur);
  return dur;
}

}  // namespace

Trace* active_trace() noexcept { return tl_active_trace; }

Span::Span(TimelineEventKind kind, std::string_view label, std::uint64_t id,
           const Histogram* histogram) noexcept
    : histogram_(histogram), label_(label), id_(id), kind_(kind) {
  if (trace_slot(kind) < kTraceSlots) slot_trace_ = tl_active_trace;
  arm();
}

Span::Span(Tracer& tracer, const char* transport, std::string_view request,
           std::uint64_t id, const Histogram* histogram)
    : histogram_(histogram),
      label_(request),
      id_(id),
      kind_(TimelineEventKind::kRequest) {
  if (tracer.enabled()) {
    tracer_ = &tracer;
    trace_.transport = transport;
    trace_.request.assign(request.substr(0, Trace::kMaxRequestChars));
    previous_ = tl_active_trace;
    tl_active_trace = &trace_;
  }
  arm();
}

void Span::arm() noexcept {
  journal_ = TimelineJournal::global().enabled_for(kind_);
  armed_ = tracer_ != nullptr || slot_trace_ != nullptr || journal_ ||
           (histogram_ != nullptr && histogram_->enabled());
  if (armed_) start_ = Clock::now();
}

Span::~Span() {
  if (!armed_) return;
  const std::uint64_t dur =
      deliver(kind_, start_, slot_trace_, journal_, histogram_, label_, id_);
  if (tracer_ != nullptr) {
    tl_active_trace = previous_;
    trace_.total_micros += dur;
    tracer_->complete(std::move(trace_));
  }
}

void Span::record_wait(TimelineEventKind kind, Clock::time_point since,
                       std::string_view label, std::uint64_t id,
                       const Histogram* histogram) noexcept {
  Trace* trace = trace_slot(kind) < kTraceSlots ? tl_active_trace : nullptr;
  const bool journal = TimelineJournal::global().enabled_for(kind);
  if (trace == nullptr && !journal &&
      (histogram == nullptr || !histogram->enabled())) {
    return;
  }
  const std::uint64_t waited =
      deliver(kind, since, trace, journal, histogram, label, id);
  if (trace != nullptr) trace->total_micros += waited;
}

}  // namespace gsb::obs
