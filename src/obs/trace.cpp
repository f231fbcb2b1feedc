#include "obs/trace.h"

#include <algorithm>

#include "util/log.h"

namespace gsb::obs {

namespace {

bool slower(const Trace& a, const Trace& b) {
  return a.total_micros > b.total_micros;
}

}  // namespace

const char* trace_slot_name(std::size_t slot) noexcept {
  static constexpr std::array<const char*, kTraceSlots> kNames{
      "queue_wait", "parse", "cache_lookup", "execute"};
  return slot < kTraceSlots ? kNames[slot] : "unknown";
}

Tracer& Tracer::global() {
  static Tracer* tracer = new Tracer();
  return *tracer;
}

void Tracer::set_capacity(std::size_t capacity) {
  const std::lock_guard<std::mutex> lock(mutex_);
  capacity_ = std::max<std::size_t>(capacity, 1);
  while (heap_.size() > capacity_) {
    std::pop_heap(heap_.begin(), heap_.end(), slower);
    heap_.pop_back();
  }
}

void Tracer::complete(Trace trace) {
  const std::uint64_t slow_at =
      slow_log_micros_.load(std::memory_order_relaxed);
  if (slow_at != 0 && trace.total_micros >= slow_at) {
    slow_logged_.fetch_add(1, std::memory_order_relaxed);
    std::string line = "slow query (";
    line += std::to_string(trace.total_micros);
    line += "us, ";
    line += trace.transport;
    line += ") \"";
    line += trace.request;
    line += "\"";
    for (std::size_t i = 0; i < kTraceSlots; ++i) {
      if (trace.span_micros[i] == 0) continue;
      line += ' ';
      line += trace_slot_name(i);
      line += '=';
      line += std::to_string(trace.span_micros[i]);
      line += "us";
    }
    util::log_warn(line);
  }

  const std::lock_guard<std::mutex> lock(mutex_);
  if (heap_.size() < capacity_) {
    heap_.push_back(std::move(trace));
    std::push_heap(heap_.begin(), heap_.end(), slower);
    return;
  }
  // Full: replace the fastest retained trace if this one is slower.
  if (trace.total_micros <= heap_.front().total_micros) return;
  std::pop_heap(heap_.begin(), heap_.end(), slower);
  heap_.back() = std::move(trace);
  std::push_heap(heap_.begin(), heap_.end(), slower);
}

std::vector<Trace> Tracer::slowest() const {
  std::vector<Trace> out;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    out = heap_;
  }
  std::sort(out.begin(), out.end(), slower);
  return out;
}

std::size_t Tracer::retained() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return heap_.size();
}

void Tracer::clear() {
  const std::lock_guard<std::mutex> lock(mutex_);
  heap_.clear();
  slow_logged_.store(0, std::memory_order_relaxed);
}

}  // namespace gsb::obs
