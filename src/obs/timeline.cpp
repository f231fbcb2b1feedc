#include "obs/timeline.h"

#include <algorithm>
#include <chrono>
#include <cstring>

namespace gsb::obs {

namespace {

std::uint64_t next_journal_id() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

std::chrono::steady_clock::time_point journal_epoch() noexcept {
  static const auto epoch = std::chrono::steady_clock::now();
  return epoch;
}

/// Thread-local cache mapping journal id -> lane, same shape as the
/// metrics shard cache: dropping an entry only means the thread
/// registers a fresh lane on next use, and matching on the
/// process-unique id keeps a recycled allocation from aliasing a dead
/// journal's entry.
struct TlLaneCache {
  struct Entry {
    std::uint64_t journal_id;
    void* lane;
  };
  std::vector<Entry> entries;

  void* find(std::uint64_t journal_id) const noexcept {
    for (const Entry& e : entries) {
      if (e.journal_id == journal_id) return e.lane;
    }
    return nullptr;
  }
  void remember(std::uint64_t journal_id, void* lane) {
    if (entries.size() >= 64) entries.erase(entries.begin());
    entries.push_back({journal_id, lane});
  }
};

TlLaneCache& tl_lane_cache() {
  thread_local TlLaneCache cache;
  return cache;
}

}  // namespace

const char* timeline_event_kind_name(TimelineEventKind kind) noexcept {
  switch (kind) {
    case TimelineEventKind::kJob: return "job";
    case TimelineEventKind::kQueueWait: return "queue_wait";
    case TimelineEventKind::kSteal: return "steal";
    case TimelineEventKind::kStage: return "stage";
    case TimelineEventKind::kRequest: return "request";
    case TimelineEventKind::kIo: return "io";
    case TimelineEventKind::kCacheHit: return "cache_hit";
    case TimelineEventKind::kCacheMiss: return "cache_miss";
    case TimelineEventKind::kDispatchWait: return "queue_wait";
    case TimelineEventKind::kParse:
    case TimelineEventKind::kCacheLookup:
    case TimelineEventKind::kExecute: return "stage";
  }
  return "unknown";
}

/// One thread's buffer.  `head` counts published events and is the only
/// cross-thread handoff: the owning thread fills events[head] then
/// store-releases head+1, so a snapshot that load-acquires head may copy
/// the prefix without racing the writer.  `generation` ties the buffer
/// to a capture window; a lane whose generation lags the journal's is
/// logically empty and resets itself on the owner's next record.
struct TimelineJournal::Lane {
  explicit Lane(std::uint32_t tid_in, std::size_t capacity)
      : tid(tid_in), events(capacity) {}

  const std::uint32_t tid;
  std::vector<TimelineEvent> events;
  std::atomic<std::uint64_t> head{0};
  std::atomic<std::uint64_t> generation{0};
  std::atomic<std::uint64_t> dropped{0};
  std::string name;  ///< guarded by the journal mutex
};

TimelineJournal::TimelineJournal() : id_(next_journal_id()) {
  (void)journal_epoch();  // pin the epoch before the first record
}

TimelineJournal::~TimelineJournal() = default;

TimelineJournal& TimelineJournal::global() {
  static TimelineJournal* journal = new TimelineJournal();
  return *journal;
}

std::uint64_t TimelineJournal::micros_at(
    std::chrono::steady_clock::time_point t) noexcept {
  if (t <= journal_epoch()) return 0;  // e.g. a wait begun before the epoch
  const auto elapsed = t - journal_epoch();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(elapsed)
          .count());
}

TimelineJournal::Lane& TimelineJournal::local_lane() {
  TlLaneCache& cache = tl_lane_cache();
  if (void* hit = cache.find(id_)) return *static_cast<Lane*>(hit);
  Lane* lane = nullptr;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto tid = static_cast<std::uint32_t>(lanes_.size());
    lanes_.push_back(std::make_unique<Lane>(
        tid, capacity_.load(std::memory_order_relaxed)));
    lane = lanes_.back().get();
  }
  cache.remember(id_, lane);
  return *lane;
}

void TimelineJournal::set_thread_lane(std::string_view name) {
  Lane& lane = local_lane();
  const std::lock_guard<std::mutex> lock(mutex_);
  lane.name.assign(name);
}

void TimelineJournal::record(TimelineEventKind kind,
                             std::uint64_t start_micros,
                             std::uint64_t dur_micros, std::uint64_t id,
                             std::string_view label) noexcept {
  if (!enabled()) return;
  Lane& lane = local_lane();
  const std::uint64_t generation =
      generation_.load(std::memory_order_acquire);
  std::uint64_t head = lane.head.load(std::memory_order_relaxed);
  if (lane.generation.load(std::memory_order_relaxed) != generation) {
    // New capture window: restart this lane.  Publish the zeroed head
    // before the generation so a reader that sees the new generation
    // never pairs it with the old head.
    head = 0;
    lane.head.store(0, std::memory_order_release);
    lane.generation.store(generation, std::memory_order_release);
  }
  if (head >= lane.events.size()) {
    lane.dropped.fetch_add(1, std::memory_order_relaxed);
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  TimelineEvent& e = lane.events[head];
  e.start_micros = start_micros;
  e.dur_micros = dur_micros;
  e.id = id;
  e.tid = lane.tid;
  e.kind = kind;
  const std::size_t n =
      std::min(label.size(), std::size_t{TimelineEvent::kLabelChars});
  std::memcpy(e.label, label.data(), n);
  e.label[n] = '\0';
  lane.head.store(head + 1, std::memory_order_release);
}

TimelineSnapshot TimelineJournal::snapshot() const {
  TimelineSnapshot out;
  out.dropped = dropped_.load(std::memory_order_relaxed);
  const std::uint64_t generation =
      generation_.load(std::memory_order_acquire);
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& lane : lanes_) {
      if (lane->generation.load(std::memory_order_acquire) != generation) {
        continue;  // nothing recorded this window
      }
      const std::uint64_t head = lane->head.load(std::memory_order_acquire);
      if (head == 0) continue;
      out.events.insert(out.events.end(), lane->events.begin(),
                        lane->events.begin() +
                            static_cast<std::ptrdiff_t>(head));
      out.lanes.push_back({lane->tid, lane->name});
    }
  }
  std::stable_sort(out.events.begin(), out.events.end(),
                   [](const TimelineEvent& a, const TimelineEvent& b) {
                     return a.start_micros < b.start_micros;
                   });
  return out;
}

void TimelineJournal::reset() noexcept {
  // Lanes reset lazily when their owner observes the new generation, so
  // a recorder racing this call at worst contributes one event carrying
  // the old generation — which the next snapshot ignores.
  generation_.fetch_add(1, std::memory_order_acq_rel);
  dropped_.store(0, std::memory_order_relaxed);
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& lane : lanes_) {
    lane->dropped.store(0, std::memory_order_relaxed);
  }
}

}  // namespace gsb::obs
