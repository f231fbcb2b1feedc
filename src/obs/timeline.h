#ifndef GSB_OBS_TIMELINE_H
#define GSB_OBS_TIMELINE_H

/// Execution timeline journal: per-thread buffers of fixed-size typed
/// events (job spans, queue waits, steals, pipeline stages, request
/// lifecycles, I/O spans, cache hits/misses) stamped with a monotonic
/// clock, drained into a Chrome trace (obs/timeline_export.h) that opens
/// in Perfetto or chrome://tracing.
///
/// Same cost model as MetricsRegistry: the journal is off by default and
/// a record() on the disabled path is one relaxed atomic load plus a
/// branch.  When enabled, each recording thread appends into its own
/// fixed-capacity event buffer owned by the journal — no locks, no
/// allocation, no cross-thread stores on the hot path.  A full buffer
/// drops the new event and bumps a counter (exported as
/// `gsb_timeline_events_dropped_total`); memory stays bounded at
/// capacity * threads events per capture window.
///
/// Recording never changes what instrumented code computes or emits:
/// artifacts and wire responses are byte-identical with the timeline on
/// or off (pinned by scheduler_test and the serve-path tests).

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace gsb::obs {

enum class TimelineEventKind : std::uint8_t {
  kJob,        ///< scheduler job body (id = JobId, label from JobSpec)
  kQueueWait,  ///< job ready -> claimed by a worker
  kSteal,      ///< instant: a worker claimed a job homed elsewhere
  kStage,      ///< pipeline stage span (bio.generate, bio.corr, ...)
  kRequest,    ///< serve-path request lifecycle
  kIo,         ///< syscall span (separately gated, see set_io_spans_enabled)
  kCacheHit,   ///< instant: result cache hit
  kCacheMiss,  ///< instant: result cache miss
  // Request phases, in Trace::span_micros slot order (obs/trace.h).  They
  // export under the categories above: queue_wait for the dispatch wait,
  // stage for the other three.
  kDispatchWait,  ///< socket hand-off -> worker pickup
  kParse,         ///< query text -> typed Query
  kCacheLookup,   ///< result-cache probe, and insert on a miss
  kExecute,       ///< engine execution
};

/// Stable lowercase category of a kind (the trace `cat` field).
const char* timeline_event_kind_name(TimelineEventKind kind) noexcept;

/// One journal entry.  Fixed 64-byte layout: no allocation on record,
/// labels truncate at kLabelChars.
struct TimelineEvent {
  static constexpr std::size_t kLabelChars = 34;

  std::uint64_t start_micros = 0;  ///< monotonic, since the journal epoch
  std::uint64_t dur_micros = 0;    ///< 0 for instant events
  std::uint64_t id = 0;            ///< JobId / request sequence / byte count
  std::uint32_t tid = 0;           ///< dense lane index, one per thread
  TimelineEventKind kind = TimelineEventKind::kJob;
  char label[kLabelChars + 1] = {};  ///< NUL-terminated, truncated
};
static_assert(sizeof(TimelineEvent) == 64);

struct TimelineLane {
  std::uint32_t tid = 0;
  std::string name;  ///< "worker-3", "tcp-worker-0", ... ; may be empty
};

/// Merged view of one capture window, sorted by start time.
struct TimelineSnapshot {
  std::vector<TimelineEvent> events;
  std::vector<TimelineLane> lanes;  ///< lanes that recorded this window
  std::uint64_t dropped = 0;        ///< events lost to full buffers
};

class TimelineJournal {
 public:
  /// Default per-thread buffer capacity in events (64 KiB per lane).
  static constexpr std::size_t kDefaultCapacity = 1024;

  TimelineJournal();
  ~TimelineJournal();
  TimelineJournal(const TimelineJournal&) = delete;
  TimelineJournal& operator=(const TimelineJournal&) = delete;

  /// The process-wide journal every instrumented layer records to.
  static TimelineJournal& global();

  void set_enabled(bool enabled) noexcept {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Syscall spans (util::io) are gated separately so per-read events
  /// don't swamp the buffers; both gates must be on for kIo events.
  void set_io_spans_enabled(bool enabled) noexcept {
    io_spans_.store(enabled, std::memory_order_relaxed);
  }
  /// Whether an event of \p kind would be recorded now.
  bool enabled_for(TimelineEventKind kind) const noexcept {
    return enabled() && (kind != TimelineEventKind::kIo ||
                         io_spans_.load(std::memory_order_relaxed));
  }

  /// Per-thread buffer capacity for lanes registered after the call
  /// (existing lanes keep their size).  Tests use a deliberately tiny
  /// capacity to pin the drop accounting.
  void set_capacity(std::size_t events) noexcept {
    capacity_.store(events == 0 ? 1 : events, std::memory_order_relaxed);
  }

  /// Microseconds from the journal's monotonic epoch to \p t / to now.
  static std::uint64_t micros_at(
      std::chrono::steady_clock::time_point t) noexcept;
  static std::uint64_t now_micros() noexcept {
    return micros_at(std::chrono::steady_clock::now());
  }

  /// Names the calling thread's lane in exported traces ("worker-0",
  /// "tcp-worker-2", ...).  Idempotent; safe before or after recording.
  void set_thread_lane(std::string_view name);

  /// Appends one event to the calling thread's buffer.  No-op while
  /// disabled; drops (and counts) when the buffer is full.
  void record(TimelineEventKind kind, std::uint64_t start_micros,
              std::uint64_t dur_micros, std::uint64_t id,
              std::string_view label) noexcept;

  /// Instant event stamped "now" with zero duration.
  void record_instant(TimelineEventKind kind, std::uint64_t id,
                      std::string_view label) noexcept {
    if (!enabled()) return;
    record(kind, now_micros(), 0, id, label);
  }

  std::uint64_t events_dropped() const noexcept {
    return dropped_.load(std::memory_order_relaxed);
  }

  /// Merged copy of the current capture window, events sorted by start
  /// time.  Safe against concurrent recording: a racing append may or
  /// may not be included, never torn.
  TimelineSnapshot snapshot() const;

  /// Starts a new capture window: previously recorded events are
  /// discarded lazily (each lane resets on its next record) and the drop
  /// counter zeroes.  Buffers stay allocated.
  void reset() noexcept;

 private:
  struct Lane;

  Lane& local_lane();

  const std::uint64_t id_;  ///< process-unique, never reused
  std::atomic<bool> enabled_{false};
  std::atomic<bool> io_spans_{false};
  std::atomic<std::size_t> capacity_{kDefaultCapacity};
  std::atomic<std::uint64_t> dropped_{0};
  /// Capture-window generation; bumped by reset().  Lanes carrying an
  /// older generation are logically empty.
  std::atomic<std::uint64_t> generation_{1};

  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Lane>> lanes_;
};

}  // namespace gsb::obs

#endif  // GSB_OBS_TIMELINE_H
