#ifndef GSB_SERVICE_SERVE_CORE_H
#define GSB_SERVICE_SERVE_CORE_H

/// \file serve_core.h
/// What every serve transport shares: the ServeStats behind `stats` and
/// the exit summary, the control plane (ping/stats/shutdown/reload and
/// the metrics/profile families), the request deadline, and the
/// transport's metric series.  serve_stream and the SocketServer event
/// loop each own one ServeCore and drive it from one thread (the stream
/// reader, the event loop); only past_deadline and answer_by_deadline,
/// which read the options alone, may be called from workers.

#include <chrono>
#include <memory>
#include <string>

#include "obs/metrics.h"
#include "service/server.h"

namespace gsb::service {

/// The typed answer of a request that missed its deadline.
inline constexpr const char* kDeadlineError = "error: deadline exceeded";

/// One transport's series on the global registry (labelled
/// `transport="..."`, plus the unlabelled busy/timeout/... series all
/// transports share); inert until the registry is enabled.  The registry
/// dedupes on name + labels, so every server of one transport shares its
/// series.
struct TransportMetrics {
  obs::Counter requests;
  obs::Counter connections;
  obs::Counter accept_errors;
  obs::Counter bytes_in;
  obs::Counter bytes_out;
  obs::Counter busy_rejections;
  obs::Counter protocol_errors;
  obs::Counter disconnects;
  obs::Counter reloads;
  obs::Counter timeout_requests;
  obs::Counter timeout_idle;
  obs::Counter timeout_write;
  obs::Histogram socket_write;
};

enum class TimeoutKind { kRequest, kIdle, kWrite };

class ServeCore {
 public:
  using Clock = std::chrono::steady_clock;

  /// \p transport labels the metric series ("stream", "unix" or "tcp");
  /// \p backlog is the listen backlog in force (0 on the stream).  A
  /// socket server's `stats` line adds `connections=`, `busy=` and
  /// `epoch=`.
  ServeCore(std::shared_ptr<const GraphEntry> entry, ServeOptions options,
            const char* transport, int backlog);

  [[nodiscard]] const ServeOptions& options() const noexcept {
    return options_;
  }
  /// The served entry; `reload` swaps it.
  [[nodiscard]] const std::shared_ptr<const GraphEntry>& entry()
      const noexcept {
    return entry_;
  }
  [[nodiscard]] ServeStats& stats() noexcept { return stats_; }
  [[nodiscard]] const TransportMetrics& metrics() const noexcept {
    return metrics_;
  }

  /// True once `shutdown` was answered or the external stop flag is set.
  [[nodiscard]] bool should_stop() const noexcept;

  /// Counts one received request (control requests included).
  void count_request() {
    ++stats_.requests;
    metrics_.requests.inc();
  }

  /// Answers a control request (is_control_request() holds for it).
  std::string control_response(const std::string& request);

  /// True once more than the request deadline has passed since
  /// \p arrival; never without a configured deadline.
  [[nodiscard]] bool past_deadline(Clock::time_point arrival) const noexcept {
    return options_.request_timeout_ms != 0 &&
           Clock::now() - arrival >
               std::chrono::milliseconds(options_.request_timeout_ms);
  }

  /// Runs \p execute unless the deadline from \p arrival has already
  /// passed, and replaces its result when the deadline passes while it
  /// runs: the bound is on the answer, not the attempt.  Sets
  /// \p timed_out; the stats owner counts it with count_timeout().
  template <typename Execute>
  std::string answer_by_deadline(Clock::time_point arrival,
                                 Execute&& execute, bool& timed_out) const {
    timed_out = past_deadline(arrival);
    if (timed_out) return kDeadlineError;
    std::string response = execute();
    timed_out = past_deadline(arrival);
    if (timed_out) return kDeadlineError;
    return response;
  }

  void count_timeout(TimeoutKind kind);

 private:
  std::shared_ptr<const GraphEntry> entry_;
  ServeOptions options_;
  int backlog_ = 0;
  ServeStats stats_;
  TransportMetrics metrics_;
};

}  // namespace gsb::service

#endif  // GSB_SERVICE_SERVE_CORE_H
