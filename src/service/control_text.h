#ifndef GSB_SERVICE_CONTROL_TEXT_H
#define GSB_SERVICE_CONTROL_TEXT_H

/// Control-plane response text shared by every serve transport: the
/// `ok stats: ...` line rendered from a StatsFields, and the `metrics` and
/// `profile` control families.  ServeCore::control_response (serve_core.h)
/// is the one caller on the serving side.

#include <cstdint>
#include <optional>
#include <string>

namespace gsb::service {

class ResultCache;

struct StatsFields {
  std::uint64_t requests = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  /// Socket-server fields; emitted when set so the stdin key set is
  /// unchanged.
  std::optional<std::uint64_t> connections;
  std::optional<std::uint64_t> busy;
  /// Emitted only when a deadline/idle/write timeout is configured.
  std::optional<std::uint64_t> timeouts;
  std::uint64_t accept_errors = 0;
  int backlog = 0;
  std::optional<std::uint64_t> epoch;
  const ResultCache* cache = nullptr;
};

/// `ok stats: requests=... [connections=... busy=...] accept_errors=...
/// backlog=... [epoch=...] uptime_seconds=... rss_bytes=...
/// [cache_entries=... cache_bytes=...] [p50_us=... p99_us=...]`
/// The latency quantiles are interpolated from the registry's request
/// histograms and appear only when the registry is enabled and has
/// observed at least one timed request.
std::string render_stats_line(const StatsFields& fields);

/// ` p50_us=... p99_us=...` (leading space) interpolated from the
/// registry's request-duration histograms, merged across transports and
/// cache outcomes.  Empty while the registry is disabled or before the
/// first timed request, so default serve runs keep the historical stats
/// key set byte for byte.  Shared by the stats control line and the
/// `gsb serve` exit summary.
std::string latency_quantile_fields();

/// Answers `metrics` / `metrics prom` / `metrics json` / `metrics traces`
/// (single-line responses; Prometheus text is newline-escaped — see
/// obs/exposition.h).  nullopt when `request` is not a metrics request;
/// an error line when the registry is disabled or the format is unknown.
std::optional<std::string> metrics_response(const std::string& request);

/// Answers the `profile` family: `profile start` begins a fresh timeline
/// capture window, `profile stop` disables recording and returns
/// `ok profile <chrome-trace-json>` (one line — the Chrome trace is
/// rendered without newlines), and bare `profile` reports
/// `ok profile: enabled=... events=... dropped=...`.  nullopt when
/// `request` is not a profile request.
std::optional<std::string> profile_response(const std::string& request);

/// True for requests a serve loop answers inline without an engine
/// (ping/stats/shutdown/reload and the metrics/profile families).
bool is_control_request(const std::string& text);

}  // namespace gsb::service

#endif  // GSB_SERVICE_CONTROL_TEXT_H
