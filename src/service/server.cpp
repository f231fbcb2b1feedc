#include "service/server.h"

#include <istream>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <vector>

#include "obs/timeline.h"
#include "parallel/thread_pool.h"
#include "service/batch_executor.h"
#include "service/control_text.h"
#include "service/serve_core.h"

namespace gsb::service {
namespace {

/// The series labelled `transport="<transport>"` plus the shared
/// unlabelled ones — the one factory every transport's metrics come from.
TransportMetrics make_transport_metrics(const char* transport) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  const std::string labels = std::string("transport=\"") + transport + "\"";
  TransportMetrics m;
  m.requests = registry.counter("gsb_requests_total",
                                "Requests received per transport.", labels);
  m.connections = registry.counter(
      "gsb_connections_total", "Connections accepted per transport.", labels);
  m.accept_errors = registry.counter(
      "gsb_accept_errors_total", "Failed accept() calls per transport.",
      labels);
  m.bytes_in = registry.counter("gsb_bytes_read_total",
                                "Request bytes read per transport.", labels);
  m.bytes_out = registry.counter(
      "gsb_bytes_written_total", "Response bytes written per transport.",
      labels);
  m.busy_rejections = registry.counter(
      "gsb_busy_rejections_total",
      "Requests answered `busy:` by admission control.");
  m.protocol_errors = registry.counter("gsb_protocol_errors_total",
                                       "Malformed binary-protocol frames.");
  m.disconnects = registry.counter("gsb_disconnects_total",
                                   "Connections dropped mid-session.");
  m.reloads =
      registry.counter("gsb_reloads_total", "Successful catalog hot reloads.");
  const char* timeout_name = "gsb_timeouts_total";
  const char* timeout_help =
      "Requests or connections timed out, by timeout kind.";
  m.timeout_requests =
      registry.counter(timeout_name, timeout_help, "kind=\"request\"");
  m.timeout_idle =
      registry.counter(timeout_name, timeout_help, "kind=\"idle\"");
  m.timeout_write =
      registry.counter(timeout_name, timeout_help, "kind=\"write\"");
  m.socket_write = registry.histogram(
      "gsb_socket_write_microseconds",
      "Time spent writing responses to the socket.", labels);
  return m;
}

std::string trimmed(const std::string& line) {
  const auto begin = line.find_first_not_of(" \t\r\n");
  if (begin == std::string::npos) return {};
  const auto end = line.find_last_not_of(" \t\r\n");
  return line.substr(begin, end - begin + 1);
}

}  // namespace

ServeCore::ServeCore(std::shared_ptr<const GraphEntry> entry,
                     ServeOptions options, const char* transport, int backlog)
    : entry_(std::move(entry)),
      options_(std::move(options)),
      backlog_(backlog),
      metrics_(make_transport_metrics(transport)) {
  if (entry_ == nullptr) {
    throw std::invalid_argument("serve: null graph entry");
  }
}

bool ServeCore::should_stop() const noexcept {
  return stats_.shutdown_requested ||
         (options_.stop != nullptr &&
          options_.stop->load(std::memory_order_relaxed));
}

std::string ServeCore::control_response(const std::string& request) {
  if (request == "ping") return "ok pong";
  if (request == "shutdown") {
    stats_.shutdown_requested = true;
    return "ok shutdown";
  }
  if (request == "reload") {
    if (!options_.reload) return "error: reload unavailable";
    try {
      auto fresh = options_.reload();
      if (fresh == nullptr) return "error: reload unavailable";
      entry_ = std::move(fresh);
      ++stats_.reloads;
      metrics_.reloads.inc();
      return "ok reload epoch=" + std::to_string(entry_->epoch());
    } catch (const std::exception& error) {
      return std::string("error: reload failed: ") + error.what();
    }
  }
  if (const auto profile = profile_response(request)) return *profile;
  if (const auto metrics = metrics_response(request)) return *metrics;
  // stats
  StatsFields fields;
  fields.requests = stats_.requests;
  fields.cache_hits = stats_.cache_hits;
  fields.cache_misses = stats_.cache_misses;
  if (backlog_ != 0) {
    fields.connections = stats_.connections;
    fields.busy = stats_.busy_rejections;
    fields.epoch = entry_->epoch();
  }
  if (options_.request_timeout_ms != 0 || options_.idle_timeout_ms != 0 ||
      options_.write_timeout_ms != 0) {
    fields.timeouts = stats_.timeouts;
  }
  fields.accept_errors = stats_.accept_errors;
  fields.backlog = backlog_;
  fields.cache = options_.cache;
  return render_stats_line(fields);
}

void ServeCore::count_timeout(TimeoutKind kind) {
  ++stats_.timeouts;
  switch (kind) {
    case TimeoutKind::kRequest:
      metrics_.timeout_requests.inc();
      break;
    case TimeoutKind::kIdle:
      metrics_.timeout_idle.inc();
      break;
    case TimeoutKind::kWrite:
      metrics_.timeout_write.inc();
      break;
  }
}

ServeStats serve_stream(std::shared_ptr<const GraphEntry> entry,
                        std::istream& in, std::ostream& out,
                        const ServeOptions& options) {
  // The session's engines are bound to one entry, so there is nothing to
  // swap a reloaded entry into: `reload` answers `reload unavailable`.
  ServeOptions stream_options = options;
  stream_options.reload = nullptr;
  ServeCore core(entry, std::move(stream_options), "stream", /*backlog=*/0);
  ServeStats& stats = core.stats();

  // Session-lifetime state: multi-line groups borrow one pool and one set
  // of per-thread engines (no thread setup, no re-opened clique readers
  // per group), and single-line groups — the interactive case — run on
  // one persistent engine.  A long session opens the artifacts once.
  std::size_t threads = options.threads;
  if (threads == 0) threads = par::ThreadPool::default_threads();
  std::optional<par::ThreadPool> pool;
  std::vector<QueryEngine> group_engines;
  if (threads > 1) {
    pool.emplace(threads);
    group_engines.reserve(threads);
    for (std::size_t t = 0; t < threads; ++t) group_engines.emplace_back(entry);
  }
  QueryEngine session_engine(entry);
  if (obs::TimelineJournal::global().enabled()) {
    obs::TimelineJournal::global().set_thread_lane("stream");
  }

  std::vector<std::string> group;
  std::string line;
  while (!core.should_stop() && std::getline(in, line)) {
    // Group the contiguously available request lines so independent
    // queries fan out together; responses still flush in request order.
    group.clear();
    group.push_back(line);
    while (in.rdbuf()->in_avail() > 0 && std::getline(in, line)) {
      group.push_back(line);
    }
    const auto group_arrival = ServeCore::Clock::now();

    std::size_t begin = 0;
    auto flush_queries = [&](std::size_t end) {
      if (begin == end) return;
      // A configured deadline forces the per-line path: each request is
      // individually timed against its group's arrival, which batch
      // fan-out cannot provide.
      if (threads == 1 || end - begin == 1 ||
          options.request_timeout_ms != 0) {
        for (std::size_t i = begin; i < end; ++i) {
          bool timed_out = false;
          const std::string response = core.answer_by_deadline(
              group_arrival,
              [&] {
                return execute_traced_line("stream", session_engine,
                                           options.cache, group[i],
                                           stats.cache_hits,
                                           stats.cache_misses);
              },
              timed_out);
          if (timed_out) core.count_timeout(TimeoutKind::kRequest);
          out << response << '\n';
        }
        begin = end;
        return;
      }
      const std::vector<std::string> slice(group.begin() + begin,
                                           group.begin() + end);
      BatchOptions batch;
      batch.threads = threads;
      batch.cache = options.cache;
      batch.pool = pool ? &*pool : nullptr;
      batch.engines = group_engines.empty() ? nullptr : &group_engines;
      batch.transport = "stream";
      const auto result = execute_batch(entry, slice, batch);
      for (const std::string& response : result.responses) {
        out << response << '\n';
      }
      stats.engine += result.engine;
      stats.cache_hits += result.cache_hits;
      stats.cache_misses += result.cache_misses;
      begin = end;
    };

    for (std::size_t i = 0; i < group.size(); ++i) {
      const std::string request = trimmed(group[i]);
      if (request.empty()) {  // blank keep-alive: no response, not counted
        flush_queries(i);
        begin = i + 1;
        continue;
      }
      core.count_request();
      if (is_control_request(request)) {
        // Everything queued before the control line answers first — and
        // must also *execute* first: `stats` reads the cache counters
        // and `profile stop` snapshots the timeline window, so pending
        // queries have to land before the control request evaluates.
        flush_queries(i);
        begin = i + 1;
        out << core.control_response(request) << '\n';
      }
      // Under a deadline each query runs as soon as the scan reaches it:
      // classifying a long group first would spend the group's budget
      // before its first request executes.
      if (options.request_timeout_ms != 0) flush_queries(i + 1);
    }
    flush_queries(group.size());
    out.flush();
  }
  stats.engine += session_engine.stats();
  return stats;
}

}  // namespace gsb::service
