#include "service/server.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <istream>
#include <mutex>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/timeline.h"
#include "obs/trace.h"
#include "service/control_text.h"
#include "util/io.h"
#include "util/timer.h"

#if defined(__unix__) || defined(__APPLE__)
#define GSB_HAVE_UNIX_SOCKETS 1
#include <cerrno>
#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#ifndef MSG_NOSIGNAL
#define MSG_NOSIGNAL 0  // macOS: SO_NOSIGPIPE is set on the socket instead
#endif
#endif

namespace gsb::service {
namespace {

/// Counters shared by every transport/connection so `stats` answers for
/// the whole server, not one connection.
struct ServeState {
  std::atomic<std::uint64_t> requests{0};
  std::atomic<std::uint64_t> cache_hits{0};
  std::atomic<std::uint64_t> cache_misses{0};
  std::atomic<std::uint64_t> accept_errors{0};
  std::atomic<std::uint64_t> timeouts{0};
  std::atomic<bool> stopping{false};
  /// stats emits timeouts= only when a deadline/idle bound is configured,
  /// so the default stats line is byte-identical to older servers.
  bool timeouts_configured = false;
  ResultCache* cache = nullptr;
  const std::atomic<bool>* external_stop = nullptr;
  /// Listen backlog in force (0 on the stream transport).  The kernel
  /// drops connections past this bound silently, so `stats` reports the
  /// bound itself alongside the accept failures the server *can* see.
  int listen_backlog = 0;

  [[nodiscard]] bool should_stop() const noexcept {
    return stopping.load(std::memory_order_relaxed) ||
           (external_stop != nullptr &&
            external_stop->load(std::memory_order_relaxed));
  }
};

std::string trimmed(const std::string& line) {
  const auto begin = line.find_first_not_of(" \t\r\n");
  if (begin == std::string::npos) return {};
  const auto end = line.find_last_not_of(" \t\r\n");
  return line.substr(begin, end - begin + 1);
}

/// Handles `ping` / `stats` / `metrics ...` / `shutdown`; nullopt for
/// ordinary queries.
std::optional<std::string> control_response(ServeState& state,
                                            const std::string& request) {
  if (request == "ping") return std::string("ok pong");
  if (request == "shutdown") {
    state.stopping.store(true, std::memory_order_relaxed);
    return std::string("ok shutdown");
  }
  if (request == "stats") {
    StatsFields fields;
    fields.requests = state.requests.load(std::memory_order_relaxed);
    fields.cache_hits = state.cache_hits.load(std::memory_order_relaxed);
    fields.cache_misses = state.cache_misses.load(std::memory_order_relaxed);
    if (state.timeouts_configured) {
      fields.timeouts = state.timeouts.load(std::memory_order_relaxed);
    }
    fields.accept_errors =
        state.accept_errors.load(std::memory_order_relaxed);
    fields.backlog = state.listen_backlog;
    fields.cache = state.cache;
    return render_stats_line(fields);
  }
  if (const auto profile = profile_response(request)) return *profile;
  return metrics_response(request);
}

/// Per-transport counters on the global registry; inert until the
/// registry is enabled.
struct TransportMetrics {
  obs::Counter requests;
  obs::Counter connections;
  obs::Counter accept_errors;
  obs::Counter bytes_in;
  obs::Counter bytes_out;
  obs::Histogram socket_write;
};

TransportMetrics make_transport_metrics(const char* transport) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  const std::string labels =
      std::string("transport=\"") + transport + "\"";
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
  m.socket_write = registry.histogram(
      "gsb_socket_write_microseconds",
      "Time spent writing responses to the socket.", labels);
  return m;
}

const TransportMetrics& stream_metrics() {
  static const TransportMetrics metrics = make_transport_metrics("stream");
  return metrics;
}

const TransportMetrics& unix_metrics() {
  static const TransportMetrics metrics = make_transport_metrics("unix");
  return metrics;
}

constexpr const char* kDeadlineError = "error: deadline exceeded";
constexpr const char* kTimeoutMetric = "gsb_timeouts_total";
constexpr const char* kTimeoutHelp =
    "Requests or connections timed out, by timeout kind.";

/// Same series the TCP loop registers (the registry dedupes on
/// name+labels), so every transport's timeouts land in one metric.
obs::Counter& request_timeout_counter() {
  static obs::Counter counter = obs::MetricsRegistry::global().counter(
      kTimeoutMetric, kTimeoutHelp, "kind=\"request\"");
  return counter;
}

obs::Counter& idle_timeout_counter() {
  static obs::Counter counter = obs::MetricsRegistry::global().counter(
      kTimeoutMetric, kTimeoutHelp, "kind=\"idle\"");
  return counter;
}

}  // namespace

ServeStats serve_stream(std::shared_ptr<const GraphEntry> entry,
                        std::istream& in, std::ostream& out,
                        const ServeOptions& options) {
  if (entry == nullptr) {
    throw std::invalid_argument("serve_stream: null graph entry");
  }
  ServeState state;
  state.cache = options.cache;
  state.external_stop = options.stop;
  state.timeouts_configured = options.request_timeout_ms != 0;
  ServeStats stats;

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
  std::uint64_t session_hits = 0;
  std::uint64_t session_misses = 0;
  if (obs::TimelineJournal::global().enabled()) {
    obs::TimelineJournal::global().set_thread_lane("stream");
  }

  std::vector<std::string> group;
  std::string line;
  auto group_arrival = std::chrono::steady_clock::now();
  const auto past_deadline = [&]() {
    return options.request_timeout_ms != 0 &&
           std::chrono::steady_clock::now() - group_arrival >
               std::chrono::milliseconds(options.request_timeout_ms);
  };
  while (!state.should_stop() && std::getline(in, line)) {
    // Group the contiguously available request lines so independent
    // queries fan out together; responses still flush in request order.
    group.clear();
    group.push_back(line);
    while (in.rdbuf()->in_avail() > 0 && std::getline(in, line)) {
      group.push_back(line);
    }
    group_arrival = std::chrono::steady_clock::now();

    std::size_t begin = 0;
    auto flush_queries = [&](std::size_t end) {
      if (begin == end) return;
      // A configured deadline forces the per-line path: each request is
      // individually timed against its group's arrival, which batch
      // fan-out cannot provide.
      if (threads == 1 || end - begin == 1 ||
          options.request_timeout_ms != 0) {
        for (std::size_t i = begin; i < end; ++i) {
          const std::uint64_t h0 = session_hits;
          const std::uint64_t m0 = session_misses;
          if (past_deadline()) {
            // Shed without executing; the slot still answers in order.
            state.timeouts.fetch_add(1, std::memory_order_relaxed);
            request_timeout_counter().inc();
            out << kDeadlineError << '\n';
            continue;
          }
          std::string response =
              execute_traced_line("stream", session_engine, options.cache,
                                  group[i], session_hits, session_misses);
          if (past_deadline()) {
            state.timeouts.fetch_add(1, std::memory_order_relaxed);
            request_timeout_counter().inc();
            response = kDeadlineError;
          }
          out << response << '\n';
          state.cache_hits.fetch_add(session_hits - h0,
                                     std::memory_order_relaxed);
          state.cache_misses.fetch_add(session_misses - m0,
                                       std::memory_order_relaxed);
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
      state.cache_hits.fetch_add(result.cache_hits,
                                 std::memory_order_relaxed);
      state.cache_misses.fetch_add(result.cache_misses,
                                   std::memory_order_relaxed);
      begin = end;
    };

    for (std::size_t i = 0; i < group.size(); ++i) {
      const std::string request = trimmed(group[i]);
      if (request.empty()) {  // blank keep-alive: no response, not counted
        flush_queries(i);
        begin = i + 1;
        continue;
      }
      state.requests.fetch_add(1, std::memory_order_relaxed);
      stream_metrics().requests.inc();
      ++stats.requests;
      if (is_control_request(request)) {
        // Everything queued before the control line answers first — and
        // must also *execute* first: `stats` reads the cache counters
        // and `profile stop` snapshots the timeline window, so pending
        // queries have to land before the control request evaluates.
        flush_queries(i);
        if (const auto control = control_response(state, request)) {
          begin = i + 1;
          out << *control << '\n';
        }
        // Control-shaped but unsupported here ("reload" without TCP):
        // left in the pending range for the typed engine error.
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
  stats.cache_hits += session_hits;
  stats.cache_misses += session_misses;
  stats.timeouts = state.timeouts.load(std::memory_order_relaxed);
  stats.shutdown_requested = state.stopping.load(std::memory_order_relaxed);
  return stats;
}

#if GSB_HAVE_UNIX_SOCKETS

namespace {

/// Sends the whole buffer through util::io::send_some (EINTR retried
/// there, fault-injectable).  MSG_NOSIGNAL so a client that disconnected
/// mid-response surfaces as EPIPE (connection teardown) instead of a
/// process-killing SIGPIPE.
bool write_all(int fd, const std::string& data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = util::io::send_some(fd, data.data() + sent,
                                          data.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

/// One connection: per-connection engine, shared cache/state; answers
/// request lines until EOF, server stop, or idle timeout.
void handle_connection(int fd, std::shared_ptr<const GraphEntry> entry,
                       ServeState& state, const ServeOptions& options,
                       std::mutex& stats_mutex, ServeStats& stats) {
  QueryEngine engine(entry);
  if (obs::TimelineJournal::global().enabled()) {
    obs::TimelineJournal::global().set_thread_lane("unix-conn");
  }
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t requests = 0;
  std::string pending;
  char chunk[4096];
  bool write_ok = true;   // a failed write aborts the connection
  bool closing = false;   // shutdown seen: drain what is buffered, close
  const TransportMetrics& metrics = unix_metrics();
  auto last_activity = std::chrono::steady_clock::now();
  // Read-batch arrival time: every line parsed from one read shares it,
  // mirroring the TCP loop's enqueue-to-response deadline.
  auto enqueued = last_activity;
  const auto past_deadline = [&]() {
    return options.request_timeout_ms != 0 &&
           std::chrono::steady_clock::now() - enqueued >
               std::chrono::milliseconds(options.request_timeout_ms);
  };
  auto answer = [&](const std::string& request) {
    if (request.empty() || !write_ok) return;
    ++requests;
    state.requests.fetch_add(1, std::memory_order_relaxed);
    metrics.requests.inc();
    obs::TraceScope trace(obs::Tracer::global(), "unix", request);
    obs::TimelineSpan timeline_span(obs::TimelineEventKind::kRequest, request);
    std::string response;
    if (const auto control = control_response(state, request)) {
      response = *control;
      if (request == "shutdown") closing = true;
    } else if (past_deadline()) {
      // Shed without executing; the line still answers in order.
      state.timeouts.fetch_add(1, std::memory_order_relaxed);
      request_timeout_counter().inc();
      response = kDeadlineError;
    } else {
      response =
          execute_cached_line(engine, state.cache, request, hits, misses);
      if (past_deadline()) {
        state.timeouts.fetch_add(1, std::memory_order_relaxed);
        request_timeout_counter().inc();
        response = kDeadlineError;
      }
    }
    std::string payload;
    {
      obs::SpanTimer serialize(obs::Span::kSerialize);
      payload = std::move(response);
      payload.push_back('\n');
    }
    util::Timer write_timer;
    {
      obs::SpanTimer span(obs::Span::kSocketWrite);
      write_ok = write_all(fd, payload);
    }
    metrics.socket_write.observe_micros(
        static_cast<std::uint64_t>(write_timer.micros()));
    metrics.bytes_out.inc(payload.size());
  };
  int tick_ms = 200;
  if (options.idle_timeout_ms != 0) {
    tick_ms = std::min<int>(
        tick_ms,
        std::max<int>(10, static_cast<int>(options.idle_timeout_ms / 2)));
  }
  while (write_ok && !closing) {
    struct pollfd poller{fd, POLLIN, 0};
    const int ready = ::poll(&poller, 1, tick_ms);
    if (state.should_stop()) break;  // graceful: in-flight lines finished
    if (ready < 0) {
      if (errno == EINTR) continue;  // interrupted: re-check the stop flags
      break;
    }
    if (ready == 0) {
      if (options.idle_timeout_ms != 0 &&
          std::chrono::steady_clock::now() - last_activity >
              std::chrono::milliseconds(options.idle_timeout_ms)) {
        state.timeouts.fetch_add(1, std::memory_order_relaxed);
        idle_timeout_counter().inc();
        break;  // reclaim the worker held by a silent peer
      }
      continue;
    }
    const ssize_t n = util::io::read_some(fd, chunk, sizeof(chunk));
    enqueued = std::chrono::steady_clock::now();
    if (n <= 0) {
      // EOF: a final request without a trailing newline is still a
      // request — answer it before closing instead of dropping it.
      if (n == 0) answer(trimmed(pending));
      break;
    }
    last_activity = enqueued;
    pending.append(chunk, static_cast<std::size_t>(n));
    metrics.bytes_in.inc(static_cast<std::uint64_t>(n));
    // Answer every complete buffered line — including lines received
    // after a `shutdown` in the same read, matching the stream
    // transport's drain-then-stop contract.
    std::size_t start = 0;
    for (std::size_t nl = pending.find('\n', start);
         nl != std::string::npos; nl = pending.find('\n', start)) {
      const std::string request = trimmed(pending.substr(start, nl - start));
      start = nl + 1;
      answer(request);
    }
    pending.erase(0, start);
  }
  ::close(fd);
  state.cache_hits.fetch_add(hits, std::memory_order_relaxed);
  state.cache_misses.fetch_add(misses, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(stats_mutex);
  stats.requests += requests;
  stats.cache_hits += hits;
  stats.cache_misses += misses;
  stats.engine += engine.stats();
}

}  // namespace

ServeStats serve_unix_socket(std::shared_ptr<const GraphEntry> entry,
                             const std::string& socket_path,
                             const ServeOptions& options) {
  if (entry == nullptr) {
    throw std::invalid_argument("serve_unix_socket: null graph entry");
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path.size() >= sizeof(addr.sun_path)) {
    throw std::runtime_error("serve: socket path too long: " + socket_path);
  }
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);

  // Replace a *stale* socket file only: never delete a non-socket, and
  // never hijack a path another live server is still accepting on (a
  // connect() probe distinguishes the two — a live listener accepts, a
  // leftover file refuses).
  struct stat st{};
  if (::stat(socket_path.c_str(), &st) == 0) {
    if (!S_ISSOCK(st.st_mode)) {
      throw std::runtime_error("serve: '" + socket_path +
                               "' exists and is not a socket");
    }
    const int probe = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (probe >= 0) {
      const int live = ::connect(
          probe, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
      ::close(probe);
      if (live == 0) {
        throw std::runtime_error("serve: '" + socket_path +
                                 "' is already served by a live process");
      }
    }
    ::unlink(socket_path.c_str());
  }

  const int listen_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd < 0) throw std::runtime_error("serve: socket() failed");
  if (::bind(listen_fd, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd, SOMAXCONN) != 0) {
    ::close(listen_fd);
    throw std::runtime_error("serve: cannot bind '" + socket_path + "'");
  }
  // Identity of the socket file *we* bound: exit-time cleanup must not
  // delete a replacement bound by a newer server instance.
  struct stat bound{};
  const bool have_bound = ::stat(socket_path.c_str(), &bound) == 0;

  ServeState state;
  state.cache = options.cache;
  state.external_stop = options.stop;
  state.timeouts_configured =
      options.request_timeout_ms != 0 || options.idle_timeout_ms != 0;
  state.listen_backlog = SOMAXCONN;
  ServeStats stats;
  std::mutex stats_mutex;

  // Finished connections are reaped on every accept-loop tick so a
  // long-lived daemon's thread resources stay proportional to *live*
  // connections, not to how many it has ever served.
  struct Connection {
    std::thread thread;
    std::shared_ptr<std::atomic<bool>> done;
  };
  std::vector<Connection> workers;
  auto reap = [&](bool all) {
    for (auto it = workers.begin(); it != workers.end();) {
      if (all || it->done->load(std::memory_order_acquire)) {
        it->thread.join();
        it = workers.erase(it);
      } else {
        ++it;
      }
    }
  };

  while (!state.should_stop()) {
    struct pollfd poller{listen_fd, POLLIN, 0};
    const int ready = ::poll(&poller, 1, 200);
    reap(false);
    if (ready <= 0) continue;  // timeout or EINTR: re-check the stop flags
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno != EINTR && errno != EAGAIN && errno != EWOULDBLOCK &&
          errno != ECONNABORTED) {
        state.accept_errors.fetch_add(1, std::memory_order_relaxed);
        unix_metrics().accept_errors.inc();
      }
      continue;
    }
    unix_metrics().connections.inc();
    {
      std::lock_guard<std::mutex> lock(stats_mutex);
      ++stats.connections;
    }
    auto done = std::make_shared<std::atomic<bool>>(false);
    workers.push_back(Connection{
        std::thread([fd, entry, &state, &options, &stats_mutex, &stats,
                     done] {
          handle_connection(fd, entry, state, options, stats_mutex, stats);
          done->store(true, std::memory_order_release);
        }),
        done});
  }
  ::close(listen_fd);
  reap(true);
  struct stat current{};
  if (have_bound && ::stat(socket_path.c_str(), &current) == 0 &&
      current.st_ino == bound.st_ino && current.st_dev == bound.st_dev) {
    ::unlink(socket_path.c_str());
  }
  stats.accept_errors = state.accept_errors.load(std::memory_order_relaxed);
  stats.timeouts = state.timeouts.load(std::memory_order_relaxed);
  stats.shutdown_requested = state.stopping.load(std::memory_order_relaxed);
  return stats;
}

#else  // !GSB_HAVE_UNIX_SOCKETS

ServeStats serve_unix_socket(std::shared_ptr<const GraphEntry>,
                             const std::string&, const ServeOptions&) {
  throw std::runtime_error(
      "serve: Unix-domain sockets are unavailable on this platform; use the "
      "stdin transport");
}

#endif

}  // namespace gsb::service
