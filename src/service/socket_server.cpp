#include "service/server.h"

#include <cstring>
#include <stdexcept>

#if defined(__linux__)

#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <condition_variable>
#include <deque>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "obs/metrics.h"
#include "obs/timeline.h"
#include "parallel/thread_pool.h"
#include "service/batch_executor.h"
#include "service/control_text.h"
#include "service/serve_core.h"
#include "service/wire_protocol.h"
#include "util/io.h"
#include "util/timer.h"

namespace gsb::service {
namespace {

using Clock = ServeCore::Clock;

constexpr int kEpollTimeoutMs = 200;
constexpr std::size_t kReadChunk = 64 * 1024;
constexpr std::size_t kMaxReadPerTick = 256 * 1024;
constexpr std::size_t kMaxSendPerCall = 256 * 1024;

std::string trimmed(const std::string& line) {
  const auto begin = line.find_first_not_of(" \t\r\n");
  if (begin == std::string::npos) return {};
  const auto end = line.find_last_not_of(" \t\r\n");
  return line.substr(begin, end - begin + 1);
}

/// One queued request: a query awaiting a worker, a control request
/// answered inline at its turn, or a pre-computed response (admission
/// `busy`) — all three flow through the same per-connection FIFO so
/// responses leave in request order on both protocols.
struct Pending {
  enum class Kind { kQuery, kControl, kReady };
  Kind kind = Kind::kQuery;
  std::uint64_t id = 0;  ///< binary request id; 0 on the line protocol
  std::string text;      ///< request text (kQuery / kControl)
  std::string ready;     ///< response bytes (kReady)
  Clock::time_point arrival;  ///< framing time; the deadline runs from here
};

struct Conn {
  enum class Proto { kUnknown, kLine, kBinary };

  int fd = -1;
  Proto proto = Proto::kUnknown;
  std::string in;   ///< unparsed input bytes
  std::string out;  ///< framed response bytes awaiting send
  std::deque<Pending> queue;
  bool executing = false;  ///< one request on a worker right now
  bool eof = false;        ///< no more reads: drain queue + out, then close
  bool fatal = false;      ///< protocol error: flush out, then close
  bool dead = false;       ///< unregistered; late completions are discarded
  /// Engine over the entry a worker last built it for; rebuilt (and its
  /// stats banked) when a hot reload swaps the served entry.
  std::unique_ptr<QueryEngine> engine;
  const GraphEntry* engine_entry = nullptr;
  /// Timeout bookkeeping, swept on epoll ticks: last byte read from the
  /// peer, and last forward progress writing to it.
  Clock::time_point last_activity;
  Clock::time_point last_write_progress;
};

struct Job {
  std::shared_ptr<Conn> conn;
  std::string text;
  std::shared_ptr<const GraphEntry> entry;
  Clock::time_point arrival;
  Dispatch dispatch;
};

struct Completion {
  std::shared_ptr<Conn> conn;
  std::uint64_t id = 0;
  std::string response;
  bool timed_out = false;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
};

/// The epoll event loop plus its worker pool: all socket I/O on one
/// thread, query execution fanned out, at most one in-flight request per
/// connection (request-order responses, lock-free engine use).
class Loop {
 public:
  Loop(std::shared_ptr<const GraphEntry> entry, int listen_fd,
       const ServeOptions& options, bool tcp)
      : transport_(tcp ? "tcp" : "unix"),
        tcp_(tcp),
        core_(std::move(entry), options, transport_, SOMAXCONN),
        listen_fd_(listen_fd) {
    epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
    if (epoll_fd_ < 0) throw std::runtime_error("serve: epoll_create1 failed");
    event_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    if (event_fd_ < 0) {
      ::close(epoll_fd_);
      throw std::runtime_error("serve: eventfd failed");
    }
    add_fd(listen_fd_, EPOLLIN);
    add_fd(event_fd_, EPOLLIN);
  }

  ~Loop() {
    stop_workers();
    if (event_fd_ >= 0) ::close(event_fd_);
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
    for (auto& [fd, conn] : conns_) {
      ::close(fd);
      conn->dead = true;
    }
  }

  ServeStats run() {
    std::size_t threads = options().threads;
    if (threads == 0) threads = par::ThreadPool::default_threads();
    workers_.reserve(threads);
    for (std::size_t t = 0; t < threads; ++t) {
      workers_.emplace_back([this, t] { worker(t); });
    }

    // Configured timeouts need ticks at roughly half their granularity;
    // without any, the stock 200ms shutdown-poll tick suffices.
    int tick_ms = kEpollTimeoutMs;
    for (const std::size_t t :
         {options().request_timeout_ms, options().idle_timeout_ms,
          options().write_timeout_ms}) {
      if (t != 0) {
        tick_ms = std::min<int>(
            tick_ms, std::max<int>(10, static_cast<int>(t / 2)));
      }
    }

    epoll_event events[64];
    while (true) {
      const int ready = ::epoll_wait(epoll_fd_, events, 64, tick_ms);
      if (ready < 0 && errno != EINTR) {
        throw std::runtime_error("serve: epoll_wait failed");
      }
      epoll_wakeups_.inc();
      for (int i = 0; i < std::max(ready, 0); ++i) {
        const int fd = events[i].data.fd;
        if (fd == listen_fd_) {
          if (accepting_) accept_new();
        } else if (fd == event_fd_) {
          drain_eventfd();
        } else {
          const auto it = conns_.find(fd);
          if (it == conns_.end()) continue;  // dropped earlier this tick
          const std::shared_ptr<Conn> conn = it->second;
          if ((events[i].events & (EPOLLIN | EPOLLHUP | EPOLLERR)) != 0) {
            readable(conn);
          }
          if (!conn->dead && (events[i].events & EPOLLOUT) != 0) {
            flush_out(conn);
            maybe_close(conn);
          }
        }
      }
      drain_completions();
      sweep_timeouts();
      if (!stopping_ && core_.should_stop()) begin_shutdown();
      if (stopping_ && conns_.empty() && inflight_jobs_ == 0) break;
    }

    stop_workers();
    stats().engine = engine_stats_;
    return stats();
  }

 private:
  [[nodiscard]] const ServeOptions& options() const noexcept {
    return core_.options();
  }
  ServeStats& stats() noexcept { return core_.stats(); }
  const TransportMetrics& metrics() const noexcept { return core_.metrics(); }

  // --- epoll plumbing -------------------------------------------------------

  void add_fd(int fd, std::uint32_t mask) {
    epoll_event ev{};
    ev.events = mask;
    ev.data.fd = fd;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      throw std::runtime_error("serve: epoll_ctl(ADD) failed");
    }
  }

  void update_interest(const std::shared_ptr<Conn>& conn) {
    if (conn->dead) return;
    epoll_event ev{};
    ev.events = 0;
    if (!conn->eof && !conn->fatal) ev.events |= EPOLLIN;
    if (!conn->out.empty()) ev.events |= EPOLLOUT;
    ev.data.fd = conn->fd;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev);
  }

  void wake() {
    const std::uint64_t one = 1;
    while (::write(event_fd_, &one, sizeof(one)) < 0 && errno == EINTR) {
    }
  }

  void drain_eventfd() {
    std::uint64_t value = 0;
    while (::read(event_fd_, &value, sizeof(value)) > 0 || errno == EINTR) {
    }
  }

  // --- connection lifecycle -------------------------------------------------

  void accept_new() {
    while (true) {
      const int fd = util::io::accept_nonblock(listen_fd_);
      if (fd < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        ++stats().accept_errors;
        metrics().accept_errors.inc();
        break;
      }
      if (tcp_) {
        const int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      }
      auto conn = std::make_shared<Conn>();
      conn->fd = fd;
      conn->last_activity = Clock::now();
      conn->last_write_progress = conn->last_activity;
      conns_.emplace(fd, conn);
      ++stats().connections;
      metrics().connections.inc();
      add_fd(fd, EPOLLIN);
    }
  }

  /// Unregisters the connection now; a worker still computing for it
  /// finishes harmlessly (it never touches the fd) and its completion is
  /// discarded.
  void drop(const std::shared_ptr<Conn>& conn) {
    if (conn->dead) return;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
    ::close(conn->fd);
    conns_.erase(conn->fd);
    conn->dead = true;
    conn->queue.clear();
    if (!conn->executing) bank_engine(*conn);
  }

  void disconnect(const std::shared_ptr<Conn>& conn) {
    ++stats().disconnects;
    metrics().disconnects.inc();
    drop(conn);
  }

  void maybe_close(const std::shared_ptr<Conn>& conn) {
    if (conn->dead) return;
    if (conn->fatal && conn->out.empty() && !conn->executing) {
      drop(conn);
      return;
    }
    if (conn->eof && conn->out.empty() && conn->queue.empty() &&
        !conn->executing) {
      drop(conn);
    }
  }

  /// Merges a retiring engine's counters (connection close or reload
  /// rebuild).  Workers bank under the completion mutex too, so the sum
  /// is exact however an engine retires.
  void bank_engine(Conn& conn) {
    if (conn.engine == nullptr) return;
    std::lock_guard<std::mutex> lock(completion_mutex_);
    engine_stats_ += conn.engine->stats();
    conn.engine.reset();
    conn.engine_entry = nullptr;
  }

  // --- reading and parsing --------------------------------------------------

  void readable(const std::shared_ptr<Conn>& conn) {
    if (conn->dead || conn->eof || conn->fatal) return;
    char buf[kReadChunk];
    std::size_t total = 0;
    bool peer_closed = false;
    while (total < kMaxReadPerTick) {
      const ssize_t n = util::io::recv_some(conn->fd, buf, sizeof(buf), 0);
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        disconnect(conn);
        return;
      }
      if (n == 0) {
        conn->eof = true;
        peer_closed = true;
        break;
      }
      conn->in.append(buf, static_cast<std::size_t>(n));
      total += static_cast<std::size_t>(n);
      metrics().bytes_in.inc(static_cast<std::uint64_t>(n));
    }
    if (total > 0) conn->last_activity = Clock::now();
    parse(conn);
    if (conn->dead) return;
    if (peer_closed && conn->proto == Conn::Proto::kLine &&
        !conn->in.empty()) {
      // EOF: a final request without a trailing newline is still a
      // request — answer it before closing instead of dropping it.  (A
      // `shutdown` parsed above also sets eof, but leaves a fragment
      // unanswered: its peer may still be sending the rest.)
      const std::string text = trimmed(conn->in);
      conn->in.clear();
      if (!text.empty()) enqueue_text(conn, 0, text);
      if (conn->dead) return;
    }
    flush_out(conn);
    maybe_close(conn);
  }

  void parse(const std::shared_ptr<Conn>& conn) {
    if (conn->proto == Conn::Proto::kUnknown) {
      if (conn->in.empty()) return;
      conn->proto = static_cast<std::uint8_t>(conn->in[0]) == wire::kVersion
                        ? Conn::Proto::kBinary
                        : Conn::Proto::kLine;
    }
    std::size_t pos = 0;
    if (conn->proto == Conn::Proto::kLine) {
      for (std::size_t nl = conn->in.find('\n', pos);
           nl != std::string::npos; nl = conn->in.find('\n', pos)) {
        const std::string text = trimmed(conn->in.substr(pos, nl - pos));
        pos = nl + 1;
        if (text.empty()) continue;  // blank keep-alive: no response
        enqueue_text(conn, 0, text);
        if (conn->dead || conn->fatal) break;
      }
    } else {
      while (!conn->dead && !conn->fatal) {
        std::size_t consumed = 0;
        std::uint64_t id = 0;
        std::string payload;
        const auto result = wire::decode_request(
            std::string_view(conn->in).substr(pos), consumed, id, payload);
        if (result == wire::DecodeResult::kNeedMore) break;
        if (result == wire::DecodeResult::kMalformed) {
          protocol_error(conn);
          break;
        }
        pos += consumed;
        const std::string text = trimmed(payload);
        if (text.empty()) {
          enqueue_ready(conn, id, "error: empty request");
        } else {
          enqueue_text(conn, id, text);
        }
      }
    }
    if (!conn->dead) conn->in.erase(0, pos);
  }

  void protocol_error(const std::shared_ptr<Conn>& conn) {
    ++stats().protocol_errors;
    metrics().protocol_errors.inc();
    respond(conn, 0, "error: malformed frame");
    conn->fatal = true;  // flush what is queued on the wire, then close
    conn->queue.clear();
  }

  /// Admission control + enqueue: control requests always pass; queries
  /// beyond the pipeline or in-flight-byte bound are answered `busy` at
  /// their FIFO turn; a connection that floods without draining at all is
  /// disconnected once its backlog reaches 4x the byte budget.
  void enqueue_text(const std::shared_ptr<Conn>& conn, std::uint64_t id,
                    std::string text) {
    core_.count_request();
    if (is_control_request(text)) {
      Pending p;
      p.kind = Pending::Kind::kControl;
      p.id = id;
      p.text = std::move(text);
      enqueue(conn, std::move(p));
      return;
    }
    if (conn->out.size() >= 4 * options().max_inflight_bytes) {
      disconnect(conn);  // overload: client is not reading at all
      return;
    }
    if (conn->queue.size() >= options().max_pipeline) {
      ++stats().busy_rejections;
      metrics().busy_rejections.inc();
      enqueue_ready(conn, id, "busy: pipeline limit reached");
      return;
    }
    if (conn->out.size() >= options().max_inflight_bytes) {
      ++stats().busy_rejections;
      metrics().busy_rejections.inc();
      enqueue_ready(conn, id, "busy: in-flight byte budget exceeded");
      return;
    }
    Pending p;
    p.kind = Pending::Kind::kQuery;
    p.id = id;
    p.text = std::move(text);
    p.arrival = Clock::now();
    enqueue(conn, std::move(p));
  }

  void enqueue_ready(const std::shared_ptr<Conn>& conn, std::uint64_t id,
                     std::string response) {
    Pending p;
    p.kind = Pending::Kind::kReady;
    p.id = id;
    p.ready = std::move(response);
    enqueue(conn, std::move(p));
  }

  /// Appends to the connection's FIFO and advances it at once, so a
  /// query dispatches as soon as it is framed rather than after the rest
  /// of its read.
  void enqueue(const std::shared_ptr<Conn>& conn, Pending item) {
    conn->queue.push_back(std::move(item));
    pump(conn);
  }

  // --- execution ------------------------------------------------------------

  /// Advances the connection's FIFO: ready/control items answer inline,
  /// the first query dispatches to a worker (one in flight per
  /// connection keeps responses in request order).
  void pump(const std::shared_ptr<Conn>& conn) {
    while (!conn->dead && !conn->executing && !conn->queue.empty()) {
      Pending item = std::move(conn->queue.front());
      conn->queue.pop_front();
      switch (item.kind) {
        case Pending::Kind::kReady:
          respond(conn, item.id, item.ready);
          break;
        case Pending::Kind::kControl: {
          // The response must hit the output buffer before begin_shutdown
          // marks connections EOF — maybe_close drops a drained connection
          // immediately, and the reply must not be the casualty.
          respond(conn, item.id, core_.control_response(item.text));
          if (core_.should_stop()) begin_shutdown();
          break;
        }
        case Pending::Kind::kQuery: {
          if (core_.past_deadline(item.arrival)) {
            // Shed at dispatch: the deadline already passed while the
            // request waited its FIFO turn, so answer the typed error
            // in order instead of burning a worker on it.
            core_.count_timeout(TimeoutKind::kRequest);
            respond(conn, item.id, kDeadlineError);
            break;
          }
          conn->executing = true;
          ++inflight_jobs_;
          Job job;
          job.conn = conn;
          job.text = std::move(item.text);
          job.entry = core_.entry();
          job.arrival = item.arrival;
          job.dispatch = Dispatch{Clock::now(), item.id};
          {
            std::lock_guard<std::mutex> lock(jobs_mutex_);
            jobs_.push_back(std::move(job));
          }
          jobs_cv_.notify_one();
          return;
        }
      }
    }
  }

  void respond(const std::shared_ptr<Conn>& conn, std::uint64_t id,
               std::string_view line) {
    if (conn->dead) return;
    if (conn->out.empty()) {
      // The write-stall clock starts when output first becomes pending.
      conn->last_write_progress = Clock::now();
    }
    if (conn->proto == Conn::Proto::kBinary) {
      wire::encode_response(conn->out, wire::status_for_response(line), id,
                            line);
    } else {
      conn->out.append(line);
      conn->out.push_back('\n');
    }
  }

  // --- writing --------------------------------------------------------------

  void flush_out(const std::shared_ptr<Conn>& conn) {
    if (conn->dead) return;
    util::Timer write_timer;
    std::uint64_t sent_bytes = 0;
    while (!conn->out.empty()) {
      const std::size_t chunk = std::min(conn->out.size(), kMaxSendPerCall);
      const ssize_t n =
          util::io::send_some(conn->fd, conn->out.data(), chunk, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        metrics().bytes_out.inc(sent_bytes);
        disconnect(conn);  // EPIPE/ECONNRESET: client left mid-response
        return;
      }
      conn->out.erase(0, static_cast<std::size_t>(n));
      sent_bytes += static_cast<std::uint64_t>(n);
    }
    if (sent_bytes > 0) {
      metrics().bytes_out.inc(sent_bytes);
      metrics().socket_write.observe_micros(
          static_cast<std::uint64_t>(write_timer.micros()));
      conn->last_write_progress = Clock::now();
    }
    update_interest(conn);
  }

  // --- timeouts -------------------------------------------------------------

  /// Epoll-tick sweep for idle and slow-reader connections.  Victims are
  /// collected first: disconnect mutates conns_.
  void sweep_timeouts() {
    const std::size_t idle_ms = options().idle_timeout_ms;
    const std::size_t write_ms = options().write_timeout_ms;
    if (idle_ms == 0 && write_ms == 0) return;
    const auto now = Clock::now();
    std::vector<std::pair<std::shared_ptr<Conn>, TimeoutKind>> victims;
    for (const auto& [fd, conn] : conns_) {
      if (conn->dead) continue;
      if (write_ms != 0 && !conn->out.empty() &&
          now - conn->last_write_progress >
              std::chrono::milliseconds(write_ms)) {
        victims.emplace_back(conn, TimeoutKind::kWrite);
        continue;
      }
      if (idle_ms != 0 && conn->out.empty() && conn->queue.empty() &&
          !conn->executing && conn->in.empty() && !conn->eof &&
          now - conn->last_activity > std::chrono::milliseconds(idle_ms)) {
        victims.emplace_back(conn, TimeoutKind::kIdle);
      }
    }
    for (const auto& [conn, kind] : victims) {
      core_.count_timeout(kind);
      disconnect(conn);
    }
  }

  // --- completions ----------------------------------------------------------

  void drain_completions() {
    std::vector<Completion> done;
    {
      std::lock_guard<std::mutex> lock(completion_mutex_);
      done.swap(completions_);
    }
    for (Completion& completion : done) {
      --inflight_jobs_;
      stats().cache_hits += completion.hits;
      stats().cache_misses += completion.misses;
      if (completion.timed_out) core_.count_timeout(TimeoutKind::kRequest);
      const std::shared_ptr<Conn>& conn = completion.conn;
      conn->executing = false;
      if (conn->dead) {
        bank_engine(*conn);
        continue;
      }
      respond(conn, completion.id, completion.response);
      pump(conn);
      if (conn->dead) continue;
      flush_out(conn);
      maybe_close(conn);
    }
  }

  // --- shutdown -------------------------------------------------------------

  void begin_shutdown() {
    if (stopping_) return;
    stopping_ = true;
    if (accepting_) {
      accepting_ = false;
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
    }
    // Every connection drains: queued requests answer, output flushes,
    // then the socket closes.  Parsed-but-unread kernel bytes are not
    // pulled in — the contract covers what the server has received.
    std::vector<std::shared_ptr<Conn>> all;
    all.reserve(conns_.size());
    for (const auto& [fd, conn] : conns_) all.push_back(conn);
    for (const std::shared_ptr<Conn>& conn : all) {
      conn->eof = true;
      update_interest(conn);
      maybe_close(conn);
    }
  }

  // --- worker pool ----------------------------------------------------------

  void worker(std::size_t index) {
    obs::TimelineJournal& journal = obs::TimelineJournal::global();
    bool lane_named = false;
    while (true) {
      Job job;
      {
        std::unique_lock<std::mutex> lock(jobs_mutex_);
        jobs_cv_.wait(lock,
                      [this] { return !jobs_.empty() || workers_stop_; });
        if (jobs_.empty()) return;
        job = std::move(jobs_.front());
        jobs_.pop_front();
      }
      Conn& conn = *job.conn;
      if (conn.engine == nullptr || conn.engine_entry != job.entry.get()) {
        bank_engine(conn);  // reload swapped the entry: bank + rebuild
        conn.engine = std::make_unique<QueryEngine>(job.entry);
        conn.engine_entry = job.entry.get();
      }
      if (!lane_named && journal.enabled()) {
        journal.set_thread_lane(std::string(transport_) + "-worker-" +
                                std::to_string(index));
        lane_named = true;
      }
      Completion completion;
      completion.id = job.dispatch.id;
      // The deadline is judged here, at the worker's result, not when the
      // event loop next drains completions.
      completion.response = core_.answer_by_deadline(
          job.arrival,
          [&] {
            return execute_traced_line(transport_, *conn.engine,
                                       options().cache, job.text,
                                       completion.hits, completion.misses,
                                       &job.dispatch);
          },
          completion.timed_out);
      completion.conn = std::move(job.conn);
      {
        std::lock_guard<std::mutex> lock(completion_mutex_);
        completions_.push_back(std::move(completion));
      }
      wake();
    }
  }

  void stop_workers() {
    {
      std::lock_guard<std::mutex> lock(jobs_mutex_);
      workers_stop_ = true;
    }
    jobs_cv_.notify_all();
    for (std::thread& worker : workers_) {
      if (worker.joinable()) worker.join();
    }
    workers_.clear();
  }

  const char* transport_;  ///< metric label, trace tag and lane prefix
  bool tcp_;
  ServeCore core_;
  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int event_fd_ = -1;
  bool accepting_ = true;
  bool stopping_ = false;
  std::uint64_t inflight_jobs_ = 0;
  std::unordered_map<int, std::shared_ptr<Conn>> conns_;
  /// Ticks on idle timeouts too — a healthy idle server shows ~5/s, a hot
  /// one shows wakeups tracking request bursts.
  obs::Counter epoll_wakeups_ = obs::MetricsRegistry::global().counter(
      "gsb_epoll_wakeups_total",
      "Event-loop wakeups (events ready or idle timeout).");

  std::vector<std::thread> workers_;
  std::mutex jobs_mutex_;
  std::condition_variable jobs_cv_;
  std::deque<Job> jobs_;
  bool workers_stop_ = false;

  std::mutex completion_mutex_;
  std::vector<Completion> completions_;
  QueryEngineStats engine_stats_;
};

/// Parses `HOST:PORT`, binds and listens (SOMAXCONN backlog); returns the
/// non-blocking listen fd and the bound port.
int bind_tcp(const std::string& address, std::uint16_t& port) {
  const auto colon = address.rfind(':');
  if (colon == std::string::npos) {
    throw std::runtime_error("serve: --tcp expects HOST:PORT, got '" +
                             address + "'");
  }
  const std::string host = address.substr(0, colon);
  const std::string service = address.substr(colon + 1);
  if (service.empty()) {
    throw std::runtime_error("serve: --tcp expects HOST:PORT, got '" +
                             address + "'");
  }

  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_flags = AI_PASSIVE | AI_NUMERICSERV;
  addrinfo* found = nullptr;
  const int rc = ::getaddrinfo(host.empty() ? nullptr : host.c_str(),
                               service.c_str(), &hints, &found);
  if (rc != 0) {
    throw std::runtime_error("serve: cannot resolve '" + address +
                             "': " + gai_strerror(rc));
  }

  int fd = -1;
  std::string error = "no usable address";
  for (const addrinfo* ai = found; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family,
                  ai->ai_socktype | SOCK_NONBLOCK | SOCK_CLOEXEC,
                  ai->ai_protocol);
    if (fd < 0) {
      error = "socket() failed";
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (::bind(fd, ai->ai_addr, ai->ai_addrlen) == 0 &&
        ::listen(fd, SOMAXCONN) == 0) {
      break;
    }
    error = std::strerror(errno);
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(found);
  if (fd < 0) {
    throw std::runtime_error("serve: cannot bind '" + address +
                             "': " + error);
  }

  sockaddr_storage bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) ==
      0) {
    if (bound.ss_family == AF_INET) {
      port = ntohs(reinterpret_cast<const sockaddr_in&>(bound).sin_port);
    } else if (bound.ss_family == AF_INET6) {
      port = ntohs(reinterpret_cast<const sockaddr_in6&>(bound).sin6_port);
    }
  }
  return fd;
}

/// Binds \p path as a Unix-domain listener (SOMAXCONN backlog) and
/// returns the non-blocking listen fd plus the identity of the socket
/// file it created.  A stale socket file is replaced; a non-socket, or a
/// path another live server still accepts on, is refused.
int bind_unix(const std::string& path, std::uint64_t& dev,
              std::uint64_t& ino) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    throw std::runtime_error("serve: socket path too long: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);

  // A connect() probe tells a live listener (accepts) from a leftover
  // file (refuses).
  struct stat st{};
  if (::stat(path.c_str(), &st) == 0) {
    if (!S_ISSOCK(st.st_mode)) {
      throw std::runtime_error("serve: '" + path +
                               "' exists and is not a socket");
    }
    const int probe = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (probe >= 0) {
      const int live = ::connect(
          probe, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
      ::close(probe);
      if (live == 0) {
        throw std::runtime_error("serve: '" + path +
                                 "' is already served by a live process");
      }
    }
    ::unlink(path.c_str());
  }

  const int fd =
      ::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) throw std::runtime_error("serve: socket() failed");
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      ::listen(fd, SOMAXCONN) != 0) {
    const std::string error = std::strerror(errno);
    ::close(fd);
    throw std::runtime_error("serve: cannot bind '" + path + "': " + error);
  }
  struct stat bound{};
  if (::stat(path.c_str(), &bound) == 0) {
    dev = bound.st_dev;
    ino = bound.st_ino;
  }
  return fd;
}

}  // namespace

SocketServer::SocketServer(std::shared_ptr<const GraphEntry> entry,
                           Listener listener, ServeOptions options)
    : entry_(std::move(entry)),
      listener_(std::move(listener)),
      options_(std::move(options)) {
  if (entry_ == nullptr) {
    throw std::invalid_argument("SocketServer: null graph entry");
  }
  listen_fd_ = listener_.family == Listener::Family::kTcp
                   ? bind_tcp(listener_.address, port_)
                   : bind_unix(listener_.address, bound_dev_, bound_ino_);
}

SocketServer::~SocketServer() { close_listener(); }

ServeStats SocketServer::serve() {
  ServeStats stats;
  {
    Loop loop(entry_, listen_fd_, options_,
              listener_.family == Listener::Family::kTcp);
    stats = loop.run();
  }
  close_listener();
  return stats;
}

void SocketServer::close_listener() noexcept {
  if (listen_fd_ < 0) return;
  ::close(listen_fd_);
  listen_fd_ = -1;
  struct stat current{};
  if (listener_.family == Listener::Family::kUnix && bound_ino_ != 0 &&
      ::stat(listener_.address.c_str(), &current) == 0 &&
      current.st_dev == bound_dev_ && current.st_ino == bound_ino_) {
    ::unlink(listener_.address.c_str());
  }
}

}  // namespace gsb::service

#else  // !__linux__

namespace gsb::service {

SocketServer::SocketServer(std::shared_ptr<const GraphEntry> entry,
                           Listener listener, ServeOptions options)
    : entry_(std::move(entry)),
      listener_(std::move(listener)),
      options_(std::move(options)) {
  throw std::runtime_error(
      "serve: the socket transports (--tcp, --socket) require epoll "
      "(Linux); use the stdin transport");
}

SocketServer::~SocketServer() = default;

ServeStats SocketServer::serve() {
  throw std::runtime_error(
      "serve: the socket transports require epoll (Linux)");
}

void SocketServer::close_listener() noexcept {}

}  // namespace gsb::service

#endif
