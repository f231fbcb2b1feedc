#ifndef GSB_SERVICE_SERVER_H
#define GSB_SERVICE_SERVER_H

/// \file server.h
/// The long-lived serving loop behind `gsb serve`: request lines or
/// frames in, one response per request out, in request order (wire
/// formats in docs/SERVICE.md).  Two front ends share one request path:
///
///   * **stream** (serve_stream) — requests on an istream (stdin in the
///     CLI), responses on an ostream.  Contiguously available request
///     lines are grouped and fanned over the thread pool via
///     execute_batch, so a scripted session's output is byte-reproducible
///     at any thread count.  The stream is read with blocking calls
///     because stdin may be a regular file, which epoll rejects.
///   * **socket** (SocketServer) — one epoll event loop owns a TCP or
///     Unix-domain listener and every connection (non-blocking accept,
///     read and write; no thread per connection); parsed requests execute
///     on a small worker pool, at most one in flight per connection, so
///     responses leave each connection in request order and the engine's
///     per-connection state never needs locks.  Each connection speaks
///     one of two protocols, sniffed from its first byte
///     (wire_protocol.h): the newline-delimited line protocol, or the
///     length-prefixed binary protocol with request ids and pipelining.
///
/// Both answer control requests, shed requests past their deadline and
/// count into one ServeStats through the same ServeCore (serve_core.h),
/// and execute queries through execute_traced_line, so bytes are
/// identical across stdin, Unix-socket and TCP serving on either protocol.
///
/// Admission control (socket): a connection may hold at most
/// `max_pipeline` queued requests and `max_inflight_bytes` of un-drained
/// response bytes; beyond either bound new requests are answered
/// immediately with a typed `busy` response (status kBusy on the binary
/// protocol, a `busy: ...` line on the line protocol) instead of queueing
/// unboundedly.  A client that keeps flooding without reading at all is
/// disconnected once its output backlog reaches four times the byte
/// budget.
///
/// Hot reload (socket): the `reload` control request invokes the injected
/// reload callback (the CLI wires it to a fresh GraphCatalog::open of the
/// same spec) and swaps the served entry under live traffic.  In-flight
/// queries finish against the old epoch through their shared_ptr; every
/// request dispatched after the swap runs against the new epoch — no
/// response ever mixes epochs.  The stream's engines live for the whole
/// session, so serve_stream answers `error: reload unavailable`.

#include <atomic>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <utility>

#include "service/graph_catalog.h"
#include "service/query_engine.h"
#include "service/result_cache.h"

namespace gsb::service {

struct ServeOptions {
  std::size_t threads = 0;       ///< execution workers; 0 = hardware cores
  ResultCache* cache = nullptr;  ///< optional shared response cache
  /// Optional external shutdown flag (signal handlers); polled between
  /// stream groups and by the event loop.
  const std::atomic<bool>* stop = nullptr;
  /// Per-connection bound on buffered, un-drained response bytes before
  /// admission control answers `busy`.  Socket only.
  std::size_t max_inflight_bytes = 4u << 20;
  /// Per-connection bound on queued (not yet executing) requests before
  /// admission control answers `busy`.  Socket only.
  std::size_t max_pipeline = 256;
  /// Hot-reload hook: returns a freshly opened entry (new epoch) for the
  /// `reload` control request; empty = reload unavailable.  Socket only.
  std::function<std::shared_ptr<const GraphEntry>()> reload;
  /// Request deadline in milliseconds (0 = none), from a request's
  /// arrival to its worker's result.  A query that misses it answers a
  /// typed `error: deadline exceeded` in its FIFO slot; queued requests
  /// already past it are shed without executing.  With a deadline set the
  /// stream executes per line (no batch fan-out) so every request is
  /// individually timed.
  std::size_t request_timeout_ms = 0;
  /// Close a connection with no traffic and nothing pending after this
  /// many milliseconds (0 = never).  Socket only.
  std::size_t idle_timeout_ms = 0;
  /// Disconnect a client that accepts no response bytes for this many
  /// milliseconds while output is pending (0 = never) — a slow-reader
  /// bound tighter than the admission-control byte budget.  Socket only.
  std::size_t write_timeout_ms = 0;
};

struct ServeStats {
  std::uint64_t requests = 0;     ///< requests parsed (control included)
  std::uint64_t connections = 0;  ///< connections accepted (socket)
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t busy_rejections = 0;  ///< requests answered `busy`
  std::uint64_t accept_errors = 0;    ///< failed accept() calls
  std::uint64_t protocol_errors = 0;  ///< malformed binary frames
  std::uint64_t disconnects = 0;      ///< mid-session client disconnects
  std::uint64_t reloads = 0;          ///< successful hot reloads
  std::uint64_t timeouts = 0;         ///< deadline + idle + write timeouts
  QueryEngineStats engine;            ///< merged across engines
  bool shutdown_requested = false;    ///< a client sent `shutdown`
};

/// Serves requests from \p in until EOF, a `shutdown` request, or the
/// external stop flag.  Responses go to \p out in request order, flushed
/// per group.
ServeStats serve_stream(std::shared_ptr<const GraphEntry> entry,
                        std::istream& in, std::ostream& out,
                        const ServeOptions& options);

/// Where a SocketServer listens.
struct Listener {
  enum class Family { kTcp, kUnix };
  Family family = Family::kTcp;
  /// `HOST:PORT` for kTcp (an empty host binds every interface, port 0
  /// picks an ephemeral port); a filesystem path for kUnix.
  std::string address;

  static Listener tcp(std::string host_port) {
    return {Family::kTcp, std::move(host_port)};
  }
  static Listener unix_socket(std::string path) {
    return {Family::kUnix, std::move(path)};
  }
};

/// Binds in the constructor (so an ephemeral `HOST:0` port is readable
/// via port() before serving) and runs the event loop in serve().
/// Throws std::runtime_error when the listener cannot be bound, or — on
/// platforms without epoll — from the constructor.
///
/// A Unix path replaces a *stale* socket file only: binding refuses a
/// path that is not a socket or that a live server still accepts on.
/// When serving ends the path is unlinked if it still names the file
/// this server bound, never a replacement bound by a newer instance.
class SocketServer {
 public:
  SocketServer(std::shared_ptr<const GraphEntry> entry, Listener listener,
               ServeOptions options = {});
  ~SocketServer();

  SocketServer(const SocketServer&) = delete;
  SocketServer& operator=(const SocketServer&) = delete;

  /// The bound TCP port (useful after binding port 0); 0 on a Unix socket.
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  /// Serves until a `shutdown` request or the external stop flag, then
  /// drains: queued requests finish, responses flush, connections close,
  /// and the listener closes.
  ServeStats serve();

 private:
  void close_listener() noexcept;

  std::shared_ptr<const GraphEntry> entry_;
  Listener listener_;
  ServeOptions options_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  /// Identity of the socket file a Unix listener bound (0/0 otherwise).
  std::uint64_t bound_dev_ = 0;
  std::uint64_t bound_ino_ = 0;
};

}  // namespace gsb::service

#endif  // GSB_SERVICE_SERVER_H
