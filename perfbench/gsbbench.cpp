// gsbbench — the compiled half of the repository benchmark (run.py is the
// entry point).  It links the `gsb` library the normal build produces and
// offers the pieces run.py cannot do from Python:
//
//   gsbbench graph --out G.gsbg --seed S --n N --modules M
//                  --max-module K --p-in P --background E
//       Myogenic-analog input for dense-cliques / query-serve:
//       graph::planted_modules near-cliques written with
//       storage::write_gsbg_file.
//
//   gsbbench load --port P --graph G.gsbg --cliques C.gsbc --schedule F
//                 --records OUT --connections C
//       Open-loop load over the binary TCP protocol from one thread.
//       Every request is sent at its scheduled due time (never gated on a
//       reply) and its response is compared byte for byte with
//       QueryEngine::execute_line on the same line.  Per-request
//       due/sent/done times and outcomes go to OUT; the server's `stats`
//       line before and after goes to stdout.
//
//   gsbbench trace-pipeline | trace-cliques | trace-serve  [flags]
//       The traced per-layer pass: calls each layer's public entry points
//       in the order src/cli/gsb_main.cpp calls them, records its own
//       spans in memory and writes them once, at exit, as Chrome
//       trace-event JSON (--trace-out).  Counters go to stdout as JSON.
//       trace-pipeline and trace-cliques first run their chain once with
//       the recorder off, the untraced reference of trace.overhead.
//
// Every flag is required, so each value comes from workloads.json (through
// run.py) and has no second default here.  Spans are the benchmark's own (not obs::Tracer /
// obs::TimelineJournal), so the traced pass keeps working while those
// types are reshaped.

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "analysis/clique_stats.h"
#include "analysis/hubs.h"
#include "analysis/paraclique.h"
#include "bio/correlation.h"
#include "bio/generator.h"
#include "bio/normalize.h"
#include "core/bron_kerbosch.h"
#include "core/clique.h"
#include "core/clique_enumerator.h"
#include "core/maximum_clique.h"
#include "core/parallel_bk.h"
#include "core/parallel_enumerator.h"
#include "graph/generators.h"
#include "graph/graph_view.h"
#include "service/clique_index.h"
#include "service/graph_catalog.h"
#include "service/query_engine.h"
#include "service/wire_protocol.h"
#include "storage/clique_stream.h"
#include "storage/gsbg_writer.h"
#include "storage/mapped_graph.h"
#include "util/rng.h"

namespace {

using namespace gsb;
using Clock = std::chrono::steady_clock;

// --- flags ------------------------------------------------------------------

class Flags {
 public:
  Flags(int argc, char** argv) {
    for (int i = 2; i < argc; ++i) {
      std::string key = argv[i];
      if (key.rfind("--", 0) != 0 || i + 1 >= argc) {
        throw std::runtime_error("bad argument: " + key);
      }
      values_[key.substr(2)] = argv[++i];
    }
  }
  std::string str(const std::string& key) const {
    const auto it = values_.find(key);
    if (it == values_.end()) throw std::runtime_error("missing --" + key);
    return it->second;
  }
  std::int64_t num(const std::string& key) const {
    return std::stoll(str(key));
  }
  double real(const std::string& key) const { return std::stod(str(key)); }

 private:
  std::map<std::string, std::string> values_;
};

// --- spans ------------------------------------------------------------------

/// In-memory span store.  Each span names its layer, its lane (one per
/// recording thread), its parent span (0 = root) and optionally the
/// request it served; everything is written once by write_chrome().
/// While disabled, record() drops spans (the untraced reference run of
/// trace.overhead).
class SpanRecorder {
 public:
  struct Span {
    std::string name;
    std::string cat;
    int lane = 0;
    std::int64_t begin_ns = 0;
    std::int64_t end_ns = 0;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    std::int64_t rid = -1;
  };

  std::int64_t now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - origin_)
        .count();
  }
  std::uint64_t next_id() { return ++last_id_; }

  int lane(const std::string& name) {
    std::lock_guard lock(mutex_);
    lanes_.push_back(name);
    return static_cast<int>(lanes_.size());
  }

  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }

  void record(Span span) {
    if (!enabled_) return;
    std::lock_guard lock(mutex_);
    spans_.push_back(std::move(span));
  }

  /// Chrome trace-event JSON: ph:"M" thread names, then one ph:"X"
  /// complete event per span (ts/dur in microseconds).
  void write_chrome(const std::string& path) const {
    std::lock_guard lock(mutex_);
    std::ofstream out(path);
    out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
    bool first = true;
    for (std::size_t i = 0; i < lanes_.size(); ++i) {
      out << (first ? "" : ",") << "{\"name\":\"thread_name\",\"ph\":\"M\","
          << "\"pid\":1,\"tid\":" << i + 1 << ",\"args\":{\"name\":\""
          << lanes_[i] << "\"}}";
      first = false;
    }
    char buf[96];
    for (const Span& span : spans_) {
      out << (first ? "" : ",") << "{\"name\":\"" << span.name
          << "\",\"cat\":\"" << span.cat << "\",\"ph\":\"X\",\"pid\":1,"
          << "\"tid\":" << span.lane;
      std::snprintf(buf, sizeof buf, ",\"ts\":%.3f,\"dur\":%.3f",
                    static_cast<double>(span.begin_ns) / 1e3,
                    static_cast<double>(span.end_ns - span.begin_ns) / 1e3);
      out << buf << ",\"args\":{\"id\":" << span.id
          << ",\"parent\":" << span.parent;
      if (span.rid >= 0) out << ",\"rid\":" << span.rid;
      out << "}}";
      first = false;
    }
    out << "]}\n";
    if (!out) throw std::runtime_error("cannot write " + path);
  }

 private:
  const Clock::time_point origin_ = Clock::now();
  std::atomic<std::uint64_t> last_id_{0};
  std::atomic<bool> enabled_{true};
  mutable std::mutex mutex_;  // guards lanes_ and spans_
  std::vector<std::string> lanes_;
  std::vector<Span> spans_;
};

SpanRecorder& recorder() {
  static SpanRecorder instance;
  return instance;
}

/// RAII span around one call into a layer.
class Scope {
 public:
  Scope(std::string name, std::string cat, int lane,
        std::uint64_t parent = 0, std::int64_t rid = -1) {
    span_.name = std::move(name);
    span_.cat = std::move(cat);
    span_.lane = lane;
    span_.parent = parent;
    span_.rid = rid;
    span_.id = recorder().next_id();
    span_.begin_ns = recorder().now();
  }
  ~Scope() {
    span_.end_ns = recorder().now();
    recorder().record(std::move(span_));
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  std::uint64_t id() const { return span_.id; }
  std::int64_t begin_ns() const { return span_.begin_ns; }

 private:
  SpanRecorder::Span span_;
};

/// Records a span whose bounds are known only after the fact (the
/// enumerator reports each level's duration once the level is done).
void record_ended(const std::string& name, const std::string& cat, int lane,
                  std::uint64_t parent, std::int64_t begin_ns,
                  std::int64_t end_ns) {
  SpanRecorder::Span span;
  span.name = name;
  span.cat = cat;
  span.lane = lane;
  span.parent = parent;
  span.id = recorder().next_id();
  span.begin_ns = begin_ns;
  span.end_ns = end_ns;
  recorder().record(std::move(span));
}

double imbalance(const std::vector<double>& busy) {
  if (busy.empty()) return 1.0;
  double max = 0.0;
  double sum = 0.0;
  for (const double b : busy) {
    max = std::max(max, b);
    sum += b;
  }
  return sum > 0.0 ? max * static_cast<double>(busy.size()) / sum : 1.0;
}

bool same_bytes(const std::string& a, const std::string& b) {
  std::ifstream fa(a, std::ios::binary);
  std::ifstream fb(b, std::ios::binary);
  std::ostringstream sa;
  std::ostringstream sb;
  sa << fa.rdbuf();
  sb << fb.rdbuf();
  return fa && fb && sa.str() == sb.str();
}

// --- graph ------------------------------------------------------------------

int cmd_graph(const Flags& flags) {
  graph::ModuleGraphConfig config;
  config.n = static_cast<std::size_t>(flags.num("n"));
  config.num_modules = static_cast<std::size_t>(flags.num("modules"));
  config.max_module_size = static_cast<std::size_t>(flags.num("max-module"));
  config.p_in = flags.real("p-in");
  config.background_edges = static_cast<std::size_t>(flags.num("background"));
  util::Rng rng(static_cast<std::uint64_t>(flags.num("seed")));
  const auto built = graph::planted_modules(config, rng);
  storage::write_gsbg_file(graph::GraphView(built.graph), flags.str("out"));
  std::printf("{\"vertices\":%zu,\"edges\":%zu,\"modules\":%zu}\n",
              built.graph.order(), built.graph.num_edges(),
              built.modules.size());
  return 0;
}

// --- load -------------------------------------------------------------------

enum Outcome : std::int32_t {
  kOk = 0,
  kMismatch = 1,
  kError = 2,
  kBusy = 3,
  kUnanswered = 4,
};

namespace wire = service::wire;

struct Expected {
  wire::Status status = wire::Status::kOk;
  std::string payload;
};

/// How long the generator keeps reading after the last due time before
/// the still-outstanding requests count as unanswered.
constexpr std::int64_t kDrainNs = 2'000'000'000;

int connect_loopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("socket failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    throw std::runtime_error("cannot connect to 127.0.0.1:" +
                             std::to_string(port));
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

/// One blocking line-protocol round trip (used for `stats`).
std::string line_request(int fd, const std::string& request) {
  const std::string wire = request + "\n";
  if (::send(fd, wire.data(), wire.size(), 0) !=
      static_cast<ssize_t>(wire.size())) {
    throw std::runtime_error("short send of control request");
  }
  std::string line;
  char c = 0;
  while (::recv(fd, &c, 1, 0) == 1 && c != '\n') line.push_back(c);
  return line;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out + "\"";
}

struct Connection {
  int fd = -1;
  std::string out;
  std::size_t out_pos = 0;
  std::string in;
};

int cmd_load(const Flags& flags) {
  const int port = static_cast<int>(flags.num("port"));
  const auto connections = static_cast<std::size_t>(flags.num("connections"));

  // Schedule: one request per line, "<due microseconds> <query>".
  std::vector<std::int64_t> due;
  std::vector<std::string> lines;
  {
    std::ifstream in(flags.str("schedule"));
    std::string row;
    while (std::getline(in, row)) {
      const auto space = row.find(' ');
      if (space == std::string::npos) continue;
      due.push_back(std::stoll(row.substr(0, space)) * 1000);
      lines.push_back(row.substr(space + 1));
    }
  }
  const std::size_t n = lines.size();
  if (n == 0) throw std::runtime_error("empty schedule");

  // Reference answers: the in-process engine over the same artifacts.
  service::GraphCatalog catalog;
  service::GraphSpec spec;
  spec.graph_path = flags.str("graph");
  spec.cliques_path = flags.str("cliques");
  service::QueryEngine engine(catalog.open("reference", spec));
  std::unordered_map<std::string, Expected> expected;
  std::uint64_t expected_errors = 0;
  for (const std::string& line : lines) {
    if (expected.count(line) != 0) continue;
    Expected e;
    e.payload = engine.execute_line(line);
    e.status = wire::status_for_response(e.payload);
    if (e.status != wire::Status::kOk) ++expected_errors;
    expected.emplace(line, std::move(e));
  }

  // Wake-ups at the scheduled due times, not up to 50 us after them.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  const int control = connect_loopback(port);
  const std::string stats_before = line_request(control, "stats");

  std::vector<Connection> conns(connections);
  const int epoll_fd = ::epoll_create1(0);
  for (std::size_t c = 0; c < connections; ++c) {
    conns[c].fd = connect_loopback(port);
    ::fcntl(conns[c].fd, F_SETFL, ::fcntl(conns[c].fd, F_GETFL) | O_NONBLOCK);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = c;
    ::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, conns[c].fd, &ev);
  }

  std::vector<std::int64_t> sent(n, -1);
  std::vector<std::int64_t> done(n, -1);
  std::vector<std::int32_t> outcome(n, kUnanswered);
  const auto start = Clock::now() + std::chrono::milliseconds(5);
  const auto elapsed = [&start] {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                start)
        .count();
  };
  const std::int64_t deadline = due.back() + kDrainNs;
  std::size_t next = 0;
  std::size_t answered = 0;
  std::string payload;
  char buf[1 << 16];
  epoll_event events[16];
  while (answered < n) {
    std::int64_t now = elapsed();
    if (now > deadline) break;
    // Send everything due, whatever is still outstanding (open loop).
    while (next < n && due[next] <= now) {
      wire::encode_request(conns[next % connections].out, next, lines[next]);
      sent[next] = now;
      ++next;
    }
    // Flush; a full socket buffer keeps the rest for the next pass.
    for (Connection& conn : conns) {
      while (conn.out_pos < conn.out.size()) {
        const ssize_t w = ::send(conn.fd, conn.out.data() + conn.out_pos,
                                 conn.out.size() - conn.out_pos,
                                 MSG_NOSIGNAL);
        if (w <= 0) break;
        conn.out_pos += static_cast<std::size_t>(w);
      }
      if (conn.out_pos == conn.out.size()) {
        conn.out.clear();
        conn.out_pos = 0;
      }
    }
    // Sleep through long gaps, but spin (zero timeout) for the last
    // millisecond before a send: waking an idle vCPU can take longer than
    // the gap itself.
    std::int64_t wait_ns = 1000000;
    if (next < n) {
      const std::int64_t gap = due[next] - elapsed();
      wait_ns = gap > 2000000 ? gap - 1000000 : 0;
    }
    const timespec timeout{static_cast<time_t>(wait_ns / 1000000000),
                           static_cast<long>(wait_ns % 1000000000)};
    const int ready = ::epoll_pwait2(epoll_fd, events, 16, &timeout, nullptr);
    if (ready < 0 && errno != EINTR) {
      throw std::runtime_error(std::string("epoll_pwait2: ") +
                               std::strerror(errno));
    }
    for (int e = 0; e < ready; ++e) {
      Connection& conn = conns[events[e].data.u64];
      for (;;) {
        const ssize_t r = ::recv(conn.fd, buf, sizeof buf, 0);
        if (r <= 0) break;
        conn.in.append(buf, static_cast<std::size_t>(r));
      }
      now = elapsed();
      std::size_t pos = 0;
      for (;;) {
        std::size_t consumed = 0;
        wire::Status status{};
        std::uint64_t id = 0;
        const auto decoded =
            wire::decode_response(std::string_view(conn.in).substr(pos),
                                  consumed, status, id, payload);
        if (decoded == wire::DecodeResult::kNeedMore) break;
        if (decoded == wire::DecodeResult::kMalformed) {
          throw std::runtime_error("malformed response frame");
        }
        pos += consumed;
        if (id >= n || done[id] >= 0) continue;
        done[id] = now;
        ++answered;
        const Expected& want = expected.at(lines[id]);
        if (status == wire::Status::kBusy) {
          outcome[id] = kBusy;
        } else if (status == wire::Status::kError) {
          outcome[id] = kError;
        } else {
          outcome[id] = (status == want.status && payload == want.payload)
                            ? kOk
                            : kMismatch;
        }
      }
      conn.in.erase(0, pos);
    }
  }
  for (Connection& conn : conns) ::close(conn.fd);
  ::close(epoll_fd);
  const std::string stats_after = line_request(control, "stats");
  ::close(control);

  std::ofstream out(flags.str("records"), std::ios::binary);
  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t row[4] = {due[i], sent[i], done[i], outcome[i]};
    out.write(reinterpret_cast<const char*>(row), sizeof row);
  }
  if (!out) throw std::runtime_error("cannot write records");
  std::printf(
      "{\"requests\":%zu,\"distinct\":%zu,\"expected_errors\":%llu,"
      "\"stats_before\":%s,\"stats_after\":%s}\n",
      n, expected.size(), static_cast<unsigned long long>(expected_errors),
      json_string(stats_before).c_str(), json_string(stats_after).c_str());
  return 0;
}

// --- traced passes ----------------------------------------------------------

/// Everything one run of the coexpr-pipeline chain produces.
struct PipelineChain {
  bio::SyntheticMicroarray data;
  util::Rng rng_after_generate;  // the state bio.corr starts from
  bio::CorrelationGraphResult built;
  core::MaxCliqueResult maximum;
  core::ParallelEnumerationStats enumeration;
  core::CliqueCollector collector;
  std::vector<analysis::Paraclique> paracliques;
  std::vector<analysis::HubReport> hubs;
};

/// The coexpr-pipeline chain in gsb_main.cpp's order (cmd_pipeline, then
/// pipeline::run_analysis staged): generate -> normalize -> correlation
/// graph -> maximum clique -> enumeration -> paracliques -> hubs.  The
/// matrix shape and the analysis parameters are gsb pipeline's defaults
/// (genes/40 modules, cliques of 4+, glom 1, paracliques of 5+, 10 hubs).
std::unique_ptr<PipelineChain> run_pipeline_chain(
    std::size_t genes, std::size_t samples, std::uint64_t seed,
    const bio::CorrelationGraphOptions& corr, int lane) {
  auto chain = std::make_unique<PipelineChain>();
  util::Rng rng(seed);
  Scope root("pipeline", "pipeline", lane);
  {
    Scope span("bio.generate", "bio", lane, root.id());
    bio::MicroarrayConfig config;
    config.genes = genes;
    config.samples = samples;
    config.modules = genes / 40;
    chain->data = bio::generate_microarray(config, rng);
  }
  chain->rng_after_generate = rng;
  {
    Scope span("bio.normalize", "bio", lane, root.id());
    bio::quantile_normalize(chain->data.expression);
  }
  {
    Scope span("bio.corr", "bio", lane, root.id());
    chain->built = bio::build_correlation_graph(chain->data.expression, corr,
                                                rng);
  }
  const graph::GraphView g(chain->built.graph);
  {
    Scope span("core.maxclique", "core", lane, root.id());
    chain->maximum = core::maximum_clique(g);
  }
  {
    Scope span("core.enum", "core", lane, root.id());
    core::ParallelOptions options;
    options.range = core::SizeRange{4, 0};
    options.threads = corr.threads;
    options.progress = [&span, lane](const core::LevelStats& level) {
      const std::int64_t end = recorder().now();
      record_ended("core.enum.level" + std::to_string(level.k), "core", lane,
                   span.id(),
                   end - static_cast<std::int64_t>(level.seconds * 1e9), end);
    };
    chain->enumeration = core::enumerate_maximal_cliques_parallel(
        g, chain->collector.callback(), options);
    record_ended(
        "core.enum.seed", "core", lane, span.id(), span.begin_ns(),
        span.begin_ns() + static_cast<std::int64_t>(
                              chain->enumeration.base.seed_seconds * 1e9));
  }
  {
    Scope span("analysis.spectrum", "analysis", lane, root.id());
    (void)analysis::clique_spectrum(chain->collector.cliques());
  }
  {
    Scope span("analysis.paraclique", "analysis", lane, root.id());
    analysis::ParacliqueOptions para;
    para.glom = 1;
    chain->paracliques = analysis::extract_all_paracliques(g, 5, para);
  }
  {
    Scope span("analysis.hubs", "analysis", lane, root.id());
    chain->hubs = analysis::top_hubs(g, chain->collector.cliques(), 10);
  }
  return chain;
}

/// The coexpr-pipeline chain twice, first with the recorder off (the
/// untraced reference of trace.overhead), then traced.  The 1-thread
/// baselines of the correlation sweep and the enumerator run after, under
/// their own root, so they never count toward the main path.
int cmd_trace_pipeline(const Flags& flags) {
  const auto threads = static_cast<std::size_t>(flags.num("threads"));
  const auto genes = static_cast<std::size_t>(flags.num("genes"));
  const auto samples = static_cast<std::size_t>(flags.num("samples"));
  const auto seed = static_cast<std::uint64_t>(flags.num("seed"));
  const int lane = recorder().lane("main");

  bio::CorrelationGraphOptions corr;
  corr.method = bio::CorrelationMethod::kSpearman;
  corr.threshold = flags.real("threshold");
  corr.threads = threads;

  recorder().set_enabled(false);
  const std::int64_t untraced_begin = recorder().now();
  auto untraced = run_pipeline_chain(genes, samples, seed, corr, lane);
  const std::int64_t untraced_ns = recorder().now() - untraced_begin;
  untraced.reset();
  recorder().set_enabled(true);
  const auto chain = run_pipeline_chain(genes, samples, seed, corr, lane);

  std::size_t edges_1t = 0;
  core::CliqueCounter counter_1t;
  {
    Scope root("baseline-1t", "baseline", lane);
    bio::CorrelationGraphOptions corr_1t = corr;
    corr_1t.threads = 1;
    util::Rng rng_1t = chain->rng_after_generate;
    {
      Scope span("bio.corr_1t", "bio", lane, root.id());
      edges_1t =
          bio::build_correlation_graph(chain->data.expression, corr_1t, rng_1t)
              .graph.num_edges();
    }
    {
      Scope span("core.enum_1t", "core", lane, root.id());
      core::CliqueEnumeratorOptions options;
      options.range = core::SizeRange{4, 0};
      (void)core::enumerate_maximal_cliques(
          graph::GraphView(chain->built.graph), counter_1t.callback(),
          options);
    }
  }
  recorder().write_chrome(flags.str("trace-out"));

  std::uint64_t candidates = 0;
  for (const auto& level : chain->enumeration.base.levels) {
    candidates += level.candidates;
  }
  std::string hub_list;
  for (const auto& hub : chain->hubs) {
    hub_list += (hub_list.empty() ? "" : ",") + std::string("[") +
                std::to_string(hub.vertex) + "," +
                std::to_string(hub.degree) + "]";
  }
  std::printf(
      "{\"genes\":%zu,\"samples\":%zu,\"edges\":%zu,\"edges_1t\":%zu,"
      "\"max_clique\":%zu,\"cliques\":%llu,\"cliques_1t\":%llu,"
      "\"paracliques\":%zu,\"hubs\":[%s],\"enum_candidates\":%llu,"
      "\"enum_imbalance\":%.6f,\"enum_peak_bytes\":%zu,"
      "\"untraced_s\":%.9f}\n",
      genes, samples, chain->built.graph.num_edges(), edges_1t,
      chain->maximum.clique.size(),
      static_cast<unsigned long long>(chain->enumeration.base.total_maximal),
      static_cast<unsigned long long>(counter_1t.total()),
      chain->paracliques.size(), hub_list.c_str(),
      static_cast<unsigned long long>(candidates),
      imbalance(chain->enumeration.thread_busy_seconds),
      chain->enumeration.base.peak_bytes_actual,
      static_cast<double>(untraced_ns) / 1e9);
  return 0;
}

/// Clique sink of `gsb cliques --clique-out`: count, and append to the
/// .gsbc writer, timing every append when `timed`.
struct WriterSink {
  storage::GsbcWriter writer;
  bool timed = false;
  std::uint64_t count = 0;
  std::int64_t append_ns = 0;

  WriterSink(const std::string& path, std::size_t order, bool timed)
      : writer(path, order), timed(timed) {}

  core::CliqueCallback callback() {
    return [this](std::span<const graph::VertexId> clique) {
      ++count;
      if (!timed) {
        writer.append(clique);
        return;
      }
      const std::int64_t t0 = recorder().now();
      writer.append(clique);
      append_ns += recorder().now() - t0;
    };
  }
};

/// What one run of the dense-cliques chain reports.
struct CliquesChain {
  core::ParallelBkStats stats;
  storage::GsbcWriteStats written;
  std::int64_t append_ns = 0;
  std::uint64_t cliques = 0;
};

/// The dense-cliques chain in cmd_cliques' order: map the .gsbg, run the
/// BK engine with a .gsbc writer sink, close the stream.  The traced run
/// also times every append.
CliquesChain run_cliques_chain(const std::string& graph_path,
                               const std::string& out, core::SizeRange range,
                               std::size_t threads, int lane) {
  const bool traced = recorder().enabled();
  CliquesChain chain;
  Scope root("cliques", "cliques", lane);
  storage::MappedGraph mapped;
  {
    Scope span("storage.gsbg_open", "storage", lane, root.id());
    mapped = storage::MappedGraph::open(graph_path);
  }
  const graph::GraphView g = mapped.view();
  WriterSink sink(out, g.order(), traced);
  {
    Scope span("core.bk", "core", lane, root.id());
    core::ParallelBkOptions options;
    options.range = range;
    options.threads = threads;
    options.deterministic = true;
    chain.stats = core::parallel_bk(g, sink.callback(), options);
  }
  {
    Scope span("storage.gsbc_close", "storage", lane, root.id());
    chain.written = sink.writer.close();
  }
  chain.append_ns = sink.append_ns;
  chain.cliques = sink.count;
  return chain;
}

/// The dense-cliques chain twice, first untraced (the reference of
/// trace.overhead), then traced; then the 1-thread baseline writing a
/// second stream.  All three streams must match byte for byte.
int cmd_trace_cliques(const Flags& flags) {
  const auto threads = static_cast<std::size_t>(flags.num("threads"));
  const core::SizeRange range{static_cast<std::size_t>(flags.num("min")), 0};
  const std::string graph_path = flags.str("graph");
  const std::string out = flags.str("clique-out");
  const std::string out_untraced = out + ".untraced";
  const std::string out_1t = out + ".1t";
  const int lane = recorder().lane("main");

  recorder().set_enabled(false);
  const std::int64_t untraced_begin = recorder().now();
  (void)run_cliques_chain(graph_path, out_untraced, range, threads, lane);
  const std::int64_t untraced_ns = recorder().now() - untraced_begin;
  recorder().set_enabled(true);
  const CliquesChain chain =
      run_cliques_chain(graph_path, out, range, threads, lane);

  std::int64_t append_1t_ns = 0;
  {
    Scope root("baseline-1t", "baseline", lane);
    const storage::MappedGraph mapped = storage::MappedGraph::open(graph_path);
    const graph::GraphView g = mapped.view();
    WriterSink sink(out_1t, g.order(), true);
    {
      Scope span("core.bk_1t", "core", lane, root.id());
      (void)core::degeneracy_bk(g, sink.callback(), range);
    }
    sink.writer.close();
    append_1t_ns = sink.append_ns;
  }
  const bool identical =
      same_bytes(out, out_1t) && same_bytes(out, out_untraced);
  std::remove(out_1t.c_str());
  std::remove(out_untraced.c_str());
  recorder().write_chrome(flags.str("trace-out"));
  std::printf(
      "{\"cliques\":%llu,\"tree_nodes\":%llu,\"steals\":%llu,"
      "\"bk_imbalance\":%.6f,\"pending_peak_bytes\":%zu,"
      "\"gsbc_bytes\":%llu,\"append_s\":%.9f,\"append_1t_s\":%.9f,"
      "\"untraced_s\":%.9f,\"identical\":%s}\n",
      static_cast<unsigned long long>(chain.cliques),
      static_cast<unsigned long long>(chain.stats.base.tree_nodes),
      static_cast<unsigned long long>(chain.stats.steals),
      imbalance(chain.stats.thread_busy_seconds),
      chain.stats.peak_pending_bytes,
      static_cast<unsigned long long>(chain.written.file_bytes),
      static_cast<double>(chain.append_ns) / 1e9,
      static_cast<double>(append_1t_ns) / 1e9,
      static_cast<double>(untraced_ns) / 1e9, identical ? "true" : "false");
  return 0;
}

/// The query-serve chain: build the .gsbci (as `gsb index`), open the
/// catalog (as `gsb serve`), then execute the request mix in-process,
/// uncached, over --threads engines (one lane each, one span per
/// request carrying its request id).
int cmd_trace_serve(const Flags& flags) {
  const auto threads = static_cast<std::size_t>(flags.num("threads"));
  const std::string cliques = flags.str("cliques");
  const std::string index_out = flags.str("index-out");
  std::vector<std::string> lines;
  {
    std::ifstream in(flags.str("schedule"));
    std::string row;
    while (std::getline(in, row)) {
      const auto space = row.find(' ');
      if (space != std::string::npos) lines.push_back(row.substr(space + 1));
    }
  }
  const int lane = recorder().lane("main");
  std::shared_ptr<service::GraphEntry> entry;
  service::GraphCatalog catalog;
  std::uint64_t errors = 0;
  {
    Scope root("serve", "service", lane);
    {
      Scope span("storage.index_build", "storage", lane, root.id());
      service::build_clique_index(cliques, index_out);
    }
    {
      Scope span("service.catalog_open", "service", lane, root.id());
      service::GraphSpec spec;
      spec.graph_path = flags.str("graph");
      spec.cliques_path = cliques;
      spec.index_path = index_out;
      entry = catalog.open("default", spec);
    }
    {
      // Lazy state (participation counts, stream readers) fills here,
      // outside the timed requests.
      service::QueryEngine warm(entry);
      for (std::size_t i = 0; i < std::min<std::size_t>(lines.size(), 500);
           ++i) {
        (void)warm.execute_line(lines[i]);
      }
    }
    std::vector<std::thread> workers;
    std::vector<int> lanes;
    for (std::size_t t = 0; t < threads; ++t) {
      lanes.push_back(recorder().lane("exec-" + std::to_string(t)));
    }
    std::atomic<std::uint64_t> error_count{0};
    const std::uint64_t root_id = root.id();
    for (std::size_t t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        service::QueryEngine engine(entry);
        for (std::size_t i = t; i < lines.size(); i += threads) {
          const std::string& line = lines[i];
          const std::string kind = line.substr(0, line.find(' '));
          Scope span("exec." + kind, "request", lanes[t], root_id,
                     static_cast<std::int64_t>(i));
          if (wire::status_for_response(engine.execute_line(line)) !=
              wire::Status::kOk) {
            ++error_count;
          }
        }
      });
    }
    for (auto& worker : workers) worker.join();
    errors = error_count.load();
  }
  const bool index_identical =
      same_bytes(index_out, service::default_index_path(cliques));
  recorder().write_chrome(flags.str("trace-out"));
  std::printf("{\"requests\":%zu,\"errors\":%llu,\"index_identical\":%s}\n",
              lines.size(), static_cast<unsigned long long>(errors),
              index_identical ? "true" : "false");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: gsbbench graph|load|trace-pipeline|trace-cliques|"
                 "trace-serve [--flag value]...\n");
    return 2;
  }
  try {
    const std::string command = argv[1];
    const Flags flags(argc, argv);
    if (command == "graph") return cmd_graph(flags);
    if (command == "load") return cmd_load(flags);
    if (command == "trace-pipeline") return cmd_trace_pipeline(flags);
    if (command == "trace-cliques") return cmd_trace_cliques(flags);
    if (command == "trace-serve") return cmd_trace_serve(flags);
    std::fprintf(stderr, "error: unknown command '%s'\n", command.c_str());
    return 2;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }
}
