// Query-service benchmarks (google-benchmark): the serving-layer
// trajectory.  Run via the `bench_service_json` target (or directly with
// --benchmark_out) to emit BENCH_service.json, the artifact CI uploads
// alongside the storage/correlation/clique trajectories:
//
//   * batch execution of a mixed query workload at 1/2/4/8 threads with
//     the result cache off, cold (cleared per iteration), and warm
//     (pre-warmed once) — queries/sec reads off the items counter;
//   * `cliques-containing` through the `.gsbci` index vs a full `.gsbc`
//     rescan — the random-access win the sidecar exists for;
//   * (Linux) a closed-loop TCP load generator against the epoll serving
//     layer: N client connections keep a pipeline of D binary-protocol
//     requests in flight each, per-request latency is measured send-to-
//     response, and p50_us/p99_us land in the JSON counters alongside
//     items/sec (saturation throughput at the widest configuration).
//
// The fixture is the same planted-module shape the clique benches use: a
// mapped .gsbg, its enumerated .gsbc stream, and the .gsbci sidecar, all
// opened once through the GraphCatalog like a real serve session.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench/overhead_pairs.h"
#include "core/bron_kerbosch.h"
#include "graph/generators.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/batch_executor.h"
#include "service/client.h"
#include "service/clique_index.h"
#include "service/graph_catalog.h"
#include "service/query_engine.h"
#include "service/result_cache.h"
#include "service/server.h"
#include "storage/clique_stream.h"
#include "storage/gsbg_writer.h"
#include "util/fault_injection.h"
#include "util/rng.h"

namespace {

namespace fs = std::filesystem;
using namespace gsb;

struct Fixture {
  service::GraphCatalog catalog;
  std::shared_ptr<service::GraphEntry> indexed;
  std::shared_ptr<service::GraphEntry> rescan;
  std::vector<std::string> workload;
  std::string gsbg_path;
  std::string gsbc_path;
  std::string gsbci_path;

  Fixture() {
    util::Rng rng(2005);
    graph::ModuleGraphConfig config;
    config.n = 1500;
    config.num_modules = 170;
    config.max_module_size = 16;
    config.overlap = 0.3;
    const graph::Graph graph = graph::planted_modules(config, rng).graph;

    gsbg_path = (fs::temp_directory_path() / "bench_service.gsbg").string();
    gsbc_path = (fs::temp_directory_path() / "bench_service.gsbc").string();
    gsbci_path = service::default_index_path(gsbc_path);
    storage::write_gsbg_file(graph, gsbg_path);
    {
      storage::GsbcWriter writer(gsbc_path, graph.order());
      core::degeneracy_bk(graph,
                          [&](std::span<const graph::VertexId> clique) {
                            writer.append(clique);
                          });
      writer.close();
    }
    service::build_clique_index(gsbc_path, gsbci_path);

    service::GraphSpec spec;
    spec.graph_path = gsbg_path;
    spec.cliques_path = gsbc_path;
    indexed = catalog.open("indexed", spec);
    spec.probe_index = false;
    rescan = catalog.open("rescan", spec);

    // A serve-shaped mix: point lookups dominate, a few heavy analyses.
    const auto n = static_cast<graph::VertexId>(graph.order());
    for (graph::VertexId v = 0; v < n; v += 7) {
      workload.push_back("neighbors " + std::to_string(v));
      workload.push_back("degree " + std::to_string((v + 3) % n));
      workload.push_back("common-neighbors " + std::to_string(v) + " " +
                         std::to_string((v + 1) % n));
      workload.push_back("cliques-containing " + std::to_string(v));
    }
    workload.push_back("top-hubs 10");
    workload.push_back("kcore-membership 4 17");
  }
  ~Fixture() {
    std::error_code ec;
    fs::remove(gsbg_path, ec);
    fs::remove(gsbc_path, ec);
    fs::remove(gsbci_path, ec);
  }
};

Fixture& fixture() {
  static Fixture f;
  return f;
}

void run_batch(benchmark::State& state, service::ResultCache* cache,
               bool clear_each_iteration) {
  auto& f = fixture();
  service::BatchOptions options;
  options.threads = static_cast<std::size_t>(state.range(0));
  options.cache = cache;
  std::uint64_t queries = 0;
  for (auto _ : state) {
    if (cache != nullptr && clear_each_iteration) {
      state.PauseTiming();
      cache->clear();
      state.ResumeTiming();
    }
    const auto result = service::execute_batch(f.indexed, f.workload, options);
    queries += result.responses.size();  // cache hits never reach an engine
    benchmark::DoNotOptimize(result.responses.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(queries));
}

void BM_BatchNoCache(benchmark::State& state) {
  run_batch(state, nullptr, false);
}
BENCHMARK(BM_BatchNoCache)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_BatchColdCache(benchmark::State& state) {
  service::ResultCache cache(64u << 20);
  run_batch(state, &cache, true);
}
BENCHMARK(BM_BatchColdCache)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_BatchWarmCache(benchmark::State& state) {
  service::ResultCache cache(64u << 20);
  // Pre-warm outside the timed region: every workload line cached.
  service::BatchOptions warmup;
  warmup.threads = 1;
  warmup.cache = &cache;
  service::execute_batch(fixture().indexed, fixture().workload, warmup);
  run_batch(state, &cache, false);
}
BENCHMARK(BM_BatchWarmCache)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_CliquesContainingIndexed(benchmark::State& state) {
  auto& f = fixture();
  service::QueryEngine engine(f.indexed);
  const auto n = static_cast<graph::VertexId>(f.indexed->order());
  graph::VertexId v = 0;
  std::uint64_t queries = 0;
  for (auto _ : state) {
    const auto response =
        engine.execute_line("cliques-containing " + std::to_string(v));
    benchmark::DoNotOptimize(response.data());
    v = (v + 13) % n;
    ++queries;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(queries));
}
BENCHMARK(BM_CliquesContainingIndexed)->Unit(benchmark::kMicrosecond);

void BM_CliquesContainingRescan(benchmark::State& state) {
  auto& f = fixture();
  service::QueryEngine engine(f.rescan);
  const auto n = static_cast<graph::VertexId>(f.rescan->order());
  graph::VertexId v = 0;
  std::uint64_t queries = 0;
  for (auto _ : state) {
    const auto response =
        engine.execute_line("cliques-containing " + std::to_string(v));
    benchmark::DoNotOptimize(response.data());
    v = (v + 13) % n;
    ++queries;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(queries));
}
BENCHMARK(BM_CliquesContainingRescan)->Unit(benchmark::kMicrosecond);

#if defined(__linux__)

// Closed-loop TCP load generator.  Each benchmark run binds a fresh
// SocketServer on an ephemeral loopback port; every iteration spawns
// `clients` connections that each keep up to `depth` binary-protocol
// requests in flight (send one new request per response received) until
// a fixed quota completes.  Latency is measured per request from the
// send() that enqueued it to the receive() that matched its id, so
// queueing delay under pipelining is included — that is the number a
// caller actually observes.
struct TcpBench {
  service::ResultCache cache{64u << 20};
  std::optional<service::SocketServer> server;
  std::thread thread;

  explicit TcpBench(std::size_t threads) {
    service::ServeOptions options;
    options.threads = threads;
    options.cache = &cache;
    server.emplace(fixture().indexed, service::Listener::tcp("127.0.0.1:0"),
                   options);
    thread = std::thread([this] { server->serve(); });
  }
  ~TcpBench() {
    try {
      auto client = service::ServiceClient::connect_tcp(address());
      client.request("shutdown");
    } catch (...) {
    }
    if (thread.joinable()) thread.join();
  }
  std::string address() const {
    return "127.0.0.1:" + std::to_string(server->port());
  }
};

double percentile_us(std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      q * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(rank, sorted.size() - 1)];
}

void BM_TcpClosedLoop(benchmark::State& state) {
  const auto clients = static_cast<std::size_t>(state.range(0));
  const auto depth = static_cast<std::size_t>(state.range(1));
  constexpr std::size_t kRequestsPerClient = 256;
  TcpBench bench(/*threads=*/4);
  auto& workload = fixture().workload;

  std::mutex latencies_mutex;
  std::vector<double> latencies_us;
  std::uint64_t completed = 0;
  for (auto _ : state) {
    std::vector<std::thread> threads;
    threads.reserve(clients);
    for (std::size_t c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        using Clock = std::chrono::steady_clock;
        auto client = service::ServiceClient::connect_tcp(bench.address());
        std::unordered_map<std::uint64_t, Clock::time_point> sent_at;
        std::vector<double> local;
        local.reserve(kRequestsPerClient);
        std::size_t issued = 0;
        const auto issue = [&] {
          const std::string& line =
              workload[(issued * clients + c) % workload.size()];
          sent_at.emplace(client.send(line), Clock::now());
          ++issued;
        };
        while (issued < std::min(depth, kRequestsPerClient)) issue();
        client.flush();
        for (std::size_t received = 0; received < kRequestsPerClient;
             ++received) {
          const auto response = client.receive();
          const auto it = sent_at.find(response.id);
          local.push_back(std::chrono::duration<double, std::micro>(
                              Clock::now() - it->second)
                              .count());
          sent_at.erase(it);
          if (issued < kRequestsPerClient) {
            issue();
            client.flush();
          }
        }
        const std::lock_guard<std::mutex> lock(latencies_mutex);
        latencies_us.insert(latencies_us.end(), local.begin(), local.end());
      });
    }
    for (auto& t : threads) t.join();
    completed += clients * kRequestsPerClient;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(completed));
  std::sort(latencies_us.begin(), latencies_us.end());
  state.counters["p50_us"] = percentile_us(latencies_us, 0.50);
  state.counters["p99_us"] = percentile_us(latencies_us, 0.99);
}
// {clients, pipeline depth}: a single sequential caller, a small
// pipelined pool, and a wide configuration that saturates the four
// worker threads — its items/sec is the saturation throughput.
BENCHMARK(BM_TcpClosedLoop)
    ->Args({1, 1})
    ->Args({2, 4})
    ->Args({4, 8})
    ->Args({8, 16})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/// One closed-loop pass (no latency bookkeeping): wall seconds to push
/// `per_client` requests through each of `clients` pipelined connections.
double closed_loop_seconds(const std::string& address, std::size_t clients,
                           std::size_t depth, std::size_t per_client) {
  auto& workload = fixture().workload;
  const auto begin = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      auto client = service::ServiceClient::connect_tcp(address);
      std::size_t issued = 0;
      const auto issue = [&] {
        client.send(workload[(issued * clients + c) % workload.size()]);
        ++issued;
      };
      while (issued < std::min(depth, per_client)) issue();
      client.flush();
      for (std::size_t received = 0; received < per_client; ++received) {
        benchmark::DoNotOptimize(client.receive().payload.data());
        if (issued < per_client) {
          issue();
          client.flush();
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       begin)
      .count();
}

// The observability acceptance number: the same closed loop against the
// same server with the registry+tracer off and on, one alternating pair
// per iteration; 6 s buys about 200 pairs, whose median stayed within
// 0.4-2.4% over six runs on a shared 4-vCPU host.  The median per-pair
// overhead lands in `instr_overhead_pct` and its interquartile range in
// `instr_overhead_iqr_pct` — the budget is < 3%, and the response bytes
// are identical either way (the service tests pin that part).
void BM_TcpInstrumentationOverhead(benchmark::State& state) {
  constexpr std::size_t kClients = 4;
  constexpr std::size_t kDepth = 8;
  constexpr std::size_t kRequestsPerClient = 256;
  TcpBench bench(/*threads=*/4);
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  obs::Tracer& tracer = obs::Tracer::global();
  // Warm the server (engines, cache, page faults) off the record.
  closed_loop_seconds(bench.address(), kClients, kDepth, kRequestsPerClient);

  gsb::bench::OverheadPairs pairs;
  std::uint64_t completed = 0;
  for (auto _ : state) {
    pairs.measure([&](bool on) {
      registry.set_enabled(on);
      tracer.set_enabled(on);
      return closed_loop_seconds(bench.address(), kClients, kDepth,
                                 kRequestsPerClient);
    });
    completed += 2 * kClients * kRequestsPerClient;
  }
  // Server-side quantiles interpolated from the same log2-bucket
  // histogram the `stats` control line reads, via the shared
  // obs::histogram_quantile_micros helper — scraped while the registry
  // is still live so the instrumented half's observations are in it.
  obs::HistogramSnapshot merged;
  for (const auto& metric : registry.scrape().metrics) {
    if (metric.name != "gsb_request_duration_microseconds") continue;
    for (std::size_t i = 0; i < merged.buckets.size(); ++i) {
      merged.buckets[i] += metric.histogram.buckets[i];
    }
    merged.count += metric.histogram.count;
    merged.sum_micros += metric.histogram.sum_micros;
  }
  registry.set_enabled(false);
  tracer.set_enabled(false);
  state.SetItemsProcessed(static_cast<std::int64_t>(completed));
  state.counters["server_p50_us"] = static_cast<double>(
      obs::histogram_quantile_micros(merged, 0.50));
  state.counters["server_p99_us"] = static_cast<double>(
      obs::histogram_quantile_micros(merged, 0.99));
  pairs.report(state, "instr_overhead");
}
BENCHMARK(BM_TcpInstrumentationOverhead)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->MinTime(6.0);

// The robustness acceptance number: the disabled fault-injection shim
// against an armed-but-never-firing schedule (all probabilities zero),
// so the delta isolates the enabled() gate + decide() consult on every
// intercepted send/recv.  The budget for the disabled state is < 1%
// (`fault_overhead_pct`, the median of alternating pairs, asserted by
// CI); the armed state here bounds the consult cost, not any injected
// fault.
void BM_TcpFaultInjectionOverhead(benchmark::State& state) {
  constexpr std::size_t kClients = 4;
  constexpr std::size_t kDepth = 8;
  constexpr std::size_t kRequestsPerClient = 256;
  TcpBench bench(/*threads=*/4);
  // Warm the server (engines, cache, page faults) off the record.
  closed_loop_seconds(bench.address(), kClients, kDepth, kRequestsPerClient);

  const fault::Schedule never_fires;  // armed shim, zero probabilities
  gsb::bench::OverheadPairs pairs;
  std::uint64_t completed = 0;
  for (auto _ : state) {
    pairs.measure([&](bool on) {
      if (on) {
        fault::install(never_fires);
      } else {
        fault::disable();
      }
      return closed_loop_seconds(bench.address(), kClients, kDepth,
                                 kRequestsPerClient);
    });
    completed += 2 * kClients * kRequestsPerClient;
  }
  fault::disable();
  state.SetItemsProcessed(static_cast<std::int64_t>(completed));
  pairs.report(state, "fault_overhead");
}
BENCHMARK(BM_TcpFaultInjectionOverhead)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->MinTime(2.0);

#endif  // defined(__linux__)

}  // namespace

BENCHMARK_MAIN();
