#ifndef GSB_SERVICE_BATCH_EXECUTOR_H
#define GSB_SERVICE_BATCH_EXECUTOR_H

/// \file batch_executor.h
/// Fans a batch of independent query lines over the thread pool.
///
/// Queries are embarrassingly parallel — every request line is parsed and
/// executed by a per-thread QueryEngine over the shared read-only
/// GraphEntry, with responses written into their input slots, so batch
/// output is a function of the input sequence alone: the same bytes at
/// every thread count and with the cache on or off (service_test pins
/// both).  This mirrors StochSoCs' observation that throughput at genome
/// scale comes from many concurrent independent requests against one
/// resident model.

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "parallel/thread_pool.h"
#include "service/graph_catalog.h"
#include "service/query_engine.h"
#include "service/result_cache.h"

namespace gsb::service {

struct BatchOptions {
  std::size_t threads = 0;       ///< 0 = hardware cores, 1 = run inline
  ResultCache* cache = nullptr;  ///< optional shared response cache
  par::ThreadPool* pool = nullptr;  ///< borrowed pool (serve loop reuse);
                                    ///< must have >= `threads` workers
  /// Borrowed per-thread engines over the same entry (serve loop reuse,
  /// so lazily opened clique readers persist across calls).  Fewer
  /// entries than `threads` clamps the thread count; BatchResult.engine
  /// still reports this call's activity only.
  std::vector<QueryEngine>* engines = nullptr;
  /// Transport tag of each line's request spans (execute_traced_line);
  /// the serve loop's groups pass their transport's.
  const char* transport = "batch";
};

struct BatchResult {
  std::vector<std::string> responses;  ///< one per input line, input order
  QueryEngineStats engine;             ///< merged across worker engines
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::size_t threads_used = 1;
};

/// Executes every line of \p lines against \p entry and returns the
/// responses in input order.  Per-line failures become `error:` responses;
/// the call itself only throws on setup problems (null entry).
BatchResult execute_batch(std::shared_ptr<const GraphEntry> entry,
                          const std::vector<std::string>& lines,
                          const BatchOptions& options = {});

/// A socket server's hand-off of one request to a worker.
struct Dispatch {
  std::chrono::steady_clock::time_point at;  ///< queued for a worker
  std::uint64_t id = 0;  ///< binary request id; 0 on the line protocol
};

/// One request line through parse -> cache -> engine — the single code
/// path every transport takes, so all serve identical bytes, and the one
/// place a request's spans open: an obs::Span request scope tagged with
/// \p transport around parse, cache_lookup and execute spans, after the
/// queue_wait from \p dispatch's hand-off when there is one.  Successful
/// responses are cached under (entry epoch, canonical query); `error:`
/// responses never are.
std::string execute_traced_line(const char* transport, QueryEngine& engine,
                                ResultCache* cache, const std::string& line,
                                std::uint64_t& cache_hits,
                                std::uint64_t& cache_misses,
                                const Dispatch* dispatch = nullptr);

}  // namespace gsb::service

#endif  // GSB_SERVICE_BATCH_EXECUTOR_H
