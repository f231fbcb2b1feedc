#include "service/query_engine.h"

#include <algorithm>
#include <array>
#include <stdexcept>

#include "analysis/hubs.h"
#include "analysis/paraclique.h"
#include "graph/transforms.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "storage/clique_stream.h"

namespace gsb::service {
namespace {

void append_ids(std::string& out, const std::vector<graph::VertexId>& ids) {
  for (const graph::VertexId id : ids) {
    out += ' ';
    out += std::to_string(id);
  }
}

}  // namespace

QueryEngineStats& QueryEngineStats::operator+=(
    const QueryEngineStats& other) noexcept {
  executed += other.executed;
  errors += other.errors;
  index_queries += other.index_queries;
  stream_scans += other.stream_scans;
  records_decoded += other.records_decoded;
  return *this;
}

QueryEngine::QueryEngine(std::shared_ptr<const GraphEntry> entry)
    : entry_(std::move(entry)) {
  if (entry_ == nullptr) {
    throw std::invalid_argument("QueryEngine: null graph entry");
  }
}

graph::VertexId QueryEngine::stored_operand(graph::VertexId original) const {
  if (original >= entry_->order()) {
    throw std::runtime_error("vertex " + std::to_string(original) +
                             " out of range (graph order " +
                             std::to_string(entry_->order()) + ")");
  }
  return entry_->to_stored(original);
}

namespace {

/// Engine-level series: per-kind execution latency plus the access-path
/// counters (index hit vs stream rescan, records decoded), and the
/// per-kind execute span labels, built once so a request allocates none.
struct EngineMetrics {
  std::array<obs::Histogram, kNumQueryKinds> execute_micros;
  std::array<std::string, kNumQueryKinds> execute_labels;
  obs::Counter index_queries;
  obs::Counter stream_scans;
  obs::Counter records_decoded;
};

const EngineMetrics& engine_metrics() {
  static const EngineMetrics metrics = [] {
    obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
    EngineMetrics m;
    for (std::size_t k = 0; k < kNumQueryKinds; ++k) {
      const char* type = query_kind_name(static_cast<QueryKind>(k));
      m.execute_micros[k] = registry.histogram(
          "gsb_query_execute_microseconds",
          "Engine execution latency per query type (cache misses only).",
          std::string("type=\"") + type + "\"");
      m.execute_labels[k] = std::string("execute:") + type;
    }
    m.index_queries = registry.counter(
        "gsb_index_queries_total",
        "cliques-containing answered through the .gsbci index.");
    m.stream_scans = registry.counter(
        "gsb_stream_scans_total",
        "cliques-containing answered by a full .gsbc rescan.");
    m.records_decoded = registry.counter(
        "gsb_clique_records_decoded_total",
        "Clique records decoded while answering queries.");
    return m;
  }();
  return metrics;
}

}  // namespace

std::string QueryEngine::execute(const Query& query) {
  ++stats_.executed;
  const EngineMetrics& metrics = engine_metrics();
  const auto kind = static_cast<std::size_t>(query.kind);
  const QueryEngineStats before = stats_;
  std::string response;
  {
    obs::Span span(obs::TimelineEventKind::kExecute,
                   metrics.execute_labels[kind], 0,
                   &metrics.execute_micros[kind]);
    try {
      response = dispatch(query);
    } catch (const std::exception& error) {
      ++stats_.errors;
      response = "error: '" + canonical_query(query) + "': " + error.what();
    }
  }
  metrics.index_queries.inc(stats_.index_queries - before.index_queries);
  metrics.stream_scans.inc(stats_.stream_scans - before.stream_scans);
  metrics.records_decoded.inc(stats_.records_decoded - before.records_decoded);
  return response;
}

std::string QueryEngine::execute_line(const std::string& line) {
  Query query;
  try {
    query = parse_query(line);
  } catch (const std::exception& error) {
    ++stats_.executed;
    ++stats_.errors;
    return std::string("error: ") + error.what();
  }
  return execute(query);
}

std::string QueryEngine::dispatch(const Query& query) {
  switch (query.kind) {
    case QueryKind::kNeighbors: return run_neighbors(query);
    case QueryKind::kDegree: return run_degree(query);
    case QueryKind::kCommonNeighbors: return run_common_neighbors(query);
    case QueryKind::kInducedSubgraph: return run_induced_subgraph(query);
    case QueryKind::kKcoreMembership: return run_kcore_membership(query);
    case QueryKind::kCliquesContaining: return run_cliques_containing(query);
    case QueryKind::kParacliqueExpand: return run_paraclique_expand(query);
    case QueryKind::kTopHubs: return run_top_hubs(query);
  }
  throw std::runtime_error("unhandled query kind");
}

std::string QueryEngine::run_neighbors(const Query& query) {
  const graph::VertexId stored = stored_operand(query.vertices[0]);
  std::vector<graph::VertexId> ids;
  ids.reserve(entry_->view().degree(stored));
  for (const graph::VertexId w : entry_->view().neighbor_list(stored)) {
    ids.push_back(entry_->to_original(w));
  }
  std::sort(ids.begin(), ids.end());
  std::string out = canonical_query(query) + ":";
  append_ids(out, ids);
  return out;
}

std::string QueryEngine::run_degree(const Query& query) {
  const graph::VertexId stored = stored_operand(query.vertices[0]);
  return canonical_query(query) + ": " +
         std::to_string(entry_->view().degree(stored));
}

std::string QueryEngine::run_common_neighbors(const Query& query) {
  const graph::VertexId a = stored_operand(query.vertices[0]);
  const graph::VertexId b = stored_operand(query.vertices[1]);
  // Walk the sparser row, probe the denser: O(min degree) bit tests.
  const graph::VertexId walk =
      entry_->view().degree(a) <= entry_->view().degree(b) ? a : b;
  const graph::VertexId probe = walk == a ? b : a;
  std::vector<graph::VertexId> ids;
  for (const graph::VertexId w : entry_->view().neighbor_list(walk)) {
    if (entry_->view().has_edge(probe, w)) {
      ids.push_back(entry_->to_original(w));
    }
  }
  std::sort(ids.begin(), ids.end());
  std::string out = canonical_query(query) + ":";
  append_ids(out, ids);
  return out;
}

std::string QueryEngine::run_induced_subgraph(const Query& query) {
  std::vector<graph::VertexId> stored;
  stored.reserve(query.vertices.size());
  for (const graph::VertexId v : query.vertices) {
    stored.push_back(stored_operand(v));
  }
  const auto induced = graph::induced_subgraph(entry_->view(), stored);
  std::vector<std::pair<graph::VertexId, graph::VertexId>> edges;
  edges.reserve(induced.graph.num_edges());
  for (const auto& [a, b] : induced.graph.edge_list()) {
    const graph::VertexId u = entry_->to_original(induced.mapping[a]);
    const graph::VertexId v = entry_->to_original(induced.mapping[b]);
    edges.emplace_back(std::min(u, v), std::max(u, v));
  }
  std::sort(edges.begin(), edges.end());
  std::string out = canonical_query(query) + ": n=" +
                    std::to_string(induced.graph.order()) +
                    " m=" + std::to_string(edges.size());
  for (const auto& [u, v] : edges) {
    out += ' ' + std::to_string(u) + '-' + std::to_string(v);
  }
  return out;
}

std::string QueryEngine::run_kcore_membership(const Query& query) {
  const graph::VertexId stored = stored_operand(query.vertices[0]);
  const auto mask = graph::kcore_mask(entry_->view(), query.k);
  return canonical_query(query) + (mask.test(stored) ? ": 1" : ": 0");
}

std::string QueryEngine::run_cliques_containing(const Query& query) {
  const graph::VertexId v = query.vertices[0];
  if (v >= entry_->order()) {
    throw std::runtime_error("vertex " + std::to_string(v) +
                             " out of range (graph order " +
                             std::to_string(entry_->order()) + ")");
  }
  if (!entry_->has_cliques()) {
    throw std::runtime_error(
        "no clique stream attached (open with --cliques FILE.gsbc)");
  }
  // Cliques live in original labels on disk, so no permutation folding
  // here — the stream is the source of truth either way.
  std::string out = canonical_query(query) + ":";
  std::vector<graph::VertexId> clique;
  bool first = true;
  auto emit = [&](const std::vector<graph::VertexId>& members) {
    out += first ? " " : ", ";
    first = false;
    for (std::size_t i = 0; i < members.size(); ++i) {
      if (i > 0) out += ' ';
      out += std::to_string(members[i]);
    }
  };
  if (const CliqueIndex* index = entry_->index()) {
    // Random access: touch exactly |postings(v)| records, never the rest
    // of the stream.
    if (!random_reader_) {
      random_reader_.emplace(entry_->cliques_path(), *index);
    }
    ++stats_.index_queries;
    for (const std::uint64_t id : index->postings(v)) {
      random_reader_->read(id, clique);
      ++stats_.records_decoded;
      emit(clique);
    }
  } else {
    ++stats_.stream_scans;
    auto reader = storage::GsbcReader::open(entry_->cliques_path());
    while (reader.next(clique)) {
      ++stats_.records_decoded;
      if (std::binary_search(clique.begin(), clique.end(), v)) emit(clique);
    }
  }
  return out;
}

std::string QueryEngine::run_paraclique_expand(const Query& query) {
  std::vector<graph::VertexId> seed;
  seed.reserve(query.vertices.size());
  for (const graph::VertexId v : query.vertices) {
    seed.push_back(stored_operand(v));
  }
  std::sort(seed.begin(), seed.end());
  for (std::size_t i = 0; i < seed.size(); ++i) {
    for (std::size_t j = i + 1; j < seed.size(); ++j) {
      if (!entry_->view().has_edge(seed[i], seed[j])) {
        throw std::runtime_error(
            "seed is not a clique: " +
            std::to_string(entry_->to_original(seed[i])) + " and " +
            std::to_string(entry_->to_original(seed[j])) +
            " are not adjacent");
      }
    }
  }
  analysis::ParacliqueOptions options;
  options.glom = query.k;
  const auto grown =
      analysis::grow_paraclique(entry_->view(), seed, options);
  std::vector<graph::VertexId> ids;
  ids.reserve(grown.members.size());
  for (const graph::VertexId v : grown.members) {
    ids.push_back(entry_->to_original(v));
  }
  std::sort(ids.begin(), ids.end());
  std::string out = canonical_query(query) + ":";
  append_ids(out, ids);
  return out;
}

std::string QueryEngine::run_top_hubs(const Query& query) {
  const auto hubs =
      analysis::top_hubs(entry_->view(), entry_->participation(), query.k);
  std::string out = canonical_query(query) + ":";
  for (std::size_t i = 0; i < hubs.size(); ++i) {
    out += i == 0 ? " " : "; ";
    out += std::to_string(entry_->to_original(hubs[i].vertex)) +
           " deg=" + std::to_string(hubs[i].degree) +
           " cliques=" + std::to_string(hubs[i].clique_participation);
  }
  return out;
}

}  // namespace gsb::service
