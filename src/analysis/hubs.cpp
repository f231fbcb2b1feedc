#include "analysis/hubs.h"

#include <algorithm>
#include <cstddef>
#include <stdexcept>

#include "analysis/clique_stats.h"

namespace gsb::analysis {

std::vector<HubReport> top_hubs(const graph::GraphView& g,
                                const std::vector<core::Clique>& cliques,
                                std::size_t count) {
  return top_hubs(g, vertex_participation(g.order(), cliques), count);
}

std::vector<HubReport> top_hubs(const graph::GraphView& g,
                                const std::vector<std::uint32_t>& participation,
                                std::size_t count) {
  std::vector<HubReport> reports(g.order());
  for (graph::VertexId v = 0; v < g.order(); ++v) {
    reports[v] = HubReport{v, g.degree(v), participation[v]};
  }
  // (degree desc, participation desc, id asc) is a strict total order, so
  // the first k of a partial sort are exactly the first k of a full one.
  const auto top = reports.begin() + static_cast<std::ptrdiff_t>(
                                         std::min(count, reports.size()));
  std::partial_sort(reports.begin(), top, reports.end(),
                    [](const HubReport& a, const HubReport& b) {
                      if (a.degree != b.degree) return a.degree > b.degree;
                      if (a.clique_participation != b.clique_participation) {
                        return a.clique_participation >
                               b.clique_participation;
                      }
                      return a.vertex < b.vertex;
                    });
  reports.erase(top, reports.end());
  return reports;
}

HubReport most_connected_vertex(const graph::GraphView& g,
                                const std::vector<core::Clique>& cliques) {
  if (g.order() == 0) {
    throw std::invalid_argument("most_connected_vertex: empty graph");
  }
  return top_hubs(g, cliques, 1).front();
}

}  // namespace gsb::analysis
