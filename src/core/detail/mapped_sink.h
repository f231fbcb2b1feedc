#ifndef GSB_CORE_DETAIL_MAPPED_SINK_H
#define GSB_CORE_DETAIL_MAPPED_SINK_H

/// \file mapped_sink.h
/// Shared emission helper: translates vertex ids of the (k-core reduced)
/// working graph back to the caller's namespace before forwarding cliques
/// to the user sink.

#include <span>
#include <vector>

#include "core/clique.h"
#include "graph/graph.h"

namespace gsb::core::detail {

/// Forwards cliques to a sink, optionally translating through an ascending
/// id mapping (new id -> original id), which preserves sortedness.
class MappedSink {
 public:
  MappedSink(const CliqueCallback& sink,
             const std::vector<graph::VertexId>* mapping)
      : sink_(sink), mapping_(mapping) {}

  void emit(std::span<const graph::VertexId> clique) {
    if (mapping_ == nullptr) {
      sink_(clique);
      return;
    }
    buf_.clear();
    for (graph::VertexId v : clique) buf_.push_back((*mapping_)[v]);
    sink_(buf_);
  }

  /// Assembles prefix + v + u (ascending by construction) and emits.
  void emit_parts(std::span<const graph::VertexId> prefix, graph::VertexId v,
                  graph::VertexId u) {
    parts_.clear();
    parts_.insert(parts_.end(), prefix.begin(), prefix.end());
    parts_.push_back(v);
    parts_.push_back(u);
    emit(parts_);
  }

 private:
  const CliqueCallback& sink_;
  const std::vector<graph::VertexId>* mapping_;
  std::vector<graph::VertexId> buf_;
  std::vector<graph::VertexId> parts_;
};

}  // namespace gsb::core::detail

#endif  // GSB_CORE_DETAIL_MAPPED_SINK_H
