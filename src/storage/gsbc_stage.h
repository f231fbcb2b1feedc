#ifndef GSB_STORAGE_GSBC_STAGE_H
#define GSB_STORAGE_GSBC_STAGE_H

/// \file gsbc_stage.h
/// Parallel BK straight into a `.gsbc` stream, with the per-clique work on
/// the workers.
///
/// core::parallel_bk hands each clique to CliqueStage::stage on the worker
/// that found it.  Here that is GsbcRecordEncoder::encode: relabel to the
/// stream's ids, sort, validate and varint-code into the root range's
/// buffer.  A range's commit then splices its bytes and size tallies into
/// the writer (GsbcWriter::append_encoded), so the ordered drain does no
/// per-clique work.  The file equals what per-clique GsbcWriter::append
/// calls in the same order would write, byte for byte.

#include <cstdint>
#include <span>
#include <vector>

#include "core/parallel_bk.h"
#include "storage/clique_stream.h"

namespace gsb::storage {

class GsbcStage final : public core::CliqueStage {
 public:
  /// \p relabel, when not empty, maps each search id to the id written
  /// (a degree-sorted .gsbg's permutation); it must outlive the stage.
  explicit GsbcStage(GsbcWriter& writer,
                     std::span<const graph::VertexId> relabel = {})
      : writer_(writer), encoder_(writer.order(), relabel) {}

  void stage(std::span<const graph::VertexId> clique,
             std::vector<unsigned char>& out) const override {
    encoder_.encode(clique, out);
  }

  void commit(const core::StagedCliques& staged) override {
    writer_.append_encoded(staged.bytes, staged.by_size);
  }

 private:
  GsbcWriter& writer_;
  GsbcRecordEncoder encoder_;
};

}  // namespace gsb::storage

#endif  // GSB_STORAGE_GSBC_STAGE_H
