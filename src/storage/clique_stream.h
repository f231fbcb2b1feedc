#ifndef GSB_STORAGE_CLIQUE_STREAM_H
#define GSB_STORAGE_CLIQUE_STREAM_H

/// \file clique_stream.h
/// Sequential writer and iterator reader for the `.gsbc` clique-stream
/// container (byte layout in gsbc_format.h / docs/FORMATS.md).
///
/// The writer is an append-only sink: one buffered pass, O(largest clique)
/// memory, header (counts + checksum) patched on close.  Records come from
/// one encoder, GsbcRecordEncoder, which accepts cliques in any member
/// order, optionally relabels them, and canonicalizes to ascending ids
/// before delta coding.  The writer runs it per clique in append(), so it
/// can sit directly behind any enumerator's CliqueCallback.  The encoder is
/// const and shares no state, so parallel BK's workers also run it, each
/// into its own root range's buffer (storage/gsbc_stage.h).  The writer
/// then splices each encoded range with append_encoded(), which only
/// moves bytes and adds the range's size tallies to the header.  The
/// writer itself is never called concurrently.  The reader is a strict
/// forward scan returning one
/// clique at a time — `analysis::clique_spectrum`, participation counting
/// and paraclique seeding all consume it in O(1) clique memory, which is
/// the whole point: the clique set never has to exist in RAM at once.

#include <cstdint>
#include <fstream>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "storage/gsbc_format.h"

namespace gsb::util::io {
class FileWriter;
}  // namespace gsb::util::io

namespace gsb::storage {

/// --- LEB128 varints ---------------------------------------------------------
/// The `.gsbc` record coding, exposed so the `.gsbci` index and the tests
/// can share the exact encoder/decoder the stream uses.

/// Appends the unsigned LEB128 encoding of \p value (1..10 bytes).
void append_leb128(std::vector<unsigned char>& out, std::uint64_t value);

/// Decodes one varint starting at \p pos, advancing \p pos past it.
/// Throws std::runtime_error on truncation, on values that overflow 64
/// bits, and on non-canonical (over-long) encodings — a trailing 0x00
/// continuation byte never appears in a minimal encoding.
std::uint64_t decode_leb128(std::span<const unsigned char> bytes,
                            std::size_t& pos);

/// Encodes cliques as `.gsbc` records: maps each member through an
/// optional relabel table, sorts ascending, validates, and appends the
/// size, first-member and delta varints.  Holds no mutable state, so any
/// number of threads may encode at once, each into its own buffer.
class GsbcRecordEncoder {
 public:
  /// \p order is the stream's vertex universe.  \p relabel, when not
  /// empty, maps each id passed to encode() to the id written; it must
  /// outlive the encoder.
  explicit GsbcRecordEncoder(std::size_t order,
                             std::span<const graph::VertexId> relabel = {})
      : order_(order), relabel_(relabel) {}

  /// Appends \p clique's record to \p out.  Throws std::runtime_error
  /// ("gsbc: ...") on an empty clique, an id outside the relabel table, a
  /// written id >= order or a duplicate member, leaving \p out unchanged.
  void encode(std::span<const graph::VertexId> clique,
              std::vector<unsigned char>& out) const;

 private:
  std::size_t order_;
  std::span<const graph::VertexId> relabel_;
};

/// Totals reported by GsbcWriter::close().
struct GsbcWriteStats {
  std::uint64_t clique_count = 0;
  std::uint64_t member_total = 0;
  std::uint64_t max_size = 0;
  std::uint64_t file_bytes = 0;
};

/// Streaming `.gsbc` writer.
class GsbcWriter {
 public:
  /// Opens `<path>.tmp.<pid>` for writing and reserves the header.
  /// \p order is the vertex universe of the source graph (member ids
  /// must be < order).  Nothing appears at \p path until close().
  GsbcWriter(const std::string& path, std::size_t order);

  /// Discards the temp file if close() was never called: an abandoned
  /// or crashed writer never publishes a partial stream.
  ~GsbcWriter();

  GsbcWriter(const GsbcWriter&) = delete;
  GsbcWriter& operator=(const GsbcWriter&) = delete;

  /// Appends one clique (any member order; duplicates are invalid and
  /// rejected, as is an id >= order or an empty clique).
  void append(std::span<const graph::VertexId> clique);

  /// Appends a batch of records that a GsbcRecordEncoder of this
  /// writer's order() wrote, back to back, and adds its tallies to the
  /// header: \p by_size[k] counts the batch's records of k members.  The
  /// bytes are spliced as they are, so a batch from any other source
  /// makes a stream the reader rejects.
  void append_encoded(std::span<const unsigned char> records,
                      std::span<const std::uint64_t> by_size);

  /// Flushes, patches the header with counts and checksum, fsyncs, and
  /// atomically renames the temp file into place.
  GsbcWriteStats close();

  [[nodiscard]] std::uint64_t clique_count() const noexcept {
    return header_.clique_count;
  }
  [[nodiscard]] std::size_t order() const noexcept { return header_.n; }

 private:
  void flush_if_full();
  void flush_buffer();

  std::string path_;
  std::unique_ptr<util::io::FileWriter> out_;
  GsbcHeader header_;
  GsbcRecordEncoder encoder_;
  Fnv1a sum_;
  std::vector<unsigned char> buffer_;
  std::uint64_t payload_bytes_ = 0;
  bool open_ = false;
};

/// Forward-iterating `.gsbc` reader.
class GsbcReader {
 public:
  struct Options {
    /// Re-hash the payload at open and reject on checksum mismatch (one
    /// extra sequential pass).  Off by default, as for .gsbg.
    bool verify_checksum = false;
  };

  /// Opens \p path, validating magic, version and header/file coherence.
  /// Throws std::runtime_error on any malformation.
  static GsbcReader open(const std::string& path, const Options& options);
  static GsbcReader open(const std::string& path) {
    return open(path, Options{});
  }

  GsbcReader(GsbcReader&&) = default;
  GsbcReader& operator=(GsbcReader&&) = default;

  [[nodiscard]] const GsbcHeader& header() const noexcept { return header_; }
  [[nodiscard]] std::size_t order() const noexcept { return header_.n; }
  [[nodiscard]] std::uint64_t clique_count() const noexcept {
    return header_.clique_count;
  }
  [[nodiscard]] std::uint64_t member_total() const noexcept {
    return header_.member_total;
  }
  [[nodiscard]] std::uint64_t max_size() const noexcept {
    return header_.max_size;
  }

  /// Reads the next clique into \p out (ascending member ids).  Returns
  /// false at a clean end of stream; throws on truncation, malformed
  /// varints, non-ascending members, ids >= order(), or a record count
  /// that disagrees with the header.
  bool next(std::vector<graph::VertexId>& out);

  /// Absolute file offset of the record the next next() call will decode
  /// (the `.gsbci` builder records these for random access).
  [[nodiscard]] std::uint64_t next_record_offset() const noexcept {
    return buf_file_base_ + buf_pos_;
  }

 private:
  GsbcReader() = default;

  [[nodiscard]] bool fill();
  [[nodiscard]] std::uint64_t read_varint();

  std::ifstream in_;
  GsbcHeader header_;
  std::vector<unsigned char> buffer_;
  std::size_t buf_pos_ = 0;
  std::size_t buf_end_ = 0;
  std::uint64_t buf_file_base_ = kGsbcHeaderBytes;  ///< offset of buffer_[0]
  std::uint64_t cliques_read_ = 0;
  std::uint64_t members_read_ = 0;
  std::uint64_t max_seen_ = 0;
};

}  // namespace gsb::storage

#endif  // GSB_STORAGE_CLIQUE_STREAM_H
