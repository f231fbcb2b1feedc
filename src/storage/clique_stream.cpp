#include "storage/clique_stream.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "util/io.h"

namespace gsb::storage {
namespace {

constexpr std::size_t kIoBuffer = 1 << 16;  ///< 64 KiB writer/reader chunks
constexpr std::size_t kMaxVarintBytes = 10;  ///< LEB128 of a 64-bit value
constexpr std::size_t kMaxIdVarintBytes = 5;  ///< LEB128 of a 32-bit id

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("gsbc: " + what);
}

void serialize_header(char (&buffer)[kGsbcHeaderBytes],
                      const GsbcHeader& header) {
  std::memset(buffer, 0, sizeof(buffer));
  std::memcpy(buffer, kGsbcMagic, sizeof(kGsbcMagic));
  std::memcpy(buffer + 8, &header.version, 4);
  std::memcpy(buffer + 12, &header.flags, 4);
  std::memcpy(buffer + 16, &header.n, 8);
  std::memcpy(buffer + 24, &header.clique_count, 8);
  std::memcpy(buffer + 32, &header.member_total, 8);
  std::memcpy(buffer + 40, &header.max_size, 8);
  std::memcpy(buffer + 48, &header.checksum, 8);
}

/// Writes the LEB128 encoding of \p value at \p p; returns the byte past it.
unsigned char* put_leb128(unsigned char* p, std::uint64_t value) {
  while (value >= 0x80) {
    *p++ = static_cast<unsigned char>(value) | 0x80u;
    value >>= 7;
  }
  *p++ = static_cast<unsigned char>(value);
  return p;
}

}  // namespace

// --- LEB128 varints ---------------------------------------------------------

void append_leb128(std::vector<unsigned char>& out, std::uint64_t value) {
  unsigned char bytes[kMaxVarintBytes];
  out.insert(out.end(), bytes, put_leb128(bytes, value));
}

std::uint64_t decode_leb128(std::span<const unsigned char> bytes,
                            std::size_t& pos) {
  std::uint64_t value = 0;
  unsigned shift = 0;
  while (true) {
    if (pos == bytes.size()) fail("truncated varint");
    const unsigned char byte = bytes[pos++];
    if (shift >= 63 && (byte >> 1) != 0) fail("varint overflow");
    if (shift > 0 && byte == 0) fail("over-long varint encoding");
    value |= static_cast<std::uint64_t>(byte & 0x7Fu) << shift;
    if ((byte & 0x80u) == 0) return value;
    shift += 7;
  }
}

// --- record encoder ---------------------------------------------------------

void GsbcRecordEncoder::encode(std::span<const graph::VertexId> clique,
                               std::vector<unsigned char>& out) const {
  const std::size_t size = clique.size();
  if (size == 0) fail("empty clique");
  // Cliques of up to kInline members sort on the stack; larger ones
  // allocate.
  constexpr std::size_t kInline = 64;
  graph::VertexId inline_ids[kInline];
  std::vector<graph::VertexId> heap_ids;
  graph::VertexId* ids = inline_ids;
  if (size > kInline) {
    heap_ids.resize(size);
    ids = heap_ids.data();
  }
  if (relabel_.empty()) {
    std::copy(clique.begin(), clique.end(), ids);
  } else {
    for (std::size_t i = 0; i < size; ++i) {
      if (clique[i] >= relabel_.size()) {
        fail("member id outside the relabel table");
      }
      ids[i] = relabel_[clique[i]];
    }
  }
  std::sort(ids, ids + size);
  // Validate fully before emitting a single byte: a rejected clique must
  // leave the output exactly as it was (a caller may catch and continue).
  if (ids[size - 1] >= order_) {
    fail("member id out of range for the declared vertex universe");
  }
  for (std::size_t i = 1; i < size; ++i) {
    if (ids[i] == ids[i - 1]) fail("duplicate member in clique");
  }
  const std::size_t start = out.size();
  out.resize(start + kMaxVarintBytes + kMaxIdVarintBytes * size);
  unsigned char* p = out.data() + start;
  p = put_leb128(p, size);
  p = put_leb128(p, ids[0]);
  for (std::size_t i = 1; i < size; ++i) {
    p = put_leb128(p, ids[i] - ids[i - 1]);
  }
  out.resize(static_cast<std::size_t>(p - out.data()));
}

// --- writer -----------------------------------------------------------------

GsbcWriter::GsbcWriter(const std::string& path, std::size_t order)
    : path_(path),
      out_(std::make_unique<util::io::FileWriter>(path)),
      encoder_(order) {
  header_.n = order;
  char raw[kGsbcHeaderBytes];
  serialize_header(raw, header_);  // placeholder; patched in close()
  out_->write(raw, sizeof(raw));
  buffer_.reserve(kIoBuffer);
  open_ = true;
}

// An abandoned writer discards its temp file (FileWriter's destructor);
// the destination path is untouched.
GsbcWriter::~GsbcWriter() = default;

void GsbcWriter::flush_if_full() {
  if (buffer_.size() >= kIoBuffer) flush_buffer();
}

void GsbcWriter::flush_buffer() {
  if (buffer_.empty()) return;
  sum_.update(buffer_.data(), buffer_.size());
  out_->write(buffer_.data(), buffer_.size());
  payload_bytes_ += buffer_.size();
  buffer_.clear();
}

void GsbcWriter::append(std::span<const graph::VertexId> clique) {
  if (!open_) fail("append on a closed writer");
  encoder_.encode(clique, buffer_);
  ++header_.clique_count;
  header_.member_total += clique.size();
  header_.max_size = std::max<std::uint64_t>(header_.max_size, clique.size());
  flush_if_full();
}

void GsbcWriter::append_encoded(std::span<const unsigned char> records,
                                std::span<const std::uint64_t> by_size) {
  if (!open_) fail("append on a closed writer");
  if (!by_size.empty() && by_size[0] != 0) fail("empty clique");
  for (std::size_t size = 1; size < by_size.size(); ++size) {
    if (by_size[size] == 0) continue;
    header_.clique_count += by_size[size];
    header_.member_total += size * by_size[size];
    header_.max_size = std::max<std::uint64_t>(header_.max_size, size);
  }
  buffer_.insert(buffer_.end(), records.begin(), records.end());
  flush_if_full();
}

GsbcWriteStats GsbcWriter::close() {
  if (!open_) fail("double close");
  open_ = false;
  flush_buffer();
  header_.checksum = sum_.digest();
  char raw[kGsbcHeaderBytes];
  serialize_header(raw, header_);
  out_->write_at(0, raw, sizeof(raw));
  out_->commit();  // fsync + atomic rename into path_
  return GsbcWriteStats{header_.clique_count, header_.member_total,
                        header_.max_size,
                        kGsbcHeaderBytes + payload_bytes_};
}

// --- reader -----------------------------------------------------------------

GsbcReader GsbcReader::open(const std::string& path, const Options& options) {
  GsbcReader reader;
  reader.in_.open(path, std::ios::binary);
  if (!reader.in_) fail("cannot open '" + path + "'");

  char raw[kGsbcHeaderBytes];
  reader.in_.read(raw, sizeof(raw));
  if (reader.in_.gcount() != static_cast<std::streamsize>(sizeof(raw))) {
    fail("file shorter than the header");
  }
  if (std::memcmp(raw, kGsbcMagic, sizeof(kGsbcMagic)) != 0) {
    fail("bad magic (not a .gsbc file)");
  }
  GsbcHeader& header = reader.header_;
  std::memcpy(&header.version, raw + 8, 4);
  std::memcpy(&header.flags, raw + 12, 4);
  std::memcpy(&header.n, raw + 16, 8);
  std::memcpy(&header.clique_count, raw + 24, 8);
  std::memcpy(&header.member_total, raw + 32, 8);
  std::memcpy(&header.max_size, raw + 40, 8);
  std::memcpy(&header.checksum, raw + 48, 8);
  if (header.version != kGsbcVersion) {
    fail("unsupported version " + std::to_string(header.version));
  }
  if (header.max_size > header.member_total ||
      (header.clique_count == 0) != (header.member_total == 0)) {
    fail("inconsistent header counts");
  }

  // Bound the payload by the header counts before trusting either: every
  // record is at least one byte per varint (size + members) and at most ten,
  // so a truncated stream or trailing garbage is rejected at open — not
  // after a half-parsed header has already been reported.
  reader.in_.seekg(0, std::ios::end);
  const auto file_size = static_cast<std::uint64_t>(reader.in_.tellg());
  reader.in_.seekg(kGsbcHeaderBytes);
  const std::uint64_t payload = file_size - kGsbcHeaderBytes;
  const std::uint64_t varints = header.clique_count + header.member_total;
  if (payload < varints) {
    fail("file truncated: " + std::to_string(payload) +
         " payload bytes cannot hold " + std::to_string(header.clique_count) +
         " cliques");
  }
  if (payload > 10 * varints) {  // varints <= payload < 2^60: no overflow
    fail(varints == 0 ? "trailing bytes in an empty stream"
                      : "file size inconsistent with header counts");
  }

  if (options.verify_checksum) {
    Fnv1a sum;
    std::vector<unsigned char> chunk(kIoBuffer);
    while (reader.in_) {
      reader.in_.read(reinterpret_cast<char*>(chunk.data()),
                      static_cast<std::streamsize>(chunk.size()));
      const std::streamsize got = reader.in_.gcount();
      if (got <= 0) break;
      sum.update(chunk.data(), static_cast<std::size_t>(got));
    }
    if (sum.digest() != header.checksum) fail("checksum mismatch");
    reader.in_.clear();
    reader.in_.seekg(kGsbcHeaderBytes);
  }

  reader.buffer_.resize(kIoBuffer);
  return reader;
}

bool GsbcReader::fill() {
  buf_file_base_ += buf_end_;
  in_.read(reinterpret_cast<char*>(buffer_.data()),
           static_cast<std::streamsize>(buffer_.size()));
  buf_end_ = static_cast<std::size_t>(in_.gcount());
  buf_pos_ = 0;
  return buf_end_ > 0;
}

std::uint64_t GsbcReader::read_varint() {
  std::uint64_t value = 0;
  unsigned shift = 0;
  while (true) {
    if (buf_pos_ == buf_end_ && !fill()) {
      fail("truncated record (unexpected end of stream)");
    }
    const unsigned char byte = buffer_[buf_pos_++];
    if (shift >= 63 && (byte >> 1) != 0) fail("varint overflow");
    if (shift > 0 && byte == 0) fail("over-long varint encoding");
    value |= static_cast<std::uint64_t>(byte & 0x7Fu) << shift;
    if ((byte & 0x80u) == 0) return value;
    shift += 7;
  }
}

bool GsbcReader::next(std::vector<graph::VertexId>& out) {
  if (buf_pos_ == buf_end_ && !fill()) {
    if (cliques_read_ != header_.clique_count) {
      fail("stream ended after " + std::to_string(cliques_read_) + " of " +
           std::to_string(header_.clique_count) + " cliques");
    }
    // The payload checksum does not protect the header, so the aggregate
    // fields are cross-checked against what the scan actually decoded —
    // a doctored member_total/max_size must not survive a clean drain.
    if (members_read_ != header_.member_total) {
      fail("header claims " + std::to_string(header_.member_total) +
           " members, stream holds " + std::to_string(members_read_));
    }
    if (max_seen_ != header_.max_size) {
      fail("header max clique size disagrees with the stream");
    }
    return false;
  }
  if (cliques_read_ == header_.clique_count) {
    fail("trailing bytes after the declared clique count");
  }
  const std::uint64_t size = read_varint();
  if (size == 0 || size > header_.n) fail("record size out of range");
  out.clear();
  out.reserve(size);
  std::uint64_t member = read_varint();
  for (std::uint64_t i = 0;; ++i) {
    if (member >= header_.n) fail("member id out of range");
    out.push_back(static_cast<graph::VertexId>(member));
    if (i + 1 == size) break;
    const std::uint64_t delta = read_varint();
    if (delta == 0) fail("non-ascending member delta");
    member += delta;
  }
  ++cliques_read_;
  members_read_ += size;
  max_seen_ = std::max(max_seen_, size);
  return true;
}

}  // namespace gsb::storage
