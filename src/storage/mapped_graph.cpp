#include "storage/mapped_graph.h"

#include <cstring>
#include <fstream>
#include <stdexcept>
#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#define GSB_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

#include "bitset/dynamic_bitset.h"
#include "util/io.h"

namespace gsb::storage {
namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("gsbg: " + what);
}

/// Reads the fixed header fields out of the first 64 bytes.
GsbgHeader parse_header(const char* base, std::size_t bytes) {
  if (bytes < kHeaderBytes) fail("file shorter than header");
  if (std::memcmp(base, kMagic, sizeof(kMagic)) != 0) fail("bad magic");
  GsbgHeader header;
  std::memcpy(&header.version, base + 8, 4);
  std::memcpy(&header.flags, base + 12, 4);
  std::memcpy(&header.n, base + 16, 8);
  std::memcpy(&header.m, base + 24, 8);
  std::memcpy(&header.checksum, base + 32, 8);
  std::memcpy(&header.section_count, base + 40, 8);
  if (header.version != kVersion) {
    fail("unsupported version " + std::to_string(header.version));
  }
  return header;
}

}  // namespace

MappedGraph::~MappedGraph() { release(); }

MappedGraph::MappedGraph(MappedGraph&& other) noexcept {
  *this = std::move(other);
}

MappedGraph& MappedGraph::operator=(MappedGraph&& other) noexcept {
  if (this != &other) {
    release();
    header_ = other.header_;
    sections_ = std::move(other.sections_);
    base_ = std::exchange(other.base_, nullptr);
    map_bytes_ = std::exchange(other.map_bytes_, 0);
    heap_backed_ = std::exchange(other.heap_backed_, false);
    offsets_ = std::exchange(other.offsets_, {});
    targets_ = std::exchange(other.targets_, {});
    bitmap_ = std::exchange(other.bitmap_, nullptr);
    words_per_row_ = std::exchange(other.words_per_row_, 0);
    wah_offsets_ = std::exchange(other.wah_offsets_, {});
    wah_words_ = std::exchange(other.wah_words_, {});
    permutation_ = std::exchange(other.permutation_, {});
    degrees_ = std::move(other.degrees_);
  }
  return *this;
}

void MappedGraph::release() noexcept {
  if (base_ == nullptr) return;
#if GSB_HAVE_MMAP
  if (!heap_backed_) {
    ::munmap(const_cast<char*>(base_), map_bytes_);
    base_ = nullptr;
    return;
  }
#endif
  delete[] base_;
  base_ = nullptr;
}

MappedGraph MappedGraph::open(const std::string& path,
                              const Options& options) {
  MappedGraph g;

#if GSB_HAVE_MMAP
  const int fd = util::io::open_for_read(path.c_str());
  if (fd < 0) fail("cannot open '" + path + "' for reading");
  struct stat st{};
  if (::fstat(fd, &st) != 0 || st.st_size < 0) {
    ::close(fd);
    fail("cannot stat '" + path + "'");
  }
  g.map_bytes_ = static_cast<std::size_t>(st.st_size);
  if (g.map_bytes_ > 0) {
    void* map = util::io::mmap_read(g.map_bytes_, fd);
    ::close(fd);
    if (map == MAP_FAILED) fail("mmap failed for '" + path + "'");
    g.base_ = static_cast<const char*>(map);
  } else {
    ::close(fd);
    fail("file is empty");
  }
#else
  // Portability fallback: read the whole file into heap memory.  Loses the
  // out-of-core property but keeps the format usable.
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) fail("cannot open '" + path + "' for reading");
  const auto size = in.tellg();
  if (size <= 0) fail("file is empty");
  g.map_bytes_ = static_cast<std::size_t>(size);
  char* buffer = new char[g.map_bytes_];
  in.seekg(0);
  in.read(buffer, static_cast<std::streamsize>(g.map_bytes_));
  if (!in) {
    delete[] buffer;
    fail("short read from '" + path + "'");
  }
  g.base_ = buffer;
  g.heap_backed_ = true;
#endif

  g.header_ = parse_header(g.base_, g.map_bytes_);
  const std::uint64_t n = g.header_.n;
  // Sanity-bound n and m before any size arithmetic: vertex ids are 32-bit
  // and m <= n(n-1)/2, so a header that violates either is corrupt — and
  // letting it through would let (n+1)*8 etc. wrap past the mapping.
  if (n > (std::uint64_t{1} << 32)) fail("implausible vertex count");
  if (n > 0 && g.header_.m > n * (n - 1) / 2) fail("implausible edge count");
  if (n == 0 && g.header_.m != 0) fail("edges without vertices");
  const std::uint64_t nnz = 2 * g.header_.m;

  // --- section table ---------------------------------------------------------
  if (g.header_.section_count > 64) fail("implausible section count");
  const std::uint64_t table_end =
      kHeaderBytes + g.header_.section_count * kSectionEntryBytes;
  if (table_end > g.map_bytes_) fail("truncated section table");
  g.sections_.reserve(g.header_.section_count);
  for (std::uint64_t i = 0; i < g.header_.section_count; ++i) {
    const char* entry = g.base_ + kHeaderBytes + i * kSectionEntryBytes;
    std::uint32_t kind = 0;
    GsbgSection section;
    std::memcpy(&kind, entry, 4);
    std::memcpy(&section.offset, entry + 8, 8);
    std::memcpy(&section.size, entry + 16, 8);
    section.kind = static_cast<SectionKind>(kind);
    if (section.offset % kSectionAlign != 0 ||
        section.offset < table_end ||
        section.offset + section.size > g.map_bytes_ ||
        section.offset + section.size < section.offset) {
      fail("section " + std::to_string(kind) + " out of bounds");
    }
    g.sections_.push_back(section);
  }

  auto find = [&](SectionKind kind) -> const GsbgSection* {
    for (const auto& section : g.sections_) {
      if (section.kind == kind) return &section;
    }
    return nullptr;
  };
  auto section_span = [&](const GsbgSection& section) {
    return g.base_ + section.offset;
  };

  // --- CSR (required) --------------------------------------------------------
  const GsbgSection* offsets = find(SectionKind::kCsrOffsets);
  const GsbgSection* targets = find(SectionKind::kCsrTargets);
  if (offsets == nullptr || targets == nullptr) fail("missing CSR sections");
  if (offsets->size != (n + 1) * sizeof(std::uint64_t)) {
    fail("csr offsets section has wrong size");
  }
  if (targets->size != nnz * sizeof(std::uint32_t)) {
    fail("csr targets section has wrong size");
  }
  g.offsets_ = {reinterpret_cast<const std::uint64_t*>(section_span(*offsets)),
                static_cast<std::size_t>(n + 1)};
  g.targets_ = {reinterpret_cast<const std::uint32_t*>(section_span(*targets)),
                static_cast<std::size_t>(nnz)};
  if (g.offsets_.front() != 0 || g.offsets_.back() != nnz) {
    fail("csr offsets do not cover the target array");
  }
  g.degrees_.resize(n);
  for (std::uint64_t v = 0; v < n; ++v) {
    if (g.offsets_[v + 1] < g.offsets_[v]) fail("csr offsets not monotone");
    g.degrees_[v] =
        static_cast<std::size_t>(g.offsets_[v + 1] - g.offsets_[v]);
  }
  // Rows feed vertex-indexed arrays (GraphView::for_each_neighbor walks
  // them), so each must hold strictly ascending ids below n.
  for (std::uint64_t v = 0; v < n; ++v) {
    std::uint64_t next = 0;
    for (std::uint64_t e = g.offsets_[v]; e < g.offsets_[v + 1]; ++e) {
      if (g.targets_[e] < next || g.targets_[e] >= n) {
        fail("csr row is not ascending ids below n");
      }
      next = std::uint64_t{g.targets_[e]} + 1;
    }
  }

  // --- optional sections -----------------------------------------------------
  if (const GsbgSection* bitmap = find(SectionKind::kBitmap)) {
    g.words_per_row_ = bits::DynamicBitset::word_count(n);
    if (bitmap->size != n * g.words_per_row_ * sizeof(std::uint64_t)) {
      fail("bitmap section has wrong size");
    }
    g.bitmap_ = reinterpret_cast<const std::uint64_t*>(section_span(*bitmap));
    // The bit-string kernels rely on the writer's invariant that bits at
    // positions >= n in each row's last word are zero; a violated row
    // would silently corrupt every AND/any-bit test that touches it, so
    // check it here (O(n) reads) rather than trusting the (optional)
    // checksum pass.
    if (n % 64 != 0) {
      const std::uint64_t pad_mask = ~((std::uint64_t{1} << (n % 64)) - 1);
      for (std::uint64_t v = 0; v < n; ++v) {
        if ((g.bitmap_[(v + 1) * g.words_per_row_ - 1] & pad_mask) != 0) {
          fail("bitmap row has padding bits set (corrupt)");
        }
      }
    }
  }
  const GsbgSection* wah_offsets = find(SectionKind::kWahOffsets);
  const GsbgSection* wah_words = find(SectionKind::kWahWords);
  if ((wah_offsets == nullptr) != (wah_words == nullptr)) {
    fail("wah sections must appear together");
  }
  if (wah_offsets != nullptr) {
    if (wah_offsets->size != (n + 1) * sizeof(std::uint64_t)) {
      fail("wah offsets section has wrong size");
    }
    g.wah_offsets_ = {
        reinterpret_cast<const std::uint64_t*>(section_span(*wah_offsets)),
        static_cast<std::size_t>(n + 1)};
    if (g.wah_offsets_.back() * sizeof(std::uint32_t) != wah_words->size) {
      fail("wah words section disagrees with its offsets");
    }
    for (std::uint64_t v = 0; v < n; ++v) {
      if (g.wah_offsets_[v + 1] < g.wah_offsets_[v]) {
        fail("wah offsets not monotone");
      }
    }
    g.wah_words_ = {
        reinterpret_cast<const std::uint32_t*>(section_span(*wah_words)),
        static_cast<std::size_t>(g.wah_offsets_.back())};
  }
  if (const GsbgSection* perm = find(SectionKind::kPermutation)) {
    if (perm->size != n * sizeof(std::uint32_t)) {
      fail("permutation section has wrong size");
    }
    g.permutation_ = {
        reinterpret_cast<const std::uint32_t*>(section_span(*perm)),
        static_cast<std::size_t>(n)};
    // Content check: entries feed indexing (original_id, inverse tables),
    // so a corrupt section must not pass as a valid bijection on [0, n).
    std::vector<bool> seen(n, false);
    for (const std::uint32_t original : g.permutation_) {
      if (original >= n || seen[original]) {
        fail("permutation section is not a bijection");
      }
      seen[original] = true;
    }
  }
  if (g.degree_sorted() && g.permutation_.empty()) {
    fail("degree-sorted flag without permutation section");
  }

  if (options.verify_checksum) g.verify_checksum();
  return g;
}

double MappedGraph::density() const noexcept {
  const double n = static_cast<double>(order());
  if (n < 2) return 0.0;
  return static_cast<double>(num_edges()) / (n * (n - 1.0) / 2.0);
}

graph::GraphView MappedGraph::view() const {
  if (!has_bitmap()) {
    fail("file has no bitmap section; use load() or rewrite with bitmap");
  }
  return graph::GraphView(bitmap_, words_per_row_, order(), num_edges(),
                          degrees_.data(), offsets_.data(), targets_.data());
}

graph::Graph MappedGraph::load() const {
  graph::Graph g(order());
  const std::uint64_t n = header_.n;
  for (std::uint64_t v = 0; v < n; ++v) {
    for (const std::uint32_t u : csr_row(static_cast<graph::VertexId>(v))) {
      if (u > v) g.add_edge(static_cast<graph::VertexId>(v), u);
    }
  }
  if (g.num_edges() != num_edges()) {
    fail("csr edge count disagrees with header");
  }
  return g;
}

bits::WahBitset MappedGraph::wah_row(graph::VertexId v) const {
  if (!has_wah()) fail("file has no WAH sections");
  const auto row = wah_words_.subspan(
      wah_offsets_[v], wah_offsets_[v + 1] - wah_offsets_[v]);
  // The decode loops trust the words to cover exactly ceil(n/31) groups;
  // verify before handing file data to them (O(row words), negligible
  // against the decompression itself).
  if (!bits::WahBitset::words_cover(row, order())) {
    fail("wah row is corrupt (group count mismatch)");
  }
  return bits::WahBitset::from_words(row, order());
}

void MappedGraph::verify_checksum() const {
  Fnv1a sum;
  sum.update(base_ + kHeaderBytes, map_bytes_ - kHeaderBytes);
  if (sum.digest() != header_.checksum) {
    fail("checksum mismatch (file corrupt or truncated)");
  }
}

}  // namespace gsb::storage
