// Tests for the out-of-core storage engine: .gsbg round-trips, corruption
// rejection, and — the load-bearing guarantee — byte-identical clique /
// paraclique results between the in-memory path and the memory-mapped path.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/hubs.h"
#include "analysis/paraclique.h"
#include "core/maximum_clique.h"
#include "graph/graph_view.h"
#include "graph/transforms.h"
#include "storage/gsbg_format.h"
#include "storage/gsbg_writer.h"
#include "storage/mapped_graph.h"
#include "test_helpers.h"

namespace gsb {
namespace {

namespace fs = std::filesystem;

/// Unique scratch file removed at scope exit.
class TempFile {
 public:
  explicit TempFile(const std::string& stem) {
    static int counter = 0;
    path_ = (fs::temp_directory_path() /
             (stem + "_" + std::to_string(::getpid()) + "_" +
              std::to_string(counter++) + ".gsbg"))
                .string();
  }
  ~TempFile() {
    std::error_code ec;
    fs::remove(path_, ec);
  }
  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
};

void expect_same_adjacency(const graph::GraphView& a,
                           const graph::GraphView& b) {
  ASSERT_EQ(a.order(), b.order());
  EXPECT_EQ(a.num_edges(), b.num_edges());
  for (graph::VertexId v = 0; v < a.order(); ++v) {
    ASSERT_EQ(a.degree(v), b.degree(v)) << "degree mismatch at " << v;
    ASSERT_TRUE(a.neighbors(v) == b.neighbors(v)) << "row mismatch at " << v;
  }
}

TEST(GsbgRoundTrip, PropertyOverSeededGnp) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const std::size_t n = 20 + (seed * 13) % 90;
    const double p = 0.05 + 0.02 * static_cast<double>(seed % 10);
    const graph::Graph g = test::random_graph(n, p, seed);

    TempFile file("roundtrip");
    storage::write_gsbg_file(g, file.path());
    storage::MappedGraph::Options verify;
    verify.verify_checksum = true;
    const auto mapped = storage::MappedGraph::open(file.path(), verify);

    ASSERT_EQ(mapped.order(), g.order());
    ASSERT_EQ(mapped.num_edges(), g.num_edges());
    expect_same_adjacency(mapped.view(), g);
    EXPECT_TRUE(mapped.load() == g) << "seed " << seed;

    // CSR rows are the sorted neighbor lists.
    for (graph::VertexId v = 0; v < g.order(); ++v) {
      const auto row = mapped.csr_row(v);
      const auto expected = g.neighbor_list(v);
      ASSERT_EQ(std::vector<std::uint32_t>(row.begin(), row.end()), expected);
    }
  }
}

TEST(GsbgRoundTrip, WahSectionMatchesBitmapRows) {
  const graph::Graph g = test::random_graph(150, 0.03, 99);
  TempFile file("wah");
  storage::GsbgWriteOptions options;
  options.wah = true;
  storage::write_gsbg_file(g, file.path(), options);
  const auto mapped = storage::MappedGraph::open(file.path());
  ASSERT_TRUE(mapped.has_wah());
  for (graph::VertexId v = 0; v < g.order(); ++v) {
    EXPECT_TRUE(mapped.wah_row(v).decompress() == g.neighbors(v));
  }
}

TEST(GsbgRoundTrip, NoBitmapFileLoadsButDoesNotMap) {
  const graph::Graph g = test::random_graph(60, 0.1, 5);
  TempFile file("nobitmap");
  storage::GsbgWriteOptions options;
  options.bitmap = false;
  storage::write_gsbg_file(g, file.path(), options);
  const auto mapped = storage::MappedGraph::open(file.path());
  EXPECT_FALSE(mapped.has_bitmap());
  EXPECT_THROW(mapped.view(), std::runtime_error);
  EXPECT_TRUE(mapped.load() == g);
}

TEST(GsbgRoundTrip, DegreeSortedStoresPermutationAndRelabels) {
  const graph::Graph g = test::random_graph(80, 0.08, 12);
  TempFile file("degsort");
  storage::GsbgWriteOptions options;
  options.degree_sort = true;
  storage::write_gsbg_file(g, file.path(), options);
  const auto mapped = storage::MappedGraph::open(file.path());
  ASSERT_TRUE(mapped.degree_sorted());
  const auto perm = mapped.permutation();
  ASSERT_EQ(perm.size(), g.order());

  // Degrees are non-increasing in storage order.
  for (std::size_t v = 0; v + 1 < mapped.order(); ++v) {
    EXPECT_GE(mapped.degree(static_cast<graph::VertexId>(v)),
              mapped.degree(static_cast<graph::VertexId>(v + 1)));
  }
  // Stored graph is exactly relabel(g, perm).
  const graph::Graph relabeled = graph::relabel(
      g, std::vector<graph::VertexId>(perm.begin(), perm.end()));
  EXPECT_TRUE(mapped.load() == relabeled);
}

// --- corruption rejection ----------------------------------------------------

std::vector<char> slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), {}};
}

void dump(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

class GsbgReject : public ::testing::Test {
 protected:
  void SetUp() override {
    graph::Graph g = test::random_graph(50, 0.1, 3);
    file_ = std::make_unique<TempFile>("reject");
    storage::write_gsbg_file(g, file_->path());
    bytes_ = slurp(file_->path());
    ASSERT_GT(bytes_.size(), storage::kHeaderBytes);
  }

  void expect_rejected(const std::vector<char>& bytes) {
    dump(file_->path(), bytes);
    storage::MappedGraph::Options verify;
    verify.verify_checksum = true;
    EXPECT_THROW(storage::MappedGraph::open(file_->path(), verify),
                 std::runtime_error);
  }

  std::unique_ptr<TempFile> file_;
  std::vector<char> bytes_;
};

TEST_F(GsbgReject, TruncatedFiles) {
  // Mid-header, mid-section-table, and mid-payload truncations.
  for (const std::size_t keep :
       {std::size_t{10}, storage::kHeaderBytes + 8, bytes_.size() / 2,
        bytes_.size() - 1}) {
    expect_rejected(std::vector<char>(bytes_.begin(),
                                      bytes_.begin() +
                                          static_cast<std::ptrdiff_t>(keep)));
  }
}

TEST_F(GsbgReject, BadMagic) {
  auto bytes = bytes_;
  bytes[0] = 'X';
  expect_rejected(bytes);
}

TEST_F(GsbgReject, WrongVersion) {
  auto bytes = bytes_;
  bytes[8] = 99;  // version field low byte
  expect_rejected(bytes);
}

TEST_F(GsbgReject, ChecksumMismatch) {
  auto bytes = bytes_;
  bytes.back() = static_cast<char>(bytes.back() ^ 0x40);  // flip payload bit
  expect_rejected(bytes);
}

TEST_F(GsbgReject, BitmapPaddingBitsRejectedOnPlainOpen) {
  // Padding bits beyond n in a row's last word violate the invariant the
  // bit-string kernels rely on; this must be caught even without the
  // checksum pass (plain open).
  auto bytes = bytes_;
  std::uint64_t n = 0;
  std::uint64_t section_count = 0;
  std::memcpy(&n, bytes.data() + 16, 8);
  std::memcpy(&section_count, bytes.data() + 40, 8);
  ASSERT_NE(n % 64, 0u);
  bool patched = false;
  for (std::uint64_t i = 0; i < section_count; ++i) {
    const std::size_t base = storage::kHeaderBytes +
                             static_cast<std::size_t>(i) *
                                 storage::kSectionEntryBytes;
    std::uint32_t kind = 0;
    std::uint64_t offset = 0;
    std::memcpy(&kind, bytes.data() + base, 4);
    std::memcpy(&offset, bytes.data() + base + 8, 8);
    if (static_cast<storage::SectionKind>(kind) ==
        storage::SectionKind::kBitmap) {
      const std::size_t wpr = (n + 63) / 64;
      const std::size_t last_word = offset + (wpr - 1) * 8;
      bytes[last_word + 7] = static_cast<char>(
          static_cast<unsigned char>(bytes[last_word + 7]) | 0x80u);
      patched = true;
    }
  }
  ASSERT_TRUE(patched);
  dump(file_->path(), bytes);
  EXPECT_THROW(storage::MappedGraph::open(file_->path()),
               std::runtime_error);
}

/// Byte offset of the first section of \p kind in a .gsbg image.
std::size_t section_offset(const std::vector<char>& bytes,
                           storage::SectionKind kind) {
  std::uint64_t section_count = 0;
  std::memcpy(&section_count, bytes.data() + 40, 8);
  for (std::uint64_t i = 0; i < section_count; ++i) {
    const std::size_t base = storage::kHeaderBytes +
                             static_cast<std::size_t>(i) *
                                 storage::kSectionEntryBytes;
    std::uint32_t entry_kind = 0;
    std::uint64_t offset = 0;
    std::memcpy(&entry_kind, bytes.data() + base, 4);
    std::memcpy(&offset, bytes.data() + base + 8, 8);
    if (static_cast<storage::SectionKind>(entry_kind) == kind) {
      return static_cast<std::size_t>(offset);
    }
  }
  ADD_FAILURE() << "no section of kind " << static_cast<int>(kind);
  return 0;
}

TEST_F(GsbgReject, CsrRowsMustBeAscendingIdsBelowN) {
  // GraphView::for_each_neighbor walks CSR rows into vertex-indexed
  // arrays, so a row out of order or naming a vertex >= n must be caught
  // on a plain open, without the checksum pass.
  const std::size_t offsets =
      section_offset(bytes_, storage::SectionKind::kCsrOffsets);
  const std::size_t targets =
      section_offset(bytes_, storage::SectionKind::kCsrTargets);
  std::uint64_t n = 0;
  std::memcpy(&n, bytes_.data() + 16, 8);
  std::uint64_t row = 0;
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
  for (; row < n; ++row) {
    std::memcpy(&begin, bytes_.data() + offsets + row * 8, 8);
    std::memcpy(&end, bytes_.data() + offsets + (row + 1) * 8, 8);
    if (end - begin >= 2) break;
  }
  ASSERT_LT(row, n) << "fixture needs a vertex of degree >= 2";
  const std::size_t first = targets + static_cast<std::size_t>(begin) * 4;

  auto swapped = bytes_;
  std::swap_ranges(swapped.begin() + static_cast<std::ptrdiff_t>(first),
                   swapped.begin() + static_cast<std::ptrdiff_t>(first + 4),
                   swapped.begin() + static_cast<std::ptrdiff_t>(first + 4));
  dump(file_->path(), swapped);
  EXPECT_THROW(storage::MappedGraph::open(file_->path()), std::runtime_error);

  auto out_of_range = bytes_;
  const auto bogus = static_cast<std::uint32_t>(n);
  std::memcpy(out_of_range.data() + first + 4, &bogus, 4);
  dump(file_->path(), out_of_range);
  EXPECT_THROW(storage::MappedGraph::open(file_->path()), std::runtime_error);

  dump(file_->path(), bytes_);
  EXPECT_NO_THROW(storage::MappedGraph::open(file_->path()));
}

TEST_F(GsbgReject, SectionOutOfBounds) {
  auto bytes = bytes_;
  // First section entry's offset field is at header + 8; point it past EOF.
  const std::uint64_t bogus = bytes.size() + storage::kSectionAlign;
  std::memcpy(bytes.data() + storage::kHeaderBytes + 8, &bogus, 8);
  expect_rejected(bytes);
}

TEST(GsbgRejectContent, CorruptPermutationEntryRejected) {
  const graph::Graph g = test::random_graph(40, 0.1, 8);
  TempFile file("permreject");
  storage::GsbgWriteOptions options;
  options.degree_sort = true;
  storage::write_gsbg_file(g, file.path(), options);

  auto bytes = slurp(file.path());
  std::uint64_t section_count = 0;
  std::memcpy(&section_count, bytes.data() + 40, 8);
  for (std::uint64_t i = 0; i < section_count; ++i) {
    const std::size_t base = storage::kHeaderBytes +
                             static_cast<std::size_t>(i) *
                                 storage::kSectionEntryBytes;
    std::uint32_t kind = 0;
    std::uint64_t offset = 0;
    std::memcpy(&kind, bytes.data() + base, 4);
    std::memcpy(&offset, bytes.data() + base + 8, 8);
    if (static_cast<storage::SectionKind>(kind) ==
        storage::SectionKind::kPermutation) {
      const std::uint32_t bogus = 0xFFFFFFFFu;  // >= n: not a bijection
      std::memcpy(bytes.data() + offset, &bogus, 4);
    }
  }
  dump(file.path(), bytes);
  EXPECT_THROW(storage::MappedGraph::open(file.path()), std::runtime_error);
}

// --- mmap vs in-memory identity ---------------------------------------------

TEST(MappedIdentity, CliquesAndParacliquesMatchInMemoryOn20Graphs) {
  for (std::uint64_t seed = 100; seed < 120; ++seed) {
    const std::size_t n = 30 + (seed % 5) * 17;
    const graph::Graph g = test::random_graph(n, 0.25, seed);
    TempFile file("identity");
    storage::write_gsbg_file(g, file.path());
    const auto mapped = storage::MappedGraph::open(file.path());
    const graph::GraphView view = mapped.view();

    // Sequential enumerator, parallel enumerator, maximum clique,
    // paraclique extraction, hub ranking: all must be byte-identical.
    core::CliqueEnumeratorOptions seq;
    seq.range = {3, 0};
    core::CliqueCollector from_memory;
    core::CliqueCollector from_disk;
    core::enumerate_maximal_cliques(g, from_memory.callback(), seq);
    core::enumerate_maximal_cliques(view, from_disk.callback(), seq);
    ASSERT_EQ(from_memory.cliques(), from_disk.cliques()) << "seed " << seed;

    core::ParallelOptions par;
    par.threads = 2;
    core::CliqueCollector par_disk;
    core::enumerate_maximal_cliques_parallel(view, par_disk.callback(), par);
    ASSERT_EQ(core::normalize(std::move(from_memory.cliques())),
              core::normalize(std::move(par_disk.cliques())));

    ASSERT_EQ(core::maximum_clique(g).clique,
              core::maximum_clique(view).clique);

    const auto para_memory = analysis::extract_all_paracliques(g, 4, {});
    const auto para_disk = analysis::extract_all_paracliques(view, 4, {});
    ASSERT_EQ(para_memory.size(), para_disk.size());
    for (std::size_t i = 0; i < para_memory.size(); ++i) {
      ASSERT_EQ(para_memory[i].members, para_disk[i].members);
    }

    const auto hubs_memory = analysis::top_hubs(g, std::vector<core::Clique>{}, 5);
    const auto hubs_disk = analysis::top_hubs(view, std::vector<core::Clique>{}, 5);
    ASSERT_EQ(hubs_memory.size(), hubs_disk.size());
    for (std::size_t i = 0; i < hubs_memory.size(); ++i) {
      ASSERT_EQ(hubs_memory[i].vertex, hubs_disk[i].vertex);
      ASSERT_EQ(hubs_memory[i].degree, hubs_disk[i].degree);
    }
  }
}

}  // namespace
}  // namespace gsb
