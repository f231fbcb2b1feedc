#include "bio/tiled_correlation.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <vector>

#include "bio/corr_kernel.h"
#include "obs/span.h"
#include "parallel/thread_pool.h"

namespace gsb::bio {
namespace {

using util::MemTag;

constexpr char kExpressionMagic[8] = {'G', 'S', 'B', 'X', 'P', 'R', '0', '1'};

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("tiled correlation: " + what);
}

std::ofstream open_out(const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) fail("cannot open '" + path + "' for writing");
  return out;
}

std::ifstream open_in(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) fail("cannot open '" + path + "' for reading");
  return in;
}

/// Scratch file that deletes itself on scope exit.
class ScratchFile {
 public:
  explicit ScratchFile(std::string path) : path_(std::move(path)) {}
  ~ScratchFile() {
    std::error_code ec;
    std::filesystem::remove(path_, ec);
  }
  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
};

/// One thresholded edge in the spill file.
struct SpillEdge {
  std::uint32_t u;
  std::uint32_t v;
};

/// RAII allocation recorded against two trackers: the builder's private one
/// (whose peak is the bounded-memory measurement the result reports) and
/// the caller's (process-wide accounting, whose peak is left untouched by
/// this builder's lifecycle).
class DualAlloc {
 public:
  DualAlloc(util::MemoryTracker& local, util::MemoryTracker& external,
            std::size_t bytes, MemTag tag) noexcept
      : local_(local), external_(external), bytes_(bytes), tag_(tag) {
    local_.allocate(bytes_, tag_);
    external_.allocate(bytes_, tag_);
  }
  DualAlloc(const DualAlloc&) = delete;
  DualAlloc& operator=(const DualAlloc&) = delete;
  ~DualAlloc() {
    local_.release(bytes_, tag_);
    external_.release(bytes_, tag_);
  }

 private:
  util::MemoryTracker& local_;
  util::MemoryTracker& external_;
  std::size_t bytes_;
  MemTag tag_;
};

}  // namespace

void MatrixRowSource::fetch(std::size_t first, std::size_t count,
                            double* out) const {
  for (std::size_t r = 0; r < count; ++r) {
    const auto row = matrix_.row(first + r);
    std::copy(row.begin(), row.end(), out + r * matrix_.samples());
  }
}

struct BinaryFileRowSource::Impl {
  mutable std::ifstream in;
};

BinaryFileRowSource::BinaryFileRowSource(const std::string& path)
    : impl_(std::make_unique<Impl>()) {
  impl_->in = open_in(path);
  char magic[8];
  std::uint64_t genes = 0;
  std::uint64_t samples = 0;
  impl_->in.read(magic, 8);
  impl_->in.read(reinterpret_cast<char*>(&genes), 8);
  impl_->in.read(reinterpret_cast<char*>(&samples), 8);
  if (!impl_->in || std::memcmp(magic, kExpressionMagic, 8) != 0) {
    fail("bad expression file '" + path + "'");
  }
  genes_ = genes;
  samples_ = samples;
}

BinaryFileRowSource::~BinaryFileRowSource() = default;

void BinaryFileRowSource::fetch(std::size_t first, std::size_t count,
                                double* out) const {
  const std::streamoff base = 24;
  impl_->in.seekg(base + static_cast<std::streamoff>(
                             first * samples_ * sizeof(double)));
  impl_->in.read(reinterpret_cast<char*>(out),
                 static_cast<std::streamsize>(count * samples_ *
                                              sizeof(double)));
  if (!impl_->in) fail("short read from expression file");
}

void write_expression_binary(const ExpressionMatrix& matrix,
                             const std::string& path) {
  auto out = open_out(path);
  out.write(kExpressionMagic, 8);
  const std::uint64_t genes = matrix.genes();
  const std::uint64_t samples = matrix.samples();
  out.write(reinterpret_cast<const char*>(&genes), 8);
  out.write(reinterpret_cast<const char*>(&samples), 8);
  for (std::size_t g = 0; g < matrix.genes(); ++g) {
    const auto row = matrix.row(g);
    out.write(reinterpret_cast<const char*>(row.data()),
              static_cast<std::streamsize>(row.size() * sizeof(double)));
  }
  if (!out) fail("write failed for '" + path + "'");
}

TiledCorrelationResult build_correlation_gsbg(
    const RowBlockSource& source, const std::string& out_path,
    const TiledCorrelationOptions& options) {
  obs::Span span(obs::TimelineEventKind::kStage, "bio.corr");
  const std::size_t n = source.genes();
  const std::size_t s = source.samples();
  const std::size_t tile = std::max<std::size_t>(options.tile_rows, 1);
  util::MemoryTracker& external = options.tracker != nullptr
                                      ? *options.tracker
                                      : util::global_memory_tracker();
  util::MemoryTracker tracker;  // private: its peak is the bounded-RSS proof

  TiledCorrelationResult result;
  result.genes = n;
  result.threshold_used = options.threshold;
  result.tiles = n == 0 ? 0 : (n + tile - 1) / tile;

  const std::string scratch_base =
      options.scratch_dir.empty()
          ? out_path
          : (std::filesystem::path(options.scratch_dir) /
             std::filesystem::path(out_path).filename())
                .string();
  ScratchFile std_file(scratch_base + ".std");
  ScratchFile edge_file(scratch_base + ".edges");

  // Validity of each profile (constant rows correlate with nothing); n
  // bytes resident, the same O(n) class as the CSR offsets.
  std::vector<unsigned char> valid(n, 0);
  DualAlloc valid_bytes(tracker, external, valid.capacity(),
                        MemTag::kScratch);

  // --- pass 1: standardized rows to scratch, one tile resident ------------
  {
    auto out = open_out(std_file.path());
    std::vector<double> block(tile * s);
    std::vector<double> standardized(s);
    DualAlloc block_bytes(
        tracker, external,
        (block.capacity() + standardized.capacity()) * sizeof(double),
        MemTag::kScratch);
    StandardizeScratch scratch;  // rank buffers reused across all rows
    for (std::size_t first = 0; first < n; first += tile) {
      const std::size_t count = std::min(tile, n - first);
      source.fetch(first, count, block.data());
      for (std::size_t r = 0; r < count; ++r) {
        valid[first + r] = standardized_profile_into(
                               std::span<const double>(block.data() + r * s,
                                                       s),
                               options.method, standardized.data(), scratch)
                               ? 1
                               : 0;
        out.write(reinterpret_cast<const char*>(standardized.data()),
                  static_cast<std::streamsize>(s * sizeof(double)));
      }
    }
    if (!out) fail("write failed for standardized scratch");
  }

  // --- pass 2: blocked tile x tile sweep, two tiles resident ----------------
  // The arithmetic runs through the shared blocked kernel; blocks are
  // dispatched over the thread pool and their edges reordered back into a
  // fixed sequence, so the spill file — and the final container — is
  // byte-identical at every thread count.
  std::uint64_t edges = 0;
  // Degrees stream out of the sweep itself (counting is order-free), so
  // the spill file is read once, for the scatter, instead of twice.
  std::vector<std::uint64_t> offsets(n + 1, 0);
  DualAlloc offsets_bytes(tracker, external,
                          offsets.capacity() * sizeof(std::uint64_t),
                          MemTag::kGraph);
  {
    auto std_in = open_in(std_file.path());
    auto read_tile = [&](std::size_t first, std::size_t count,
                         AlignedRows& dst) {
      std_in.seekg(static_cast<std::streamoff>(first * s * sizeof(double)));
      for (std::size_t r = 0; r < count; ++r) {
        std_in.read(reinterpret_cast<char*>(dst.row(r)),
                    static_cast<std::streamsize>(s * sizeof(double)));
      }
      if (!std_in) fail("short read from standardized scratch");
    };

    auto edges_out = open_out(edge_file.path());
    std::vector<SpillEdge> edge_buffer;
    edge_buffer.reserve(4096);
    DualAlloc edge_buffer_bytes(tracker, external,
                                edge_buffer.capacity() * sizeof(SpillEdge),
                                MemTag::kScratch);
    auto flush_edges = [&] {
      edges_out.write(reinterpret_cast<const char*>(edge_buffer.data()),
                      static_cast<std::streamsize>(edge_buffer.size() *
                                                   sizeof(SpillEdge)));
      edge_buffer.clear();
    };

    AlignedRows tile_a(tile, s);
    AlignedRows tile_b(tile, s);
    DualAlloc tiles_bytes(tracker, external, tile_a.bytes() + tile_b.bytes(),
                          MemTag::kScratch);

    const std::size_t threads = options.threads == 0
                                    ? par::ThreadPool::default_threads()
                                    : options.threads;
    std::optional<par::ThreadPool> pool;
    if (threads > 1 && n > 1) pool.emplace(threads);
    CorrSweepOptions sweep;
    sweep.block = options.block_rows;
    sweep.pool = pool ? &*pool : nullptr;
    const CorrEdgeSink sink = [&](std::uint32_t u, std::uint32_t v, double) {
      edge_buffer.push_back(SpillEdge{u, v});
      ++offsets[u + 1];
      ++offsets[v + 1];
      ++edges;
      if (edge_buffer.size() == edge_buffer.capacity()) flush_edges();
    };

    for (std::size_t fi = 0; fi < n; fi += tile) {
      const std::size_t ci = std::min(tile, n - fi);
      read_tile(fi, ci, tile_a);
      for (std::size_t fj = fi; fj < n; fj += tile) {
        const std::size_t cj = std::min(tile, n - fj);
        const AlignedRows* rows_b = &tile_a;
        if (fj != fi) {
          read_tile(fj, cj, tile_b);
          rows_b = &tile_b;
        }
        correlation_cross(tile_a, ci, valid.data() + fi,
                          static_cast<std::uint32_t>(fi), *rows_b, cj,
                          valid.data() + fj, static_cast<std::uint32_t>(fj),
                          /*diagonal=*/fj == fi, options.threshold, sweep,
                          sink);
      }
    }
    flush_edges();
    if (!edges_out) fail("write failed for edge spill");
  }
  result.edges = edges;

  // --- pass 3: spill -> CSR -> streaming .gsbg writer -----------------------
  // Degrees were counted in-flight above, so the spill is swept exactly
  // once here, for the scatter.
  {
    std::vector<std::uint32_t> targets(2 * edges);
    DualAlloc csr_bytes(tracker, external,
                        targets.capacity() * sizeof(std::uint32_t),
                        MemTag::kGraph);

    auto sweep_spill = [&](auto&& per_edge) {
      auto in = open_in(edge_file.path());
      std::vector<SpillEdge> buffer(4096);
      std::uint64_t remaining = edges;
      while (remaining > 0) {
        const std::size_t count =
            static_cast<std::size_t>(std::min<std::uint64_t>(buffer.size(),
                                                             remaining));
        in.read(reinterpret_cast<char*>(buffer.data()),
                static_cast<std::streamsize>(count * sizeof(SpillEdge)));
        if (!in) fail("short read from edge spill");
        for (std::size_t e = 0; e < count; ++e) per_edge(buffer[e]);
        remaining -= count;
      }
    };

    for (std::size_t v = 0; v < n; ++v) offsets[v + 1] += offsets[v];

    std::vector<std::uint64_t> cursor(offsets.begin(), offsets.end() - 1);
    DualAlloc cursor_bytes(tracker, external,
                           cursor.capacity() * sizeof(std::uint64_t),
                           MemTag::kScratch);
    sweep_spill([&](const SpillEdge& e) {
      targets[cursor[e.u]++] = e.v;
      targets[cursor[e.v]++] = e.u;
    });
    for (std::size_t v = 0; v < n; ++v) {
      std::sort(targets.begin() + static_cast<std::ptrdiff_t>(offsets[v]),
                targets.begin() + static_cast<std::ptrdiff_t>(offsets[v + 1]));
    }

    storage::write_gsbg_from_csr(n, offsets, targets, out_path,
                                 options.storage);
  }

  result.peak_tracked_bytes = tracker.peak();
  return result;
}

TiledCorrelationResult build_correlation_gsbg(
    const ExpressionMatrix& expression, const std::string& out_path,
    const TiledCorrelationOptions& options) {
  MatrixRowSource source(expression);
  return build_correlation_gsbg(source, out_path, options);
}

}  // namespace gsb::bio
