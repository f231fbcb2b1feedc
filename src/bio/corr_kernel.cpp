#include "bio/corr_kernel.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <stdexcept>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

#include "obs/metrics.h"
#include "parallel/job_graph.h"

namespace gsb::bio {
namespace {

/// Packed-panel columns per register tile: one cache line of doubles.
constexpr std::size_t kPackJ = 8;

// The register-tiled micro kernel exists in three flavors sharing one
// body: a portable scalar fallback, an explicit 128-bit vector version
// (SSE2 / NEON — two lanes per register, sixteen independent chains), and
// a 256-bit AVX version selected at runtime on x86-64.  The explicit
// vector form matters: left to itself the autovectorizer turns the k loop
// into an in-order vectorized reduction (it may not reassociate the adds),
// which runs at half the speed of vectorizing *across* columns.  Every
// flavor accumulates each (row, column) pair in ascending k with one
// accumulator lane — the exact profile_dot order — so all three produce
// bit-identical results on every ISA.
#if defined(__GNUC__) || defined(__clang__)
#define GSB_CORR_VECTOR_KERNEL 1
#endif

#if defined(GSB_CORR_VECTOR_KERNEL)

using V2df = double __attribute__((vector_size(16)));
using V4df = double __attribute__((vector_size(32)));

/// Computes kIRows consecutive output rows against the packed panel with
/// kPackJ accumulator lanes of type Vec per row.  Lane (r, j0 + w * lanes
/// + l) folds a_r[k] * b[k] in ascending k — profile_dot's order — and
/// lanes never mix, so the result is independent of the vector width.
template <std::size_t kIRows, typename Vec>
__attribute__((always_inline)) inline void panel_rows(
    const double* a, std::size_t a_stride, const double* bt, std::size_t ldb,
    std::size_t samples, std::size_t b_count, double* out,
    std::size_t out_stride) {
  constexpr std::size_t kLanes = sizeof(Vec) / sizeof(double);
  constexpr std::size_t kVecs = kPackJ / kLanes;
  const std::size_t j_full = b_count / kPackJ * kPackJ;
  for (std::size_t j0 = 0; j0 < b_count; j0 += kPackJ) {
    Vec acc[kIRows][kVecs] = {};
    const double* panel = bt + j0;
    for (std::size_t k = 0; k < samples; ++k) {
      const double* b = panel + k * ldb;
      Vec bv[kVecs];
      for (std::size_t w = 0; w < kVecs; ++w) {
        std::memcpy(&bv[w], b + w * kLanes, sizeof(Vec));
      }
      for (std::size_t r = 0; r < kIRows; ++r) {
        const double av = a[r * a_stride + k];  // broadcast over each lane
        for (std::size_t w = 0; w < kVecs; ++w) acc[r][w] += bv[w] * av;
      }
    }
    if (j0 < j_full) {
      for (std::size_t r = 0; r < kIRows; ++r) {
        for (std::size_t w = 0; w < kVecs; ++w) {
          std::memcpy(out + r * out_stride + j0 + w * kLanes, &acc[r][w],
                      sizeof(Vec));
        }
      }
    } else {
      // Ragged tail tile: spill the full tile, copy the live columns.
      const std::size_t jn = b_count - j0;
      double tail[kPackJ];
      for (std::size_t r = 0; r < kIRows; ++r) {
        for (std::size_t w = 0; w < kVecs; ++w) {
          std::memcpy(tail + w * kLanes, &acc[r][w], sizeof(Vec));
        }
        for (std::size_t t = 0; t < jn; ++t) {
          out[r * out_stride + j0 + t] = tail[t];
        }
      }
    }
  }
}

void compute_block_v128(const double* a_rows, std::size_t a_count,
                        std::size_t a_stride, const double* bt,
                        std::size_t ldb, std::size_t samples,
                        std::size_t b_count, double* out,
                        std::size_t out_stride) {
  std::size_t i = 0;
  for (; i + 2 <= a_count; i += 2) {
    panel_rows<2, V2df>(a_rows + i * a_stride, a_stride, bt, ldb, samples,
                        b_count, out + i * out_stride, out_stride);
  }
  if (i < a_count) {
    panel_rows<1, V2df>(a_rows + i * a_stride, a_stride, bt, ldb, samples,
                        b_count, out + i * out_stride, out_stride);
  }
}

#if defined(__x86_64__) || defined(__i386__)
#define GSB_CORR_AVX_KERNEL 1
/// 256-bit variant: four A rows in flight, eight ymm accumulators.  No
/// FMA even on machines that have it — fusing would round differently
/// from the scalar reference and break the bitwise contract.
__attribute__((target("avx"))) void compute_block_avx(
    const double* a_rows, std::size_t a_count, std::size_t a_stride,
    const double* bt, std::size_t ldb, std::size_t samples,
    std::size_t b_count, double* out, std::size_t out_stride) {
  std::size_t i = 0;
  for (; i + 4 <= a_count; i += 4) {
    panel_rows<4, V4df>(a_rows + i * a_stride, a_stride, bt, ldb, samples,
                        b_count, out + i * out_stride, out_stride);
  }
  for (; i + 2 <= a_count; i += 2) {
    panel_rows<2, V4df>(a_rows + i * a_stride, a_stride, bt, ldb, samples,
                        b_count, out + i * out_stride, out_stride);
  }
  if (i < a_count) {
    panel_rows<1, V4df>(a_rows + i * a_stride, a_stride, bt, ldb, samples,
                        b_count, out + i * out_stride, out_stride);
  }
}
#endif  // x86

#else  // !GSB_CORR_VECTOR_KERNEL

/// Portable fallback for compilers without GNU vector extensions.
template <std::size_t kIRows>
void micro_panel_scalar(const double* a, std::size_t a_stride,
                        const double* bt, std::size_t ldb,
                        std::size_t samples, std::size_t b_count, double* out,
                        std::size_t out_stride) {
  for (std::size_t j0 = 0; j0 < b_count; j0 += kPackJ) {
    double acc[kIRows][kPackJ] = {};
    const double* panel = bt + j0;
    for (std::size_t k = 0; k < samples; ++k) {
      const double* b = panel + k * ldb;
      for (std::size_t r = 0; r < kIRows; ++r) {
        const double av = a[r * a_stride + k];
        for (std::size_t t = 0; t < kPackJ; ++t) acc[r][t] += av * b[t];
      }
    }
    const std::size_t jn = std::min(kPackJ, b_count - j0);
    for (std::size_t r = 0; r < kIRows; ++r) {
      for (std::size_t t = 0; t < jn; ++t) {
        out[r * out_stride + j0 + t] = acc[r][t];
      }
    }
  }
}

void compute_block_scalar(const double* a_rows, std::size_t a_count,
                          std::size_t a_stride, const double* bt,
                          std::size_t ldb, std::size_t samples,
                          std::size_t b_count, double* out,
                          std::size_t out_stride) {
  std::size_t i = 0;
  for (; i + 2 <= a_count; i += 2) {
    micro_panel_scalar<2>(a_rows + i * a_stride, a_stride, bt, ldb, samples,
                          b_count, out + i * out_stride, out_stride);
  }
  if (i < a_count) {
    micro_panel_scalar<1>(a_rows + i * a_stride, a_stride, bt, ldb, samples,
                          b_count, out + i * out_stride, out_stride);
  }
}

#endif  // GSB_CORR_VECTOR_KERNEL

// ---------------------------------------------------------------------------
// Exact integer kernel for the Spearman sweep, over RankRows' tiled panel.
// A pmaddwd of a broadcast (a_i[2p], a_i[2p+1]) pair against half a tile
// line yields a_i·b_j over that sample pair for eight rows j at once.
// Integer addition is associative, so the order of the sums is free and
// every flavour returns the same exact dot products.

constexpr std::size_t kRankTile = RankRows::kTile;

/// Where row g's pair 0 sits; its pair p is kRankTile int32 further on.
const std::int32_t* rank_row(const RankRows& ranks, std::size_t g) {
  return ranks.pair_data() + (g / kRankTile) * ranks.pairs() * kRankTile +
         g % kRankTile;
}

/// Copies the columns [j0, j0 + cj) that B tile t holds from its dot
/// products \p tile (kRankTile of them) into \p out, whose column 0 is
/// row j0.
void store_tile_columns(const std::int32_t* tile, std::size_t t,
                        std::size_t j0, std::size_t cj, std::int32_t* out) {
  const std::size_t first = std::max(j0, t * kRankTile);
  const std::size_t last = std::min(j0 + cj, (t + 1) * kRankTile);
  std::memcpy(out + (first - j0), tile + (first - t * kRankTile),
              (last - first) * sizeof(std::int32_t));
}

#if defined(__x86_64__) || defined(__i386__)
#define GSB_RANK_AVX2_KERNEL 1
/// kIRows A rows against each B tile covering [j0, j0 + cj): 2·kIRows
/// ymm accumulators, two tile-line loads and kIRows broadcasts per sample
/// pair.
template <std::size_t kIRows>
__attribute__((target("avx2"))) inline void rank_rows_avx2(
    const RankRows& ranks, const std::int32_t* const* a, std::size_t j0,
    std::size_t cj, std::int32_t* out, std::size_t out_stride) {
  const std::size_t pairs = ranks.pairs();
  for (std::size_t t = j0 / kRankTile; t * kRankTile < j0 + cj; ++t) {
    __m256i acc[kIRows][2];
    for (std::size_t r = 0; r < kIRows; ++r) {
      acc[r][0] = _mm256_setzero_si256();
      acc[r][1] = _mm256_setzero_si256();
    }
    const std::int32_t* tile = ranks.pair_data() + t * pairs * kRankTile;
    for (std::size_t p = 0; p < pairs; ++p) {
      const auto* b = reinterpret_cast<const __m256i*>(tile + p * kRankTile);
      const __m256i b0 = _mm256_load_si256(b);
      const __m256i b1 = _mm256_load_si256(b + 1);
      for (std::size_t r = 0; r < kIRows; ++r) {
        const __m256i av = _mm256_set1_epi32(a[r][p * kRankTile]);
        acc[r][0] = _mm256_add_epi32(acc[r][0], _mm256_madd_epi16(av, b0));
        acc[r][1] = _mm256_add_epi32(acc[r][1], _mm256_madd_epi16(av, b1));
      }
    }
    for (std::size_t r = 0; r < kIRows; ++r) {
      alignas(32) std::int32_t dots[kRankTile];
      _mm256_store_si256(reinterpret_cast<__m256i*>(dots), acc[r][0]);
      _mm256_store_si256(reinterpret_cast<__m256i*>(dots + 8), acc[r][1]);
      store_tile_columns(dots, t, j0, cj, out + r * out_stride);
    }
  }
}

__attribute__((target("avx2"))) void rank_block_avx2(
    const RankRows& ranks, std::size_t i0, std::size_t ci, std::size_t j0,
    std::size_t cj, std::int32_t* out, std::size_t out_stride) {
  constexpr std::size_t kIRows = 4;
  std::size_t i = 0;
  for (; i + kIRows <= ci; i += kIRows) {
    const std::int32_t* a[kIRows];
    for (std::size_t r = 0; r < kIRows; ++r) a[r] = rank_row(ranks, i0 + i + r);
    rank_rows_avx2<kIRows>(ranks, a, j0, cj, out + i * out_stride, out_stride);
  }
  for (; i < ci; ++i) {
    const std::int32_t* a[1] = {rank_row(ranks, i0 + i)};
    rank_rows_avx2<1>(ranks, a, j0, cj, out + i * out_stride, out_stride);
  }
}
#endif  // x86

/// Work item of a block-pair sweep: the A block at row i0 against the B
/// block at row j0.
struct BlockPair {
  std::size_t i0;
  std::size_t j0;
};

/// One thresholded pair, buffered until its block pair's turn to emit.
struct Hit {
  std::uint32_t u;
  std::uint32_t v;
  double corr;
};

/// The block pairs of a sweep in emission order (only the upper triangle
/// when \p diagonal), counted in the sweep metrics.
std::vector<BlockPair> block_pairs(std::size_t a_count, std::size_t b_count,
                                   std::size_t block, bool diagonal) {
  std::vector<BlockPair> tasks;
  for (std::size_t i0 = 0; i0 < a_count; i0 += block) {
    for (std::size_t j0 = diagonal ? i0 : 0; j0 < b_count; j0 += block) {
      tasks.push_back(BlockPair{i0, j0});
    }
  }
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  static const obs::Counter sweeps = registry.counter(
      "gsb_correlation_sweeps_total", "Blocked correlation sweeps run.");
  static const obs::Counter blocks = registry.counter(
      "gsb_correlation_blocks_total",
      "Correlation tile blocks computed across sweeps.");
  sweeps.inc();
  blocks.inc(tasks.size());
  return tasks;
}

/// Runs `scan(task, scratch, hits)` for every block pair and feeds each
/// pair's hits to the sink in task order.  On a pool the scans run as
/// scheduler jobs (work-stealing, per-worker Scratch) while ordered
/// completions replay each task's hits in task order, so the sink sees the
/// exact sequence of the sequential path.
template <typename Scratch, typename Scan>
void run_sweep(const std::vector<BlockPair>& tasks, par::ThreadPool* pool,
               const Scan& scan, const CorrEdgeSink& sink) {
  if (pool == nullptr || pool->size() <= 1 || tasks.size() <= 1) {
    Scratch scratch;
    std::vector<Hit> hits;
    for (const BlockPair& task : tasks) {
      hits.clear();
      scan(task, scratch, hits);
      for (const Hit& h : hits) sink(h.u, h.v, h.corr);
    }
    return;
  }
  par::JobGraph::Options graph_options;
  graph_options.ordered = true;
  par::JobGraph jobs(pool, graph_options);
  std::vector<Scratch> scratch(jobs.workers());
  std::vector<std::vector<Hit>> completed(tasks.size());
  for (std::size_t t = 0; t < tasks.size(); ++t) {
    par::JobGraph::JobSpec spec;
    spec.run = [&, t](std::size_t wid) {
      std::vector<Hit> hits;
      scan(tasks[t], scratch[wid], hits);
      jobs.set_bytes(static_cast<par::JobId>(t), hits.size() * sizeof(Hit));
      completed[t] = std::move(hits);
    };
    spec.complete = [&, t] {
      for (const Hit& h : completed[t]) sink(h.u, h.v, h.corr);
      completed[t] = {};
    };
    jobs.add(std::move(spec));
  }
  jobs.run();
}

}  // namespace

void rank_block_portable(const RankRows& ranks, std::size_t i0,
                         std::size_t ci, std::size_t j0, std::size_t cj,
                         std::int32_t* out, std::size_t out_stride) {
  const std::size_t pairs = ranks.pairs();
  for (std::size_t i = 0; i < ci; ++i) {
    const std::int32_t* a = rank_row(ranks, i0 + i);
    for (std::size_t j = 0; j < cj; ++j) {
      const std::int32_t* b = rank_row(ranks, j0 + j);
      std::int32_t total = 0;
      for (std::size_t p = 0; p < pairs; ++p) {
        std::int16_t x[2];
        std::int16_t y[2];
        std::memcpy(x, a + p * kRankTile, sizeof(x));
        std::memcpy(y, b + p * kRankTile, sizeof(y));
        total += std::int32_t{x[0]} * y[0] + std::int32_t{x[1]} * y[1];
      }
      out[i * out_stride + j] = total;
    }
  }
}

void rank_block(const RankRows& ranks, std::size_t i0, std::size_t ci,
                std::size_t j0, std::size_t cj, std::int32_t* out,
                std::size_t out_stride) {
  if (ci == 0 || cj == 0) return;
#if defined(GSB_RANK_AVX2_KERNEL)
  static const bool have_avx2 = __builtin_cpu_supports("avx2") != 0;
  if (have_avx2) {
    rank_block_avx2(ranks, i0, ci, j0, cj, out, out_stride);
    return;
  }
#endif
  rank_block_portable(ranks, i0, ci, j0, cj, out, out_stride);
}

void correlation_block(const double* a_rows, std::size_t a_count,
                       const double* b_rows, std::size_t b_count,
                       std::size_t samples, std::size_t a_stride,
                       std::size_t b_stride, double* out,
                       std::size_t out_stride, std::vector<double>& scratch) {
  if (a_count == 0 || b_count == 0) return;
  // Pack B transposed (sample-major) with the column count rounded up to a
  // whole register tile; pad columns stay zero so full-tile loads are safe.
  const std::size_t ldb = (b_count + kPackJ - 1) / kPackJ * kPackJ;
  scratch.resize(samples * ldb);
  if (ldb != b_count) {
    // Only the pad columns need zeroing; the live ones are overwritten by
    // the pack loop below (a full assign would double the packing
    // traffic on the hot path).
    for (std::size_t k = 0; k < samples; ++k) {
      double* pad = scratch.data() + k * ldb + b_count;
      std::fill(pad, pad + (ldb - b_count), 0.0);
    }
  }
  for (std::size_t j = 0; j < b_count; ++j) {
    const double* src = b_rows + j * b_stride;
    double* dst = scratch.data() + j;
    for (std::size_t k = 0; k < samples; ++k) dst[k * ldb] = src[k];
  }
#if defined(GSB_CORR_AVX_KERNEL)
  static const bool have_avx = __builtin_cpu_supports("avx") != 0;
  if (have_avx) {
    compute_block_avx(a_rows, a_count, a_stride, scratch.data(), ldb, samples,
                      b_count, out, out_stride);
    return;
  }
#endif
#if defined(GSB_CORR_VECTOR_KERNEL)
  compute_block_v128(a_rows, a_count, a_stride, scratch.data(), ldb, samples,
                     b_count, out, out_stride);
#else
  compute_block_scalar(a_rows, a_count, a_stride, scratch.data(), ldb,
                       samples, b_count, out, out_stride);
#endif
}

void correlation_cross(const AlignedRows& a, std::size_t a_count,
                       const unsigned char* a_valid, std::uint32_t a_first,
                       const AlignedRows& b, std::size_t b_count,
                       const unsigned char* b_valid, std::uint32_t b_first,
                       bool diagonal, double threshold,
                       const CorrSweepOptions& options,
                       const CorrEdgeSink& sink) {
  if (a_count == 0 || b_count == 0) return;
  if (a.samples() != b.samples()) {
    throw std::invalid_argument("correlation_cross: sample count mismatch");
  }
  const std::size_t samples = a.samples();
  const std::size_t block =
      options.block == 0 ? kDefaultCorrBlock : options.block;
  struct Scratch {
    std::vector<double> dense;
    std::vector<double> pack;
  };
  auto scan = [&](const BlockPair& task, Scratch& scratch,
                  std::vector<Hit>& hits) {
    const std::size_t ci = std::min(block, a_count - task.i0);
    const std::size_t cj = std::min(block, b_count - task.j0);
    scratch.dense.resize(ci * cj);
    correlation_block(a.row(task.i0), ci, b.row(task.j0), cj, samples,
                      a.stride(), b.stride(), scratch.dense.data(), cj,
                      scratch.pack);
    for (std::size_t i = 0; i < ci; ++i) {
      if (a_valid != nullptr && a_valid[task.i0 + i] == 0) continue;
      // On a diagonal block pair only pairs above the diagonal are new.
      std::size_t j = diagonal && task.j0 == task.i0 ? i + 1 : 0;
      const double* row = scratch.dense.data() + i * cj;
      for (; j < cj; ++j) {
        if (b_valid != nullptr && b_valid[task.j0 + j] == 0) continue;
        const double corr = row[j];
        if (std::fabs(corr) >= threshold) {
          hits.push_back(
              Hit{a_first + static_cast<std::uint32_t>(task.i0 + i),
                  b_first + static_cast<std::uint32_t>(task.j0 + j), corr});
        }
      }
    }
  };
  run_sweep<Scratch>(block_pairs(a_count, b_count, block, diagonal),
                     options.pool, scan, sink);
}

void correlation_self(const AlignedRows& rows, std::size_t count,
                      const unsigned char* valid, double threshold,
                      const CorrSweepOptions& options,
                      const CorrEdgeSink& sink) {
  correlation_cross(rows, count, valid, 0, rows, count, valid, 0,
                    /*diagonal=*/true, threshold, options, sink);
}

std::uint64_t rank_correlation_self(const StandardizedRows& rows,
                                    std::size_t count, double threshold,
                                    const CorrSweepOptions& options,
                                    const CorrEdgeSink& sink) {
  const RankRows& ranks = rows.ranks;
  if (ranks.empty()) {
    throw std::invalid_argument("rank_correlation_self: no rank profiles");
  }
  const std::size_t samples = rows.rows.samples();
  const std::size_t block =
      options.block == 0 ? kDefaultCorrBlock : options.block;
  const double lo = threshold - kRankBand;
  const double hi = threshold + kRankBand;
  std::atomic<std::uint64_t> band{0};
  struct Scratch {
    std::vector<std::int32_t> dense;
    std::vector<unsigned char> keep;
  };
  auto scan = [&](const BlockPair& task, Scratch& scratch,
                  std::vector<Hit>& hits) {
    const std::size_t ci = std::min(block, count - task.i0);
    const std::size_t cj = std::min(block, count - task.j0);
    scratch.dense.resize(ci * cj);
    scratch.keep.resize(cj);
    rank_block(ranks, task.i0, ci, task.j0, cj, scratch.dense.data(), cj);
    const double* inv_j = ranks.inv_data() + task.j0;
    std::uint64_t in_band = 0;
    for (std::size_t i = 0; i < ci; ++i) {
      const std::size_t gi = task.i0 + i;
      if (rows.valid[gi] == 0) continue;
      const double inv_i = ranks.inv(gi);
      const std::int32_t* dots = scratch.dense.data() + i * cj;
      // Branch-free first pass (it vectorizes): which pairs reach the
      // band.  A NaN threshold keeps none, as the double sweep emits none;
      // constant rows have inv 0.
      bool any = false;
      for (std::size_t j = 0; j < cj; ++j) {
        const double r =
            std::fabs(static_cast<double>(dots[j])) * inv_i * inv_j[j];
        scratch.keep[j] = r >= lo;
        any |= r >= lo;
      }
      if (!any) continue;
      // On a diagonal block pair only pairs above the diagonal are new.
      for (std::size_t j = task.j0 == task.i0 ? i + 1 : 0; j < cj; ++j) {
        const std::size_t gj = task.j0 + j;
        if (scratch.keep[j] == 0 || rows.valid[gj] == 0) continue;
        const double r =
            std::fabs(static_cast<double>(dots[j])) * inv_i * inv_j[j];
        double corr = dots[j] < 0 ? -r : r;
        if (!(r >= hi)) {
          // Too close to call from the integer side: take the double
          // sweep's own decision.
          ++in_band;
          corr = profile_dot(rows.rows.row(gi), rows.rows.row(gj), samples);
          if (!(std::fabs(corr) >= threshold)) continue;
        }
        hits.push_back(Hit{static_cast<std::uint32_t>(gi),
                           static_cast<std::uint32_t>(gj), corr});
      }
    }
    if (in_band != 0) band.fetch_add(in_band, std::memory_order_relaxed);
  };
  run_sweep<Scratch>(block_pairs(count, count, block, /*diagonal=*/true),
                     options.pool, scan, sink);
  return band.load();
}

StandardizedRows standardize_rows(const ExpressionMatrix& expression,
                                  CorrelationMethod method,
                                  par::ThreadPool* pool) {
  const std::size_t genes = expression.genes();
  const std::size_t samples = expression.samples();
  StandardizedRows out{AlignedRows(genes, samples),
                       std::vector<unsigned char>(genes, 0), RankRows()};
  if (method == CorrelationMethod::kSpearman && samples >= 1 &&
      samples <= kMaxRankSamples) {
    out.ranks = RankRows(genes, samples);
  }
  RankRows& ranks = out.ranks;
  constexpr std::size_t kGenesPerJob = 256;
  struct Scratch {
    StandardizeScratch standardize;
    std::vector<std::int16_t> lanes;
  };
  std::vector<Scratch> scratch(par::job_workers(pool));
  par::run_jobs(
      pool, (genes + kGenesPerJob - 1) / kGenesPerJob,
      [&](std::size_t job, std::size_t worker) {
        Scratch& s = scratch[worker];
        const std::size_t last = std::min(genes, (job + 1) * kGenesPerJob);
        for (std::size_t g = job * kGenesPerJob; g < last; ++g) {
          out.valid[g] = standardized_profile_into(expression.row(g), method,
                                                   out.rows.row(g),
                                                   s.standardize)
                             ? 1
                             : 0;
          if (ranks.empty()) continue;
          // s.standardize.ranks still holds this row's midranks:
          // half-integers whose doubled, centred value is an exact integer
          // in ±(S−1).
          s.lanes.assign(2 * ranks.pairs(), 0);
          const double centre = static_cast<double>(samples + 1);
          for (std::size_t k = 0; k < samples; ++k) {
            s.lanes[k] = static_cast<std::int16_t>(
                2.0 * s.standardize.ranks[k] - centre);
          }
          ranks.set_row(g, s.lanes.data());
        }
      });
  return out;
}

}  // namespace gsb::bio
