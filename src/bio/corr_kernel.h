#ifndef GSB_BIO_CORR_KERNEL_H
#define GSB_BIO_CORR_KERNEL_H

/// \file corr_kernel.h
/// The shared high-performance correlation kernel.
///
/// Both correlation builders — the in-memory one (bio/correlation.h) and
/// the tiled out-of-core one (bio/tiled_correlation.h) — spend their time
/// in the same place: all-pairs dot products of standardized expression
/// profiles, an O(genes² × samples) GEMM-shaped workload.  This header
/// provides the one kernel they both call:
///
///   * AlignedRows — standardized profiles stored row-major with each row
///     start 64-byte aligned and the row length padded to a multiple of
///     eight doubles (one cache line).  Padding is zero-filled so kernels
///     may read a full stride without changing any dot product.
///   * correlation_block — a cache-blocked, register-tiled dense block
///     product: packs the B rows into a transposed (sample-major) panel so
///     the inner loop is SIMD-friendly (contiguous loads, one broadcast),
///     and keeps eight independent accumulator chains per A row so the
///     floating-point latency chain of the naive scalar loop disappears.
///   * correlation_cross / correlation_self — block-pair sweeps that
///     run blocks as par::JobGraph jobs and emit thresholded edges through
///     the scheduler's ordered completions.
///   * RankRows / rank_block / rank_correlation_self — the in-memory
///     Spearman sweep on exact integers: doubled, centred midranks in
///     int16 lanes, dot products by pmaddwd, and a threshold decision that
///     defers to profile_dot inside a band of ±kRankBand, so it emits the
///     double sweep's pairs in the double sweep's order.
///
/// Determinism contract: for every pair (i, j) the kernel accumulates
/// a[k] * b[k] in ascending k with a single accumulator per pair — exactly
/// the order of the scalar reference profile_dot().  Vectorization happens
/// *across* pairs (independent accumulator chains in SIMD lanes), never
/// within one, so every produced correlation is bit-identical to the
/// scalar reference.  The sweep drivers additionally emit edges in a fixed
/// (block pair, i, j) order regardless of thread count or scheduling, so
/// edge sets — and anything built from them, including .gsbg containers —
/// are byte-identical across thread counts.

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <vector>

#include "bio/correlation.h"
#include "bio/expression.h"
#include "parallel/thread_pool.h"

namespace gsb::bio {

/// Default rows per cache block for the sweep drivers.  Two 128-row blocks
/// of 64–512 samples (128 KiB – 1 MiB of doubles) sit comfortably in L2
/// while each packed panel is reused across the whole opposing block.
inline constexpr std::size_t kDefaultCorrBlock = 128;

/// Row-major matrix of profiles with 64-byte-aligned, zero-padded rows —
/// the SoA layout the blocked kernel consumes.  stride() is samples()
/// rounded up to a whole cache line of doubles; the pad lanes are zero and
/// must stay zero (kernels may load them).
class AlignedRows {
 public:
  static constexpr std::size_t kAlignment = 64;  // bytes
  static constexpr std::size_t kAlignDoubles = kAlignment / sizeof(double);

  AlignedRows() = default;
  AlignedRows(std::size_t rows, std::size_t samples)
      : rows_(rows),
        samples_(samples),
        stride_((samples + kAlignDoubles - 1) / kAlignDoubles * kAlignDoubles) {
    const std::size_t total = rows_ * stride_ * sizeof(double);
    if (total == 0) return;
    data_.reset(static_cast<double*>(std::aligned_alloc(kAlignment, total)));
    if (data_ == nullptr) throw std::bad_alloc();
    std::fill_n(data_.get(), rows_ * stride_, 0.0);
  }

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t samples() const noexcept { return samples_; }
  /// Doubles between consecutive row starts (>= samples, multiple of 8).
  [[nodiscard]] std::size_t stride() const noexcept { return stride_; }
  /// Bytes owned by the backing allocation.
  [[nodiscard]] std::size_t bytes() const noexcept {
    return rows_ * stride_ * sizeof(double);
  }

  [[nodiscard]] double* row(std::size_t r) noexcept {
    return data_.get() + r * stride_;
  }
  [[nodiscard]] const double* row(std::size_t r) const noexcept {
    return data_.get() + r * stride_;
  }

 private:
  struct FreeDeleter {
    void operator()(double* p) const noexcept { std::free(p); }
  };

  std::size_t rows_ = 0;
  std::size_t samples_ = 0;
  std::size_t stride_ = 0;
  std::unique_ptr<double[], FreeDeleter> data_;
};

/// Largest sample count the exact integer Spearman sweep takes.  Doubled,
/// centred midranks 2·midrank − (S+1) are integers in ±(S−1), so they fit
/// int16, and a dot product of two rows — and every partial sum on the way
/// — is at most S·(S−1)² in magnitude, which fits int32 up to S = 1290
/// (1290·1289² = 2,143,362,090 < 2³¹).  Larger S keeps the double path.
inline constexpr std::size_t kMaxRankSamples = 1290;

/// Spearman profiles as exact integers, stored as the packed panel the
/// integer kernel reads.  Row g's value at sample k is 2·midrank − (S+1).
/// Every row sums to zero, so the dot product of two rows is exactly 4×
/// the centred-rank covariance, and ρ = dot / sqrt(ss_i · ss_j).
///
/// Samples go in pairs (2p, 2p+1), one int32 holding two int16 lanes in
/// memory order, and rows go in tiles of kTile: pair p of row g sits at
/// pair_data()[((g / kTile) · pairs() + p) · kTile + g % kTile].  One
/// 64-byte line thus holds pair p of a whole tile, which is both the panel
/// vector a pmaddwd multiplies and where a row's broadcast comes from.  Pad
/// samples (odd S) and pad rows (the last tile) are zero.
class RankRows {
 public:
  static constexpr std::size_t kTile = 16;  // rows per tile: one cache line

  RankRows() = default;
  RankRows(std::size_t rows, std::size_t samples)
      : pairs_((samples + 1) / 2),
        ss_(rows, 0),
        inv_(rows, 0.0) {
    const std::size_t total =
        (rows + kTile - 1) / kTile * pairs_ * kTile * sizeof(std::int32_t);
    if (total == 0) return;
    data_.reset(static_cast<std::int32_t*>(
        std::aligned_alloc(AlignedRows::kAlignment, total)));
    if (data_ == nullptr) throw std::bad_alloc();
    std::memset(data_.get(), 0, total);
  }

  [[nodiscard]] bool empty() const noexcept { return data_ == nullptr; }
  /// Sample pairs per row: ceil(samples / 2).
  [[nodiscard]] std::size_t pairs() const noexcept { return pairs_; }
  [[nodiscard]] const std::int32_t* pair_data() const noexcept {
    return data_.get();
  }

  /// Row g's value at sample k.
  [[nodiscard]] std::int16_t at(std::size_t g, std::size_t k) const noexcept {
    std::int16_t lanes[2];
    std::memcpy(lanes, pair_data() + offset(g, k / 2), sizeof(lanes));
    return lanes[k % 2];
  }
  /// Stores row g from \p lanes (2 · pairs() values, pad lane zero) and
  /// records its exact sum of squares.
  void set_row(std::size_t g, const std::int16_t* lanes) noexcept {
    std::int64_t ss = 0;
    for (std::size_t p = 0; p < pairs_; ++p) {
      std::int32_t pair;
      std::memcpy(&pair, lanes + 2 * p, sizeof(pair));
      data_[offset(g, p)] = pair;
      ss += std::int64_t{lanes[2 * p]} * lanes[2 * p] +
            std::int64_t{lanes[2 * p + 1]} * lanes[2 * p + 1];
    }
    ss_[g] = ss;
    inv_[g] = ss == 0 ? 0.0 : 1.0 / std::sqrt(static_cast<double>(ss));
  }

  /// Exact sum of squares of row g (0 for constant rows).
  [[nodiscard]] std::int64_t ss(std::size_t g) const noexcept { return ss_[g]; }
  /// 1 / sqrt(ss(g)) rounded to double (0 for constant rows).
  [[nodiscard]] double inv(std::size_t g) const noexcept { return inv_[g]; }
  [[nodiscard]] const double* inv_data() const noexcept { return inv_.data(); }

 private:
  struct FreeDeleter {
    void operator()(std::int32_t* p) const noexcept { std::free(p); }
  };

  [[nodiscard]] std::size_t offset(std::size_t g,
                                   std::size_t p) const noexcept {
    return ((g / kTile) * pairs_ + p) * kTile + g % kTile;
  }

  std::size_t pairs_ = 0;
  std::vector<std::int64_t> ss_;
  std::vector<double> inv_;
  std::unique_ptr<std::int32_t[], FreeDeleter> data_;
};

/// Standardized profiles plus per-row validity (false marks constant rows,
/// whose standardized profile is all-zero).
struct StandardizedRows {
  AlignedRows rows;
  std::vector<unsigned char> valid;
  /// The same profiles as exact integers; built for Spearman with
  /// 1 <= samples <= kMaxRankSamples, empty otherwise.
  RankRows ranks;
};

/// Standardizes every row of \p expression under \p method straight into
/// an aligned, padded row block (no per-row staging buffer; Spearman rank
/// scratch is reused across rows), and for Spearman fills `ranks` from the
/// same midranks.  Gene ranges run as one round of jobs on \p pool (null
/// = the calling thread); each row is computed by the same sequential code
/// either way, so the output is bit-identical at every thread count.
StandardizedRows standardize_rows(const ExpressionMatrix& expression,
                                  CorrelationMethod method,
                                  par::ThreadPool* pool = nullptr);

/// Dense block product: out[i * out_stride + j] = dot(a_i, b_j) over
/// \p samples entries, for i < a_count, j < b_count.  Rows are read at
/// \p a_stride / \p b_stride doubles apart (use AlignedRows::stride()).
/// \p scratch holds the packed transposed B panel and is reused across
/// calls.  out must not alias the inputs.  Every out entry is bit-identical
/// to profile_dot(a_i, b_j, samples).
void correlation_block(const double* a_rows, std::size_t a_count,
                       const double* b_rows, std::size_t b_count,
                       std::size_t samples, std::size_t a_stride,
                       std::size_t b_stride, double* out,
                       std::size_t out_stride, std::vector<double>& scratch);

/// Dense integer block product over rows of \p ranks: out[i * out_stride
/// + j] = Σ_k row(i0 + i)[k] · row(j0 + j)[k] for i < ci, j < cj.  Integer
/// sums are exact, so every flavour (AVX2 pmaddwd or portable) returns the
/// same values.
void rank_block(const RankRows& ranks, std::size_t i0, std::size_t ci,
                std::size_t j0, std::size_t cj, std::int32_t* out,
                std::size_t out_stride);

/// rank_block's portable flavour (one dot product per pair, any ISA),
/// which rank_block falls back to without AVX2.
void rank_block_portable(const RankRows& ranks, std::size_t i0,
                         std::size_t ci, std::size_t j0, std::size_t cj,
                         std::int32_t* out, std::size_t out_stride);

/// Options for the block-pair sweep drivers.
struct CorrSweepOptions {
  /// Rows per cache block; 0 = kDefaultCorrBlock.
  std::size_t block = 0;
  /// Worker pool for block-level parallelism; nullptr (or a 1-thread pool)
  /// runs sequentially.  The produced edge sequence is identical either
  /// way.
  par::ThreadPool* pool = nullptr;
};

/// Receives one thresholded pair: global ids (u, v) and the correlation.
using CorrEdgeSink =
    std::function<void(std::uint32_t, std::uint32_t, double)>;

/// Sweeps all (i, j) pairs between row block A (global ids a_first + i)
/// and row block B (global ids b_first + j), emitting every pair with both
/// rows valid and |corr| >= threshold.  \p diagonal marks A and B as the
/// *same* row range (then only pairs with global i < j are emitted and
/// only upper-triangle block pairs are visited).  Validity pointers may be
/// null (all rows valid); they index block-local rows.  The sink is called
/// from one thread at a time, in ascending (block pair, i, j) order,
/// independent of thread count.
void correlation_cross(const AlignedRows& a, std::size_t a_count,
                       const unsigned char* a_valid, std::uint32_t a_first,
                       const AlignedRows& b, std::size_t b_count,
                       const unsigned char* b_valid, std::uint32_t b_first,
                       bool diagonal, double threshold,
                       const CorrSweepOptions& options,
                       const CorrEdgeSink& sink);

/// All-pairs upper-triangle sweep of one row block (the in-memory
/// builder's shape): correlation_cross of the block with itself.
void correlation_self(const AlignedRows& rows, std::size_t count,
                      const unsigned char* valid, double threshold,
                      const CorrSweepOptions& options,
                      const CorrEdgeSink& sink);

/// Half-width of the band around the threshold inside which the integer
/// sweep defers to the double path.  For S <= kMaxRankSamples the double
/// path's |profile_dot − ρ| is at most about (S+8)·2⁻⁵³: the midranks, their
/// mean (S+1)/2, the deviations and their sum of squares are all exact in
/// double, so error enters only through 1/sqrt(ss) (2 roundings), each
/// scaled element (1) and the S-term sum (S), ≤ 1.5e-13 at S = 1290.  The
/// integer side computes |D|·inv_i·inv_j with at most ~6 roundings (7e-16).
/// A band of 1e-12, about seven times their sum, leaves every decision
/// outside it equal to the double path's.
inline constexpr double kRankBand = 1e-12;

/// The exact integer Spearman sweep: the pairs correlation_self(rows.rows,
/// ...) emits, in the same (block pair, i, j) order, computed from
/// rows.ranks (which must be non-empty) with pmaddwd-shaped integer dot
/// products.  With r = |D|·inv_i·inv_j, a pair with r >= threshold +
/// kRankBand is an edge, r < threshold − kRankBand is not, and a pair in
/// between is decided by fabs(profile_dot(...)) >= threshold on rows.rows,
/// exactly as the double sweep decides it.  The sink's correlation is r
/// with D's sign (profile_dot's value for band pairs).  Returns the number
/// of band pairs.
std::uint64_t rank_correlation_self(const StandardizedRows& rows,
                                    std::size_t count, double threshold,
                                    const CorrSweepOptions& options,
                                    const CorrEdgeSink& sink);

}  // namespace gsb::bio

#endif  // GSB_BIO_CORR_KERNEL_H
