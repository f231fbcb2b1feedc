#ifndef GSB_BIO_CORRELATION_H
#define GSB_BIO_CORRELATION_H

/// \file correlation.h
/// Pairwise gene correlation and thresholded graph construction — stages
/// two and three of the paper's pipeline ("pairwise rank coefficient
/// calculation, and filtering using threshold").

#include <cstdint>
#include <vector>

#include "bio/expression.h"
#include "bio/radix_order.h"
#include "graph/graph.h"
#include "util/rng.h"

namespace gsb::bio {

enum class CorrelationMethod {
  kPearson,
  kSpearman  ///< rank coefficient — the paper's choice
};

/// Pearson correlation of two equal-length profiles (0 if either is
/// constant).
double pearson(std::span<const double> x, std::span<const double> y);

/// Spearman rank correlation (tie-averaged ranks, then Pearson).
double spearman(std::span<const double> x, std::span<const double> y);

/// Tie-averaged ranks of a profile (1-based averages, standard midranks).
std::vector<double> midranks(std::span<const double> values);

/// Reusable scratch for standardized_profile_into: the Spearman path needs
/// a sort permutation, its radix buffers and a rank buffer per call, and
/// reusing them across a genes-long standardization pass removes the
/// per-row allocation churn.
struct StandardizeScratch {
  std::vector<double> ranks;
  std::vector<std::uint32_t> order;
  RadixScratch radix;
};

/// midranks, but writing into scratch.ranks and reusing scratch.order and
/// scratch.radix for the sort (radix_order; midranks do not depend on the
/// order of tied values) — no allocations after the first call.
void midranks_into(std::span<const double> values,
                   StandardizeScratch& scratch);

/// Standardizes a profile for dot-product correlation under \p method
/// (rank-transforms first for Spearman): mean 0, unit norm, written
/// directly into \p out (profile.size() doubles — e.g. a destination row
/// of an AlignedRows block, no staging buffer).  Returns false for
/// constant profiles, leaving out all-zero.  For Spearman, scratch.ranks
/// holds the profile's midranks afterwards.  Every builder goes through
/// this one function, which is what makes their edge sets bit-identical.
bool standardized_profile_into(std::span<const double> profile,
                               CorrelationMethod method, double* out,
                               StandardizeScratch& scratch);

/// Convenience overload producing a std::vector (resized to the profile
/// length).  Prefer standardized_profile_into in loops.
bool standardized_profile(std::span<const double> profile,
                          CorrelationMethod method, std::vector<double>& out);

/// Plain sequential dot product — the correlation inner loop.  Kept as a
/// named function so every builder accumulates in the same order (floating
/// point addition is not associative; a different order could flip edges
/// sitting exactly on the threshold).
double profile_dot(const double* a, const double* b, std::size_t n) noexcept;

/// Dense symmetric correlation matrix (genes x genes, float to halve the
/// footprint).  Quadratic in genes; prefer build_correlation_graph for
/// thresholded use.
class CorrelationMatrix {
 public:
  CorrelationMatrix() = default;
  explicit CorrelationMatrix(std::size_t n) : n_(n), values_(n * n, 0.0f) {}

  [[nodiscard]] std::size_t size() const noexcept { return n_; }
  [[nodiscard]] float at(std::size_t i, std::size_t j) const noexcept {
    return values_[i * n_ + j];
  }
  void set(std::size_t i, std::size_t j, float value) noexcept {
    values_[i * n_ + j] = value;
    values_[j * n_ + i] = value;
  }

 private:
  std::size_t n_ = 0;
  std::vector<float> values_;
};

/// Full correlation matrix under the chosen method.  Computed with the
/// blocked kernel over upper-triangle block pairs only; symmetric entries
/// are mirrored, never recomputed.  \p threads workers compute disjoint
/// blocks (0 = hardware concurrency, 1 = sequential); the result is
/// identical for every thread count.
CorrelationMatrix correlation_matrix(const ExpressionMatrix& expression,
                                     CorrelationMethod method,
                                     std::size_t threads = 1);

/// Options for thresholded graph construction.
struct CorrelationGraphOptions {
  CorrelationMethod method = CorrelationMethod::kSpearman;
  /// Edge iff |corr| >= threshold (used when target_edges == 0).
  double threshold = 0.85;
  /// When nonzero, pick the threshold as the |corr| quantile that yields
  /// approximately this many edges (estimated from sampled pairs).
  std::size_t target_edges = 0;
  /// Pairs sampled for the quantile estimate.
  std::size_t quantile_samples = 200000;
  /// Worker threads for standardization and the correlation sweep: 0 =
  /// hardware concurrency, 1 = sequential.  The edge set is identical at
  /// every thread count (see corr_kernel.h's determinism contract).
  std::size_t threads = 1;
  /// Rows per cache block in the sweep; 0 = kernel default.
  std::size_t corr_block = 0;
};

/// Result of graph construction.
struct CorrelationGraphResult {
  graph::Graph graph;
  double threshold_used = 0.0;
};

/// Builds the thresholded co-expression graph without materializing the
/// full correlation matrix.  Spearman with up to kMaxRankSamples samples
/// runs the exact integer sweep (rank_correlation_self), everything else
/// the double one; both give the same edges.
CorrelationGraphResult build_correlation_graph(
    const ExpressionMatrix& expression,
    const CorrelationGraphOptions& options, util::Rng& rng);

}  // namespace gsb::bio

#endif  // GSB_BIO_CORRELATION_H
