#include "bio/correlation.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <optional>

#include "bio/corr_kernel.h"
#include "obs/span.h"
#include "parallel/job_graph.h"
#include "parallel/thread_pool.h"
#include "util/stats.h"

namespace gsb::bio {
namespace {

/// Standardizes \p n values to mean 0 / unit norm directly into \p out so
/// correlation reduces to a dot product.  Returns false for constant
/// profiles (out is zero-filled).
bool standardize_into(const double* in, std::size_t n, double* out) {
  const double mean =
      std::accumulate(in, in + n, 0.0) / static_cast<double>(n);
  double ss = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = in[i] - mean;
    ss += out[i] * out[i];
  }
  if (ss == 0.0) {
    std::fill(out, out + n, 0.0);
    return false;
  }
  const double inv = 1.0 / std::sqrt(ss);
  for (std::size_t i = 0; i < n; ++i) out[i] *= inv;
  return true;
}

bool standardize(std::span<const double> in, std::vector<double>& out) {
  out.resize(in.size());
  return standardize_into(in.data(), in.size(), out.data());
}

std::size_t resolve_threads(std::size_t threads) {
  return threads == 0 ? par::ThreadPool::default_threads() : threads;
}

}  // namespace

void midranks_into(std::span<const double> values,
                   StandardizeScratch& scratch) {
  const std::size_t n = values.size();
  radix_order(values, scratch.order, scratch.radix);
  scratch.ranks.assign(n, 0.0);
  std::size_t i = 0;
  while (i < n) {
    std::size_t j = i + 1;
    while (j < n && values[scratch.order[j]] == values[scratch.order[i]]) ++j;
    // Average 1-based rank for the tie group [i, j).
    const double rank = (static_cast<double>(i) + static_cast<double>(j - 1)) /
                            2.0 +
                        1.0;
    for (std::size_t t = i; t < j; ++t) scratch.ranks[scratch.order[t]] = rank;
    i = j;
  }
}

std::vector<double> midranks(std::span<const double> values) {
  StandardizeScratch scratch;
  midranks_into(values, scratch);
  return std::move(scratch.ranks);
}

bool standardized_profile_into(std::span<const double> profile,
                               CorrelationMethod method, double* out,
                               StandardizeScratch& scratch) {
  if (method == CorrelationMethod::kSpearman) {
    midranks_into(profile, scratch);
    return standardize_into(scratch.ranks.data(), profile.size(), out);
  }
  return standardize_into(profile.data(), profile.size(), out);
}

bool standardized_profile(std::span<const double> profile,
                          CorrelationMethod method, std::vector<double>& out) {
  out.resize(profile.size());
  StandardizeScratch scratch;
  return standardized_profile_into(profile, method, out.data(), scratch);
}

double profile_dot(const double* a, const double* b, std::size_t n) noexcept {
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) total += a[i] * b[i];
  return total;
}

double pearson(std::span<const double> x, std::span<const double> y) {
  std::vector<double> sx;
  std::vector<double> sy;
  if (x.size() != y.size() || x.empty()) return 0.0;
  if (!standardize(x, sx) || !standardize(y, sy)) return 0.0;
  return profile_dot(sx.data(), sy.data(), sx.size());
}

double spearman(std::span<const double> x, std::span<const double> y) {
  const std::vector<double> rx = midranks(x);
  const std::vector<double> ry = midranks(y);
  return pearson(rx, ry);
}

CorrelationMatrix correlation_matrix(const ExpressionMatrix& expression,
                                     CorrelationMethod method,
                                     std::size_t threads) {
  const std::size_t genes = expression.genes();
  CorrelationMatrix out(genes);
  if (genes == 0) return out;
  const std::size_t workers = resolve_threads(threads);
  std::optional<par::ThreadPool> pool;
  if (workers > 1) pool.emplace(workers);
  par::ThreadPool* const shared = pool ? &*pool : nullptr;
  const StandardizedRows rows = standardize_rows(expression, method, shared);
  const std::size_t samples = expression.samples();
  const std::size_t block = kDefaultCorrBlock;

  // Upper-triangle block pairs only; set() mirrors each entry, so the
  // lower triangle is never recomputed.  Constant rows standardize to
  // all-zero, so their correlations come out exactly 0 without a branch.
  struct Task {
    std::size_t i0;
    std::size_t j0;
  };
  std::vector<Task> tasks;
  for (std::size_t i0 = 0; i0 < genes; i0 += block) {
    for (std::size_t j0 = i0; j0 < genes; j0 += block) {
      tasks.push_back(Task{i0, j0});
    }
  }
  // One job per block pair.  Each owns a disjoint set of (i, j) cells
  // (and their mirrors), so workers write without synchronization.
  struct Scratch {
    std::vector<double> dense;
    std::vector<double> pack;
  };
  std::vector<Scratch> scratch(par::job_workers(shared));
  par::run_jobs(shared, tasks.size(), [&](std::size_t t, std::size_t worker) {
    const Task& task = tasks[t];
    std::vector<double>& dense = scratch[worker].dense;
    const std::size_t ci = std::min(block, genes - task.i0);
    const std::size_t cj = std::min(block, genes - task.j0);
    dense.resize(ci * cj);
    correlation_block(rows.rows.row(task.i0), ci, rows.rows.row(task.j0), cj,
                      samples, rows.rows.stride(), rows.rows.stride(),
                      dense.data(), cj, scratch[worker].pack);
    for (std::size_t i = 0; i < ci; ++i) {
      const std::size_t gi = task.i0 + i;
      std::size_t j = task.j0 == task.i0 ? i + 1 : 0;
      for (; j < cj; ++j) {
        out.set(gi, task.j0 + j, static_cast<float>(dense[i * cj + j]));
      }
    }
  });
  for (std::size_t i = 0; i < genes; ++i) out.set(i, i, 1.0f);
  return out;
}

CorrelationGraphResult build_correlation_graph(
    const ExpressionMatrix& expression,
    const CorrelationGraphOptions& options, util::Rng& rng) {
  obs::Span span(obs::TimelineEventKind::kStage, "bio.corr");
  const std::size_t genes = expression.genes();
  CorrelationGraphResult result{graph::Graph(genes), options.threshold};
  if (genes < 2) return result;
  const std::size_t workers = resolve_threads(options.threads);
  std::optional<par::ThreadPool> pool;
  if (workers > 1) pool.emplace(workers);
  par::ThreadPool* const shared = pool ? &*pool : nullptr;
  const StandardizedRows rows = [&] {
    obs::Span span(obs::TimelineEventKind::kStage, "bio.standardize");
    return standardize_rows(expression, options.method, shared);
  }();
  const std::size_t samples = expression.samples();

  double threshold = options.threshold;
  if (options.target_edges > 0) {
    // Estimate the |corr| quantile matching the edge budget from sampled
    // pairs: P(edge) = target_edges / (n choose 2).
    const double total_pairs =
        static_cast<double>(genes) * static_cast<double>(genes - 1) / 2.0;
    const double fraction =
        std::min(1.0, static_cast<double>(options.target_edges) / total_pairs);
    std::vector<double> sample;
    const std::size_t draws =
        std::min<std::size_t>(options.quantile_samples,
                              static_cast<std::size_t>(total_pairs));
    sample.reserve(draws);
    for (std::size_t d = 0; d < draws; ++d) {
      const auto i = static_cast<std::size_t>(rng.below(genes));
      const auto j = static_cast<std::size_t>(rng.below(genes));
      if (i == j) {
        --d;  // retry this draw
        continue;
      }
      if (rows.valid[i] == 0 || rows.valid[j] == 0) {
        sample.push_back(0.0);
        continue;
      }
      sample.push_back(
          std::fabs(profile_dot(rows.rows.row(i), rows.rows.row(j), samples)));
    }
    threshold = util::quantile(std::move(sample), 1.0 - fraction);
  }
  result.threshold_used = threshold;

  CorrSweepOptions sweep;
  sweep.block = options.corr_block;
  sweep.pool = shared;
  const CorrEdgeSink sink = [&](std::uint32_t u, std::uint32_t v, double) {
    result.graph.add_edge(static_cast<graph::VertexId>(u),
                          static_cast<graph::VertexId>(v));
  };
  // Spearman profiles of up to kMaxRankSamples samples carry exact integer
  // ranks: the integer sweep decides the same pairs, faster.
  obs::Span sweep_span(obs::TimelineEventKind::kStage, "bio.sweep");
  if (!rows.ranks.empty()) {
    rank_correlation_self(rows, genes, threshold, sweep, sink);
  } else {
    correlation_self(rows.rows, genes, rows.valid.data(), threshold, sweep,
                     sink);
  }
  return result;
}

}  // namespace gsb::bio
