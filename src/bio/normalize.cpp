#include "bio/normalize.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <optional>
#include <vector>

#include "bio/radix_order.h"
#include "obs/span.h"
#include "parallel/job_graph.h"
#include "parallel/thread_pool.h"

namespace gsb::bio {

void zscore_rows(ExpressionMatrix& matrix) {
  const std::size_t s = matrix.samples();
  if (s < 2) return;
  for (std::size_t g = 0; g < matrix.genes(); ++g) {
    auto row = matrix.row(g);
    const double mean =
        std::accumulate(row.begin(), row.end(), 0.0) / static_cast<double>(s);
    double ss = 0.0;
    for (double v : row) ss += (v - mean) * (v - mean);
    const double sd = std::sqrt(ss / static_cast<double>(s - 1));
    if (sd == 0.0) {
      std::fill(row.begin(), row.end(), 0.0);
      continue;
    }
    for (double& v : row) v = (v - mean) / sd;
  }
}

void quantile_normalize(ExpressionMatrix& matrix, std::size_t threads) {
  obs::Span span(obs::TimelineEventKind::kStage, "bio.normalize");
  const std::size_t genes = matrix.genes();
  const std::size_t samples = matrix.samples();
  if (genes == 0 || samples == 0) return;
  const std::size_t workers =
      threads == 0 ? par::ThreadPool::default_threads() : threads;
  std::optional<par::ThreadPool> pool;
  if (workers > 1) pool.emplace(workers);
  par::ThreadPool* const shared = pool ? &*pool : nullptr;

  // Round 1, one job per group of samples: rank the genes of each sample
  // with radix_order (tied genes in gene-index order) on a contiguous copy
  // of its column (the matrix is row-major, so the column itself sits at a
  // samples-wide stride), then overwrite the column with its values in
  // rank order.  Every cell is rewritten in round 3, so the originals are
  // not kept.  A group spans one cache line of a row, so no two workers
  // write the same line.
  constexpr std::size_t kSamplesPerJob = 64 / sizeof(double);
  const std::size_t sample_jobs =
      (samples + kSamplesPerJob - 1) / kSamplesPerJob;
  auto for_samples = [&](std::size_t job, auto&& body) {
    const std::size_t last = std::min(samples, (job + 1) * kSamplesPerJob);
    for (std::size_t s = job * kSamplesPerJob; s < last; ++s) body(s);
  };
  struct Column {
    std::vector<double> values;
    RadixScratch radix;
  };
  std::vector<std::vector<std::uint32_t>> order(samples);
  std::vector<Column> column(par::job_workers(shared));
  par::run_jobs(shared, sample_jobs, [&](std::size_t job, std::size_t worker) {
    std::vector<double>& values = column[worker].values;
    values.resize(genes);
    for_samples(job, [&](std::size_t s) {
      for (std::size_t g = 0; g < genes; ++g) values[g] = matrix.at(g, s);
      auto& idx = order[s];
      radix_order(values, idx, column[worker].radix);
      for (std::size_t r = 0; r < genes; ++r) {
        matrix.at(r, s) = values[idx[r]];
      }
    });
  });

  // Round 2, one job per range of ranks: the reference distribution is
  // the mean across samples at each rank, and row r now holds exactly the
  // rank-r values, summed in sample order.
  constexpr std::size_t kRanksPerJob = 256;
  std::vector<double> reference(genes, 0.0);
  par::run_jobs(shared, (genes + kRanksPerJob - 1) / kRanksPerJob,
                [&](std::size_t job, std::size_t) {
                  const std::size_t last =
                      std::min(genes, (job + 1) * kRanksPerJob);
                  for (std::size_t r = job * kRanksPerJob; r < last; ++r) {
                    double total = 0.0;
                    for (const double v : matrix.row(r)) total += v;
                    reference[r] = total / static_cast<double>(samples);
                  }
                });

  // Round 3, the groups of round 1 again: substitute each value by the
  // reference value of its rank.
  par::run_jobs(shared, sample_jobs, [&](std::size_t job, std::size_t) {
    for_samples(job, [&](std::size_t s) {
      const auto& idx = order[s];
      for (std::size_t r = 0; r < genes; ++r) {
        matrix.at(idx[r], s) = reference[r];
      }
    });
  });
}

void log2_transform(ExpressionMatrix& matrix) {
  double min_value = 0.0;
  bool first = true;
  for (std::size_t g = 0; g < matrix.genes(); ++g) {
    for (double v : matrix.row(g)) {
      if (first || v < min_value) {
        min_value = v;
        first = false;
      }
    }
  }
  for (std::size_t g = 0; g < matrix.genes(); ++g) {
    for (double& v : matrix.row(g)) {
      v = std::log2(v - min_value + 1.0);
    }
  }
}

}  // namespace gsb::bio
