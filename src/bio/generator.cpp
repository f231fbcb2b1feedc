#include "bio/generator.h"

#include <algorithm>
#include <cmath>

#include "bitset/dynamic_bitset.h"
#include "obs/span.h"

namespace gsb::bio {
namespace {

std::size_t sample_module_size(const MicroarrayConfig& config,
                               util::Rng& rng) {
  const std::size_t lo = config.min_module_size;
  const std::size_t hi = config.max_module_size;
  if (hi <= lo) return lo;
  double total = 0.0;
  for (std::size_t s = lo; s <= hi; ++s) {
    total += std::pow(static_cast<double>(s), -config.size_power);
  }
  double pick = rng.uniform() * total;
  for (std::size_t s = lo; s <= hi; ++s) {
    pick -= std::pow(static_cast<double>(s), -config.size_power);
    if (pick <= 0.0) return s;
  }
  return hi;
}

}  // namespace

SyntheticMicroarray generate_microarray(const MicroarrayConfig& config,
                                        util::Rng& rng) {
  obs::Span span(obs::TimelineEventKind::kStage, "bio.generate");
  SyntheticMicroarray out;
  out.expression = ExpressionMatrix(config.genes, config.samples);

  const double load = std::sqrt(std::clamp(config.within_module_corr, 0.0, 1.0));
  const double noise = std::sqrt(1.0 - load * load);

  // --- draw module memberships (the first module is forced to max size so
  // the largest clique of the thresholded graph is predictable) -------------
  std::vector<std::uint32_t> used;
  bits::DynamicBitset used_mask(config.genes);
  for (std::size_t m = 0; m < config.modules; ++m) {
    const std::size_t size =
        m == 0 ? config.max_module_size : sample_module_size(config, rng);
    std::vector<std::uint32_t> members;
    bits::DynamicBitset chosen(config.genes);
    // Fresh members avoid already-used genes so `overlap` is the *only*
    // source of cross-module sharing (fallback once genes run short).
    std::size_t attempts = 0;
    const std::size_t max_attempts = size * 50 + 200;
    while (members.size() < std::min(size, config.genes) &&
           attempts < max_attempts) {
      ++attempts;
      std::uint32_t g;
      if (!used.empty() && rng.chance(config.overlap)) {
        g = used[rng.below(used.size())];
      } else {
        g = static_cast<std::uint32_t>(rng.below(config.genes));
        if (used_mask.test(g) && attempts * 2 < max_attempts) continue;
      }
      if (chosen.test(g)) continue;
      chosen.set(g);
      members.push_back(g);
    }
    std::sort(members.begin(), members.end());
    for (std::uint32_t g : members) {
      if (!used_mask.test(g)) {
        used_mask.set(g);
        used.push_back(g);
      }
    }
    out.modules.push_back(std::move(members));
  }

  // --- hidden per-sample module activities ----------------------------------
  std::vector<std::vector<double>> factor(
      config.modules, std::vector<double>(config.samples));
  for (auto& z : factor) {
    for (double& v : z) v = rng.normal();
  }

  // Modules per gene (genes in several modules mix their activities, which
  // is what couples modules into overlapping near-cliques downstream).
  std::vector<std::vector<std::uint32_t>> gene_modules(config.genes);
  for (std::uint32_t m = 0; m < out.modules.size(); ++m) {
    for (std::uint32_t g : out.modules[m]) gene_modules[g].push_back(m);
  }

  // --- expression synthesis ----------------------------------------------------
  for (std::size_t g = 0; g < config.genes; ++g) {
    const double scale =
        1.0 + config.gene_scale_jitter * (rng.uniform() - 0.5) * 2.0;
    const auto& mods = gene_modules[g];
    const double norm =
        mods.empty() ? 0.0 : 1.0 / std::sqrt(static_cast<double>(mods.size()));
    for (std::size_t s = 0; s < config.samples; ++s) {
      double signal = 0.0;
      for (std::uint32_t m : mods) signal += factor[m][s];
      const double value =
          mods.empty() ? rng.normal()
                       : load * signal * norm + noise * rng.normal();
      out.expression.at(g, s) = config.baseline_level + scale * value;
    }
  }

  std::vector<std::string> names(config.genes);
  for (std::size_t g = 0; g < config.genes; ++g) {
    names[g] = "probe_" + std::to_string(g);
  }
  out.expression.set_names(std::move(names));
  return out;
}

}  // namespace gsb::bio
