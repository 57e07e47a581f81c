#include "metrics/divergence.hpp"

namespace hacc::metrics {

double jaccard_distance(const MaskHistogram& hist, int bit_i, int bit_j) {
  const std::uint32_t bi = 1u << bit_i;
  const std::uint32_t bj = 1u << bit_j;
  std::size_t intersection = 0, uni = 0;
  for (const auto& [mask, count] : hist) {
    const bool in_i = mask & bi;
    const bool in_j = mask & bj;
    if (in_i && in_j) intersection += count;
    if (in_i || in_j) uni += count;
  }
  if (uni == 0) return 0.0;
  return 1.0 - static_cast<double>(intersection) / static_cast<double>(uni);
}

double code_divergence(const MaskHistogram& hist, int n_configs) {
  if (n_configs < 2) return 0.0;
  double total = 0.0;
  int pairs = 0;
  for (int i = 0; i < n_configs; ++i) {
    for (int j = i + 1; j < n_configs; ++j) {
      total += jaccard_distance(hist, i, j);
      ++pairs;
    }
  }
  return total / pairs;
}

double code_convergence(const MaskHistogram& hist, int n_configs) {
  return 1.0 - code_divergence(hist, n_configs);
}

}  // namespace hacc::metrics
