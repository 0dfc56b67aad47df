#include "tail.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

std::string TailSummary::tail_label() const {
  if (!has_tail) return "p50";
  char label[16];
  std::snprintf(label, sizeof label, "p%g", tail_q * 100.0);
  return label;
}

double quantile_sorted(const std::vector<double>& sorted, double q) {
  const double rank = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

TailSummary summarize(std::vector<double> samples, double max_q) {
  TailSummary summary;
  summary.count = samples.size();
  if (samples.empty()) return summary;
  std::sort(samples.begin(), samples.end());
  summary.p50 = quantile_sorted(samples, 0.5);
  if (samples.size() < kMinTailSamples) return summary;
  const double n = static_cast<double>(samples.size());
  for (const double q : {0.999, 0.99, 0.95, 0.90, 0.75}) {
    if (q > max_q + 1e-12) continue;
    // Samples strictly above rank q * (n - 1).
    const double beyond = n - 1.0 - std::floor(q * (n - 1.0));
    if (beyond >= static_cast<double>(kMinBeyondTail)) {
      summary.has_tail = true;
      summary.tail_q = q;
      summary.tail = quantile_sorted(samples, q);
      break;
    }
  }
  return summary;
}

}  // namespace perfbench
