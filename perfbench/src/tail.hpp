// Timing summaries: the median plus the highest percentile that still has
// at least ten samples beyond it, and always the sample count.
//
// A percentile with fewer than ten samples above it describes a handful of
// outliers, not a tail; below forty samples no percentile qualifies and
// only the median is reported.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace perfbench {

struct TailSummary {
  std::size_t count = 0;
  double p50 = 0.0;
  /// False below kMinTailSamples: only the median is meaningful.
  bool has_tail = false;
  /// The reported tail percentile as a fraction (0.9 = p90).
  double tail_q = 0.0;
  double tail = 0.0;

  /// "p99", "p99.9", ...; "p50" when there is no tail.
  std::string tail_label() const;
};

inline constexpr std::size_t kMinTailSamples = 40;
inline constexpr std::size_t kMinBeyondTail = 10;

/// Linear interpolation between order statistics at rank q * (n - 1);
/// `sorted` must be ascending and non-empty.
double quantile_sorted(const std::vector<double>& sorted, double q);

/// Summarizes `samples`.  The tail is the highest of p75, p90, p95, p99,
/// p99.9 that is at most `max_q` and leaves at least kMinBeyondTail samples
/// strictly above its rank.  Fixing `max_q` per workload keeps an
/// end-to-end metric on one percentile from run to run.
TailSummary summarize(std::vector<double> samples, double max_q = 0.999);

}  // namespace perfbench
