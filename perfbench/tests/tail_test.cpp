// Tests of the benchmark's tail-percentile helper.  Exits non-zero on the
// first failed expectation.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "tail.hpp"

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAILED: %s\n", what);
    ++failures;
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

std::vector<double> ramp(int n) {
  // Descending on purpose: the helper must sort.
  std::vector<double> xs;
  for (int i = n; i >= 1; --i) xs.push_back(static_cast<double>(i));
  return xs;
}

}  // namespace

int main() {
  using perfbench::summarize;

  {
    const auto s = summarize({});
    expect(s.count == 0 && !s.has_tail, "empty input has no median or tail");
  }
  {
    const auto s = summarize({3.0, 1.0, 2.0, 4.0});
    expect(s.count == 4, "count is reported");
    expect(near(s.p50, 2.5), "median interpolates between order statistics");
    expect(!s.has_tail && s.tail_label() == "p50", "few samples: median only");
  }
  {
    const auto s = summarize(ramp(39));
    expect(!s.has_tail, "39 samples: median only");
  }
  {
    // 40 samples: p75 sits at rank 29.25, leaving samples 31..40 beyond it.
    const auto s = summarize(ramp(40));
    expect(s.has_tail && near(s.tail_q, 0.75), "40 samples: p75");
    expect(near(s.tail, 30.25), "p75 of 1..40");
  }
  {
    const auto s = summarize(ramp(100));
    expect(s.has_tail && near(s.tail_q, 0.90), "100 samples: p90");
    expect(near(s.p50, 50.5), "median of 1..100");
    expect(near(s.tail, 90.1), "p90 of 1..100");
  }
  {
    const auto s = summarize(ramp(900));
    expect(near(s.tail_q, 0.95), "900 samples: p99 leaves only 9, use p95");
  }
  {
    const auto s = summarize(ramp(1001));
    expect(near(s.tail_q, 0.99) && s.tail_label() == "p99",
           "1001 samples: p99");
  }
  {
    const auto s = summarize(ramp(20000));
    expect(near(s.tail_q, 0.999) && s.tail_label() == "p99.9",
           "20000 samples: p99.9");
    const auto capped = summarize(ramp(20000), 0.90);
    expect(near(capped.tail_q, 0.90), "max_q caps the tail percentile");
  }
  {
    const auto s = summarize(std::vector<double>(500, 7.0));
    expect(near(s.p50, 7.0) && near(s.tail, 7.0), "constant samples");
  }

  if (failures == 0) std::printf("tail_test: all expectations hold\n");
  return failures == 0 ? EXIT_SUCCESS : EXIT_FAILURE;
}
