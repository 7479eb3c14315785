// Exact order statistics over raw per-request samples, and span self
// times, for bench_e2e.
//
// The serving LatencyHistogram's buckets are ~34% wide, which cannot
// resolve a 10% change, so every percentile the bench reports is computed
// here from the raw samples and travels with its sample count.

#ifndef CLOUDWALKER_BENCH_E2E_SAMPLE_STATS_H_
#define CLOUDWALKER_BENCH_E2E_SAMPLE_STATS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace cloudwalker::e2e {

/// The q-quantile (q in [0, 1]) of `values`, interpolating linearly between
/// the two closest ranks (numpy's default rule). Empty input returns 0.
double Quantile(std::vector<double> values, double q);

/// Arithmetic mean; 0 for empty input.
double Mean(const std::vector<double>& values);

/// One traced interval. Spans of one request share `request`; `parent` is
/// the position of the enclosing span in the same vector, or -1 for a root.
struct Span {
  int64_t request = 0;  // -1 for spans outside any request
  std::string name;
  int64_t parent = -1;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Self time of every span, aligned with `spans`: its duration minus the
/// part of its interval covered by the union of its children's intervals.
/// Never negative — overlapping children are counted once and clipped to
/// the parent.
std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans);

/// Checks Quantile, Mean and SelfTimesNs on fixed vectors; prints each
/// failure to stderr and returns false on any.
bool RunSelfTest();

}  // namespace cloudwalker::e2e

#endif  // CLOUDWALKER_BENCH_E2E_SAMPLE_STATS_H_
