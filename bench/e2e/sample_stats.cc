#include "sample_stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

namespace cloudwalker::e2e {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = std::clamp(q, 0.0, 1.0) *
                     static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0 || static_cast<size_t>(s.parent) >= spans.size()) {
      continue;
    }
    const Span& p = spans[static_cast<size_t>(s.parent)];
    const int64_t lo = std::max(s.start_ns, p.start_ns);
    const int64_t hi = std::min(s.end_ns, p.end_ns);
    if (lo < hi) children[static_cast<size_t>(s.parent)].emplace_back(lo, hi);
  }
  std::vector<int64_t> self(spans.size(), 0);
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t run_lo = 0, run_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : kids) {
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open) covered += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      open = true;
    }
    if (open) covered += run_hi - run_lo;
    self[i] = std::max<int64_t>(0, spans[i].end_ns - spans[i].start_ns -
                                       covered);
  }
  return self;
}

namespace {

bool Near(double got, double want) {
  return std::fabs(got - want) <= 1e-12 * std::max(1.0, std::fabs(want));
}

bool Check(bool ok, const char* what, double got, double want) {
  if (!ok) {
    std::fprintf(stderr, "self-test FAILED: %s = %.17g, want %.17g\n", what,
                 got, want);
  }
  return ok;
}

}  // namespace

bool RunSelfTest() {
  bool ok = true;
  const std::vector<double> v = {7, 1, 3, 9, 4, 12, 2, 5};
  // Expected values from numpy.percentile.
  const std::pair<double, double> quantiles[] = {
      {0.0, 1.0}, {0.25, 2.75}, {0.5, 4.5}, {0.9, 9.9}, {1.0, 12.0}};
  for (const auto& [q, want] : quantiles) {
    const double got = Quantile(v, q);
    ok &= Check(Near(got, want), "Quantile", got, want);
  }
  ok &= Check(Quantile({}, 0.5) == 0.0, "Quantile(empty)",
              Quantile({}, 0.5), 0.0);
  ok &= Check(Near(Mean(v), 43.0 / 8.0), "Mean", Mean(v), 43.0 / 8.0);

  // A root with two overlapping children, one child running past the
  // root's end (clipped), and a grandchild; plus a childless root.
  const std::vector<Span> spans = {
      {1, "root", -1, 0, 100},  {1, "b", 0, 10, 30},  {1, "c", 0, 20, 50},
      {1, "d", 0, 90, 120},     {1, "e", 1, 12, 15},  {2, "lone", -1, 5, 9},
  };
  const std::vector<int64_t> want_self = {50, 17, 30, 30, 3, 4};
  const std::vector<int64_t> self = SelfTimesNs(spans);
  for (size_t i = 0; i < spans.size(); ++i) {
    ok &= Check(self[i] == want_self[i],
                ("SelfTimesNs[" + spans[i].name + "]").c_str(),
                static_cast<double>(self[i]),
                static_cast<double>(want_self[i]));
  }
  return ok;
}

}  // namespace cloudwalker::e2e
