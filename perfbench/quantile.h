// The benchmark's own quantile code: exact nearest-rank quantiles over a
// sorted copy of every sample. It deliberately does not use mal::Histogram
// or any other quantile path of the program, so a change to those cannot
// move the ruler the program is measured with.
#ifndef PERFBENCH_QUANTILE_H_
#define PERFBENCH_QUANTILE_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace perfbench {

// Nearest-rank quantile of an ascending-sorted sample: the smallest value
// with at least a q share of the samples at or below it. 0 when empty.
inline double QuantileSorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) {
    return 0.0;
  }
  double rank = std::ceil(q * static_cast<double>(sorted.size()));
  size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return sorted[std::min(index, sorted.size() - 1)];
}

struct LatencySummary {
  size_t count = 0;
  double p50 = 0;
  double p99 = 0;
  double p999 = 0;
};

// Sorts `samples` in place and summarizes it.
inline LatencySummary Summarize(std::vector<double>* samples) {
  std::sort(samples->begin(), samples->end());
  LatencySummary out;
  out.count = samples->size();
  out.p50 = QuantileSorted(*samples, 0.50);
  out.p99 = QuantileSorted(*samples, 0.99);
  out.p999 = QuantileSorted(*samples, 0.999);
  return out;
}

// Median of a small set of host timings (set-up repeats).
inline double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : (values[mid - 1] + values[mid]) / 2.0;
}

}  // namespace perfbench

#endif  // PERFBENCH_QUANTILE_H_
