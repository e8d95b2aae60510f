// Measurement primitives: latency histograms with quantile/CDF extraction
// (benches, workloads and the perf counters), and windowed throughput time
// series matching the "throughput over time" figures in the paper.
#ifndef MALACOLOGY_COMMON_STATS_H_
#define MALACOLOGY_COMMON_STATS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace mal {

class Decoder;
class Encoder;

// The one latency-sample store, from bench histograms to daemon perf
// counters and the monitor's dump. count/min/max are exact over every
// observation; mean, stddev and quantiles are over the retained samples.
//
// max_samples = 0 keeps every sample (benches and workloads record 10^4-10^6,
// well within memory for exact quantiles). A nonzero cap bounds a histogram
// that lives for a whole run (PerfRegistry): once the buffer fills it drops
// every other retained sample and from then on keeps every (2*stride)-th
// observation, so the survivors stay an evenly-spaced subsequence of the
// stream. No RNG: reservoir sampling would perturb the simulator's
// deterministic streams.
class Histogram {
 public:
  Histogram() = default;
  explicit Histogram(size_t max_samples) : max_samples_(max_samples) {}

  void Add(double v);
  // Concatenates `other`'s retained samples; never decimates.
  void Merge(const Histogram& other);

  size_t count() const { return count_; }
  double min() const { return min_; }
  double max() const { return max_; }
  double mean() const;
  double stddev() const;

  // q in [0,1]; linear interpolation between order statistics. Sorts the
  // retained samples in place.
  double Quantile(double q) const;

  // Evenly-spaced CDF points: (value, cumulative probability).
  std::vector<std::pair<double, double>> Cdf(size_t points = 100) const;

  const std::vector<double>& samples() const { return samples_; }

  // Wire form (PerfSnapshot): count, min, max, then the retained samples.
  // A decoded histogram keeps every sample it is given.
  void Encode(Encoder* enc) const;
  static Histogram Decode(Decoder* dec);

 private:
  bool Retain();
  void Sort() const;

  size_t max_samples_ = 0;
  uint64_t stride_ = 1;
  uint64_t count_ = 0;
  double min_ = 0;
  double max_ = 0;
  mutable std::vector<double> samples_;
  mutable bool sorted_ = true;
};

// Counts events into fixed-width time windows; yields ops/sec per window.
// This is what the paper's Figures 9 and 12 plot.
class ThroughputSeries {
 public:
  explicit ThroughputSeries(uint64_t window_ns) : window_ns_(window_ns) {}

  void Record(uint64_t time_ns, uint64_t count = 1);

  // Extends the series' time horizon without recording an event, so a stall
  // at the tail of a run shows up as explicit zero-rate windows instead of
  // the series silently ending at the last op. Benches call this with the
  // end-of-run clock before plotting.
  void ExtendTo(uint64_t time_ns);

  // (window start seconds, ops/sec) for every window from 0 through the
  // later of the last event and the ExtendTo() horizon; windows with no
  // events — stalls — are emitted with an explicit zero rate.
  std::vector<std::pair<double, double>> Series() const;

  uint64_t total() const { return total_; }

  // Mean ops/sec over [from_ns, to_ns).
  double MeanRate(uint64_t from_ns, uint64_t to_ns) const;

 private:
  uint64_t window_ns_;
  std::map<uint64_t, uint64_t> windows_;  // window index -> count
  uint64_t total_ = 0;
  uint64_t last_ns_ = 0;
};

// Fixed-point formatting helpers for the bench table printers.
std::string FormatDouble(double v, int precision = 2);

}  // namespace mal

#endif  // MALACOLOGY_COMMON_STATS_H_
