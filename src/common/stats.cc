#include "src/common/stats.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <limits>

#include "src/common/buffer.h"

namespace mal {

void Histogram::Add(double v) {
  min_ = count_ == 0 ? v : std::min(min_, v);
  max_ = count_ == 0 ? v : std::max(max_, v);
  ++count_;
  if (max_samples_ != 0 && !Retain()) {
    return;
  }
  samples_.push_back(v);
  sorted_ = samples_.size() <= 1;
}

// Whether the observation just counted is kept, halving the retained
// samples and doubling the stride when the buffer is full.
bool Histogram::Retain() {
  if ((count_ - 1) % stride_ != 0) {
    return false;
  }
  if (samples_.size() < max_samples_) {
    return true;
  }
  size_t kept = 0;
  for (size_t i = 0; i < samples_.size(); i += 2) {
    samples_[kept++] = samples_[i];
  }
  samples_.resize(kept);
  stride_ *= 2;
  return (count_ - 1) % stride_ == 0;
}

void Histogram::Merge(const Histogram& other) {
  if (other.count_ == 0) {
    return;
  }
  min_ = count_ == 0 ? other.min_ : std::min(min_, other.min_);
  max_ = count_ == 0 ? other.max_ : std::max(max_, other.max_);
  count_ += other.count_;
  samples_.insert(samples_.end(), other.samples_.begin(), other.samples_.end());
  sorted_ = samples_.size() <= 1;
}

void Histogram::Sort() const {
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
}

double Histogram::mean() const {
  if (samples_.empty()) {
    return 0;
  }
  double sum = 0;
  for (double v : samples_) {
    sum += v;
  }
  return sum / static_cast<double>(samples_.size());
}

double Histogram::stddev() const {
  if (samples_.size() < 2) {
    return 0;
  }
  double m = mean();
  double sq = 0;
  for (double v : samples_) {
    sq += (v - m) * (v - m);
  }
  return std::sqrt(sq / static_cast<double>(samples_.size() - 1));
}

double Histogram::Quantile(double q) const {
  if (samples_.empty()) {
    return 0;
  }
  Sort();
  q = std::clamp(q, 0.0, 1.0);
  double idx = q * static_cast<double>(samples_.size() - 1);
  size_t lo = static_cast<size_t>(idx);
  size_t hi = std::min(lo + 1, samples_.size() - 1);
  double frac = idx - static_cast<double>(lo);
  return samples_[lo] * (1.0 - frac) + samples_[hi] * frac;
}

std::vector<std::pair<double, double>> Histogram::Cdf(size_t points) const {
  std::vector<std::pair<double, double>> out;
  if (samples_.empty() || points == 0) {
    return out;
  }
  Sort();
  out.reserve(points);
  for (size_t i = 1; i <= points; ++i) {
    double p = static_cast<double>(i) / static_cast<double>(points);
    out.emplace_back(Quantile(p), p);
  }
  return out;
}

void Histogram::Encode(Encoder* enc) const {
  enc->PutU64(count_);
  enc->PutF64(min_);
  enc->PutF64(max_);
  enc->PutVarU64(samples_.size());
  for (double v : samples_) {
    enc->PutF64(v);
  }
}

Histogram Histogram::Decode(Decoder* dec) {
  Histogram h;
  h.count_ = dec->GetU64();
  h.min_ = dec->GetF64();
  h.max_ = dec->GetF64();
  uint64_t n = dec->GetVarU64();
  // A corrupt count must not size the allocation: each sample is 8 bytes.
  h.samples_.reserve(std::min<uint64_t>(n, dec->remaining() / 8));
  for (uint64_t i = 0; i < n && dec->ok(); ++i) {
    h.samples_.push_back(dec->GetF64());
  }
  h.sorted_ = h.samples_.size() <= 1;
  return h;
}

void ThroughputSeries::Record(uint64_t time_ns, uint64_t count) {
  windows_[time_ns / window_ns_] += count;
  total_ += count;
  last_ns_ = std::max(last_ns_, time_ns);
}

void ThroughputSeries::ExtendTo(uint64_t time_ns) {
  last_ns_ = std::max(last_ns_, time_ns);
}

std::vector<std::pair<double, double>> ThroughputSeries::Series() const {
  std::vector<std::pair<double, double>> out;
  if (windows_.empty() && last_ns_ == 0) {
    return out;
  }
  uint64_t last_window = last_ns_ / window_ns_;
  if (!windows_.empty()) {
    last_window = std::max(last_window, windows_.rbegin()->first);
  }
  double window_sec = static_cast<double>(window_ns_) / 1e9;
  for (uint64_t w = 0; w <= last_window; ++w) {
    auto it = windows_.find(w);
    uint64_t count = it == windows_.end() ? 0 : it->second;
    out.emplace_back(static_cast<double>(w) * window_sec,
                     static_cast<double>(count) / window_sec);
  }
  return out;
}

double ThroughputSeries::MeanRate(uint64_t from_ns, uint64_t to_ns) const {
  assert(to_ns > from_ns);
  uint64_t count = 0;
  for (const auto& [w, c] : windows_) {
    uint64_t start = w * window_ns_;
    if (start >= from_ns && start < to_ns) {
      count += c;
    }
  }
  return static_cast<double>(count) / (static_cast<double>(to_ns - from_ns) / 1e9);
}

std::string FormatDouble(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

}  // namespace mal
