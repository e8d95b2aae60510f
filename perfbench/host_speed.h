// Host-speed calibration for the host-clock metrics.
//
// The hosts this benchmark runs on are shared: the speed at which the same
// code runs moved by up to 2x over tens of minutes on the sizing host, with
// CPU time tracking wall time (not preemption). To keep host figures
// comparable across such shifts, the benchmark times a fixed reference
// kernel in short bursts between stretches of measurement, and scales the
// host times it reports by kNominalNsPerIter / (measured ns per iteration):
// a host time is reported as it would read at the reference kernel's
// nominal speed. The kernel is the benchmark's own code, so a change to the
// program moves the measured times and not the scale.
#ifndef PERFBENCH_HOST_SPEED_H_
#define PERFBENCH_HOST_SPEED_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace perfbench {

class HostSpeed {
 public:
  // Reference-kernel ns per iteration, about its speed on the sizing host
  // (4-core x86) when that host is quiet.
  static constexpr double kNominalNsPerIter = 4.0;

  HostSpeed() : table_(kTableWords, 0) {}

  // Times one burst of the kernel: random read-modify-writes over a table
  // that stays in the private caches, with a small hash-map update and
  // string allocation every 16 iterations. It is kept cache-resident so
  // its speed follows the core's, not how much of the cache the program
  // evicted between samples.
  void Sample() {
    auto start = std::chrono::steady_clock::now();
    for (uint32_t i = 0; i < kBurstIters; ++i) {
      state_ = state_ * 6364136223846793005ULL + 1442695040888963407ULL;
      acc_ += table_[(state_ >> 20) & (kTableWords - 1)]++;
      if ((i & 15) == 0) {
        map_[state_ & 4095] = std::to_string(acc_);
      }
    }
    total_ns_ += static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(std::chrono::steady_clock::now() -
                                                             start)
            .count());
    iters_ += kBurstIters;
  }

  // Multiplier from host time measured during the samples to host time at
  // the nominal speed (1 when nothing was sampled).
  double factor() const {
    return iters_ == 0 ? 1.0
                       : kNominalNsPerIter * static_cast<double>(iters_) /
                             static_cast<double>(total_ns_);
  }

 private:
  static constexpr uint32_t kBurstIters = 100'000;
  static constexpr size_t kTableWords = size_t{1} << 12;  // 32 KiB

  std::vector<uint64_t> table_;
  std::unordered_map<uint64_t, std::string> map_;
  uint64_t state_ = 12345;
  uint64_t acc_ = 0;
  uint64_t total_ns_ = 0;
  uint64_t iters_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_HOST_SPEED_H_
