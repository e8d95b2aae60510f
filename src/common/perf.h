// Ceph-style per-daemon performance counters. Every daemon owns a
// PerfRegistry (counters, gauges, bounded latency histograms) and
// periodically pushes an encoded PerfSnapshot to the monitor over the
// message bus (kMsgPerfReport); the monitor keeps the latest snapshot per
// entity and serves a cluster-wide JSON dump (kMsgGetPerfDump).
//
// Naming scheme (see docs/observability.md): dot-separated
// "<daemon>.<subsystem>.<metric>", e.g. "osd.op.write.count",
// "mds.cap.grants.quota", "zlog.epoch_refreshes". Histogram values are
// microseconds unless the name says otherwise.
#ifndef MALACOLOGY_COMMON_PERF_H_
#define MALACOLOGY_COMMON_PERF_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "src/common/buffer.h"
#include "src/common/stats.h"

namespace mal {

// The benchmark harness reads registry histograms under this name.
using BoundedHistogram = Histogram;

// Wire-encodable copy of one registry at one instant.
struct PerfSnapshot {
  std::string entity;  // e.g. "osd.2", "mon.0", "client.1"
  uint64_t time_ns = 0;
  std::map<std::string, uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, Histogram> histograms;

  bool empty() const {
    return counters.empty() && gauges.empty() && histograms.empty();
  }

  void Encode(Buffer* out) const;
  static Status Decode(const Buffer& in, PerfSnapshot* out);
};

// The per-daemon metric registry. Single-threaded (simulator), so no locks.
// Names are looked up heterogeneously (std::less<>): a call with a literal
// or a std::string_view allocates nothing unless it creates the entry.
class PerfRegistry {
 public:
  // Registries live for the whole run, so their histograms decimate past
  // this many retained samples instead of growing with op count.
  static constexpr size_t kHistogramSamples = 1024;

  void Inc(std::string_view name, uint64_t delta = 1) { Slot(counters_, name) += delta; }
  void Set(std::string_view name, double value) { Slot(gauges_, name) = value; }
  void Observe(std::string_view name, double value) {
    Slot(histograms_, name, kHistogramSamples).Add(value);
  }

  uint64_t counter(std::string_view name) const {
    auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second;
  }
  double gauge(std::string_view name) const {
    auto it = gauges_.find(name);
    return it == gauges_.end() ? 0 : it->second;
  }
  const Histogram* histogram(std::string_view name) const {
    auto it = histograms_.find(name);
    return it == histograms_.end() ? nullptr : &it->second;
  }

  bool empty() const {
    return counters_.empty() && gauges_.empty() && histograms_.empty();
  }

  PerfSnapshot Snapshot(const std::string& entity, uint64_t time_ns) const;

 private:
  template <typename V>
  using NameMap = std::map<std::string, V, std::less<>>;

  // The entry for `name`, created from `args` if absent: one tree descent
  // either way.
  template <typename V, typename... Args>
  static V& Slot(NameMap<V>& map, std::string_view name, Args&&... args) {
    auto it = map.lower_bound(name);
    if (it == map.end() || it->first != name) {
      it = map.emplace_hint(it, std::piecewise_construct, std::forward_as_tuple(name),
                            std::forward_as_tuple(std::forward<Args>(args)...));
    }
    return it->second;
  }

  NameMap<uint64_t> counters_;
  NameMap<double> gauges_;
  NameMap<Histogram> histograms_;
};

// Sums counters and merges histogram samples across snapshots. Gauges are
// point-in-time per entity and are intentionally dropped from the aggregate
// (a sum of map epochs means nothing); read them per entity instead.
PerfSnapshot AggregateSnapshots(const std::vector<PerfSnapshot>& snapshots);

// Options for PerfDumpToJson beyond the bare snapshot list.
struct PerfDumpOptions {
  // Mark an entity `"stale": true` when its last report is older than this
  // (a crashed-and-not-restarted daemon's snapshot otherwise lingers in the
  // dump forever looking healthy). 0 disables the flag.
  uint64_t stale_after_ns = 0;
  // Extra top-level sections appended after "cluster": name -> pre-rendered
  // JSON value (the monitor injects telemetry/health/profile/trace sections
  // it renders itself).
  std::vector<std::pair<std::string, std::string>> sections;
};

// Renders the monitor's view — one section per entity plus a "cluster"
// aggregate — as JSON. Histograms are summarized (count/mean/p50/p90/p99/max,
// with min/max exact). Each entity carries `report_age_us` (now - snapshot
// time) so consumers can judge freshness.
std::string PerfDumpToJson(const std::vector<PerfSnapshot>& snapshots,
                           uint64_t now_ns);
std::string PerfDumpToJson(const std::vector<PerfSnapshot>& snapshots,
                           uint64_t now_ns, const PerfDumpOptions& options);

}  // namespace mal

#endif  // MALACOLOGY_COMMON_PERF_H_
