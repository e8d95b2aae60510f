#include "src/common/perf.h"

#include <algorithm>
#include <sstream>

namespace mal {

PerfSnapshot PerfRegistry::Snapshot(const std::string& entity,
                                    uint64_t time_ns) const {
  PerfSnapshot snap;
  snap.entity = entity;
  snap.time_ns = time_ns;
  snap.counters.insert(counters_.begin(), counters_.end());
  snap.gauges.insert(gauges_.begin(), gauges_.end());
  snap.histograms.insert(histograms_.begin(), histograms_.end());
  return snap;
}

void PerfSnapshot::Encode(Buffer* out) const {
  Encoder enc(out);
  enc.PutString(entity);
  enc.PutU64(time_ns);
  enc.PutVarU64(counters.size());
  for (const auto& [name, value] : counters) {
    enc.PutString(name);
    enc.PutU64(value);
  }
  enc.PutVarU64(gauges.size());
  for (const auto& [name, value] : gauges) {
    enc.PutString(name);
    enc.PutF64(value);
  }
  enc.PutVarU64(histograms.size());
  for (const auto& [name, hist] : histograms) {
    enc.PutString(name);
    hist.Encode(&enc);
  }
}

Status PerfSnapshot::Decode(const Buffer& in, PerfSnapshot* out) {
  Decoder dec(in);
  out->entity = dec.GetString();
  out->time_ns = dec.GetU64();
  uint64_t n = dec.GetVarU64();
  for (uint64_t i = 0; i < n && dec.ok(); ++i) {
    std::string name = dec.GetString();
    out->counters[name] = dec.GetU64();
  }
  n = dec.GetVarU64();
  for (uint64_t i = 0; i < n && dec.ok(); ++i) {
    std::string name = dec.GetString();
    out->gauges[name] = dec.GetF64();
  }
  n = dec.GetVarU64();
  for (uint64_t i = 0; i < n && dec.ok(); ++i) {
    std::string name = dec.GetString();
    out->histograms[name] = Histogram::Decode(&dec);
  }
  return dec.Finish();
}

PerfSnapshot AggregateSnapshots(const std::vector<PerfSnapshot>& snapshots) {
  PerfSnapshot out;
  out.entity = "cluster";
  for (const PerfSnapshot& snap : snapshots) {
    out.time_ns = std::max(out.time_ns, snap.time_ns);
    for (const auto& [name, value] : snap.counters) {
      out.counters[name] += value;
    }
    for (const auto& [name, hist] : snap.histograms) {
      out.histograms[name].Merge(hist);
    }
  }
  return out;
}

namespace {

void AppendJsonString(std::ostringstream* out, const std::string& s) {
  *out << '"';
  for (char c : s) {
    switch (c) {
      case '"':
        *out << "\\\"";
        break;
      case '\\':
        *out << "\\\\";
        break;
      case '\n':
        *out << "\\n";
        break;
      default:
        *out << c;
    }
  }
  *out << '"';
}

void AppendSnapshotJson(std::ostringstream* out, const PerfSnapshot& snap,
                        int indent, uint64_t now_ns, uint64_t stale_after_ns) {
  std::string pad(indent, ' ');
  std::string pad2(indent + 2, ' ');
  uint64_t age_ns = now_ns > snap.time_ns ? now_ns - snap.time_ns : 0;
  *out << pad << "{\n";
  *out << pad2 << "\"entity\": ";
  AppendJsonString(out, snap.entity);
  *out << ",\n" << pad2 << "\"time_ns\": " << snap.time_ns << ",\n";
  *out << pad2 << "\"report_age_us\": " << age_ns / 1000 << ",\n";
  if (stale_after_ns > 0 && age_ns > stale_after_ns) {
    *out << pad2 << "\"stale\": true,\n";
  }
  *out << pad2 << "\"counters\": {";
  bool first = true;
  for (const auto& [name, value] : snap.counters) {
    *out << (first ? "" : ",") << "\n" << pad2 << "  ";
    AppendJsonString(out, name);
    *out << ": " << value;
    first = false;
  }
  *out << (first ? "" : "\n" + pad2) << "},\n";
  *out << pad2 << "\"gauges\": {";
  first = true;
  for (const auto& [name, value] : snap.gauges) {
    *out << (first ? "" : ",") << "\n" << pad2 << "  ";
    AppendJsonString(out, name);
    *out << ": " << FormatDouble(value, 3);
    first = false;
  }
  *out << (first ? "" : "\n" + pad2) << "},\n";
  *out << pad2 << "\"histograms\": {";
  first = true;
  for (const auto& [name, hist] : snap.histograms) {
    *out << (first ? "" : ",") << "\n" << pad2 << "  ";
    AppendJsonString(out, name);
    *out << ": {\"count\": " << hist.count()
         << ", \"mean\": " << FormatDouble(hist.mean(), 3)
         << ", \"p50\": " << FormatDouble(hist.Quantile(0.5), 3)
         << ", \"p90\": " << FormatDouble(hist.Quantile(0.9), 3)
         << ", \"p99\": " << FormatDouble(hist.Quantile(0.99), 3)
         << ", \"min\": " << FormatDouble(hist.min(), 3)
         << ", \"max\": " << FormatDouble(hist.max(), 3) << "}";
    first = false;
  }
  *out << (first ? "" : "\n" + pad2) << "}\n";
  *out << pad << "}";
}

}  // namespace

std::string PerfDumpToJson(const std::vector<PerfSnapshot>& snapshots,
                           uint64_t now_ns) {
  return PerfDumpToJson(snapshots, now_ns, PerfDumpOptions{});
}

std::string PerfDumpToJson(const std::vector<PerfSnapshot>& snapshots,
                           uint64_t now_ns, const PerfDumpOptions& options) {
  // Aggregate before rendering: quantiles sort each histogram's samples in
  // place, and the cluster mean sums the entities' samples in report order.
  PerfSnapshot cluster = AggregateSnapshots(snapshots);
  std::ostringstream out;
  out << "{\n  \"time_ns\": " << now_ns << ",\n  \"entities\": [\n";
  for (size_t i = 0; i < snapshots.size(); ++i) {
    AppendSnapshotJson(&out, snapshots[i], 4, now_ns, options.stale_after_ns);
    out << (i + 1 < snapshots.size() ? ",\n" : "\n");
  }
  out << "  ],\n  \"cluster\": \n";
  AppendSnapshotJson(&out, cluster, 2, now_ns, 0);
  for (const auto& [name, json] : options.sections) {
    out << ",\n  ";
    AppendJsonString(&out, name);
    out << ": " << json;
  }
  out << "\n}\n";
  return out.str();
}

}  // namespace mal
