// perfbench: runs one workload of the repository benchmark and prints every
// metric by name with its unit, then one JSON result line.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the workload
// untraced and then traced, checks that the simulated results are
// identical, and reports the per-layer metrics and the tracing overhead.
// Exit status: 0 when every check passed, 1 on a correctness violation or
// an unexpected op failure, 2 on a usage or set-up error.
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/harness.h"
#include "perfbench/host_speed.h"
#include "perfbench/quantile.h"

namespace {

using perfbench::Measurement;
using perfbench::Time;
using perfbench::WorkloadSpec;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = 0;
  std::string out_dir = ".";
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--out <dir>]\n",
               why);
  std::exit(2);
}

Args Parse(int argc, char** argv) {
  Args args;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args.trace = std::atoi(value.c_str());
    } else if (key == "--out") {
      args.out_dir = value;
    } else {
      Usage(("unknown argument " + key).c_str());
    }
  }
  if (argc % 2 != 1 || args.workload.empty() || !have_seed || args.seconds <= 0 ||
      (args.trace != 0 && args.trace != 1)) {
    Usage("missing or malformed arguments");
  }
  return args;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void PrintNotes(const Measurement& m) {
  for (const std::string& note : m.notes) {
    std::printf("note %s\n", note.c_str());
  }
}

// One "sim <name>=<value>" line per simulated result: the determinism
// digest the runner compares across runs of the same seed.
void PrintDigest(const Measurement& m) {
  std::string digest = perfbench::SimDigest(m);
  size_t start = 0;
  while (start < digest.size()) {
    size_t end = digest.find('\n', start);
    std::printf("sim %s\n", digest.substr(start, end - start).c_str());
    start = end + 1;
  }
}

void PrintResult(bool correct, const Measurement& m, const std::vector<Metric>& metrics) {
  for (const Metric& metric : metrics) {
    std::printf("metric %-32s %.6f %s\n", metric.name.c_str(), metric.value, metric.unit);
  }
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": {",
              correct ? "true" : "false", m.attempted, m.failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit);
  }
  std::printf("}}\n");
}

// The per-layer metrics of a traced run, in report order, with units.
constexpr std::pair<const char*, const char*> kLayerMetrics[] = {
    {"sim.events_per_op", "ratio"},
    {"sim.host_ns_per_event", "ns"},
    {"sim.pending_events_max", "count"},
    {"net.msgs_per_op", "ratio"},
    {"net.bytes_per_op", "B"},
    {"net.drops", "count"},
    {"svc.deadline_drops_per_op", "ratio"},
    {"svc.shed_per_op", "ratio"},
    {"rados.retries_per_op", "ratio"},
    {"rados.issue_host_ns", "ns"},
    {"osd.ops_per_client_op", "ratio"},
    {"objstore.apply_host_ns", "ns"},
    {"osd.cpu_util_mean", "ratio"},
    {"osd.cpu_util_max", "ratio"},
    {"cp.osd_commit_us", "us"},
    {"cp.network_us", "us"},
    {"objstore.bytes_per_user_byte", "ratio"},
    {"cls.execs_per_op", "ratio"},
    {"script.instructions_per_op", "ratio"},
    {"script.ic_hit_ratio", "ratio"},
    {"cls.exec_host_ns", "ns"},
    {"mds.cpu_util", "ratio"},
    {"cp.seq_wait_us", "us"},
    {"mds.queue_p99_us", "us"},
    {"mds.seq_grants_per_op", "ratio"},
    {"mds.client_issue_host_ns", "ns"},
    {"cp.queue_us", "us"},
    {"zlog.batch_retries_per_batch", "ratio"},
    {"zlog.issue_host_ns", "ns"},
    {"mon.paxos_commits_per_s", "1/s"},
    {"mon.perf_reports_per_s", "1/s"},
    {"client.read_lat_p99_us", "us"},
    {"client.write_lat_p99_us", "us"},
    {"client.failed_frac", "ratio"},
    {"client.unresolved_ops", "count"},
    {"bench.harness_host_ns_per_op", "ns"},
    {"trace.untraced_wall_s", "s"},
    {"trace.traced_wall_s", "s"},
    {"trace.overhead_ratio", "ratio"},
    {"host.speed_factor", "ratio"},
};

int RunEndToEnd(const Args& args, const WorkloadSpec& spec, Time window) {
  Measurement m;
  {
    auto workload = perfbench::MakeWorkload(args.workload, args.seed, nullptr);
    workload->Setup();
    m = perfbench::Measure(*workload, spec, window);
  }
  // setup_s is the median of several set-ups timed after the measured
  // phase, once the allocator has grown: the first set-ups of a process
  // are several times slower while it does, and that ramp would decide a
  // median of set-ups taken earlier.
  std::vector<double> setups;
  perfbench::HostSpeed setup_speed;
  for (int r = 0; r < spec.setup_repeats; ++r) {
    auto workload = perfbench::MakeWorkload(args.workload, args.seed, nullptr);
    uint64_t start = perfbench::HostNowNs();
    workload->Setup();
    setups.push_back(static_cast<double>(perfbench::HostNowNs() - start) / 1e9);
    setup_speed.Sample();
  }
  PrintDigest(m);
  PrintNotes(m);
  const auto& s = m.sim;
  double setup_s = perfbench::Median(setups);
  std::printf("info as measured: setup_s %.6f (host speed factor %.4f), wall_s %.6f "
              "(factor %.4f)\n",
              setup_s, setup_speed.factor(), m.wall_s, m.host_factor);
  double wall_s = m.wall_s * m.host_factor;
  std::vector<Metric> metrics = {
      {"setup_s", setup_s * setup_speed.factor(), "s"},
      {"wall_s", wall_s, "s"},
      {"host_ns_per_op", wall_s * 1e9 / static_cast<double>(m.attempted), "ns"},
      {"peak_rss_mb", m.peak_rss_mb, "MB"},
      {"goodput_ops_s", s.at("goodput_ops_s"), "1/s"},
      {"lat_p50_us", s.at("lat_p50_us"), "us"},
      {"lat_p99_us", s.at("lat_p99_us"), "us"},
      {"lat_p999_us", s.at("lat_p999_us"), "us"},
      {"ok_frac", s.at("ok_frac"), "ratio"},
  };
  std::printf("info latency samples %.0f (reads %.0f, writes %.0f); read_lat_p99_us %.3f, "
              "write_lat_p99_us %.3f; failed_frac %.6f; unresolved_ops %.0f\n",
              s.at("lat_samples"), s.at("read_samples"), s.at("write_samples"),
              s.at("read_lat_p99_us"), s.at("write_lat_p99_us"), s.at("failed_frac"),
              s.at("unresolved_ops"));
  PrintResult(m.correct, m, metrics);
  return m.correct ? 0 : 1;
}

int RunTraced(const Args& args, const WorkloadSpec& spec, Time window) {
  Measurement plain;
  {
    auto workload = perfbench::MakeWorkload(args.workload, args.seed, nullptr);
    workload->Setup();
    plain = perfbench::Measure(*workload, spec, window);
  }
  perfbench::Probe probe;
  Measurement traced;
  {
    auto workload = perfbench::MakeWorkload(args.workload, args.seed, &probe);
    workload->Setup();
    traced = perfbench::Measure(*workload, spec, window);
  }
  bool identical = perfbench::SimDigest(plain) == perfbench::SimDigest(traced);
  if (!identical) {
    traced.notes.push_back("violation: traced and untraced simulated results differ");
  }
  PrintDigest(plain);
  if (!plain.correct) {
    PrintNotes(plain);
  }
  PrintNotes(traced);

  std::string path = args.out_dir + "/" + args.workload + "-seed" + std::to_string(args.seed) +
                     "-trace.json";
  std::ofstream out(path);
  out << "{\"spans\": " << probe.collector.spans().size()
      << ", \"critical_path\": " << mal::trace::CriticalPathJson(probe.collector)
      << ", \"profile\": " << probe.profiler.ToJson() << "}\n";
  std::printf("info spans written to %s\n", path.c_str());

  // Host times are reported at the nominal host speed (host_speed.h); the
  // traced run's spans are scaled by its own samples.
  std::map<std::string, double> layer = traced.layer;
  for (auto& [name, value] : layer) {
    if (name.find("host_ns") != std::string::npos) {
      value *= traced.host_factor;
    }
  }
  // Host cost per event comes from the untraced run.
  layer["sim.host_ns_per_event"] =
      plain.layer.at("sim.host_ns_per_event") * plain.host_factor;
  layer["host.speed_factor"] = plain.host_factor;
  layer["trace.untraced_wall_s"] = plain.wall_s * plain.host_factor;
  layer["trace.traced_wall_s"] = traced.wall_s * traced.host_factor;
  layer["trace.overhead_ratio"] =
      layer["trace.traced_wall_s"] / layer["trace.untraced_wall_s"];
  std::vector<Metric> metrics;
  for (const auto& [name, unit] : kLayerMetrics) {
    metrics.push_back({name, layer.at(name), unit});
  }
  bool correct = identical && plain.correct && traced.correct;
  traced.failed += identical ? 0 : 1;
  PrintResult(correct, traced, metrics);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args = Parse(argc, argv);
  const WorkloadSpec* spec = perfbench::FindSpec(args.workload);
  if (spec == nullptr) {
    Usage(("unknown workload " + args.workload).c_str());
  }
  // Whole milliseconds, so the window is exactly reproducible.
  double window_ms = args.seconds * spec->sim_seconds_per_host_second * 1000.0;
  Time window = static_cast<Time>(window_ms + 0.5) * mal::sim::kMillisecond;
  std::printf("workload %s seed %" PRIu64 " window_ms %" PRIu64 " trace %d\n",
              args.workload.c_str(), args.seed, window / mal::sim::kMillisecond, args.trace);
  return args.trace == 0 ? RunEndToEnd(args, *spec, window) : RunTraced(args, *spec, window);
}
