// Figure 6: sequencer throughput/latency trade-off across cap policies.
//
// Paper: "The highest performance is achieved using a single client with
// exclusive, cacheable privilege. Round-robin sharing of the sequencer
// resource is affected by the amount of time the resource is held, with
// best-effort performing the worst." Two clients, fixed 0.25 s maximum
// reservation, quota swept; total ops/sec and average latency reported.
//
// Expected shape: exclusive >> large quota > small quota > best-effort in
// throughput; latency falls as quota grows.
#include <functional>

#include "bench/bench_util.h"
#include "bench/cap_experiment.h"
#include "src/cluster/cluster.h"

namespace {

// Where does a sequenced append actually spend its time? The cap sweep
// above measures the sequencer resource alone; this traced run drives full
// round-trip-mode appends (seq RPC + striped OSD write per op) through the
// tracing layer and splits each root span into client queueing, sequencer
// wait, and OSD commit.
mal::bench::HopBreakdown TracedAppendBreakdown(int total_appends) {
  using namespace mal;
  cluster::ClusterOptions options;
  options.num_mons = 1;
  options.num_osds = 3;
  options.num_mds = 1;
  options.osd.replicas = 2;
  options.mon.proposal_interval = 500 * sim::kMillisecond;
  cluster::Cluster cluster(options);
  cluster.Boot();
  auto* client = cluster.NewClient();
  zlog::LogOptions log_options;
  log_options.name = "fig6trace";
  auto log = client->OpenLog(log_options);
  bool opened = false;
  log->Open([&](Status) { opened = true; });
  cluster.RunUntil([&] { return opened; });

  trace::TraceCollector collector;
  trace::ScopedCollector scoped(&collector);
  Buffer payload = Buffer::FromString(std::string(64, 'x'));
  int done = 0;
  std::function<void()> next = [&] {
    if (done >= total_appends) {
      return;
    }
    log->Append(payload, [&](Status, uint64_t) {
      ++done;
      next();
    });
  };
  next();
  cluster.RunUntil([&] { return done >= total_appends; }, 600 * sim::kSecond);
  // Append is a one-entry AppendBatch, so each append is one such root.
  return bench::BreakdownRoots(collector, "zlog.AppendBatch");
}

}  // namespace

int main() {
  using namespace mal::bench;
  using mal::mds::LeaseMode;
  PrintHeader("Figure 6: sequencer throughput vs sharing policy",
              "2 clients, 0.25 s max reservation, quota sweep; plus exclusive "
              "single-client ceiling and best-effort floor. 10 s per config.");
  PrintColumns({"config", "ops_per_sec", "avg_latency_us", "cap_exchanges"});

  JsonReporter json("fig6_seq_throughput");
  auto report = [&json](const CapExperimentConfig& config) {
    CapExperimentResult result = RunCapExperiment(config);
    std::printf("%s\t%.0f\t%.2f\t%llu\n", result.name.c_str(), result.total_ops_per_sec,
                result.mean_latency_us,
                static_cast<unsigned long long>(result.cap_exchanges));
    std::vector<std::pair<std::string, double>> metrics = {
        {"ops_per_sec", result.total_ops_per_sec},
        {"mean_latency_us", result.mean_latency_us},
        {"cap_exchanges", static_cast<double>(result.cap_exchanges)}};
    if (result.events_dropped > 0) {
      // Truncated scatter data: surface it so a plot reader knows. Absent
      // when complete, keeping default-config JSON identical run to run.
      metrics.emplace_back("events_dropped", static_cast<double>(result.events_dropped));
    }
    json.Add(result.name, std::move(metrics));
  };

  // Exclusive: one client, nobody competes, cap never revoked.
  CapExperimentConfig exclusive;
  exclusive.name = "exclusive(1 client)";
  exclusive.mode = LeaseMode::kDelay;
  exclusive.num_clients = 1;
  report(exclusive);

  for (uint64_t quota : {1ULL, 10ULL, 100ULL, 1000ULL, 10000ULL, 100000ULL}) {
    CapExperimentConfig config;
    config.name = "quota(" + std::to_string(quota) + ")";
    config.mode = LeaseMode::kQuota;
    config.quota = quota;
    report(config);
  }

  CapExperimentConfig delay;
  delay.name = "delay(0.25s)";
  delay.mode = LeaseMode::kDelay;
  report(delay);

  CapExperimentConfig best_effort;
  best_effort.name = "best-effort";
  best_effort.mode = LeaseMode::kBestEffort;
  report(best_effort);

  PrintSection("per-hop breakdown (traced round-trip appends)");
  HopBreakdown hops = TracedAppendBreakdown(256);
  PrintBreakdown("round-trip-append", hops);
  std::vector<std::pair<std::string, double>> hop_metrics;
  AppendBreakdown(&hop_metrics, hops);
  json.Add("round-trip-append(breakdown)", std::move(hop_metrics));

  json.Write();
  return 0;
}
