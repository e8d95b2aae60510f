// Self-test of the benchmark harness (not of the program):
//  - the benchmark's own quantile code;
//  - the deadline-enabled open-loop generator below the knee fails no op,
//    so no arrival inherits an earlier op's deadline;
//  - for one seed, simulated results repeat byte for byte across runs and
//    between a traced and an untraced run; another seed changes them.
// Exits 0 when every check passes.
#include <cstdio>
#include <string>
#include <vector>

#include "perfbench/harness.h"
#include "perfbench/quantile.h"

namespace {

using mal::sim::kMillisecond;
using perfbench::Measurement;

int failures = 0;

void Expect(bool ok, const std::string& what) {
  std::printf("%s  %s\n", ok ? "PASS" : "FAIL", what.c_str());
  failures += ok ? 0 : 1;
}

void TestQuantiles() {
  std::vector<double> values;
  for (int i = 1000; i >= 1; --i) {
    values.push_back(i);
  }
  perfbench::LatencySummary s = perfbench::Summarize(&values);
  Expect(s.count == 1000 && s.p50 == 500 && s.p99 == 990 && s.p999 == 999,
         "nearest-rank quantiles of 1..1000");
  std::vector<double> empty;
  Expect(perfbench::Summarize(&empty).p99 == 0, "quantile of an empty sample is 0");
  Expect(perfbench::Median({3, 1, 2}) == 2 && perfbench::Median({4, 1, 3, 2}) == 2.5,
         "median of odd and even counts");
}

Measurement RunOnce(const std::string& name, uint64_t seed, perfbench::Probe* probe,
                    mal::sim::Time window) {
  const perfbench::WorkloadSpec* spec = perfbench::FindSpec(name);
  auto workload = perfbench::MakeWorkload(name, seed, probe);
  workload->Setup();
  return perfbench::Measure(*workload, *spec, window);
}

void TestDeadlineGeneratorBelowKnee() {
  const perfbench::WorkloadSpec* spec = perfbench::FindSpec("rados_overload");
  auto workload = perfbench::MakeRadosWorkload(7, nullptr, 40'000, 500 * kMillisecond);
  workload->Setup();
  Measurement m = perfbench::Measure(*workload, *spec, 1000 * kMillisecond);
  const perfbench::Recorder& rec = workload->recorder();
  Expect(rec.attempted > 30'000, "generator issued ops at 40k/s");
  Expect(rec.expired == 0 && rec.failed == 0 && rec.outstanding() == 0,
         "deadline generator below the knee: no op failed or was left unresolved (" +
             std::to_string(rec.expired) + " expired)");
  Expect(m.layer.at("svc.deadline_drops_per_op") == 0, "no server dropped expired work");
  Expect(m.correct, "correctness checks passed");
}

void TestDeterminism() {
  for (const char* name : {"rados_mixed", "rados_overload", "zlog_append", "seq_script"}) {
    mal::sim::Time window = 200 * kMillisecond;
    std::string first = perfbench::SimDigest(RunOnce(name, 11, nullptr, window));
    std::string again = perfbench::SimDigest(RunOnce(name, 11, nullptr, window));
    perfbench::Probe probe;
    std::string traced = perfbench::SimDigest(RunOnce(name, 11, &probe, window));
    std::string other = perfbench::SimDigest(RunOnce(name, 12, nullptr, window));
    Expect(first == again, std::string(name) + ": same seed, identical simulated results");
    Expect(first == traced, std::string(name) + ": traced run matches the untraced run");
    Expect(!probe.collector.spans().empty(),
           std::string(name) + ": traced run recorded spans");
    Expect(first != other, std::string(name) + ": another seed changes the inputs");
  }
}

}  // namespace

int main() {
  TestQuantiles();
  TestDeadlineGeneratorBelowKnee();
  TestDeterminism();
  std::printf("%d failure(s)\n", failures);
  return failures == 0 ? 0 : 1;
}
