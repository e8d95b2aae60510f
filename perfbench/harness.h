// Workload drivers and the measurement loop of the repository benchmark.
//
// Every workload boots its own simulated cluster through cluster::Cluster,
// drives it from at most four client actors, and takes every timing and
// count from outside the program through public calls. See README.md in
// this directory for the metrics, the workloads and why each was chosen.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/common/trace.h"
#include "src/sim/profiler.h"

namespace perfbench {

using mal::sim::Time;

inline uint64_t HostNowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

// Client libraries the benchmark calls into; host time spent inside each
// call is accumulated per library in the traced run.
enum class Library { kRados = 0, kZlog = 1, kMds = 2 };
constexpr size_t kNumLibraries = 3;

// Instrumentation of the traced run. Absent (null) in untraced runs, so the
// end-to-end figures are measured with no tracing code on the path.
struct Probe {
  // Every kRootEvery-th op gets a root span; the program's rpc:/handle:
  // spans attach beneath it. Sampling by op index keeps the trace
  // deterministic.
  static constexpr uint64_t kRootEvery = 4;
  // Every kReplayEvery-th op's input is kept for the host-cost replays.
  static constexpr uint64_t kReplayEvery = 16;

  mal::trace::TraceCollector collector;
  mal::sim::Profiler profiler;

  std::array<uint64_t, kNumLibraries> call_ns{};
  std::array<uint64_t, kNumLibraries> calls{};
  // Host time in the benchmark's own generator and callbacks, excluding
  // the calls into the program made from them.
  uint64_t harness_ns = 0;
  uint64_t program_ns = 0;  // sum of call_ns, for the harness subtraction
  int harness_depth = 0;

  // Sampled inputs for the replays: object transactions (rados workloads)
  // and object-class inputs (seq_script).
  std::vector<std::pair<std::string, std::vector<mal::osd::Op>>> txns;
  std::vector<std::pair<std::string, std::string>> cls_inputs;
};

// Times one call into a client library (no-op without a probe).
class CallSpan {
 public:
  CallSpan(Probe* probe, Library library)
      : probe_(probe), library_(library), start_(probe != nullptr ? HostNowNs() : 0) {}
  ~CallSpan() {
    if (probe_ != nullptr) {
      uint64_t ns = HostNowNs() - start_;
      probe_->call_ns[static_cast<size_t>(library_)] += ns;
      ++probe_->calls[static_cast<size_t>(library_)];
      probe_->program_ns += ns;
    }
  }
  CallSpan(const CallSpan&) = delete;
  CallSpan& operator=(const CallSpan&) = delete;

 private:
  Probe* probe_;
  Library library_;
  uint64_t start_;
};

// Times a stretch of the benchmark's own code (generator events and
// completion callbacks), minus the library calls made inside it. Nested
// scopes count once, through the outermost.
class HarnessScope {
 public:
  explicit HarnessScope(Probe* probe)
      : probe_(probe != nullptr && probe->harness_depth++ == 0 ? probe : nullptr),
        depth_owner_(probe),
        start_(probe_ != nullptr ? HostNowNs() : 0),
        program_at_start_(probe_ != nullptr ? probe_->program_ns : 0) {}
  ~HarnessScope() {
    if (probe_ != nullptr) {
      uint64_t elapsed = HostNowNs() - start_;
      uint64_t in_program = probe_->program_ns - program_at_start_;
      probe_->harness_ns += elapsed > in_program ? elapsed - in_program : 0;
    }
    if (depth_owner_ != nullptr) {
      --depth_owner_->harness_depth;
    }
  }
  HarnessScope(const HarnessScope&) = delete;
  HarnessScope& operator=(const HarnessScope&) = delete;

 private:
  Probe* probe_;
  Probe* depth_owner_;
  uint64_t start_;
  uint64_t program_at_start_;
};

enum class OpKind { kRead, kWrite, kOther };

// One in-flight op as the benchmark tracks it.
struct OpToken {
  Time due = 0;  // open loop: scheduled arrival; closed loop: issue time
  OpKind kind = OpKind::kOther;
  mal::trace::TraceContext root;  // valid only for sampled ops in traced runs
};

// Op accounting shared by every workload.
struct Recorder {
  Time window_end = std::numeric_limits<Time>::max();
  uint64_t attempted = 0;
  uint64_t ok = 0;
  uint64_t ok_in_window = 0;
  // Ops that ended in their op deadline (rados_overload only): the
  // workload's designed outcome above the knee, counted in failed_frac.
  uint64_t expired = 0;
  // Ops that ended in any other error: a failure of the program.
  uint64_t failed = 0;
  std::map<std::string, uint64_t> failures_by_code;
  std::vector<double> lat_us;
  std::vector<double> read_lat_us;
  std::vector<double> write_lat_us;
  size_t pending_events_max = 0;
  uint64_t violations = 0;
  std::vector<std::string> violation_examples;

  uint64_t outstanding() const { return attempted - ok - expired - failed; }
  void Violation(std::string what);
};

class Workload {
 public:
  Workload(uint64_t seed, Probe* probe) : seed_(seed), probe_(probe) {}
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  // Boot, preload, client connect, interface install and log open: the
  // part `setup_s` times.
  virtual void Setup() = 0;
  // Starts issuing ops at the current simulated time.
  virtual void Start() = 0;
  // Stops issuing new ops; ops in flight keep running.
  virtual void Stop() = 0;
  // Post-drain correctness checks that need the cluster (read-backs).
  virtual void Verify() {}
  // Logical bytes the benchmark's model holds live in the store.
  virtual double UserBytes() const = 0;
  // Host ns per call of a replay of the sampled inputs through one layer
  // (traced run only); 0 where the workload does not use the layer.
  virtual double ReplayObjectStore() const { return 0; }
  virtual double ReplayClassExec() const { return 0; }

  mal::cluster::Cluster& cluster() { return *cluster_; }
  Recorder& recorder() { return rec_; }
  const std::vector<mal::cluster::Client*>& clients() const { return clients_; }
  Probe* probe() const { return probe_; }

 protected:
  // Counts the op as attempted and, in a traced run, opens its root span.
  OpToken Begin(OpKind kind, Time due, const char* span_name, const std::string& entity);
  // Records the op's outcome and closes its root span.
  void Finish(const OpToken& token, const mal::Status& status);
  // True when the status is the op deadline firing (see Recorder::expired).
  virtual bool Expected(const mal::Status&) const { return false; }
  bool SampleReplay() const {
    return probe_ != nullptr && rec_.attempted % Probe::kReplayEvery == 0;
  }

  uint64_t seed_;
  Probe* probe_;
  std::unique_ptr<mal::cluster::Cluster> cluster_;
  std::vector<mal::cluster::Client*> clients_;
  Recorder rec_;
};

struct WorkloadSpec {
  std::string name;
  // Simulated window per host second of --seconds. The window must be a
  // pure function of the arguments so simulated metrics repeat exactly;
  // the ratio is sized on a 4-core x86 host so a run measures about
  // --seconds of host time.
  double sim_seconds_per_host_second = 1.0;
  // Longest drain after the window, simulated time.
  Time drain_max = 2 * mal::sim::kSecond;
  // Set-up repeats per untraced run (setup_s is their median).
  int setup_repeats = 3;
};

// The four workloads; nullptr for an unknown name.
const WorkloadSpec* FindSpec(const std::string& name);
std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed, Probe* probe);
// rados_overload's generator with its 500 ms op deadline, at an arbitrary
// rate (the self-test runs it below the knee).
std::unique_ptr<Workload> MakeRadosWorkload(uint64_t seed, Probe* probe, double rate_hz,
                                            Time deadline);

// One measured phase: window, stop, bounded drain, checks.
struct Measurement {
  double wall_s = 0;      // host time of window + drain, as measured
  // HostSpeed factor sampled during the window: host times are reported
  // multiplied by it (see host_speed.h).
  double host_factor = 1;
  double peak_rss_mb = 0;
  uint64_t events = 0;    // simulator events in window + drain
  // Simulated-clock results: repeat exactly for a fixed seed.
  std::map<std::string, double> sim;
  // Per-layer figures from counters (simulated) and host-time spans
  // (names containing "host_ns", as measured).
  std::map<std::string, double> layer;
  uint64_t attempted = 0;
  uint64_t failed = 0;  // unexpected errors + correctness violations
  bool correct = true;
  std::vector<std::string> notes;
};

Measurement Measure(Workload& workload, const WorkloadSpec& spec, Time window);

// Canonical text of the simulated results, compared byte for byte.
std::string SimDigest(const Measurement& m);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
