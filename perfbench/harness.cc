#include "perfbench/harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <optional>
#include <set>
#include <unordered_map>

#include "perfbench/host_speed.h"
#include "perfbench/quantile.h"
#include "src/cls/context.h"
#include "src/cls/registry.h"
#include "src/common/rng.h"
#include "src/osd/object_store.h"
#include "src/svc/deadline.h"

namespace perfbench {

using mal::Buffer;
using mal::Status;
using mal::sim::kMillisecond;
using mal::sim::kSecond;
namespace cluster = mal::cluster;
namespace osd = mal::osd;
namespace trace = mal::trace;

void Recorder::Violation(std::string what) {
  ++violations;
  if (violation_examples.size() < 8) {
    violation_examples.push_back(std::move(what));
  }
}

OpToken Workload::Begin(OpKind kind, Time due, const char* span_name,
                        const std::string& entity) {
  OpToken token;
  token.due = due;
  token.kind = kind;
  ++rec_.attempted;
  rec_.pending_events_max =
      std::max(rec_.pending_events_max, cluster_->simulator().pending_events());
  if (probe_ != nullptr && rec_.attempted % Probe::kRootEvery == 0) {
    token.root = probe_->collector.StartSpan(span_name, entity, cluster_->simulator().Now());
  }
  return token;
}

void Workload::Finish(const OpToken& token, const Status& status) {
  Time now = cluster_->simulator().Now();
  if (token.root.valid()) {
    probe_->collector.EndSpan(token.root, now, status.ok() ? "ok" : status.message());
  }
  rec_.pending_events_max =
      std::max(rec_.pending_events_max, cluster_->simulator().pending_events());
  if (!status.ok()) {
    if (Expected(status)) {
      ++rec_.expired;
    } else {
      ++rec_.failed;
    }
    ++rec_.failures_by_code[mal::CodeName(status.code())];
    return;
  }
  ++rec_.ok;
  if (now <= rec_.window_end) {
    ++rec_.ok_in_window;
  }
  double us = static_cast<double>(now - token.due) / 1e3;
  rec_.lat_us.push_back(us);
  if (token.kind == OpKind::kRead) {
    rec_.read_lat_us.push_back(us);
  } else if (token.kind == OpKind::kWrite) {
    rec_.write_lat_us.push_back(us);
  }
}

namespace {

// Ambient scopes of one op: its root span (empty for an unsampled op) and
// its deadline (none when `budget` is 0). Both replace whatever was ambient,
// since closed-loop ops are issued from the previous op's callback. Opened
// around the library call only, never around the generator's own
// scheduling: the simulator captures the ambient trace context and deadline
// into every event it schedules.
class OpScope {
 public:
  OpScope(mal::sim::Actor* actor, const OpToken& token, Time budget)
      : context_(token.root), cleared_(0), deadline_(actor, budget) {}

 private:
  trace::ScopedContext context_;
  mal::ScopedDeadline cleared_;
  mal::svc::ScopedOpDeadline deadline_;
};

// Schedules `fn` after `delay` with no trace context and no deadline in
// force, so the event inherits neither from the op whose callback runs now.
template <typename F>
void ScheduleUntraced(cluster::Cluster& c, Time delay, F&& fn) {
  trace::ScopedContext untraced(trace::TraceContext{});
  mal::ScopedDeadline no_deadline(0);
  c.simulator().Schedule(delay, std::forward<F>(fn));
}

// count / ops, 0 when there were no ops.
double PerOp(uint64_t count, uint64_t ops) {
  return ops == 0 ? 0.0 : static_cast<double>(count) / static_cast<double>(ops);
}

// Status of a single-op transaction: the transport's, else the op's.
Status OpStatus(const Status& transport, const osd::OsdOpReply& reply) {
  if (!transport.ok()) {
    return transport;
  }
  return reply.results.size() == 1 ? reply.results[0].status
                                   : Status::Internal("reply without a result");
}

// 4 OSDs with 2 replicas, 1 monitor and 1 metadata server; everything else
// at default knobs.
cluster::ClusterOptions BenchCluster() {
  cluster::ClusterOptions options;
  options.num_mons = 1;
  options.num_osds = 4;
  options.num_mds = 1;
  options.osd.replicas = 2;
  return options;
}

void RunOrDie(cluster::Cluster& c, const std::function<bool()>& done, const char* what) {
  if (!c.RunUntil(done, 120 * kSecond)) {
    std::fprintf(stderr, "perfbench: set-up step timed out: %s\n", what);
    std::exit(2);
  }
}

// -- rados_mixed / rados_overload ----------------------------------------------

constexpr uint32_t kRadosObjects = 10'007;
constexpr size_t kRadosPayload = 4096;
constexpr uint32_t kRadosClients = 4;
constexpr char kOmapKey[] = "k";

std::string RadosOid(uint64_t obj) { return "obj." + std::to_string(obj); }

// A write's payload carries (object, generation) in a fixed-width header;
// the rest is filler derived from the header, so a read can check both.
constexpr size_t kHeaderBytes = 32;

Buffer RadosPayload(uint64_t obj, uint64_t gen) {
  std::string data(kRadosPayload, '\0');
  std::snprintf(data.data(), kHeaderBytes, "obj=%08" PRIu64 " gen=%012" PRIu64, obj, gen);
  char fill = static_cast<char>('a' + (obj + gen) % 26);
  std::memset(data.data() + kHeaderBytes, fill, kRadosPayload - kHeaderBytes);
  return Buffer(std::move(data));
}

std::string OmapValue(uint64_t obj, uint64_t gen) {
  return std::to_string(obj) + ":" + std::to_string(gen);
}

// One object's bytestream, or its omap value, written with increasing
// generations; generation 0 is the preload. Concurrent writes may apply in
// either order, so the check is the atomic-register rule: a read may not
// return a generation that was acked before some write was issued that was
// itself acked before the read was issued. A write that never acks (it
// failed) stops the acked prefix, which only weakens the check.
struct Register {
  uint64_t issued = 0;     // highest generation issued
  uint64_t prefix = 0;     // every generation <= prefix is acked
  uint64_t max_acked = 0;
  uint64_t floor = 0;      // lowest generation a read issued now may return
  std::set<uint64_t> acked_beyond_prefix;

  // `prefix_at_issue`: the acked prefix when the write was issued.
  void Ack(uint64_t gen, uint64_t prefix_at_issue) {
    max_acked = std::max(max_acked, gen);
    floor = std::max(floor, prefix_at_issue + 1);
    acked_beyond_prefix.insert(gen);
    while (!acked_beyond_prefix.empty() && *acked_beyond_prefix.begin() == prefix + 1) {
      acked_beyond_prefix.erase(acked_beyond_prefix.begin());
      ++prefix;
    }
  }
};

class RadosWorkload : public Workload {
 public:
  RadosWorkload(uint64_t seed, Probe* probe, double rate_hz, Time deadline)
      : Workload(seed, probe),
        rate_hz_(rate_hz),
        deadline_(deadline),
        rng_(seed * 0x9e3779b97f4a7c15ULL + 0x72616461ULL),
        zipf_(kRadosObjects, 0.99),
        data_(kRadosObjects),
        omap_(kRadosObjects) {}

  void Setup() override {
    cluster_ = std::make_unique<cluster::Cluster>(BenchCluster());
    cluster_->Boot();
    for (uint32_t i = 0; i < kRadosClients; ++i) {
      clients_.push_back(cluster_->NewClient());
    }
    Preload();
  }

  void Start() override {
    running_ = true;
    next_due_ = cluster_->simulator().Now();
    ScheduleArrival();
  }
  void Stop() override { running_ = false; }

  double UserBytes() const override {
    double bytes = 0;
    for (uint32_t obj = 0; obj < kRadosObjects; ++obj) {
      bytes += static_cast<double>(kRadosPayload + std::strlen(kOmapKey) +
                                   OmapValue(obj, omap_[obj].max_acked).size());
    }
    return bytes;
  }

  double ReplayObjectStore() const override {
    osd::ObjectStore store;
    std::vector<osd::OpResult> results;
    for (uint32_t obj = 0; obj < kRadosObjects; ++obj) {
      store.ApplyTransaction(RadosOid(obj), PreloadOps(obj), &results);
    }
    uint64_t start = HostNowNs();
    for (const auto& [oid, ops] : probe_->txns) {
      store.ApplyTransaction(oid, ops, &results);
    }
    return PerOp(HostNowNs() - start, probe_->txns.size());
  }

 protected:
  bool Expected(const Status& status) const override {
    return deadline_ > 0 && status.code() == mal::Code::kDeadlineExceeded;
  }

 private:
  static std::vector<osd::Op> PreloadOps(uint64_t obj) {
    std::vector<osd::Op> ops(2);
    ops[0].type = osd::Op::Type::kWriteFull;
    ops[0].data = RadosPayload(obj, 0);
    ops[1].type = osd::Op::Type::kOmapSet;
    ops[1].key = std::string(kOmapKey);
    ops[1].value = OmapValue(obj, 0);
    return ops;
  }

  // Writes every object (generation 0, plus its omap key) with a bounded
  // number of transactions in flight.
  void Preload() {
    constexpr uint32_t kInflight = 256;
    uint32_t next = 0;
    uint32_t done = 0;
    uint32_t failed = 0;
    std::function<void()> pump = [&] {
      while (next < kRadosObjects && next - done < kInflight) {
        uint32_t obj = next++;
        clients_[obj % kRadosClients]->rados.Execute(
            RadosOid(obj), PreloadOps(obj),
            [&](Status s, const osd::OsdOpReply&) {
              ++done;
              failed += s.ok() ? 0 : 1;
              pump();
            });
      }
    };
    pump();
    RunOrDie(*cluster_, [&] { return done == kRadosObjects; }, "rados preload");
    if (failed != 0) {
      std::fprintf(stderr, "perfbench: %u preload writes failed\n", failed);
      std::exit(2);
    }
  }

  // The next arrival is scheduled with no trace context and no deadline in
  // force: whatever is ambient here would be captured into the event and
  // inherited by every later arrival. Runs at the previous arrival's time.
  void ScheduleArrival() {
    Time gap = static_cast<Time>(rng_.Exponential(1e9 / rate_hz_));
    next_due_ += gap;
    ScheduleUntraced(*cluster_, gap, [this] {
      if (!running_) {
        return;
      }
      {
        HarnessScope harness(probe_);
        IssueOne(next_due_);
      }
      ScheduleArrival();
    });
  }

  void IssueOne(Time due) {
    uint64_t obj = zipf_.Next(&rng_);
    double pick = rng_.UniformDouble();
    cluster::Client* client = clients_[next_client_++ % kRadosClients];
    osd::Op op;
    OpKind kind = OpKind::kRead;
    const char* name = "bench.read";
    Register* reg = &data_[obj];
    if (pick < 0.5) {
      op.type = osd::Op::Type::kRead;
    } else if (pick < 0.8) {
      op.type = osd::Op::Type::kWriteFull;
      op.data = RadosPayload(obj, ++reg->issued);
      kind = OpKind::kWrite;
      name = "bench.write_full";
    } else if (pick < 0.9) {
      reg = &omap_[obj];
      op.type = osd::Op::Type::kOmapSet;
      op.key = kOmapKey;
      op.value = OmapValue(obj, ++reg->issued);
      kind = OpKind::kWrite;
      name = "bench.omap_set";
    } else {
      reg = &omap_[obj];
      op.type = osd::Op::Type::kOmapGet;
      op.key = kOmapKey;
      name = "bench.omap_get";
    }
    OpToken token = Begin(kind, due, name, client->name().ToString());
    std::string oid = RadosOid(obj);
    if (SampleReplay()) {
      probe_->txns.emplace_back(oid, std::vector<osd::Op>{op});
    }
    // A write carries its generation and the register's acked prefix at
    // issue; a read carries the lowest generation it may return.
    uint64_t gen = kind == OpKind::kWrite ? reg->issued : 0;
    uint64_t bound = kind == OpKind::kWrite ? reg->prefix : reg->floor;
    osd::Op::Type type = op.type;
    OpScope scope(client, token, deadline_);
    CallSpan call(probe_, Library::kRados);
    client->rados.Execute(
        oid, {std::move(op)},
        [this, token, obj, type, reg, gen, bound](Status s, const osd::OsdOpReply& reply) {
          HarnessScope harness(probe_);
          s = OpStatus(s, reply);
          if (s.ok()) {
            if (gen != 0) {
              reg->Ack(gen, bound);
            } else {
              CheckRead(obj, type, *reg, bound, reply.results[0].out);
            }
          }
          Finish(token, s);
        });
  }

  void CheckRead(uint64_t obj, osd::Op::Type type, const Register& reg, uint64_t floor,
                 const Buffer& out) {
    uint64_t got_gen = 0;
    bool intact = false;
    if (type == osd::Op::Type::kRead) {
      uint64_t got_obj = 0;
      std::string head(out.data(), std::min<size_t>(out.size(), kHeaderBytes));
      intact = out.size() == kRadosPayload &&
               std::sscanf(head.c_str(), "obj=%" SCNu64 " gen=%" SCNu64, &got_obj, &got_gen) ==
                   2 &&
               got_obj == obj && RadosPayload(obj, got_gen) == out;
    } else {
      std::string value(out.data(), out.size());
      size_t colon = value.find(':');
      if (colon != std::string::npos && value.substr(0, colon) == std::to_string(obj)) {
        got_gen = std::strtoull(value.c_str() + colon + 1, nullptr, 10);
        intact = OmapValue(obj, got_gen) == value;
      }
    }
    const char* what = type == osd::Op::Type::kRead ? "read of " : "omap_get of ";
    if (!intact) {
      rec_.Violation(what + RadosOid(obj) + " returned a corrupt value");
    } else if (got_gen < floor || got_gen > reg.issued) {
      rec_.Violation(what + RadosOid(obj) + " returned generation " + std::to_string(got_gen) +
                     ", outside [" + std::to_string(floor) + ", " +
                     std::to_string(reg.issued) + "]");
    }
  }

  double rate_hz_;
  Time deadline_;
  mal::Rng rng_;
  mal::ZipfGenerator zipf_;
  bool running_ = false;
  Time next_due_ = 0;
  uint64_t next_client_ = 0;
  std::vector<Register> data_;
  std::vector<Register> omap_;
};

// -- zlog_append ------------------------------------------------------------------

constexpr uint32_t kZlogLogs = 2;
constexpr uint32_t kZlogBatch = 16;
// Entry sizes are drawn from [48, 80] B (mean 64 B) by the seed.
constexpr size_t kZlogEntryMin = 48;
constexpr size_t kZlogEntrySpread = 33;
constexpr uint32_t kZlogWindow = 4;
// Every kZlogSampleEvery-th batch of a log is read back after the drain.
constexpr uint64_t kZlogSampleEvery = 64;

class ZlogWorkload : public Workload {
 public:
  using Workload::Workload;

  void Setup() override {
    cluster_ = std::make_unique<cluster::Cluster>(BenchCluster());
    cluster_->Boot();
    uint32_t opened = 0;
    for (uint32_t l = 0; l < kZlogLogs; ++l) {
      clients_.push_back(cluster_->NewClient());
      mal::zlog::LogOptions options;
      options.name = "bench" + std::to_string(l);
      options.max_inflight = kZlogWindow;
      logs_.push_back(clients_.back()->OpenLog(options));
      logs_.back()->Open([&opened](Status s) { opened += s.ok() ? 1 : 0; });
    }
    RunOrDie(*cluster_, [&] { return opened == kZlogLogs; }, "zlog open");
    positions_.resize(kZlogLogs);
    next_batch_.assign(kZlogLogs, 0);
  }

  void Start() override {
    running_ = true;
    for (uint32_t l = 0; l < kZlogLogs; ++l) {
      for (uint32_t k = 0; k < kZlogWindow; ++k) {
        IssueBatch(l);
      }
    }
  }
  void Stop() override { running_ = false; }

  double UserBytes() const override {
    return static_cast<double>(acked_bytes_);
  }

  void Verify() override {
    for (uint32_t l = 0; l < kZlogLogs; ++l) {
      std::vector<uint64_t> sorted = positions_[l];
      std::sort(sorted.begin(), sorted.end());
      if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) {
        rec_.Violation("log " + std::to_string(l) + " acked one position twice");
      }
    }
    // Sampled read-back: each sampled entry must hold its exact payload.
    size_t pending = 0;
    for (const Sample& sample : samples_) {
      ++pending;
      logs_[sample.log]->Read(
          sample.position,
          [this, sample, &pending](Status s, mal::zlog::EntryState state, const Buffer& data) {
            --pending;
            if (!s.ok() || state != mal::zlog::EntryState::kData ||
                !(data == Entry(sample.log, sample.batch, sample.index))) {
              rec_.Violation("read-back of log " + std::to_string(sample.log) + " position " +
                             std::to_string(sample.position) + " did not return its entry");
            }
          });
    }
    if (!cluster_->RunUntil([&] { return pending == 0; }, 60 * kSecond)) {
      rec_.Violation("zlog read-back did not finish");
    }
  }

 private:
  struct Sample {
    uint32_t log;
    uint64_t batch;
    uint32_t index;
    uint64_t position;
  };

  // The payload of one entry: its identity, then filler up to a size drawn
  // from the seed, so a read-back can be checked byte for byte.
  Buffer Entry(uint32_t log, uint64_t batch, uint32_t index) const {
    uint64_t entry = (batch * kZlogBatch + index) * kZlogLogs + log;
    mal::Rng rng(seed_ ^ entry * 0x9e3779b97f4a7c15ULL);
    size_t size = kZlogEntryMin + rng.NextBelow(kZlogEntrySpread);
    std::string data(size, static_cast<char>('a' + (batch + index) % 26));
    int n = std::snprintf(data.data(), size, "l=%u b=%" PRIu64 " e=%u", log, batch, index);
    data[static_cast<size_t>(n)] = '|';
    return Buffer(std::move(data));
  }

  void IssueBatch(uint32_t l) {
    if (!running_) {
      return;
    }
    uint64_t batch = next_batch_[l]++;
    std::vector<Buffer> entries;
    entries.reserve(kZlogBatch);
    uint64_t bytes = 0;
    for (uint32_t i = 0; i < kZlogBatch; ++i) {
      entries.push_back(Entry(l, batch, i));
      bytes += entries.back().size();
    }
    cluster::Client* client = clients_[l];
    OpToken token = Begin(OpKind::kWrite, cluster_->simulator().Now(), "bench.append_batch",
                          client->name().ToString());
    OpScope scope(client, token, 0);
    CallSpan call(probe_, Library::kZlog);
    logs_[l]->AppendBatch(
        std::move(entries),
        [this, l, batch, token, bytes](Status s, const std::vector<uint64_t>& positions) {
          HarnessScope harness(probe_);
          if (s.ok()) {
            if (positions.size() != kZlogBatch) {
              rec_.Violation("AppendBatch acked " + std::to_string(positions.size()) +
                             " positions for " + std::to_string(kZlogBatch) + " entries");
            }
            positions_[l].insert(positions_[l].end(), positions.begin(), positions.end());
            acked_bytes_ += bytes;
            if (batch % kZlogSampleEvery == 0) {
              for (uint32_t i = 0; i < positions.size(); ++i) {
                samples_.push_back({l, batch, i, positions[i]});
              }
            }
          }
          Finish(token, s);
          IssueBatch(l);
        });
  }

  bool running_ = false;
  uint64_t acked_bytes_ = 0;
  std::vector<std::unique_ptr<mal::zlog::Log>> logs_;
  std::vector<std::vector<uint64_t>> positions_;
  std::vector<uint64_t> next_batch_;
  std::vector<Sample> samples_;
};

// -- seq_script -------------------------------------------------------------------

constexpr uint32_t kSeqClients = 4;
constexpr uint32_t kSeqObjects = 1024;
constexpr char kSeqPath[] = "/bench.seq";
constexpr char kScriptClass[] = "bench";
constexpr char kScriptMethod[] = "bump";
// Hashes the position (work for the script VM on every op) and bumps a
// per-object counter kept in the object's omap.
constexpr char kScriptSource[] = R"(
function bump(input)
  local pos = tonumber(input)
  local h = pos % 1000003
  for i = 1, 32 do
    h = (h * 31 + i) % 1000003
  end
  cls_create(false)
  local n = cls_omap_get("n")
  if n == nil then
    n = 0
  else
    n = tonumber(n)
  end
  n = n + 1
  cls_omap_set("n", tostring(n))
  return tostring(h) .. ":" .. tostring(n)
end
)";

// The benchmark-side model of the hash the script returns.
uint64_t ModelHash(uint64_t pos) {
  uint64_t h = pos % 1000003;
  for (uint64_t i = 1; i <= 32; ++i) {
    h = (h * 31 + i) % 1000003;
  }
  return h;
}

// Each client thinks for an exponential time (mean 20 µs) between ops.
constexpr double kSeqThinkMeanNs = 20'000;

class SeqScriptWorkload : public Workload {
 public:
  SeqScriptWorkload(uint64_t seed, Probe* probe)
      : Workload(seed, probe),
        rng_(seed * 0x9e3779b97f4a7c15ULL + 0x73657173ULL),
        issued_(kSeqObjects, 0),
        acked_(kSeqObjects, 0),
        last_pos_(kSeqClients, 0),
        has_pos_(kSeqClients, false) {}

  void Setup() override {
    cluster_ = std::make_unique<cluster::Cluster>(BenchCluster());
    cluster_->Boot();
    for (uint32_t i = 0; i < kSeqClients; ++i) {
      clients_.push_back(cluster_->NewClient());
    }
    mal::mds::LeasePolicy policy;
    policy.mode = mal::mds::LeaseMode::kRoundTrip;
    bool created = false;
    clients_[0]->mds.Create(kSeqPath, mal::mds::InodeType::kSequencer, policy,
                            [&created](Status s) { created = s.ok(); });
    RunOrDie(*cluster_, [&] { return created; }, "sequencer create");
    bool installed = false;
    clients_[0]->rados.InstallScriptInterface(kScriptClass, "v1", kScriptSource,
                                              [&installed](Status s) { installed = s.ok(); });
    RunOrDie(
        *cluster_,
        [&] {
          if (!installed) {
            return false;
          }
          for (size_t i = 0; i < cluster_->num_osds(); ++i) {
            if (cluster_->osd(i).registry().ScriptVersion(kScriptClass) != "v1") {
              return false;
            }
          }
          return true;
        },
        "script interface install");
  }

  void Start() override {
    running_ = true;
    for (uint32_t c = 0; c < kSeqClients; ++c) {
      Next(c);
    }
  }
  void Stop() override { running_ = false; }

  double UserBytes() const override {
    double bytes = 0;
    for (uint64_t n : acked_) {
      if (n > 0) {
        bytes += 1.0 + static_cast<double>(std::to_string(n).size());
      }
    }
    return bytes;
  }

  void Verify() override {
    std::sort(all_positions_.begin(), all_positions_.end());
    if (std::adjacent_find(all_positions_.begin(), all_positions_.end()) !=
        all_positions_.end()) {
      rec_.Violation("the sequencer granted one position twice");
    }
  }

  double ReplayClassExec() const override {
    mal::cls::ClassRegistry registry;
    if (!registry.InstallScript(kScriptClass, "v1", kScriptSource).ok()) {
      return 0;
    }
    std::unordered_map<std::string, osd::Object> objects;
    uint64_t total = 0;
    for (const auto& [oid, input] : probe_->cls_inputs) {
      auto it = objects.find(oid);
      osd::TxnObject staged(it == objects.end() ? nullptr : &it->second);
      std::vector<osd::Op> effects;
      mal::cls::ClsContext ctx(oid, &staged, &effects);
      Buffer in = Buffer::FromString(input);
      uint64_t start = HostNowNs();
      auto out = registry.Execute(kScriptClass, kScriptMethod, ctx, in);
      total += HostNowNs() - start;
      if (out.ok()) {
        if (auto object = staged.Materialize()) {
          objects[oid] = std::move(*object);
        }
      }
    }
    return PerOp(total, probe_->cls_inputs.size());
  }

 private:
  void Next(uint32_t c) {
    if (!running_) {
      return;
    }
    cluster::Client* client = clients_[c];
    OpToken token = Begin(OpKind::kOther, cluster_->simulator().Now(), "bench.seq_exec",
                          client->name().ToString());
    OpScope scope(client, token, 0);
    CallSpan call(probe_, Library::kMds);
    client->mds.SeqNext(kSeqPath, [this, c, token](Status s, uint64_t pos) {
      HarnessScope harness(probe_);
      if (!s.ok()) {
        Finish(token, s);
        Think(c);
        return;
      }
      OnPosition(c, token, pos);
    });
  }

  void OnPosition(uint32_t c, const OpToken& token, uint64_t pos) {
    if (has_pos_[c] && pos <= last_pos_[c]) {
      rec_.Violation("client " + std::to_string(c) + " got position " + std::to_string(pos) +
                     " after " + std::to_string(last_pos_[c]));
    }
    has_pos_[c] = true;
    last_pos_[c] = pos;
    all_positions_.push_back(pos);
    uint32_t obj = static_cast<uint32_t>(pos % kSeqObjects);
    uint64_t floor = acked_[obj];
    ++issued_[obj];
    std::string oid = "kv." + std::to_string(obj);
    std::string input = std::to_string(pos);
    if (SampleReplay()) {
      probe_->cls_inputs.emplace_back(oid, input);
    }
    cluster::Client* client = clients_[c];
    CallSpan call(probe_, Library::kRados);
    client->rados.Execute(
        oid, {mal::rados::RadosClient::MakeExecOp(kScriptClass, kScriptMethod,
                                                  Buffer::FromString(input))},
        [this, c, token, pos, obj, floor](Status s, const osd::OsdOpReply& reply) {
          HarnessScope harness(probe_);
          s = OpStatus(s, reply);
          if (s.ok()) {
            CheckReturn(pos, obj, floor, reply.results[0].out);
          }
          Finish(token, s);
          Think(c);
        });
  }

  void Think(uint32_t c) {
    Time think = static_cast<Time>(rng_.Exponential(kSeqThinkMeanNs));
    ScheduleUntraced(*cluster_, think, [this, c] {
      HarnessScope harness(probe_);
      Next(c);
    });
  }

  // The return value must be the model's hash and a counter value that
  // follows every exec acked before this one was issued.
  void CheckReturn(uint64_t pos, uint32_t obj, uint64_t floor, const Buffer& out) {
    std::string got(out.data(), out.size());
    size_t colon = got.find(':');
    uint64_t n =
        colon == std::string::npos ? 0 : std::strtoull(got.c_str() + colon + 1, nullptr, 10);
    if (colon == std::string::npos || got.substr(0, colon) != std::to_string(ModelHash(pos)) ||
        n <= floor || n > issued_[obj]) {
      rec_.Violation("exec for position " + std::to_string(pos) + " returned '" + got + "'");
      return;
    }
    acked_[obj] = std::max(acked_[obj], n);
  }

  mal::Rng rng_;
  bool running_ = false;
  std::vector<uint64_t> issued_;
  std::vector<uint64_t> acked_;
  std::vector<uint64_t> last_pos_;
  std::vector<bool> has_pos_;
  std::vector<uint64_t> all_positions_;
};

// -- measurement --------------------------------------------------------------------

// Cumulative program counters, read through public accessors.
struct Counters {
  uint64_t events = 0;
  uint64_t msgs = 0;
  uint64_t bytes = 0;
  uint64_t drops = 0;
  uint64_t deadline_drops = 0;
  uint64_t shed = 0;
  uint64_t rados_retries = 0;
  uint64_t osd_ops = 0;
  uint64_t cls_execs = 0;
  uint64_t script_instructions = 0;
  uint64_t ic_hits = 0;
  uint64_t ic_misses = 0;
  uint64_t seq_grants = 0;
  uint64_t zlog_batch_retries = 0;
  uint64_t mon_commits = 0;
  uint64_t mon_perf_reports = 0;
};

bool EndsWith(const std::string& s, const char* suffix) {
  size_t n = std::strlen(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

Counters TakeCounters(Workload& w) {
  cluster::Cluster& c = w.cluster();
  Counters out;
  out.events = c.simulator().events_processed();
  out.msgs = c.network().messages_sent();
  out.bytes = c.network().bytes_sent();
  out.drops = c.network().dropped_total();
  auto add_svc = [&out](const mal::sim::Actor& actor) {
    out.deadline_drops += actor.deadline_drops();
    out.shed += actor.shed_total();
  };
  for (size_t i = 0; i < c.num_mons(); ++i) {
    add_svc(c.monitor(i));
    out.mon_commits += c.monitor(i).perf().counter("mon.paxos.commits");
    out.mon_perf_reports += c.monitor(i).perf().counter("mon.perf_reports");
  }
  for (size_t i = 0; i < c.num_osds(); ++i) {
    osd::Osd& daemon = c.osd(i);
    add_svc(daemon);
    mal::PerfSnapshot snap = daemon.perf().Snapshot("", 0);
    for (const auto& [name, value] : snap.counters) {
      if (name.rfind("osd.op.", 0) == 0 && EndsWith(name, ".count")) {
        out.osd_ops += value;
      } else if (name.rfind("osd.cls.", 0) == 0 && EndsWith(name, ".count")) {
        out.cls_execs += value;
      }
    }
    out.osd_ops += snap.counters["osd.repop.count"];
    out.script_instructions += snap.counters["osd.script.instructions"];
    out.ic_hits += snap.counters["osd.script.ic_hits"];
    out.ic_misses += snap.counters["osd.script.ic_misses"];
  }
  for (size_t i = 0; i < c.num_mds(); ++i) {
    add_svc(c.mds(i));
    out.seq_grants += c.mds(i).perf().counter("mds.seq.next") +
                      c.mds(i).perf().counter("mds.seq.batch_grants");
  }
  for (cluster::Client* client : w.clients()) {
    out.rados_retries += client->perf.counter("rados.retries");
    out.zlog_batch_retries += client->perf.counter("zlog.batch_retries");
  }
  return out;
}

double PeakRssMb() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) {
    return 0.0;
  }
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// Critical-path segments (µs per traced op) over the benchmark's root spans.
std::map<std::string, double> CriticalPathMeans(const trace::TraceCollector& collector) {
  uint64_t roots = 0;
  std::map<std::string, uint64_t> total_ns;
  for (const auto& [op, breakdown] : trace::CriticalPathByOp(collector)) {
    if (op.rfind("bench.", 0) != 0) {
      continue;
    }
    roots += breakdown.count;
    for (const auto& [segment, ns] : breakdown.segment_ns) {
      total_ns[segment] += ns;
    }
  }
  std::map<std::string, double> out;
  for (const auto& [segment, ns] : total_ns) {
    out[segment] = PerOp(ns, roots) / 1e3;
  }
  return out;
}

}  // namespace

const WorkloadSpec* FindSpec(const std::string& name) {
  static const WorkloadSpec kSpecs[] = {
      {"rados_mixed", 1.5, 1 * kSecond, 9},
      // A 2 s window at --seconds 15: the regime depends on the window (a
      // longer one deepens the collapse), so this one measures less host
      // time than --seconds.
      {"rados_overload", 2.0 / 15.0, 2 * kSecond, 9},
      {"zlog_append", 0.65, 2 * kSecond, 61},
      {"seq_script", 5.5, 2 * kSecond, 61},
  };
  for (const WorkloadSpec& spec : kSpecs) {
    if (spec.name == name) {
      return &spec;
    }
  }
  return nullptr;
}

std::unique_ptr<Workload> MakeRadosWorkload(uint64_t seed, Probe* probe, double rate_hz,
                                            Time deadline) {
  return std::make_unique<RadosWorkload>(seed, probe, rate_hz, deadline);
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed, Probe* probe) {
  if (name == "rados_mixed") {
    return MakeRadosWorkload(seed, probe, 40'000, 0);
  }
  if (name == "rados_overload") {
    return MakeRadosWorkload(seed, probe, 200'000, 500 * kMillisecond);
  }
  if (name == "zlog_append") {
    return std::make_unique<ZlogWorkload>(seed, probe);
  }
  if (name == "seq_script") {
    return std::make_unique<SeqScriptWorkload>(seed, probe);
  }
  return nullptr;
}

Measurement Measure(Workload& w, const WorkloadSpec& spec, Time window) {
  cluster::Cluster& c = w.cluster();
  Recorder& rec = w.recorder();
  Probe* probe = w.probe();
  std::optional<trace::ScopedCollector> collector;
  std::optional<mal::sim::ScopedProfiler> profiler;
  if (probe != nullptr) {
    collector.emplace(&probe->collector);
    profiler.emplace(&probe->profiler);
  }

  Measurement m;
  Counters before = TakeCounters(w);
  // The window runs in stretches with a host-speed sample after each; the
  // samples' own time is not part of the measured host time.
  constexpr int kStretches = 64;
  HostSpeed speed;
  uint64_t host_ns = 0;
  auto timed = [&host_ns](auto&& fn) {
    uint64_t start = HostNowNs();
    fn();
    host_ns += HostNowNs() - start;
  };
  Time begin = c.simulator().Now();
  rec.window_end = begin + window;
  timed([&] { w.Start(); });
  for (int k = 1; k <= kStretches; ++k) {
    timed([&] { c.simulator().RunUntil(begin + window * k / kStretches); });
    speed.Sample();
  }
  std::vector<double> osd_util;
  for (size_t i = 0; i < c.num_osds(); ++i) {
    osd_util.push_back(c.osd(i).CpuUtilization(window));
  }
  double mds_util = c.mds(0).CpuUtilization(window);
  timed([&] {
    w.Stop();
    c.RunUntil([&rec] { return rec.outstanding() == 0; }, spec.drain_max);
  });
  Counters after = TakeCounters(w);
  w.Verify();

  m.wall_s = static_cast<double>(host_ns) / 1e9;
  m.host_factor = speed.factor();
  m.events = after.events - before.events;
  m.attempted = rec.attempted;
  m.failed = rec.failed + rec.violations;
  m.correct = rec.violations == 0 && rec.failed == 0 && rec.attempted > 0;
  for (const std::string& v : rec.violation_examples) {
    m.notes.push_back("violation: " + v);
  }
  for (const auto& [code, count] : rec.failures_by_code) {
    m.notes.push_back("ended in " + code + ": " + std::to_string(count));
  }

  double window_s = static_cast<double>(window) / 1e9;
  uint64_t ops = rec.attempted;
  uint64_t unresolved = rec.outstanding();
  LatencySummary all = Summarize(&rec.lat_us);
  LatencySummary reads = Summarize(&rec.read_lat_us);
  LatencySummary writes = Summarize(&rec.write_lat_us);

  auto& s = m.sim;
  s["attempted"] = static_cast<double>(ops);
  s["ok"] = static_cast<double>(rec.ok);
  s["expired"] = static_cast<double>(rec.expired);
  s["failed"] = static_cast<double>(rec.failed);
  s["violations"] = static_cast<double>(rec.violations);
  s["unresolved_ops"] = static_cast<double>(unresolved);
  s["goodput_ops_s"] = static_cast<double>(rec.ok_in_window) / window_s;
  s["ok_frac"] = PerOp(rec.ok, ops);
  s["failed_frac"] = PerOp(rec.expired + rec.failed + unresolved, ops);
  s["lat_p50_us"] = all.p50;
  s["lat_p99_us"] = all.p99;
  s["lat_p999_us"] = all.p999;
  s["lat_samples"] = static_cast<double>(all.count);
  s["read_lat_p99_us"] = reads.p99;
  s["read_samples"] = static_cast<double>(reads.count);
  s["write_lat_p99_us"] = writes.p99;
  s["write_samples"] = static_cast<double>(writes.count);
  s["sim.events"] = static_cast<double>(m.events);
  s["sim.pending_events_max"] = static_cast<double>(rec.pending_events_max);

  auto& l = m.layer;
  l["sim.events_per_op"] = PerOp(m.events, ops);
  l["sim.host_ns_per_event"] = PerOp(host_ns, m.events);
  l["sim.pending_events_max"] = static_cast<double>(rec.pending_events_max);
  l["net.msgs_per_op"] = PerOp(after.msgs - before.msgs, ops);
  l["net.bytes_per_op"] = PerOp(after.bytes - before.bytes, ops);
  l["net.drops"] = static_cast<double>(after.drops - before.drops);
  l["svc.deadline_drops_per_op"] = PerOp(after.deadline_drops - before.deadline_drops, ops);
  l["svc.shed_per_op"] = PerOp(after.shed - before.shed, ops);
  l["rados.retries_per_op"] = PerOp(after.rados_retries - before.rados_retries, ops);
  l["client.read_lat_p99_us"] = reads.p99;
  l["client.write_lat_p99_us"] = writes.p99;
  l["osd.ops_per_client_op"] = PerOp(after.osd_ops - before.osd_ops, ops);
  double util_sum = 0;
  double util_max = 0;
  for (double u : osd_util) {
    util_sum += u;
    util_max = std::max(util_max, u);
  }
  l["osd.cpu_util_mean"] = util_sum / static_cast<double>(osd_util.size());
  l["osd.cpu_util_max"] = util_max;
  double store_bytes = 0;
  for (size_t i = 0; i < c.num_osds(); ++i) {
    store_bytes += static_cast<double>(c.osd(i).store().bytes_used());
  }
  double user_bytes = w.UserBytes();
  l["objstore.bytes_per_user_byte"] = user_bytes == 0 ? 0 : store_bytes / user_bytes;
  l["cls.execs_per_op"] = PerOp(after.cls_execs - before.cls_execs, ops);
  l["script.instructions_per_op"] =
      PerOp(after.script_instructions - before.script_instructions, ops);
  uint64_t ic_hits = after.ic_hits - before.ic_hits;
  uint64_t ic_total = ic_hits + (after.ic_misses - before.ic_misses);
  l["script.ic_hit_ratio"] = PerOp(ic_hits, ic_total);
  l["mds.cpu_util"] = mds_util;
  l["mds.seq_grants_per_op"] = PerOp(after.seq_grants - before.seq_grants, ops);
  std::vector<double> queue_us;
  if (const mal::BoundedHistogram* h = c.mds(0).perf().histogram("mds.queue_us")) {
    queue_us = h->samples();
  }
  std::sort(queue_us.begin(), queue_us.end());
  l["mds.queue_p99_us"] = QuantileSorted(queue_us, 0.99);
  l["zlog.batch_retries_per_batch"] =
      PerOp(after.zlog_batch_retries - before.zlog_batch_retries, ops);
  l["mon.paxos_commits_per_s"] =
      static_cast<double>(after.mon_commits - before.mon_commits) / window_s;
  l["mon.perf_reports_per_s"] =
      static_cast<double>(after.mon_perf_reports - before.mon_perf_reports) / window_s;
  l["client.failed_frac"] = s["failed_frac"];
  l["client.unresolved_ops"] = static_cast<double>(unresolved);
  // Every simulated count above is part of the determinism digest.
  for (const auto& [name, value] : l) {
    if (name.find("host_ns") == std::string::npos) {
      s["layer." + name] = value;
    }
  }

  if (probe != nullptr) {
    std::map<std::string, double> cp = CriticalPathMeans(probe->collector);
    l["cp.osd_commit_us"] = cp["osd_commit"];
    l["cp.network_us"] = cp["network"];
    l["cp.seq_wait_us"] = cp["seq_wait"];
    // Client-side self time: the benchmark's root plus the library's own
    // span (zlog.AppendBatch pipeline wait).
    l["cp.queue_us"] = cp["queue"] + cp["other"];
    auto per_call = [probe](Library lib) {
      size_t i = static_cast<size_t>(lib);
      return PerOp(probe->call_ns[i], probe->calls[i]);
    };
    l["rados.issue_host_ns"] = per_call(Library::kRados);
    l["zlog.issue_host_ns"] = per_call(Library::kZlog);
    l["mds.client_issue_host_ns"] = per_call(Library::kMds);
    l["bench.harness_host_ns_per_op"] = PerOp(probe->harness_ns, ops);
    l["objstore.apply_host_ns"] = w.ReplayObjectStore();
    l["cls.exec_host_ns"] = w.ReplayClassExec();
  }
  m.peak_rss_mb = PeakRssMb();
  return m;
}

std::string SimDigest(const Measurement& m) {
  std::string out;
  char line[160];
  for (const auto& [name, value] : m.sim) {
    std::snprintf(line, sizeof(line), "%s=%.17g\n", name.c_str(), value);
    out += line;
  }
  return out;
}

}  // namespace perfbench
