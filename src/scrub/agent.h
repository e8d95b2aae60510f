// Background scrub and self-healing repair (paper §4.4: "RADOS protects
// data using common techniques such as erasure coding, replication, and
// scrubbing"). The agent is the cluster's only scrubber: a maintenance
// actor (entity "scrub.<id>") whose passes run one verifier per layout and
// feed one paced repair queue (docs/ec_pools.md).
//
// - EC: walks each EC pool's object index (pools come from the OSDMap's
//   service metadata) and gathers every object's k+1 checksummed shards. A
//   lost, bit-rotted, stranded or stale shard is repaired by decoding the
//   surviving generation and re-writing the full stripe onto the current
//   canonical homes, so whole-OSD rebuild is the same path.
// - Replicated: lists every up OSD's non-shard objects with their versions
//   (kMsgScrubList) and compares each replica with its primary on acting
//   sets from the agent's own map (absent = version 0; an OSD that does not
//   answer sits the pass out). Repops carry no version, so a divergence is
//   confirmed only when the previous pass saw the same versions: repairing
//   a replica behind an in-flight repop would apply it twice. The repair
//   tells the replica to pull the primary's copy at the confirmed version
//   (kMsgScrubRepair); after an OSD loss this re-replicates every object
//   onto its new acting-set members.
//
// Both feed the scrub.* perf counters and the per-pass degraded/tracked
// gauges, pushed to the monitor, where the ec_degraded / scrub_stalled
// health rules watch them.
#ifndef MALACOLOGY_SCRUB_AGENT_H_
#define MALACOLOGY_SCRUB_AGENT_H_

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "src/common/perf.h"
#include "src/ec/pool.h"
#include "src/osd/messages.h"
#include "src/rados/client.h"
#include "src/sim/actor.h"

namespace mal::scrub {

struct ScrubConfig {
  // Pacing: every `interval` the agent scrubs up to `objects_per_tick`
  // queued objects (sequentially, so at most one gather/repair is in flight).
  sim::Time interval = 500 * sim::kMillisecond;
  uint32_t objects_per_tick = 4;
  // Perf-report cadence to the monitor (0 disables).
  sim::Time report_interval = 1 * sim::kSecond;
};

class Agent : public sim::Actor {
 public:
  Agent(sim::Simulator* simulator, sim::Network* network, uint32_t id,
        std::vector<uint32_t> mons, ScrubConfig config = {});

  // Connects to the monitors and starts the periodic scrub tick.
  void Boot();

  mal::PerfRegistry& perf() { return perf_; }
  rados::RadosClient& rados() { return rados_; }

  // Objects found degraded (and repaired, where possible) during the most
  // recently completed pass; mirrors the scrub.degraded_objects gauge.
  uint64_t last_pass_degraded() const { return last_pass_degraded_; }
  // Completed passes over every EC pool and every listed OSD.
  uint64_t passes_completed() const { return passes_completed_; }

 protected:
  void HandleRequest(const sim::Envelope& request) override;

 private:
  // One queued repair: EC object `object` of `pool` when k > 0, else the
  // replicated object `object`, whose copy on `replica` is re-pulled from
  // `primary` at `version`.
  struct WorkItem {
    std::string pool;
    uint32_t k = 0;
    std::string object;
    // Repair attempts already made this pass: a failed EC repair (e.g. the
    // map still routing a shard to a dead OSD mid-failover) requeues the
    // object instead of leaving it degraded until the next pass.
    uint32_t attempts = 0;
    uint32_t primary = 0;
    uint32_t replica = 0;
    uint64_t version = 0;
  };
  // A divergent replica as one pass saw it: (primary, primary version,
  // replica version).
  using Sighting = std::tuple<uint32_t, uint64_t, uint64_t>;

  void Tick();
  // Rebuilds the work queue: one index listing per EC pool in the current
  // map, chained sequentially for determinism, then the OSD listings.
  void Refill(std::vector<std::pair<std::string, uint32_t>> pools, size_t next);
  // Lists every up OSD, then compares their replicated objects.
  void ListReplicas();
  void CompareReplicas(const std::map<uint32_t, osd::ScrubListReply>& listings);
  void FinishPass();
  // Scrubs the queue head, then continues the batch until `budget` runs out.
  void ScrubNext(uint32_t budget);
  void ScrubEcObject(const WorkItem& item, uint32_t budget);
  void RepairReplica(const WorkItem& item, uint32_t budget);

  ScrubConfig config_;
  rados::RadosClient rados_;
  mal::PerfRegistry perf_;
  std::deque<WorkItem> queue_;
  // Divergences the last pass saw, by (oid, replica): a repeat sighting in
  // the next pass confirms one.
  std::map<std::pair<std::string, uint32_t>, Sighting> divergent_;
  bool busy_ = false;        // a batch (or the refill) is in flight
  bool pass_open_ = false;   // stats below describe the current pass
  uint64_t pass_degraded_ = 0;
  uint64_t pass_tracked_ = 0;
  uint64_t last_pass_degraded_ = 0;
  uint64_t passes_completed_ = 0;
};

}  // namespace mal::scrub

#endif  // MALACOLOGY_SCRUB_AGENT_H_
