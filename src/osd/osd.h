// Object storage daemon.
//
// Serves object transactions with primary-copy replication, executes
// object-class methods (native and dynamically installed scripts), gossips
// cluster maps peer-to-peer (paper §4.4: "the object storage daemons use a
// gossip protocol to efficiently propagate changes to cluster maps"), and
// installs script interfaces referenced from the OSDMap's service metadata
// without restarting (§4.2, §6.1.2).
//
// Script interfaces ride in the map under two keys per class:
//   cls.src.<name> = MalScript source
//   cls.ver.<name> = version string
// When an OSD applies a map whose cls.ver differs from what it has loaded,
// it (re)installs the class and fires `on_interface_installed` — the hook
// the Figure 8 bench uses to timestamp cluster-wide propagation.
//
// The OSD runs no scrub of its own. It answers the scrub agent's listing
// (src/scrub/agent.h) and, on a confirmed divergence, pulls the primary's
// copy of an object (RecoverObject): objects move between OSDs only by pull.
#ifndef MALACOLOGY_OSD_OSD_H_
#define MALACOLOGY_OSD_OSD_H_

#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "src/cls/builtin.h"
#include "src/cls/registry.h"
#include "src/common/perf.h"
#include "src/common/rng.h"
#include "src/mon/mon_client.h"
#include "src/osd/messages.h"
#include "src/osd/object_store.h"
#include "src/osd/placement.h"
#include "src/sim/actor.h"
#include "src/svc/dispatch.h"

namespace mal::osd {

struct OsdConfig {
  uint32_t replicas = 3;
  // CPU model: fixed per-op cost plus per-byte cost.
  sim::Time op_cpu_cost = 20 * sim::kMicrosecond;
  double per_byte_cpu_ns = 0.5;
  // Script-class execution surcharge relative to native.
  sim::Time script_exec_cost = 30 * sim::kMicrosecond;
  // Gossip: on map change, forward to `gossip_fanout` random up peers;
  // additionally anti-entropy with 1 random peer every `gossip_interval`.
  uint32_t gossip_fanout = 3;
  sim::Time gossip_interval = 2 * sim::kSecond;
  // Cost of decoding a cluster map and (re)installing the interfaces it
  // references (script compilation is the dominant term). Drives the shape
  // of the Fig 8 propagation CDF.
  sim::Time map_apply_cost = 0;
  // Subscribe to monitor pushes; when false the OSD fetches the map once at
  // boot and afterwards relies purely on peer-to-peer gossip (Fig 8).
  bool subscribe_to_mon = true;
  sim::Time replication_timeout = 2 * sim::kSecond;
  // When a primary receives an op for an object it does not hold (e.g. the
  // acting set changed after a failure or a placement-group split), it
  // first tries to pull the object from the other acting-set members.
  bool pull_on_miss = true;
  sim::Time pull_timeout = 1 * sim::kSecond;
  // How often the OSD pushes its perf-counter snapshot to the monitor
  // (0 = disabled).
  sim::Time perf_report_interval = 1 * sim::kSecond;
  // Bounded inbox depth for admission control; 0 disables (see svc/).
  size_t inbox_depth = 0;
  // Per-attempt timeout for this OSD's monitor RPCs (boot registration,
  // map catch-up after a restart). 0 keeps the transport default (5s);
  // recovery-sensitive clusters set ~1s so a dead monitor costs one short
  // stall instead of pinning the OSD in its rejoining state.
  sim::Time mon_request_timeout = 0;
  uint64_t seed = 1;
};

class Osd : public sim::Actor {
 public:
  Osd(sim::Simulator* simulator, sim::Network* network, uint32_t id,
      std::vector<uint32_t> mons, OsdConfig config = {});

  // Registers with the monitor (OsdBoot transaction) and subscribes to maps.
  void Boot();

  const mon::OsdMap& osd_map() const { return osd_map_; }
  ObjectStore& store() { return store_; }
  cls::ClassRegistry& registry() { return registry_; }
  const OsdConfig& config() const { return config_; }

  // Fired when a map with a strictly newer epoch is adopted.
  std::function<void(mon::Epoch)> on_map_applied;
  // Fired when a script interface (re)install completes: (class, version).
  std::function<void(const std::string&, const std::string&)> on_interface_installed;

  // Recovery: pull one object from a peer OSD and install it locally. The
  // copy is refused when it is a shard failing its checksum, or when
  // `version` is set and the copy is at another version (kAborted: the
  // object moved on since the caller looked).
  void RecoverObject(uint32_t from_osd, const std::string& oid,
                     std::optional<uint64_t> version, std::function<void(mal::Status)> on_done,
                     sim::Time timeout = 5 * sim::kSecond);

  void Crash() override;
  void Recover() override;

  // True between Recover() and the map catch-up completing: the OSD answers
  // client ops with kUnavailable (retryable) until it has confirmed the
  // monitor's current OSDMap, so a restarted primary never serves from a
  // stale view of the acting sets. Replication, pulls, scrub repairs and
  // gossip keep flowing so the store stays repairable meanwhile; only the
  // scrub listing is refused, so a pass leaves this OSD out.
  bool rejoining() const { return rejoining_; }

  uint64_t ops_served() const { return ops_served_; }
  mal::PerfRegistry& perf() { return perf_; }

 protected:
  void HandleRequest(const sim::Envelope& request) override;

 private:
  void RegisterHandlers();

  void HandleOsdOp(const sim::Envelope& request, OsdOpRequest req);
  void ExecuteOsdOp(const sim::Envelope& request, OsdOpRequest req,
                    std::vector<uint32_t> acting);
  // Tries candidates[index..] for a copy of req.oid, then executes the op.
  void PullThenExecute(const sim::Envelope& request, OsdOpRequest req,
                       std::vector<uint32_t> candidates, size_t index);
  void HandleRepOp(const sim::Envelope& request, OsdOpRequest req);
  void HandleGossip(const sim::Envelope& request);
  void HandleWatch(const sim::Envelope& request, WatchRequest req);
  void NotifyWatchers(const std::string& oid);
  void HandlePull(const sim::Envelope& request, PullObjectRequest req);
  void HandleScrubList(const sim::Envelope& request);
  void HandleScrubRepair(const sim::Envelope& request, ScrubRepairRequest req);
  void HandleMapUpdate(const sim::Envelope& request);
  // Post-restart map catch-up: fetch the monitor's current OSDMap (retrying
  // until a monitor answers) and only then clear `rejoining_`.
  void CatchUpMap();

  void AdoptMap(const mon::OsdMap& map, bool gossip);
  void AdoptMapNow(const mon::OsdMap& map, bool gossip);
  void InstallScriptInterfaces();
  void GossipTo(uint32_t peer);
  // Fanout variant: the map is encoded once by the caller and shared
  // (COW, O(1) per peer) across every gossip target.
  void GossipTo(uint32_t peer, const mal::Buffer& encoded_map);
  sim::Time OpCost(const OsdOpRequest& req) const;

  // Executes the transaction once against `staged` (the caller's view of
  // req.oid, from ObjectStore::Stage), expanding kExec ops through the class
  // runtime. On success `staged` holds the transaction's effect, ready to
  // commit, and `log` the replicated transaction a replica replays. `log` is
  // null for a transaction with no mutating op and no kExec.
  mal::Status ExpandTransaction(const OsdOpRequest& req, TxnObject* staged,
                                std::vector<OpResult>* results, TxnLog* log);

  // "osd.cls.<cls>.<method>.count" and ".exec_us", built on the method's
  // first call so an exec concatenates no counter names.
  struct ClsCounterNames {
    std::string count;
    std::string exec_us;
  };
  const ClsCounterNames& ClsCounters(const std::string& cls_name, const std::string& method);

  OsdConfig config_;
  svc::ServiceDispatcher dispatcher_{this};
  mon::MonClient mon_client_;
  mon::OsdMap osd_map_;
  PlacementTable placement_;  // for osd_map_
  ObjectStore store_;
  cls::ClassRegistry registry_;
  mal::Rng rng_;
  mal::PerfRegistry perf_;
  std::map<std::string, std::map<std::string, ClsCounterNames>> cls_counter_names_;
  uint64_t ops_served_ = 0;
  bool rejoining_ = false;
  // Watchers per object (client entity names); notified on every commit.
  std::map<std::string, std::set<sim::EntityName>> watchers_;
};

}  // namespace mal::osd

#endif  // MALACOLOGY_OSD_OSD_H_
