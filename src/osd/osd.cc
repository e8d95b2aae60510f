#include "src/osd/osd.h"

#include <algorithm>
#include <memory>

#include "src/common/log.h"
#include "src/common/trace.h"

namespace mal::osd {
namespace {

// Integrity gate on shard adoption: a pulled/recovered EC shard whose
// ec.cksum xattr no longer matches its bytes is bit-rot, and adopting it
// would re-home the corruption onto a healthy OSD. Refuse; the scrub agent
// re-encodes a clean shard instead. The hash must match ec::Checksum
// (FNV-1a over the bytestream).
bool AdoptableObject(const std::string& oid, const Object& object) {
  if (!ParseEcShardOid(oid).has_value()) {
    return true;
  }
  auto it = object.xattrs.find("ec.cksum");
  if (it == object.xattrs.end()) {
    return true;
  }
  uint64_t h = 0xcbf29ce484222325ULL;
  for (char c : object.data.View()) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return std::to_string(h) == it->second;
}

constexpr size_t kNumOpTypes = static_cast<size_t>(Op::Type::kSnapRemove) + 1;

// Counter labels by Op::Type value, then "unknown" (an undecodable type)
// and "empty" (an op-less transaction).
constexpr const char* kOpLabels[] = {
    "create", "remove", "read", "write", "write_full", "append", "truncate", "stat",
    "omap_get", "omap_set", "omap_del", "omap_list", "xattr_get", "xattr_set", "cmp_xattr",
    "exec", "snap_create", "snap_read", "snap_remove", "unknown", "empty"};
static_assert(sizeof(kOpLabels) / sizeof(kOpLabels[0]) == kNumOpTypes + 2);

struct OpCounterNames {
  std::string count;
  std::string latency_us;
};

// "osd.op.<type>.count" and ".latency_us" for `type`, or for an op-less
// transaction ("empty") when `type` is null. Built once, so the op path
// concatenates no counter names.
const OpCounterNames& OpCounters(const Op::Type* type) {
  static const std::vector<OpCounterNames> kNames = [] {
    std::vector<OpCounterNames> names;
    for (std::string label : kOpLabels) {
      names.push_back({"osd.op." + label + ".count", "osd.op." + label + ".latency_us"});
    }
    return names;
  }();
  if (type == nullptr) {
    return kNames[kNumOpTypes + 1];
  }
  return kNames[std::min(static_cast<size_t>(*type), kNumOpTypes)];
}

}  // namespace

Osd::Osd(sim::Simulator* simulator, sim::Network* network, uint32_t id,
         std::vector<uint32_t> mons, OsdConfig config)
    : Actor(simulator, network, sim::EntityName::Osd(id)),
      config_(config),
      mon_client_(this, std::move(mons)),
      rng_(config.seed * 0x9e3779b97f4a7c15ULL + id) {
  cls::RegisterBuiltinClasses(&registry_);
  RegisterHandlers();
  SetInboxLimit(config_.inbox_depth);
  SetServicePerf(&perf_);
  if (config_.mon_request_timeout > 0) {
    mon_client_.set_request_timeout(config_.mon_request_timeout);
  }
}

void Osd::RegisterHandlers() {
  dispatcher_.OnTyped<OsdOpRequest>(
      kMsgOsdOp, [this](const sim::Envelope& env, OsdOpRequest req) {
        HandleOsdOp(env, std::move(req));
      });
  dispatcher_.OnTyped<OsdOpRequest>(
      kMsgRepOp, [this](const sim::Envelope& env, OsdOpRequest req) {
        HandleRepOp(env, std::move(req));
      });
  dispatcher_.OnTyped<PullObjectRequest>(
      kMsgPullObject, [this](const sim::Envelope& env, PullObjectRequest req) {
        HandlePull(env, std::move(req));
      });
  dispatcher_.On(kMsgScrubList, [this](const sim::Envelope& env) { HandleScrubList(env); });
  dispatcher_.OnTyped<ScrubRepairRequest>(
      kMsgScrubRepair, [this](const sim::Envelope& env, ScrubRepairRequest req) {
        HandleScrubRepair(env, std::move(req));
      });
  dispatcher_.OnTyped<WatchRequest>(
      kMsgWatch, [this](const sim::Envelope& env, WatchRequest req) {
        HandleWatch(env, std::move(req));
      });
  // Raw handlers: gossip uses a Result-returning map decoder, map updates
  // carry nested payloads with their own freshness checks.
  dispatcher_.On(kMsgGossipMap, [this](const sim::Envelope& env) { HandleGossip(env); });
  dispatcher_.On(mon::kMsgMapUpdate,
                 [this](const sim::Envelope& env) { HandleMapUpdate(env); });
}

void Osd::Boot() {
  mon::Transaction boot;
  boot.op = mon::Transaction::Op::kOsdBoot;
  boot.daemon_id = name().id;
  mon_client_.SubmitTransaction(boot, [this](mal::Status s) {
    if (!s.ok()) {
      MAL_WARN(name().ToString()) << "boot registration failed: " << s;
    }
  });
  if (config_.subscribe_to_mon) {
    mon_client_.Subscribe(mon::MapKind::kOsdMap, osd_map_.epoch);
  } else {
    mon_client_.GetMap(mon::MapKind::kOsdMap,
                       [this](mal::Status s, const mon::MapUpdate& update) {
                         if (!s.ok()) {
                           return;
                         }
                         mal::Decoder dec(update.map_payload);
                         auto map = mon::OsdMap::Decode(&dec);
                         if (map.ok()) {
                           AdoptMap(map.value(), /*gossip=*/false);
                         }
                       });
  }
  mon_client_.StartPerfReports(config_.perf_report_interval, &perf_);
  StartPeriodic(config_.gossip_interval, [this] {
    // Anti-entropy: push our map to one random up peer.
    std::vector<uint32_t> peers;
    for (const auto& [id, info] : osd_map_.osds) {
      if (info.up && id != name().id) {
        peers.push_back(id);
      }
    }
    if (!peers.empty()) {
      GossipTo(peers[rng_.NextBelow(peers.size())]);
    }
  });
}

void Osd::Crash() { Actor::Crash(); }

void Osd::Recover() {
  Actor::Recover();
  // ObjectStore contents survive (disk); map may be stale — resubscribe,
  // and gate client ops until we have caught up with the monitor's current
  // map so a stale primary view never serves (or fences) fresh data.
  rejoining_ = true;
  Boot();
  CatchUpMap();
}

void Osd::CatchUpMap() {
  mon_client_.GetMap(
      mon::MapKind::kOsdMap, [this](mal::Status s, const mon::MapUpdate& update) {
        if (!s.ok()) {
          // Monitor unreachable (maybe itself recovering); keep trying — the
          // guard drops the chain if we crash again meanwhile.
          ScheduleGuarded(500 * sim::kMillisecond, [this] { CatchUpMap(); });
          return;
        }
        mal::Decoder dec(update.map_payload);
        auto map = mon::OsdMap::Decode(&dec);
        if (map.ok()) {
          AdoptMap(map.value(), /*gossip=*/false);
        }
        if (rejoining_) {
          rejoining_ = false;
          perf_.Inc("osd.rejoins");
          MAL_DEBUG(name().ToString())
              << "rejoined at epoch " << osd_map_.epoch << "; serving client ops";
        }
      });
}

void Osd::HandleRequest(const sim::Envelope& request) {
  dispatcher_.Dispatch(request);
}

void Osd::HandleMapUpdate(const sim::Envelope& request) {
  mal::Decoder dec(request.payload);
  mon::MapUpdate update = mon::MapUpdate::Decode(&dec);
  if (update.kind != mon::MapKind::kOsdMap) {
    return;
  }
  mal::Decoder map_dec(update.map_payload);
  auto map = mon::OsdMap::Decode(&map_dec);
  if (map.ok()) {
    AdoptMap(map.value(), /*gossip=*/true);
  }
}

sim::Time Osd::OpCost(const OsdOpRequest& req) const {
  sim::Time cost = config_.op_cpu_cost;
  for (const Op& op : req.ops) {
    cost += static_cast<sim::Time>(config_.per_byte_cpu_ns *
                                   static_cast<double>(op.data.size()));
    if (op.type == Op::Type::kExec && !registry_.ScriptVersion(op.cls_name).empty()) {
      cost += config_.script_exec_cost;
    }
  }
  return cost;
}

mal::Status Osd::ExpandTransaction(const OsdOpRequest& req, TxnObject* staged,
                                   std::vector<OpResult>* results, TxnLog* log) {
  results->clear();
  results->resize(req.ops.size());

  for (size_t i = 0; i < req.ops.size(); ++i) {
    const Op& op = req.ops[i];
    OpResult& result = (*results)[i];
    if (op.type == Op::Type::kExec) {
      cls::ClsContext ctx(req.oid, staged, log);
      script::EngineStats sstats;
      auto out = registry_.Execute(op.cls_name, op.method, ctx, op.data, 1'000'000, &sstats);
      // Script-method engine counters, lazily created (absent for native
      // methods and zero deltas, so script-free workloads keep identical
      // perf dumps).
      const std::pair<const char*, uint64_t> kScriptCounters[] = {
          {"osd.script.instructions", sstats.instructions},
          {"osd.script.vm_runs", sstats.vm_runs},
          {"osd.script.oracle_runs", sstats.oracle_runs},
          {"osd.script.ic_hits", sstats.ic_hits},
          {"osd.script.ic_misses", sstats.ic_misses},
          {"osd.script.print_dropped", sstats.print_dropped},
      };
      for (const auto& [name, delta] : kScriptCounters) {
        if (delta != 0) {
          perf_.Inc(name, delta);
        }
      }
      const ClsCounterNames& names = ClsCounters(op.cls_name, op.method);
      perf_.Inc(names.count);
      // Charged execution cost of this method call (the CPU-model share
      // attributable to it: per-byte decode plus script surcharge).
      perf_.Observe(names.exec_us,
                    (config_.per_byte_cpu_ns * static_cast<double>(op.data.size()) +
                     (registry_.ScriptVersion(op.cls_name).empty()
                          ? 0.0
                          : static_cast<double>(config_.script_exec_cost))) /
                        1e3);
      if (!out.ok()) {
        result.status = out.status();
        return result.status;
      }
      result.status = mal::Status::Ok();
      result.out = std::move(out).value();
      continue;
    }
    result.status = ObjectStore::ApplyOp(req.oid, op, staged, &result);
    if (!result.status.ok()) {
      return result.status;
    }
    if (log != nullptr) {
      log->Record(op);
    }
  }
  return mal::Status::Ok();
}

namespace {

// Ops that read the object's prior state: on a primary that does not hold
// the object they are worth a pull from its peers first.
bool ReadsExisting(Op::Type type) {
  switch (type) {
    case Op::Type::kRead:
    case Op::Type::kStat:
    case Op::Type::kOmapGet:
    case Op::Type::kOmapList:
    case Op::Type::kXattrGet:
    case Op::Type::kCmpXattr:
    case Op::Type::kSnapRead:
    case Op::Type::kExec:  // class methods may read prior state
      return true;
    default:
      return false;
  }
}

}  // namespace

void Osd::HandleOsdOp(const sim::Envelope& request, OsdOpRequest req) {
  if (rejoining_) {
    // Freshly restarted: our map view is not yet validated against the
    // monitor. kUnavailable is retryable at the client, and by the retry
    // the catch-up has usually finished.
    ReplyError(request, mal::Status::Unavailable("osd rejoining (map catch-up)"));
    return;
  }
  // Primary check against our map view.
  std::vector<uint32_t> acting = placement_.ActingSet(req.oid, osd_map_, config_.replicas);
  if (acting.empty() || acting[0] != name().id) {
    ReplyError(request, mal::Status::Unavailable("not primary for " + req.oid));
    return;
  }
  // Re-peering: a newly-promoted primary may not hold the object yet. For
  // single-copy EC shards the same situation arises when membership change
  // shifts the shard's canonical home: the data still exists on the old
  // home, so sweep for it — but only for read-only transactions (a write
  // simply lays down the new generation here; stale copies elsewhere lose
  // the stamp plurality and scrub garbage-collects the inconsistency). Only
  // a transaction that reads prior state pays the store lookup here.
  bool mutating = false;
  bool reads_existing = false;
  for (const Op& op : req.ops) {
    mutating = mutating || IsMutating(op.type);
    reads_existing = reads_existing || ReadsExisting(op.type);
  }
  bool sweep_eligible =
      acting.size() > 1 || (!mutating && ParseEcShardOid(req.oid).has_value());
  if (config_.pull_on_miss && reads_existing && sweep_eligible && !store_.Exists(req.oid)) {
    // Candidate holders: the rest of the acting set first, then every
    // other up OSD (after a placement-group split the old acting set can
    // be disjoint from the new one; Ceph consults map history, we sweep).
    std::vector<uint32_t> candidates(acting.begin() + 1, acting.end());
    for (const auto& [id, info] : osd_map_.osds) {
      if (info.up && id != name().id &&
          std::find(candidates.begin(), candidates.end(), id) == candidates.end()) {
        candidates.push_back(id);
      }
    }
    PullThenExecute(request, std::move(req), std::move(candidates), 0);
    return;
  }
  ExecuteOsdOp(request, std::move(req), std::move(acting));
}

void Osd::PullThenExecute(const sim::Envelope& request, OsdOpRequest req,
                          std::vector<uint32_t> candidates, size_t index) {
  std::vector<uint32_t> acting = placement_.ActingSet(req.oid, osd_map_, config_.replicas);
  if (index >= candidates.size()) {
    // Nobody has it; proceed (NotFound).
    ExecuteOsdOp(request, std::move(req), std::move(acting));
    return;
  }
  uint32_t from = candidates[index];
  RecoverObject(
      from, req.oid, std::nullopt,
      [this, request, req, candidates = std::move(candidates), index,
       acting = std::move(acting)](mal::Status status) mutable {
        if (status.ok()) {
          ExecuteOsdOp(request, std::move(req), std::move(acting));
          return;
        }
        // Absent, unreachable or a corrupt shard: keep sweeping for a copy.
        PullThenExecute(request, std::move(req), std::move(candidates), index + 1);
      },
      config_.pull_timeout);
}

void Osd::ExecuteOsdOp(const sim::Envelope& request, OsdOpRequest req,
                       std::vector<uint32_t> acting) {
  sim::Time arrival = Now();
  sim::Time cost = OpCost(req);
  AfterCpu(cost, [this, request, req = std::move(req), acting = std::move(acting), arrival] {
    ++ops_served_;
    // Count the transaction under its first op's type (how Ceph labels a
    // multi-op MOSDOp), and every constituent op individually.
    const OpCounterNames* txn_names =
        &OpCounters(req.ops.empty() ? nullptr : &req.ops[0].type);
    bool may_mutate = false;
    for (const Op& op : req.ops) {
      perf_.Inc(OpCounters(&op.type).count);
      may_mutate = may_mutate || IsMutating(op.type) || op.type == Op::Type::kExec;
    }
    // One lookup and one execution: the staged view the expansion builds
    // is the one the primary commits. A transaction that may mutate is
    // written into its repop payload as it runs, with room reserved for
    // every op but kExec, whose effects the class method records; a
    // read-only one keeps no log.
    TxnObject staged = store_.Stage(req.oid);
    auto results = std::make_shared<std::vector<OpResult>>();
    std::optional<TxnLog> log;
    if (may_mutate) {
      size_t op_bytes = 0;
      for (const Op& op : req.ops) {
        op_bytes += op.type == Op::Type::kExec ? 0 : op.EncodedSize();
      }
      log.emplace(req.oid, op_bytes);
    }
    mal::Status status =
        ExpandTransaction(req, &staged, results.get(), log ? &*log : nullptr);
    if (!status.ok()) {
      perf_.Inc(status.code() == mal::Code::kAborted ? "osd.txn_aborts"
                                                     : "osd.txn_failures");
    }

    auto send_reply = [this, request, results, arrival, txn_names] {
      perf_.Observe(txn_names->latency_us,
                    static_cast<double>(Now() - arrival) / 1e3);
      OsdOpReply reply;
      reply.map_epoch = osd_map_.epoch;
      reply.results = std::move(*results);  // sent once
      Reply(request, mal::EncodeMessage(reply));
    };

    if (!status.ok() || !log || !log->mutating()) {
      send_reply();  // read-only or failed: no replication round
      return;
    }

    store_.Commit(req.oid, std::move(staged), log->removed(), /*mutated=*/true);
    NotifyWatchers(req.oid);

    // Replicate the logged transaction.
    std::vector<uint32_t> replicas(acting.begin() + 1, acting.end());
    if (replicas.empty()) {
      send_reply();
      return;
    }
    // The replicated transaction was encoded once, as it ran; each
    // SendRequest below takes a COW alias of the same bytes, so fan-out is
    // O(replicas), not O(replicas * payload).
    mal::Buffer rep_payload = std::move(*log).Finish();

    auto pending = std::make_shared<size_t>(replicas.size());
    auto replied = std::make_shared<bool>(false);
    for (uint32_t replica : replicas) {
      SendRequest(sim::EntityName::Osd(replica), kMsgRepOp, rep_payload,
                  [pending, replied, send_reply](mal::Status, const sim::Envelope&) {
                    // Timeouts still decrement: a down replica must not
                    // wedge the write (recovery heals it later).
                    if (--*pending == 0 && !*replied) {
                      *replied = true;
                      send_reply();
                    }
                  },
                  config_.replication_timeout);
    }
  });
}

void Osd::HandleRepOp(const sim::Envelope& request, OsdOpRequest req) {
  // A replica is charged op_cpu_cost alone. That is what this path has
  // always charged: the cost used to be computed as OpCost(req) in the same
  // call that move-captured `req`, and GCC built the capture first, so the
  // per-byte term saw no ops. Charging that term (ROADMAP, host-cost item,
  // "Found while doing this") moves simulated results and is its own change.
  sim::Time cost = config_.op_cpu_cost;
  sim::Envelope req_envelope = request;
  AfterCpu(cost, [this, req = std::move(req), req_envelope]() mutable {
    perf_.Inc("osd.repop.count");
    std::vector<OpResult> results;
    // The decoded ops are ours: their keys and values move into the store.
    mal::Status s = store_.ApplyTransaction(req.oid, std::move(req.ops), &results);
    if (!s.ok()) {
      ReplyError(req_envelope, s);
      return;
    }
    Reply(req_envelope, mal::Buffer());
  });
}

const Osd::ClsCounterNames& Osd::ClsCounters(const std::string& cls_name,
                                              const std::string& method) {
  auto& by_method = cls_counter_names_[cls_name];
  auto it = by_method.find(method);
  if (it == by_method.end()) {
    std::string prefix = "osd.cls." + cls_name + "." + method;
    ClsCounterNames names{prefix + ".count", prefix + ".exec_us"};
    it = by_method.emplace(method, std::move(names)).first;
  }
  return it->second;
}

void Osd::AdoptMap(const mon::OsdMap& map, bool gossip) {
  if (map.epoch <= osd_map_.epoch) {
    return;
  }
  if (config_.map_apply_cost > 0) {
    // Charge the decode/install work, then re-check freshness: a newer map
    // may have arrived while this one was being processed.
    AfterCpu(config_.map_apply_cost, [this, map, gossip] {
      if (map.epoch > osd_map_.epoch) {
        AdoptMapNow(map, gossip);
      }
    });
    return;
  }
  AdoptMapNow(map, gossip);
}

void Osd::AdoptMapNow(const mon::OsdMap& map, bool gossip) {
  osd_map_ = map;
  placement_.Clear();
  InstallScriptInterfaces();
  if (on_map_applied) {
    on_map_applied(osd_map_.epoch);
  }
  if (gossip && config_.gossip_fanout > 0) {
    std::vector<uint32_t> peers;
    for (const auto& [id, info] : osd_map_.osds) {
      if (info.up && id != name().id) {
        peers.push_back(id);
      }
    }
    // Encode the map once; every fanout target shares the same bytes.
    mal::Buffer encoded_map;
    if (!peers.empty() && config_.gossip_fanout > 0) {
      encoded_map = mal::EncodeMessage(osd_map_);
    }
    for (uint32_t i = 0; i < config_.gossip_fanout && !peers.empty(); ++i) {
      size_t pick = rng_.NextBelow(peers.size());
      GossipTo(peers[pick], encoded_map);
      peers.erase(peers.begin() + static_cast<ptrdiff_t>(pick));
    }
  }
}

void Osd::InstallScriptInterfaces() {
  constexpr char kSrcPrefix[] = "cls.src.";
  constexpr char kVerPrefix[] = "cls.ver.";
  for (const auto& [key, source] : osd_map_.service_metadata) {
    if (key.rfind(kSrcPrefix, 0) != 0) {
      continue;
    }
    std::string cls_name = key.substr(sizeof(kSrcPrefix) - 1);
    std::string version;
    auto ver_it = osd_map_.service_metadata.find(kVerPrefix + cls_name);
    if (ver_it != osd_map_.service_metadata.end()) {
      version = ver_it->second;
    }
    if (registry_.ScriptVersion(cls_name) == version) {
      continue;  // already current
    }
    mal::Status s = registry_.InstallScript(cls_name, version, source);
    if (!s.ok()) {
      MAL_WARN(name().ToString()) << "script class " << cls_name << " install failed: " << s;
      mon_client_.Log("ERROR", "cls " + cls_name + "@" + version + " install: " + s.ToString());
      continue;
    }
    if (on_interface_installed) {
      on_interface_installed(cls_name, version);
    }
  }
}

void Osd::GossipTo(uint32_t peer) {
  GossipTo(peer, mal::EncodeMessage(osd_map_));
}

void Osd::GossipTo(uint32_t peer, const mal::Buffer& encoded_map) {
  SendOneWay(sim::EntityName::Osd(peer), kMsgGossipMap, encoded_map);
}

void Osd::HandleGossip(const sim::Envelope& request) {
  mal::Decoder dec(request.payload);
  auto map = mon::OsdMap::Decode(&dec);
  if (!map.ok()) {
    return;
  }
  if (map.value().epoch > osd_map_.epoch) {
    AdoptMap(map.value(), /*gossip=*/true);
  } else if (map.value().epoch < osd_map_.epoch) {
    GossipTo(request.from.id);  // peer is behind: push ours back
  }
}

void Osd::HandlePull(const sim::Envelope& request, PullObjectRequest req) {
  auto object = store_.Get(req.oid);
  if (!object.ok()) {
    ReplyError(request, object.status());
    return;
  }
  Reply(request, mal::EncodeMessage(*object.value()));
}

void Osd::RecoverObject(uint32_t from_osd, const std::string& oid,
                        std::optional<uint64_t> version,
                        std::function<void(mal::Status)> on_done, sim::Time timeout) {
  PullObjectRequest req{oid};
  SendRequest(sim::EntityName::Osd(from_osd), kMsgPullObject, mal::EncodeMessage(req),
              [this, oid, version, on_done = std::move(on_done)](mal::Status status,
                                                                 const sim::Envelope& reply) {
                if (!status.ok()) {
                  on_done(status);
                  return;
                }
                mal::Decoder dec(reply.payload);
                Object pulled = Object::Decode(&dec);
                if (!AdoptableObject(oid, pulled)) {
                  on_done(mal::Status::Unavailable("pulled shard failed checksum"));
                  return;
                }
                if (version.has_value() && pulled.version != *version) {
                  on_done(mal::Status::Aborted("pulled " + oid + " at v" +
                                               std::to_string(pulled.version) + ", not v" +
                                               std::to_string(*version)));
                  return;
                }
                store_.Put(oid, std::move(pulled));
                on_done(mal::Status::Ok());
              },
              timeout);
}

void Osd::HandleWatch(const sim::Envelope& request, WatchRequest req) {
  if (req.unwatch) {
    auto it = watchers_.find(req.oid);
    if (it != watchers_.end()) {
      it->second.erase(request.from);
      if (it->second.empty()) {
        watchers_.erase(it);
      }
    }
  } else {
    watchers_[req.oid].insert(request.from);
  }
  Reply(request, mal::Buffer());
}

void Osd::NotifyWatchers(const std::string& oid) {
  auto it = watchers_.find(oid);
  if (it == watchers_.end()) {
    return;
  }
  NotifyEvent event;
  event.oid = oid;
  if (auto object = store_.Get(oid); object.ok()) {
    event.version = object.value()->version;
  }
  mal::Buffer payload = mal::EncodeMessage(event);
  for (const sim::EntityName& watcher : it->second) {
    SendOneWay(watcher, kMsgNotify, payload);
  }
}

void Osd::HandleScrubList(const sim::Envelope& request) {
  if (rejoining_) {
    // Versions read before the map catch-up may be behind a write the
    // rest of the acting set already has: sit this pass out.
    ReplyError(request, mal::Status::Unavailable("osd rejoining (map catch-up)"));
    return;
  }
  ScrubListReply reply;
  reply.replicas = config_.replicas;
  for (std::string& oid : store_.List()) {
    if (!ParseEcShardOid(oid).has_value()) {  // shards are the EC verifier's
      uint64_t version = store_.Get(oid).value()->version;
      reply.objects.emplace_back(std::move(oid), version);
    }
  }
  Reply(request, mal::EncodeMessage(reply));
}

void Osd::HandleScrubRepair(const sim::Envelope& request, ScrubRepairRequest req) {
  RecoverObject(req.source, req.oid, req.version, [this, request](mal::Status status) {
    if (status.ok()) {
      Reply(request, mal::Buffer());
    } else {
      ReplyError(request, status);
    }
  });
}

}  // namespace mal::osd
