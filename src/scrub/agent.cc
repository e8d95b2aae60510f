#include "src/scrub/agent.h"

#include <cstdint>
#include <limits>
#include <memory>
#include <utility>

#include "src/mon/maps.h"
#include "src/osd/placement.h"

namespace mal::scrub {

namespace {

// Repair runs below the client fencing layer: it restores redundancy of an
// existing write generation (same bytes, same stamp) rather than creating
// a new one, so it must pass the ec.check_epoch guard even on sealed
// objects. The max epoch always passes and never advances the seal.
constexpr uint64_t kRepairEpoch = std::numeric_limits<uint64_t>::max();

// An OSD that has not listed its objects by then sits the pass out.
constexpr sim::Time kListTimeout = 1 * sim::kSecond;

}  // namespace

Agent::Agent(sim::Simulator* simulator, sim::Network* network, uint32_t id,
             std::vector<uint32_t> mons, ScrubConfig config)
    : Actor(simulator, network, sim::EntityName::Scrub(id)),
      config_(config),
      rados_(this, std::move(mons)) {
  rados_.set_perf(&perf_);
}

void Agent::Boot() {
  rados_.Connect([](mal::Status) {});
  StartPeriodic(config_.interval, [this] { Tick(); });
  rados_.mon_client().StartPerfReports(config_.report_interval, &perf_);
}

void Agent::HandleRequest(const sim::Envelope& request) {
  if (rados_.OnMapUpdate(request)) {
    return;
  }
  rados_.OnNotify(request);
}

void Agent::Tick() {
  if (busy_) {
    return;  // previous batch or refill still draining; keep the pace honest
  }
  if (!queue_.empty()) {
    busy_ = true;
    ScrubNext(config_.objects_per_tick);
    return;
  }
  // Queue drained: enumerate the EC pools in the current map view and
  // start a fresh pass (the OSD listings follow the pool indexes).
  std::vector<std::pair<std::string, uint32_t>> pools;
  const auto& metadata = rados_.osd_map().service_metadata;
  for (auto it = metadata.lower_bound(mon::kPoolKeyPrefix); it != metadata.end(); ++it) {
    if (it->first.rfind(mon::kPoolKeyPrefix, 0) != 0) {
      break;
    }
    auto layout = mon::PoolLayout::Parse(it->second);
    if (layout.has_value() && layout->kind == mon::PoolLayout::Kind::kErasure) {
      pools.emplace_back(it->first.substr(sizeof(mon::kPoolKeyPrefix) - 1), layout->width);
    }
  }
  pass_open_ = true;
  pass_degraded_ = 0;
  pass_tracked_ = 0;
  busy_ = true;
  Refill(std::move(pools), 0);
}

void Agent::Refill(std::vector<std::pair<std::string, uint32_t>> pools, size_t next) {
  if (next >= pools.size()) {
    pass_tracked_ = queue_.size();
    ListReplicas();
    return;
  }
  auto [pool_name, k] = pools[next];
  ec::Pool pool(&rados_, pool_name, k);
  pool.ListObjects([this, pools = std::move(pools), next, pool_name = pool_name,
                    k = k](mal::Status status, std::vector<std::string> objects) mutable {
    if (status.ok()) {
      for (std::string& object : objects) {
        queue_.push_back(WorkItem{pool_name, k, std::move(object)});
      }
    }
    Refill(std::move(pools), next + 1);
  });
}

void Agent::ListReplicas() {
  std::vector<uint32_t> up;
  for (const auto& [id, info] : rados_.osd_map().osds) {
    if (info.up) {
      up.push_back(id);
    }
  }
  auto listings = std::make_shared<std::map<uint32_t, osd::ScrubListReply>>();
  if (up.empty()) {
    CompareReplicas(*listings);
    return;
  }
  auto pending = std::make_shared<size_t>(up.size());
  for (uint32_t id : up) {
    SendRequest(
        sim::EntityName::Osd(id), osd::kMsgScrubList, mal::Buffer(),
        [this, id, listings, pending](mal::Status status, const sim::Envelope& reply) {
          if (status.ok()) {
            mal::Decoder dec(reply.payload);
            osd::ScrubListReply listing = osd::ScrubListReply::Decode(&dec);
            if (dec.ok()) {
              (*listings)[id] = std::move(listing);
            }
          }
          if (--*pending == 0) {
            CompareReplicas(*listings);
          }
        },
        kListTimeout);
  }
}

void Agent::CompareReplicas(const std::map<uint32_t, osd::ScrubListReply>& listings) {
  std::map<std::string, std::map<uint32_t, uint64_t>> copies;  // oid -> osd -> version
  for (const auto& [id, listing] : listings) {
    for (const auto& [oid, version] : listing.objects) {
      copies[oid][id] = version;
    }
  }
  uint32_t replicas = listings.empty() ? 0 : listings.begin()->second.replicas;
  std::map<std::pair<std::string, uint32_t>, Sighting> divergent;
  uint64_t scanned = 0;
  for (const auto& [oid, held] : copies) {
    std::vector<uint32_t> acting = osd::ActingSetForOid(oid, rados_.osd_map(), replicas);
    auto primary = acting.size() < 2 ? held.end() : held.find(acting[0]);
    if (primary == held.end()) {
      continue;  // a single copy, or no primary copy to compare with
    }
    ++scanned;
    bool degraded = false;
    for (size_t i = 1; i < acting.size(); ++i) {
      auto copy = held.find(acting[i]);
      uint64_t version = copy == held.end() ? 0 : copy->second;
      if (listings.count(acting[i]) == 0 || version == primary->second) {
        continue;  // left out of this pass, or in step
      }
      Sighting seen{acting[0], primary->second, version};
      auto key = std::make_pair(oid, acting[i]);
      auto before = divergent_.find(key);
      if (before != divergent_.end() && before->second == seen) {
        degraded = true;
        queue_.push_back(WorkItem{"", 0, oid, 0, acting[0], acting[i], primary->second});
      }
      divergent.emplace(std::move(key), seen);
    }
    pass_degraded_ += degraded ? 1 : 0;
  }
  divergent_ = std::move(divergent);
  if (scanned > 0) {
    perf_.Inc("scrub.objects_scanned", scanned);
  }
  pass_tracked_ += scanned;
  if (queue_.empty()) {
    FinishPass();
  }
  busy_ = false;  // scrubbing starts on the next tick (paced)
}

void Agent::FinishPass() {
  if (!pass_open_) {
    return;
  }
  pass_open_ = false;
  last_pass_degraded_ = pass_degraded_;
  ++passes_completed_;
  perf_.Set("scrub.degraded_objects", static_cast<double>(pass_degraded_));
  perf_.Set("scrub.objects_tracked", static_cast<double>(pass_tracked_));
}

void Agent::ScrubNext(uint32_t budget) {
  if (queue_.empty()) {
    FinishPass();
    busy_ = false;
    return;
  }
  if (budget == 0) {
    busy_ = false;  // batch exhausted; resume at the next tick
    return;
  }
  WorkItem item = std::move(queue_.front());
  queue_.pop_front();
  if (item.k > 0) {
    ScrubEcObject(item, budget - 1);
  } else {
    RepairReplica(item, budget - 1);
  }
}

void Agent::RepairReplica(const WorkItem& item, uint32_t budget) {
  osd::ScrubRepairRequest req{item.object, item.primary, item.version};
  mal::Buffer payload = mal::EncodeMessage(req);
  sim::Time start = Now();
  SendRequest(sim::EntityName::Osd(item.replica), osd::kMsgScrubRepair, std::move(payload),
              [this, start, budget](mal::Status status, const sim::Envelope&) {
                if (status.ok()) {
                  perf_.Inc("scrub.replicas_repaired");
                  perf_.Observe("scrub.repair_latency_us",
                                static_cast<double>(Now() - start) / 1e3);
                } else {
                  // No retry: the object moved on, or a member is gone. The
                  // next pass looks again.
                  perf_.Inc("scrub.repair_failures");
                }
                ScrubNext(budget);
              });
}

void Agent::ScrubEcObject(const WorkItem& item, uint32_t budget) {
  ec::Pool pool(&rados_, item.pool, item.k);
  std::string object = item.object;
  pool.GatherShards(
      object, [this, pool_name = item.pool, k = item.k, object, attempts = item.attempts,
               budget](std::vector<ec::ShardInfo> shards) mutable {
        perf_.Inc("scrub.objects_scanned");
        uint64_t size = 0;
        uint32_t missing = 0;
        auto generation = ec::SelectGeneration(shards, &size, &missing);
        if (missing == 0) {
          ScrubNext(budget);  // fully redundant, consistent generation
          return;
        }
        if (attempts == 0) {
          ++pass_degraded_;  // count the object once, not per retry
        }
        auto decoded = ec::Decode(generation, size);
        if (!decoded.ok()) {
          // Beyond the code's tolerance (or nothing left at all): record
          // it loudly; only an operator restore can help now.
          perf_.Inc("scrub.unrecoverable");
          rados_.mon_client().Log("ERROR", "scrub: unrecoverable object " + pool_name +
                                               "/" + object + ": " +
                                               decoded.status().ToString());
          ScrubNext(budget);
          return;
        }
        uint64_t shard_len = 0;
        for (const auto& shard : generation) {
          if (shard.has_value()) {
            shard_len = shard->size();
            break;
          }
        }
        sim::Time start = Now();
        ec::Pool repair_pool(&rados_, pool_name, k);
        repair_pool.set_epoch(kRepairEpoch);
        repair_pool.Write(object, decoded.value(),
                          [this, pool_name, k, object, attempts, missing, shard_len,
                           start, budget](mal::Status status) {
                            if (status.ok()) {
                              perf_.Inc("scrub.shards_rebuilt", missing);
                              perf_.Inc("scrub.bytes_rebuilt", missing * shard_len);
                              perf_.Observe("scrub.repair_latency_us",
                                            static_cast<double>(Now() - start) / 1e3);
                            } else {
                              perf_.Inc("scrub.repair_failures");
                              // Retry behind the rest of the pass: map-churn
                              // write failures usually clear within seconds,
                              // and waiting a whole pass widens the window
                              // in which a second fault turns one degraded
                              // object into a data loss.
                              if (attempts + 1 < 3) {
                                queue_.push_back(
                                    WorkItem{pool_name, k, object, attempts + 1});
                              }
                            }
                            ScrubNext(budget);
                          });
      });
}

}  // namespace mal::scrub
