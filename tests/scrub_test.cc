// Replicated-object scrub in the scrub agent: divergence detection and
// repair by pull, the two-pass confirmation that spares replicas behind an
// in-flight repop, passes that leave an unheard OSD out, re-replication onto
// a new acting-set member after an OSD loss, and the ec_degraded health rule
// over replicated objects.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/ec/pool.h"
#include "src/osd/placement.h"

namespace mal {
namespace {

using cluster::Cluster;
using cluster::ClusterOptions;

ClusterOptions Options(uint32_t num_osds, uint32_t replicas) {
  ClusterOptions options;
  options.num_osds = num_osds;
  options.osd.replicas = replicas;
  options.mon.proposal_interval = 200 * sim::kMillisecond;
  return options;
}

Status WriteFull(Cluster* cluster, cluster::Client* client, const std::string& oid,
                 const std::string& data) {
  std::optional<Status> written;
  client->rados.WriteFull(oid, Buffer::FromString(data), [&](Status s) { written = s; });
  EXPECT_TRUE(cluster->RunUntil([&] { return written.has_value(); }));
  return written.value_or(Status::TimedOut("no callback"));
}

std::vector<uint32_t> Acting(Cluster* cluster, const std::string& oid) {
  return osd::ActingSetForOid(oid, cluster->osd(0).osd_map(), cluster->options().osd.replicas);
}

const osd::Object* Copy(Cluster* cluster, uint32_t osd_id, const std::string& oid) {
  auto object = cluster->osd(osd_id).store().Get(oid);
  return object.ok() ? object.value() : nullptr;
}

// Runs `passes` more complete agent passes; returns the largest degraded
// count any of them reported.
uint64_t RunPasses(Cluster* cluster, scrub::Agent* agent, uint64_t passes) {
  uint64_t target = agent->passes_completed() + passes;
  uint64_t max_degraded = 0;
  uint64_t seen = agent->passes_completed();
  EXPECT_TRUE(cluster->RunUntil(
      [&] {
        if (agent->passes_completed() != seen) {
          seen = agent->passes_completed();
          max_degraded = std::max(max_degraded, agent->last_pass_degraded());
        }
        return seen >= target;
      },
      120 * sim::kSecond));
  return max_degraded;
}

scrub::ScrubConfig FastScrub() {
  scrub::ScrubConfig config;
  config.interval = 200 * sim::kMillisecond;
  return config;
}

TEST(ReplicaScrubTest, ScrubDetectsDivergence) {
  Cluster cluster(Options(4, 2));
  cluster.Boot();
  auto* client = cluster.NewClient();
  ASSERT_TRUE(WriteFull(&cluster, client, "scrub-obj", "clean").ok());
  auto acting = Acting(&cluster, "scrub-obj");
  ASSERT_EQ(acting.size(), 2u);

  // Matching replicas scrub clean.
  auto* agent = cluster.NewScrubAgent(FastScrub());
  EXPECT_EQ(RunPasses(&cluster, agent, 3), 0u);
  EXPECT_GE(agent->perf().counter("scrub.objects_scanned"), 3u);
  EXPECT_EQ(agent->perf().counter("scrub.replicas_repaired"), 0u);

  // Bump one copy's version out-of-band: the second pass to see it confirms
  // the divergence and the replica re-pulls the primary's copy.
  osd::Object tampered = *Copy(&cluster, acting[1], "scrub-obj");
  tampered.version += 7;
  cluster.osd(acting[1]).store().Put("scrub-obj", tampered);
  EXPECT_EQ(RunPasses(&cluster, agent, 4), 1u);
  EXPECT_EQ(agent->perf().counter("scrub.replicas_repaired"), 1u);
  EXPECT_EQ(agent->perf().counter("scrub.repair_failures"), 0u);
  EXPECT_EQ(Copy(&cluster, acting[1], "scrub-obj")->version,
            Copy(&cluster, acting[0], "scrub-obj")->version);
  EXPECT_EQ(agent->last_pass_degraded(), 0u);
}

TEST(ReplicaScrubTest, BackgroundScrubRepairsTamperedReplica) {
  Cluster cluster(Options(4, 2));
  cluster.Boot();
  auto* client = cluster.NewClient();
  ASSERT_TRUE(WriteFull(&cluster, client, "scrubbed", "authoritative").ok());
  auto acting = Acting(&cluster, "scrubbed");
  ASSERT_EQ(acting.size(), 2u);

  // Tamper with the replica (not the primary): the primary is authoritative.
  uint32_t replica = acting[1];
  osd::Object tampered = *Copy(&cluster, replica, "scrubbed");
  tampered.data = Buffer::FromString("bitrot!");
  tampered.version += 3;
  cluster.osd(replica).store().Put("scrubbed", tampered);

  auto* agent = cluster.NewScrubAgent();
  bool repaired = cluster.RunUntil(
      [&] { return agent->perf().counter("scrub.replicas_repaired") > 0; }, 60 * sim::kSecond);
  EXPECT_TRUE(repaired) << "scrub never repaired the tampered replica";
  EXPECT_EQ(Copy(&cluster, replica, "scrubbed")->data.ToString(), "authoritative");
  EXPECT_EQ(Copy(&cluster, replica, "scrubbed")->version,
            Copy(&cluster, acting[0], "scrubbed")->version);
}

// Repops to the replica take up to 400 ms on the wire, so a listing can
// catch the replica one version behind a committed write, but never twice
// at the same versions: listings are 500 ms apart and the writer idles
// between appends. Repairing on one sighting would re-pull copies that were
// only in flight (and, with a write still queued behind the repop, apply
// that repop twice).
TEST(ReplicaScrubTest, WriteInFlightAcrossListingsIsNotRepaired) {
  Cluster cluster(Options(4, 2));
  cluster.Boot();
  auto* client = cluster.NewClient();
  ASSERT_TRUE(WriteFull(&cluster, client, "hot", "").ok());
  auto acting = Acting(&cluster, "hot");
  ASSERT_EQ(acting.size(), 2u);
  sim::FaultSpec slow;
  slow.reorder_prob = 1.0;
  slow.reorder_delay = 400 * sim::kMillisecond;
  cluster.network().SetLinkFaults(sim::EntityName::Osd(acting[0]),
                                  sim::EntityName::Osd(acting[1]), slow);

  auto* agent = cluster.NewScrubAgent();
  uint64_t behind = 0;  // listings that caught the replica behind
  for (int i = 0; i < 30; ++i) {
    std::optional<Status> appended;
    client->rados.Append("hot", Buffer::FromString("x"), [&](Status s) { appended = s; });
    ASSERT_TRUE(cluster.RunUntil([&] {
      const osd::Object* replica = Copy(&cluster, acting[1], "hot");
      behind += replica->version != Copy(&cluster, acting[0], "hot")->version;
      return appended.has_value();
    }));
    ASSERT_TRUE(appended->ok()) << *appended;
    cluster.RunFor(700 * sim::kMillisecond);
  }
  RunPasses(&cluster, agent, 3);

  EXPECT_GT(behind, 0u);
  EXPECT_EQ(agent->perf().counter("scrub.replicas_repaired"), 0u);
  EXPECT_EQ(agent->perf().counter("scrub.repair_failures"), 0u);
  const osd::Object* primary = Copy(&cluster, acting[0], "hot");
  const osd::Object* replica = Copy(&cluster, acting[1], "hot");
  EXPECT_EQ(primary->data.ToString(), std::string(30, 'x'));
  EXPECT_EQ(replica->data.ToString(), primary->data.ToString());
  EXPECT_EQ(replica->version, primary->version);
}

// An OSD that crashed but is still up in the map never answers its listing:
// its copies are neither compared nor repaired, and they do not count as
// missing.
TEST(ReplicaScrubTest, UnlistedOsdCausesNoRepairOrDegradedCount) {
  Cluster cluster(Options(4, 2));
  cluster.Boot();
  auto* client = cluster.NewClient();
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(WriteFull(&cluster, client, "obj" + std::to_string(i), "payload").ok());
  }
  // A replica (not the primary) of obj0, so the pass has a copy to skip.
  cluster.osd(Acting(&cluster, "obj0")[1]).Crash();

  auto* agent = cluster.NewScrubAgent(FastScrub());
  EXPECT_EQ(RunPasses(&cluster, agent, 4), 0u);
  EXPECT_GT(agent->perf().counter("scrub.objects_scanned"), 0u);
  EXPECT_EQ(agent->perf().counter("scrub.replicas_repaired"), 0u);
  EXPECT_EQ(agent->perf().counter("scrub.repair_failures"), 0u);
}

// After an OSD's disk is lost and the OSD failed out of the map, every
// replicated object (the EC pool's index included) regains a current copy on
// every member of its new acting set.
TEST(ReplicaScrubTest, OsdLossReReplicatesEveryObjectIncludingEcIndex) {
  ClusterOptions options;
  options.num_osds = 8;
  options.mon.proposal_interval = 200 * sim::kMillisecond;
  Cluster cluster(options);
  cluster.Boot();
  auto* client = cluster.NewClient();

  std::optional<Status> created;
  ec::Pool::Create(&client->rados, "ecpool", mon::PoolLayout::Erasure(3),
                   [&](Status s) { created = s; });
  ASSERT_TRUE(cluster.RunUntil([&] { return created.has_value(); }));
  ASSERT_TRUE(created->ok()) << *created;
  auto pool = ec::Pool::Bind(&client->rados, "ecpool");
  ASSERT_TRUE(pool.has_value());
  for (const char* name : {"a", "b", "c"}) {
    std::optional<Status> written;
    pool->Write(name, Buffer::FromString(std::string("ec object ") + name),
                [&](Status s) { written = s; });
    ASSERT_TRUE(cluster.RunUntil([&] { return written.has_value(); }));
    ASSERT_TRUE(written->ok()) << *written;
  }
  std::vector<std::string> oids = {ec::Pool::IndexOid("ecpool")};
  for (int i = 0; i < 12; ++i) {
    oids.push_back("rep" + std::to_string(i));
    ASSERT_TRUE(WriteFull(&cluster, client, oids.back(), "replicated " + oids.back()).ok());
  }

  // Lose the index's primary for good: crash, wipe, fail out of the map.
  uint32_t victim = Acting(&cluster, oids[0])[0];
  cluster.osd(victim).Crash();
  cluster.osd(victim).store().Clear();
  mon::Transaction fail;
  fail.op = mon::Transaction::Op::kOsdFail;
  fail.daemon_id = victim;
  bool marked = false;
  client->rados.mon_client().SubmitTransaction(fail, [&](Status) { marked = true; });
  ASSERT_TRUE(cluster.RunUntil([&] { return marked; }));
  cluster.RunFor(1 * sim::kSecond);

  auto* agent = cluster.NewScrubAgent(FastScrub());
  auto fully_replicated = [&] {
    for (const std::string& oid : oids) {
      auto acting = osd::ActingSetForOid(oid, agent->rados().osd_map(), options.osd.replicas);
      if (acting.size() != options.osd.replicas ||
          std::count(acting.begin(), acting.end(), victim) != 0) {
        return false;
      }
      const osd::Object* primary = Copy(&cluster, acting[0], oid);
      for (uint32_t member : acting) {
        const osd::Object* copy = Copy(&cluster, member, oid);
        if (primary == nullptr || copy == nullptr || copy->version != primary->version) {
          return false;
        }
      }
    }
    return true;
  };
  EXPECT_TRUE(cluster.RunUntil(fully_replicated, 60 * sim::kSecond));
  EXPECT_GE(agent->perf().counter("scrub.replicas_repaired"), 1u);
  EXPECT_GE(agent->perf().counter("scrub.shards_rebuilt"), 1u);
  EXPECT_EQ(agent->perf().counter("scrub.repair_failures"), 0u);
  // Once the EC shards are rebuilt too, passes come back clean.
  RunPasses(&cluster, agent, 2);
  EXPECT_EQ(agent->last_pass_degraded(), 0u);
}

// A divergence the agent cannot repair (the replica cannot reach the
// primary to pull) keeps the degraded gauge up, and the ec_degraded rule
// raises on it; healing the link lets the repair land and clears it.
TEST(ReplicaScrubTest, UnrepairedDivergenceRaisesEcDegraded) {
  ClusterOptions options = Options(4, 2);
  options.mon.telemetry_interval = 500 * sim::kMillisecond;
  Cluster cluster(options);
  cluster.Boot();
  auto* client = cluster.NewClient();
  ASSERT_TRUE(WriteFull(&cluster, client, "stuck", "primary copy").ok());
  auto acting = Acting(&cluster, "stuck");
  ASSERT_EQ(acting.size(), 2u);

  cluster.network().SetPartitioned(sim::EntityName::Osd(acting[0]),
                                   sim::EntityName::Osd(acting[1]), true);
  osd::Object tampered = *Copy(&cluster, acting[1], "stuck");
  tampered.version += 1;
  cluster.osd(acting[1]).store().Put("stuck", tampered);

  auto* agent = cluster.NewScrubAgent();
  const auto& alerts = cluster.monitor().health().alerts();
  EXPECT_TRUE(cluster.RunUntil([&] { return alerts.count("ec_degraded:scrub.0") == 1; },
                               60 * sim::kSecond));
  EXPECT_GE(agent->perf().counter("scrub.repair_failures"), 1u);
  EXPECT_EQ(agent->perf().counter("scrub.replicas_repaired"), 0u);
  EXPECT_EQ(alerts.count("scrub_stalled:scrub.0"), 0u);

  cluster.network().SetPartitioned(sim::EntityName::Osd(acting[0]),
                                   sim::EntityName::Osd(acting[1]), false);
  EXPECT_TRUE(cluster.RunUntil([&] { return alerts.count("ec_degraded:scrub.0") == 0; },
                               60 * sim::kSecond));
  EXPECT_EQ(agent->perf().counter("scrub.replicas_repaired"), 1u);
  EXPECT_EQ(Copy(&cluster, acting[1], "stuck")->version,
            Copy(&cluster, acting[0], "stuck")->version);
}

}  // namespace
}  // namespace mal
