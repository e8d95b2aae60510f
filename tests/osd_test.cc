// Integration tests: monitors + OSDs + RadosClient in one simulation.
// Covers replication, class execution, dynamic interface install via the
// Service Metadata interface, map gossip, and failure recovery. Replica
// scrub runs in the scrub agent (scrub_test.cc).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <string_view>

#include "src/mon/monitor.h"
#include "src/osd/osd.h"
#include "src/rados/client.h"
#include "src/sim/profiler.h"

namespace mal {
namespace {

using osd::Osd;
using osd::OsdConfig;
using rados::RadosClient;

// Client actor hosting a RadosClient.
class AppClient : public sim::Actor {
 public:
  AppClient(sim::Simulator* simulator, sim::Network* network, uint32_t id,
            std::vector<uint32_t> mons, uint32_t replicas)
      : Actor(simulator, network, sim::EntityName::Client(id)),
        rados(this, std::move(mons), replicas) {}

  RadosClient rados;

 protected:
  void HandleRequest(const sim::Envelope& request) override {
    rados.OnMapUpdate(request);
  }
};

// Records the payload of every repop an OSD receives, then hands the
// envelope on to the OSD unchanged.
class RepOpTap : public sim::MessageSink {
 public:
  explicit RepOpTap(sim::MessageSink* osd) : osd_(osd) {}

  void Deliver(sim::Envelope envelope) override {
    if (envelope.type == osd::kMsgRepOp && !envelope.is_reply) {
      payloads.push_back(envelope.payload);
    }
    osd_->Deliver(std::move(envelope));
  }

  std::vector<Buffer> payloads;

 private:
  sim::MessageSink* osd_;
};

class OsdClusterFixture : public ::testing::Test {
 protected:
  void Start(uint32_t num_osds, uint32_t replicas = 2) {
    replicas_ = replicas;
    mon_config_.proposal_interval = 200 * sim::kMillisecond;
    monitor = std::make_unique<mon::Monitor>(&simulator, &network, 0,
                                             std::vector<uint32_t>{0}, mon_config_);
    monitor->Boot();
    OsdConfig config;
    config.replicas = replicas;
    for (uint32_t i = 0; i < num_osds; ++i) {
      osds.push_back(std::make_unique<Osd>(&simulator, &network, i,
                                           std::vector<uint32_t>{0}, config));
      osds.back()->Boot();
    }
    client = std::make_unique<AppClient>(&simulator, &network, 0,
                                         std::vector<uint32_t>{0}, replicas);
    bool connected = false;
    client->rados.Connect([&](Status s) {
      ASSERT_TRUE(s.ok()) << s;
      connected = true;
    });
    Settle(3 * sim::kSecond);
    ASSERT_TRUE(connected);
    ASSERT_EQ(client->rados.osd_map().NumUp(), num_osds);
  }

  void Settle(sim::Time duration) { simulator.RunUntil(simulator.Now() + duration); }

  // Synchronous-style helpers driving the simulator until the callback runs.
  Status WriteFull(const std::string& oid, const std::string& data) {
    std::optional<Status> result;
    client->rados.WriteFull(oid, Buffer::FromString(data), [&](Status s) { result = s; });
    Settle(5 * sim::kSecond);
    return result.value_or(Status::TimedOut("no callback"));
  }

  Result<std::string> ReadBack(const std::string& oid) {
    std::optional<Result<std::string>> result;
    client->rados.Read(oid, [&](Status s, const Buffer& data) {
      if (s.ok()) {
        result = data.ToString();
      } else {
        result = Result<std::string>(s);
      }
    });
    Settle(5 * sim::kSecond);
    if (!result.has_value()) {
      return Status::TimedOut("no callback");
    }
    return *result;
  }

  Result<std::string> Exec(const std::string& oid, const std::string& cls,
                           const std::string& method, Buffer input) {
    std::optional<Result<std::string>> result;
    client->rados.Exec(oid, cls, method, std::move(input), [&](Status s, const Buffer& out) {
      if (s.ok()) {
        result = out.ToString();
      } else {
        result = Result<std::string>(s);
      }
    });
    Settle(5 * sim::kSecond);
    if (!result.has_value()) {
      return Status::TimedOut("no callback");
    }
    return *result;
  }

  // Puts a RepOpTap in front of every OSD.
  void TapRepOps() {
    for (auto& daemon : osds) {
      taps.push_back(std::make_unique<RepOpTap>(daemon.get()));
      network.Attach(daemon->name(), taps.back().get());
    }
  }

  // Runs the transaction `ops` on `oid`, which must succeed, and returns the
  // one repop payload its primary sent (replicas = 2, taps installed).
  Buffer ReplicatedPayload(const std::string& oid, std::vector<osd::Op> ops) {
    for (auto& tap : taps) {
      tap->payloads.clear();
    }
    std::optional<Status> result;
    client->rados.Execute(oid, std::move(ops), [&](Status s, const osd::OsdOpReply& reply) {
      result = s;
      for (const osd::OpResult& r : reply.results) {
        if (result->ok()) {
          result = r.status;
        }
      }
    });
    Settle(5 * sim::kSecond);
    EXPECT_TRUE(result.has_value() && result->ok());
    std::vector<Buffer> sent;
    for (auto& tap : taps) {
      sent.insert(sent.end(), tap->payloads.begin(), tap->payloads.end());
    }
    EXPECT_EQ(sent.size(), 1u);
    return sent.empty() ? Buffer() : sent[0];
  }

  // Object::Encode of every holder's copy of `oid`.
  std::vector<std::string> EncodedCopies(const std::string& oid) {
    std::vector<std::string> copies;
    for (uint32_t holder : Holders(oid)) {
      Buffer out;
      Encoder enc(&out);
      osds[holder]->store().Get(oid).value()->Encode(&enc);
      copies.push_back(out.ToString());
    }
    return copies;
  }

  // OSDs holding a copy of `oid`, per the stores themselves.
  std::vector<uint32_t> Holders(const std::string& oid) {
    std::vector<uint32_t> holders;
    for (auto& daemon : osds) {
      if (daemon->store().Exists(oid)) {
        holders.push_back(daemon->name().id);
      }
    }
    return holders;
  }

  sim::Simulator simulator;
  sim::Network network{&simulator};
  mon::MonitorConfig mon_config_;
  std::unique_ptr<mon::Monitor> monitor;
  std::vector<std::unique_ptr<Osd>> osds;
  std::unique_ptr<AppClient> client;
  std::vector<std::unique_ptr<RepOpTap>> taps;
  uint32_t replicas_ = 2;
};

TEST_F(OsdClusterFixture, WriteReadRoundTrip) {
  Start(4);
  ASSERT_TRUE(WriteFull("greeting", "hello rados").ok());
  auto data = ReadBack("greeting");
  ASSERT_TRUE(data.ok()) << data.status();
  EXPECT_EQ(data.value(), "hello rados");
}

TEST_F(OsdClusterFixture, ReadMissingObjectFails) {
  Start(3);
  EXPECT_EQ(ReadBack("ghost").status().code(), Code::kNotFound);
}

TEST_F(OsdClusterFixture, WritesAreReplicated) {
  Start(5, /*replicas=*/3);
  ASSERT_TRUE(WriteFull("replicated-obj", "payload").ok());
  Settle(2 * sim::kSecond);  // replication acks
  EXPECT_EQ(Holders("replicated-obj").size(), 3u);
}

TEST_F(OsdClusterFixture, ReplicasHoldIdenticalData) {
  Start(4, /*replicas=*/2);
  ASSERT_TRUE(WriteFull("twin", "same-bytes").ok());
  Settle(2 * sim::kSecond);
  auto holders = Holders("twin");
  ASSERT_EQ(holders.size(), 2u);
  const auto* a = osds[holders[0]]->store().Get("twin").value();
  const auto* b = osds[holders[1]]->store().Get("twin").value();
  EXPECT_EQ(a->data.ToString(), b->data.ToString());
}

TEST_F(OsdClusterFixture, NativeClassExecution) {
  Start(3);
  Buffer input;
  Encoder enc(&input);
  enc.PutString("k1");
  enc.PutString("value-one");
  ASSERT_TRUE(Exec("kv-obj", "kvindex", "put", std::move(input)).ok());
  auto got = Exec("kv-obj", "kvindex", "get", Buffer::FromString("k1"));
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(got.value(), "value-one");
}

TEST_F(OsdClusterFixture, ClassErrorsPropagateToClient) {
  Start(3);
  using cls::ZlogOps;
  ASSERT_TRUE(
      Exec("log-obj", "zlog", "write", ZlogOps::MakeWrite(0, 0, Buffer::FromString("e")))
          .ok());
  EXPECT_EQ(Exec("log-obj", "zlog", "write",
                 ZlogOps::MakeWrite(0, 0, Buffer::FromString("dup")))
                .status()
                .code(),
            Code::kReadOnly);
}

TEST_F(OsdClusterFixture, ClassEffectsAreReplicated) {
  Start(4, /*replicas=*/2);
  using cls::ZlogOps;
  ASSERT_TRUE(
      Exec("zl", "zlog", "write", ZlogOps::MakeWrite(0, 3, Buffer::FromString("entry")))
          .ok());
  Settle(2 * sim::kSecond);
  auto holders = Holders("zl");
  ASSERT_EQ(holders.size(), 2u);
  for (uint32_t holder : holders) {
    const auto* object = osds[holder]->store().Get("zl").value();
    EXPECT_EQ(object->omap.count(ZlogOps::EntryKey(3)), 1u) << "osd " << holder;
  }
}

TEST_F(OsdClusterFixture, DynamicInterfaceInstallClusterWide) {
  Start(6);
  int installs = 0;
  for (auto& daemon : osds) {
    daemon->on_interface_installed = [&installs](const std::string& cls,
                                                 const std::string& version) {
      EXPECT_EQ(cls, "echo");
      EXPECT_EQ(version, "v1");
      ++installs;
    };
  }
  bool installed = false;
  client->rados.InstallScriptInterface(
      "echo", "v1", "function echo(input) return 'echo:' .. input end",
      [&](Status s) {
        ASSERT_TRUE(s.ok()) << s;
        installed = true;
      });
  Settle(10 * sim::kSecond);
  ASSERT_TRUE(installed);
  EXPECT_EQ(installs, 6);  // every OSD loaded it without restarting

  auto out = Exec("any-obj", "echo", "echo", Buffer::FromString("hi"));
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ(out.value(), "echo:hi");
}

TEST_F(OsdClusterFixture, InterfaceUpgradeChangesBehaviorLive) {
  Start(3);
  bool done = false;
  client->rados.InstallScriptInterface("fmt", "v1",
                                       "function render(i) return '[' .. i .. ']' end",
                                       [&](Status) { done = true; });
  Settle(8 * sim::kSecond);
  ASSERT_TRUE(done);
  EXPECT_EQ(Exec("o", "fmt", "render", Buffer::FromString("x")).value(), "[x]");

  done = false;
  client->rados.InstallScriptInterface("fmt", "v2",
                                       "function render(i) return '<' .. i .. '>' end",
                                       [&](Status) { done = true; });
  Settle(8 * sim::kSecond);
  ASSERT_TRUE(done);
  EXPECT_EQ(Exec("o", "fmt", "render", Buffer::FromString("x")).value(), "<x>");
}

TEST_F(OsdClusterFixture, GossipPropagatesWithoutDirectPush) {
  // Only OSD 0 subscribes to the monitor; the rest learn via gossip.
  Start(8);
  Settle(2 * sim::kSecond);
  // Cut monitor -> osd push for all but osd 0 by crashing their view: we
  // simulate by partitioning mon from osds 1..7.
  for (uint32_t i = 1; i < 8; ++i) {
    network.SetPartitioned(sim::EntityName::Mon(0), sim::EntityName::Osd(i), true);
  }
  bool done = false;
  client->rados.InstallScriptInterface("gsp", "v1", "function f(i) return i end",
                                       [&](Status) { done = true; });
  Settle(15 * sim::kSecond);  // allow anti-entropy rounds
  ASSERT_TRUE(done);
  for (auto& daemon : osds) {
    EXPECT_EQ(daemon->registry().ScriptVersion("gsp"), "v1")
        << daemon->name().ToString() << " missed the gossip";
  }
}

TEST_F(OsdClusterFixture, PrimaryFailureRetriesToNewPrimary) {
  Start(5, /*replicas=*/3);
  ASSERT_TRUE(WriteFull("ha-obj", "v1").ok());
  Settle(2 * sim::kSecond);
  auto acting = osd::OsdsForObject("ha-obj", client->rados.osd_map(), 3);
  ASSERT_FALSE(acting.empty());

  // Kill the primary and tell the monitor (failure detection shortcut).
  osds[acting[0]]->Crash();
  mon::Transaction fail;
  fail.op = mon::Transaction::Op::kOsdFail;
  fail.daemon_id = acting[0];
  client->rados.mon_client().SubmitTransaction(fail, [](Status) {});
  Settle(3 * sim::kSecond);

  // Read goes to the new primary (a surviving replica has the data).
  auto data = ReadBack("ha-obj");
  ASSERT_TRUE(data.ok()) << data.status();
  EXPECT_EQ(data.value(), "v1");
}

TEST_F(OsdClusterFixture, RecoverObjectPullsFromPeer) {
  Start(4, /*replicas=*/2);
  ASSERT_TRUE(WriteFull("heal-me", "precious").ok());
  Settle(2 * sim::kSecond);
  auto holders = Holders("heal-me");
  ASSERT_EQ(holders.size(), 2u);

  // Pick an OSD without the object and heal it from a holder.
  uint32_t empty_osd = 0;
  for (auto& daemon : osds) {
    if (!daemon->store().Exists("heal-me")) {
      empty_osd = daemon->name().id;
      break;
    }
  }
  uint64_t version = osds[holders[0]]->store().Get("heal-me").value()->version;

  // A copy at another version than the caller asked for is refused.
  std::optional<Status> healed;
  osds[empty_osd]->RecoverObject(holders[0], "heal-me", version + 1,
                                 [&](Status s) { healed = s; });
  Settle(2 * sim::kSecond);
  ASSERT_TRUE(healed.has_value());
  EXPECT_EQ(healed->code(), Code::kAborted) << *healed;
  EXPECT_FALSE(osds[empty_osd]->store().Exists("heal-me"));

  healed.reset();
  osds[empty_osd]->RecoverObject(holders[0], "heal-me", version,
                                 [&](Status s) { healed = s; });
  Settle(2 * sim::kSecond);
  ASSERT_TRUE(healed.has_value());
  EXPECT_TRUE(healed->ok()) << *healed;
  EXPECT_EQ(osds[empty_osd]->store().Get("heal-me").value()->data.ToString(), "precious");
}

TEST_F(OsdClusterFixture, TransactionAtomicAcrossExecAndPrimitives) {
  Start(3);
  // Compose: exec(lock.acquire alice) + omap_set in one transaction.
  std::vector<osd::Op> ops(2);
  ops[0].type = osd::Op::Type::kExec;
  ops[0].cls_name = "lock";
  ops[0].method = "acquire";
  ops[0].data = Buffer::FromString("alice");
  ops[1].type = osd::Op::Type::kOmapSet;
  ops[1].key = "meta";
  ops[1].value = "locked-write";
  std::optional<Status> result;
  client->rados.Execute("combo", std::move(ops),
                        [&](Status s, const osd::OsdOpReply& reply) {
                          if (s.ok() && !reply.results.empty()) {
                            result = reply.results.back().status;
                          } else {
                            result = s;
                          }
                        });
  Settle(5 * sim::kSecond);
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->ok()) << *result;

  // Now a failing exec (bob can't lock) plus an omap write: nothing applies.
  std::vector<osd::Op> bad_ops(2);
  bad_ops[0].type = osd::Op::Type::kExec;
  bad_ops[0].cls_name = "lock";
  bad_ops[0].method = "acquire";
  bad_ops[0].data = Buffer::FromString("bob");
  bad_ops[1].type = osd::Op::Type::kOmapSet;
  bad_ops[1].key = "meta";
  bad_ops[1].value = "should-not-appear";
  std::optional<Status> bad_result;
  client->rados.Execute("combo", std::move(bad_ops),
                        [&](Status s, const osd::OsdOpReply& reply) {
                          bad_result = s.ok() && !reply.results.empty()
                                           ? reply.results[0].status
                                           : s;
                        });
  Settle(5 * sim::kSecond);
  ASSERT_TRUE(bad_result.has_value());
  EXPECT_EQ(bad_result->code(), Code::kPermissionDenied);
  // Verify the omap value from the failed transaction never landed.
  std::optional<std::string> meta;
  client->rados.OmapGet("combo", "meta",
                        [&](Status s, const Buffer& out) {
                          if (s.ok()) {
                            meta = out.ToString();
                          }
                        });
  Settle(5 * sim::kSecond);
  ASSERT_TRUE(meta.has_value());
  EXPECT_EQ(*meta, "locked-write");
}

TEST_F(OsdClusterFixture, PgSplitRemapsAndPullsOnMiss) {
  // Placement-group splitting (§4.4): when pg_count changes, objects remap;
  // a newly-responsible primary pulls the object from the old acting set.
  Start(5, /*replicas=*/2);
  std::vector<std::string> oids;
  int written = 0;
  for (int i = 0; i < 12; ++i) {
    oids.push_back("split-obj-" + std::to_string(i));
    client->rados.WriteFull(oids.back(), Buffer::FromString("data" + std::to_string(i)),
                            [&](Status s) {
                              if (s.ok()) {
                                ++written;
                              }
                            });
  }
  Settle(5 * sim::kSecond);
  ASSERT_EQ(written, 12);

  // Quadruple the PG count through the monitor.
  mon::Transaction split;
  split.op = mon::Transaction::Op::kSetPgCount;
  split.value = "512";
  bool committed = false;
  client->rados.mon_client().SubmitTransaction(split, [&](Status s) {
    ASSERT_TRUE(s.ok()) << s;
    committed = true;
  });
  Settle(3 * sim::kSecond);
  ASSERT_TRUE(committed);
  EXPECT_EQ(monitor->osd_map().pg_count, 512u);
  Settle(2 * sim::kSecond);  // let maps gossip

  // Every object remains readable under the new placement, even where the
  // primary changed (pull-on-miss heals it).
  for (int i = 0; i < 12; ++i) {
    auto data = ReadBack(oids[i]);
    ASSERT_TRUE(data.ok()) << oids[i] << ": " << data.status();
    EXPECT_EQ(data.value(), "data" + std::to_string(i));
  }
}

TEST_F(OsdClusterFixture, SnapshotOpsWorkEndToEnd) {
  Start(3);
  ASSERT_TRUE(WriteFull("snappy", "original").ok());
  osd::Op snap;
  snap.type = osd::Op::Type::kSnapCreate;
  snap.key = "backup";
  std::optional<Status> result;
  client->rados.Execute("snappy", {snap}, [&](Status s, const osd::OsdOpReply& reply) {
    result = s.ok() && !reply.results.empty() ? reply.results[0].status : s;
  });
  Settle(3 * sim::kSecond);
  ASSERT_TRUE(result.has_value() && result->ok());

  ASSERT_TRUE(WriteFull("snappy", "mutated").ok());
  osd::Op read_snap;
  read_snap.type = osd::Op::Type::kSnapRead;
  read_snap.key = "backup";
  std::optional<std::string> snap_data;
  client->rados.Execute("snappy", {read_snap},
                        [&](Status s, const osd::OsdOpReply& reply) {
                          if (s.ok() && !reply.results.empty() &&
                              reply.results[0].status.ok()) {
                            snap_data = reply.results[0].out.ToString();
                          }
                        });
  Settle(3 * sim::kSecond);
  ASSERT_TRUE(snap_data.has_value());
  EXPECT_EQ(*snap_data, "original");
  EXPECT_EQ(ReadBack("snappy").value(), "mutated");
}

TEST_F(OsdClusterFixture, RestartRejoinsAndServesReadsFromDurableStore) {
  Start(3, /*replicas=*/2);
  ASSERT_TRUE(WriteFull("restart.obj", "durable-bytes").ok());
  Settle(1 * sim::kSecond);

  osds[0]->Crash();
  Settle(1 * sim::kSecond);
  osds[0]->Recover();
  // Until the map catch-up from the monitor completes, the OSD refuses
  // client I/O (it may be acting on an arbitrarily stale map).
  EXPECT_TRUE(osds[0]->rejoining());
  Settle(2 * sim::kSecond);
  EXPECT_FALSE(osds[0]->rejoining());

  // The ObjectStore modeled durable media: every replica still holds the
  // bytes, and client reads round-trip against the restarted cluster.
  for (uint32_t holder : Holders("restart.obj")) {
    const auto* object = osds[holder]->store().Get("restart.obj").value();
    EXPECT_EQ(object->data.ToString(), "durable-bytes");
  }
  EXPECT_EQ(ReadBack("restart.obj").value(), "durable-bytes");
}

TEST_F(OsdClusterFixture, MixedExecAndPrimitiveTransactionReplicatesExactly) {
  Start(3, /*replicas=*/2);
  using cls::ZlogOps;
  // Class effects interleaved with primitive ops in one transaction: the
  // primary commits the staged view its single execution built, the
  // replica replays the expanded ops; both must land on the same object.
  std::vector<osd::Op> ops(6);
  ops[0].type = osd::Op::Type::kWriteFull;
  ops[0].data = Buffer::FromString("head");
  ops[1] = RadosClient::MakeExecOp("zlog", "write",
                                   ZlogOps::MakeWrite(0, 3, Buffer::FromString("entry")));
  ops[2].type = osd::Op::Type::kAppend;
  ops[2].data = Buffer::FromString("-tail");
  ops[3] = RadosClient::MakeExecOp("lock", "acquire", Buffer::FromString("alice"));
  ops[4].type = osd::Op::Type::kOmapSet;
  ops[4].key = "meta";
  ops[4].value = "mixed";
  ops[5].type = osd::Op::Type::kXattrSet;
  ops[5].key = "owner";
  ops[5].value = "test";
  for (int round = 0; round < 2; ++round) {
    std::optional<Status> result;
    std::vector<osd::Op> txn = ops;
    if (round == 1) {
      // Write-once positions and a held lock: the second round writes the
      // next position and skips the lock.
      txn[1] = RadosClient::MakeExecOp("zlog", "write",
                                       ZlogOps::MakeWrite(0, 4, Buffer::FromString("next")));
      txn.erase(txn.begin() + 3);
    }
    client->rados.Execute("mixed", std::move(txn),
                          [&](Status s, const osd::OsdOpReply& reply) {
                            result = s;
                            for (const osd::OpResult& r : reply.results) {
                              if (result->ok()) {
                                result = r.status;
                              }
                            }
                          });
    Settle(5 * sim::kSecond);
    ASSERT_TRUE(result.has_value());
    ASSERT_TRUE(result->ok()) << *result;
  }
  auto holders = Holders("mixed");
  ASSERT_EQ(holders.size(), 2u);
  const osd::Object* a = osds[holders[0]]->store().Get("mixed").value();
  const osd::Object* b = osds[holders[1]]->store().Get("mixed").value();
  EXPECT_EQ(a->data.ToString(), "head-tail");
  EXPECT_EQ(a->omap.count(ZlogOps::EntryKey(3)), 1u);
  EXPECT_EQ(a->omap.count(ZlogOps::EntryKey(4)), 1u);
  EXPECT_EQ(a->omap.at("meta"), "mixed");
  EXPECT_EQ(a->data, b->data);
  EXPECT_EQ(a->omap, b->omap);
  EXPECT_EQ(a->xattrs, b->xattrs);
  EXPECT_EQ(a->version, b->version);
  EXPECT_EQ(a->version, 2u);
}

TEST_F(OsdClusterFixture, ReplicaIsChargedTheFixedOpCostPerRepop) {
  // A replica is charged op_cpu_cost per repop, without the per-byte term
  // its primary pays: the charge the replication path has always made.
  // Adding the term is a change to the simulated results of its own.
  Start(4, /*replicas=*/2);
  sim::Profiler profiler;
  sim::ScopedProfiler scope(&profiler);
  const std::string payload(64 * 1024, 'x');
  ASSERT_TRUE(WriteFull("big", payload).ok());
  Settle(1 * sim::kSecond);
  auto acting = osd::OsdsForObject("big", client->rados.osd_map(), 2);
  ASSERT_EQ(acting.size(), 2u);
  const Osd& primary = *osds[acting[0]];
  Osd& replica = *osds[acting[1]];
  ASSERT_EQ(replica.perf().counter("osd.repop.count"), 1u);
  const OsdConfig defaults;
  EXPECT_EQ(profiler.Totals(replica.name().ToString()).cpu_ns,
            static_cast<uint64_t>(defaults.op_cpu_cost));
  EXPECT_EQ(profiler.Totals(primary.name().ToString()).cpu_ns,
            static_cast<uint64_t>(defaults.op_cpu_cost) +
                static_cast<uint64_t>(defaults.per_byte_cpu_ns * payload.size()));
}

TEST_F(OsdClusterFixture, OutOfOrderBatchesLeaveReplicasByteIdentical) {
  // write_batch calls whose positions arrive out of order: the primary
  // splices the class's staged entries, the replica its decoded repop ops,
  // before, between and after the keys the stripe object already holds.
  Start(3, /*replicas=*/2);
  using cls::ZlogOps;
  const std::vector<std::vector<uint64_t>> batches = {
      {8, 12}, {0, 4}, {20, 16, 2}, {10, 6, 24}, {12, 14}};
  for (const std::vector<uint64_t>& positions : batches) {
    std::vector<ZlogOps::BatchEntry> entries;
    for (uint64_t pos : positions) {
      entries.push_back({pos, Buffer::FromString("entry-" + std::to_string(pos))});
    }
    Buffer input = ZlogOps::MakeWriteBatch(0, entries);
    ASSERT_TRUE(Exec("stripe", "zlog", "write_batch", std::move(input)).ok());
  }
  Settle(2 * sim::kSecond);
  auto holders = Holders("stripe");
  ASSERT_EQ(holders.size(), 2u);
  auto encoded = [&](uint32_t holder) {
    Buffer out;
    Encoder enc(&out);
    osds[holder]->store().Get("stripe").value()->Encode(&enc);
    return out.ToString();
  };
  EXPECT_EQ(encoded(holders[0]), encoded(holders[1]));
  // Position 12 was taken by the first batch; its rewrite was refused.
  const osd::Object* object = osds[holders[0]]->store().Get("stripe").value();
  EXPECT_EQ(object->omap.size(), 11u);
  EXPECT_EQ(object->omap.at(ZlogOps::EntryKey(12)).substr(1), "entry-12");
  for (uint32_t holder : holders) {
    EXPECT_EQ(osds[holder]->store().bytes_used(), osds[holder]->store().RecomputeBytesUsed());
  }
}

TEST_F(OsdClusterFixture, NextOpReachesNewPrimaryAfterMarkDown) {
  Start(5, /*replicas=*/3);
  ASSERT_TRUE(WriteFull("moved", "v1").ok());
  Settle(2 * sim::kSecond);
  auto before = osd::OsdsForObject("moved", client->rados.osd_map(), 3);
  ASSERT_EQ(before.size(), 3u);
  // Every other OSD places the object under the current map too: each
  // refuses a misrouted read as "not primary", and so holds the object's
  // PG in its placement table.
  int refused = 0;
  for (auto& daemon : osds) {
    if (daemon->name().id == before[0]) {
      continue;
    }
    osd::OsdOpRequest misrouted;
    misrouted.oid = "moved";
    misrouted.ops.resize(1);
    misrouted.ops[0].type = osd::Op::Type::kRead;
    Buffer payload;
    Encoder enc(&payload);
    misrouted.Encode(&enc);
    client->SendRequest(daemon->name(), osd::kMsgOsdOp, std::move(payload),
                        [&refused](Status s, const sim::Envelope&) {
                          refused += s.code() == Code::kUnavailable ? 1 : 0;
                        });
  }
  Settle(1 * sim::kSecond);
  ASSERT_EQ(refused, 4);

  // Mark the primary down without crashing it: both the client and the
  // OSDs must re-place the object on the map they install, or the op
  // would land on (or be refused by) a primary of the old map.
  mon::Transaction fail;
  fail.op = mon::Transaction::Op::kOsdFail;
  fail.daemon_id = before[0];
  client->rados.mon_client().SubmitTransaction(fail, [](Status) {});
  Settle(3 * sim::kSecond);
  auto after = osd::OsdsForObject("moved", client->rados.osd_map(), 3);
  ASSERT_FALSE(after.empty());
  ASSERT_NE(after[0], before[0]);

  uint64_t old_served = osds[before[0]]->ops_served();
  uint64_t new_served = osds[after[0]]->ops_served();
  auto data = ReadBack("moved");
  ASSERT_TRUE(data.ok()) << data.status();
  EXPECT_EQ(data.value(), "v1");
  EXPECT_EQ(osds[before[0]]->ops_served(), old_served);
  EXPECT_EQ(osds[after[0]]->ops_served(), new_served + 1);
}

// Golden encodings of a 4 KiB write_full round trip. Only the buffers'
// capacity may change with how they are reserved; the bytes are the wire
// format.
std::string Pattern4k() {
  std::string s(4096, '\0');
  for (size_t i = 0; i < s.size(); ++i) {
    s[i] = static_cast<char>((i * 7 + 3) & 0xff);
  }
  return s;
}

std::string Hex(std::string_view bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  for (unsigned char c : bytes) {
    out += kDigits[c >> 4];
    out += kDigits[c & 0xf];
  }
  return out;
}

TEST(OsdMessageEncodingTest, WriteFullRequestMatchesGoldenBytes) {
  osd::OsdOpRequest req;
  req.oid = "obj.4242";
  req.ops.resize(1);
  req.ops[0].type = osd::Op::Type::kWriteFull;
  req.ops[0].data = Buffer::FromString(Pattern4k());
  Buffer encoded;
  Encoder enc(&encoded);
  req.Encode(&enc);
  // oid, op count, type/excl/offset/length, data length | data | the four
  // empty strings (key, value, cls, method).
  const std::string kHead = "086f626a2e34323432010400000000000000000000000000000000008020";
  ASSERT_EQ(encoded.size(), kHead.size() / 2 + 4096 + 4);
  std::string_view bytes = encoded.View();
  EXPECT_EQ(Hex(bytes.substr(0, kHead.size() / 2)), kHead);
  EXPECT_EQ(bytes.substr(kHead.size() / 2, 4096), Pattern4k());
  EXPECT_EQ(Hex(bytes.substr(kHead.size() / 2 + 4096)), "00000000");
  // Reserved once at its exact size: no spare arena pinned behind a
  // payload that the receiving store keeps aliasing.
  EXPECT_LE(encoded.capacity(), encoded.size() + 64);

  Decoder dec(encoded);
  osd::OsdOpRequest decoded = osd::OsdOpRequest::Decode(&dec);
  ASSERT_TRUE(dec.Finish().ok());
  EXPECT_EQ(decoded.oid, req.oid);
  EXPECT_EQ(decoded.ops[0].data, req.ops[0].data);
}

TEST(OsdMessageEncodingTest, ReplyMatchesGoldenBytes) {
  osd::OsdOpReply reply;
  reply.map_epoch = 17;
  reply.results.push_back({Status::Ok(), Buffer()});
  Buffer encoded;
  Encoder enc(&encoded);
  reply.Encode(&enc);
  EXPECT_EQ(Hex(encoded.View()), "110000000000000001000000000000");
  EXPECT_LE(encoded.capacity(), encoded.size() + 64);

  // The same reply carrying a 4 KiB read result.
  reply.results[0].out = Buffer::FromString(Pattern4k());
  Buffer with_data;
  Encoder data_enc(&with_data);
  reply.Encode(&data_enc);
  const std::string kHead = "11000000000000000100000000008020";
  ASSERT_EQ(with_data.size(), kHead.size() / 2 + 4096);
  EXPECT_EQ(Hex(with_data.View().substr(0, kHead.size() / 2)), kHead);
  EXPECT_EQ(with_data.View().substr(kHead.size() / 2), Pattern4k());
  EXPECT_LE(with_data.capacity(), with_data.size() + 64);
}

// FNV-1a 64: the fingerprint of a golden payload too long to spell out.
uint64_t Fnv1a(std::string_view bytes) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

// The golden repop payloads below were recorded from the primary that
// encoded its replicated transaction as EncodeMessage(OsdOpRequest{oid,
// expanded}): the oid, the op count, then every op that ran, in order, with
// each kExec replaced by the primitive ops its method recorded and read ops
// kept.
//
// Checks `payload` against its golden hex, and that it is the encoding of
// the op list it decodes to.
void ExpectRepOp(const Buffer& payload, const std::string& oid, std::string_view golden) {
  EXPECT_EQ(Hex(payload.View()), golden);
  Decoder dec(payload);
  osd::OsdOpRequest decoded = osd::OsdOpRequest::Decode(&dec);
  ASSERT_TRUE(dec.Finish().ok());
  EXPECT_EQ(dec.remaining(), 0u);
  EXPECT_EQ(decoded.oid, oid);
  EXPECT_EQ(EncodeMessage(decoded), payload);
}

TEST_F(OsdClusterFixture, ZlogWriteBatchRepOpMatchesGoldenBytes) {
  Start(3, /*replicas=*/2);
  TapRepOps();
  using cls::ZlogOps;
  std::vector<ZlogOps::BatchEntry> entries = {{2, Buffer::FromString("bb")},
                                              {0, Buffer::FromString("a")}};
  std::vector<osd::Op> ops = {
      RadosClient::MakeExecOp("zlog", "write_batch", ZlogOps::MakeWriteBatch(0, entries))};
  Buffer payload = ReplicatedPayload("stripe", std::move(ops));
  ExpectRepOp(payload, "stripe",
      "067374726970650400000000000000000000000000000000000000000000000900000000"
      "00000000000000000000000000001a656e7472792e303030303030303030303030303030"
      "3030303032030162620000090000000000000000000000000000000000001a656e747279"
      "2e303030303030303030303030303030303030303002016100000d000000000000000000"
      "0000000000000000000c7a6c6f672e6d61785f706f7301330000");
  auto copies = EncodedCopies("stripe");
  ASSERT_EQ(copies.size(), 2u);
  EXPECT_EQ(copies[0], copies[1]);
}

TEST_F(OsdClusterFixture, MixedTransactionRepOpMatchesGoldenBytes) {
  Start(3, /*replicas=*/2);
  TapRepOps();
  using cls::ZlogOps;
  std::vector<osd::Op> ops(6);
  ops[0].type = osd::Op::Type::kWriteFull;
  ops[0].data = Buffer::FromString("head");
  ops[1] = RadosClient::MakeExecOp("zlog", "write",
                                   ZlogOps::MakeWrite(0, 3, Buffer::FromString("entry")));
  ops[2].type = osd::Op::Type::kRead;  // replicated as it stands
  ops[2].length = 2;
  ops[3].type = osd::Op::Type::kOmapSet;
  ops[3].key = "meta";
  ops[3].value = "mixed";
  ops[4] = RadosClient::MakeExecOp("lock", "acquire", Buffer::FromString("alice"));
  ops[5].type = osd::Op::Type::kXattrSet;
  ops[5].key = "owner";
  ops[5].value = "test";
  Buffer payload = ReplicatedPayload("mixed", std::move(ops));
  ExpectRepOp(payload, "mixed",
      "056d69786564070400000000000000000000000000000000000468656164000000000900"
      "00000000000000000000000000000000001a656e7472792e303030303030303030303030"
      "30303030303030330601656e74727900000d000000000000000000000000000000000000"
      "0c7a6c6f672e6d61785f706f730134000002000000000000000000020000000000000000"
      "0000000009000000000000000000000000000000000000046d657461056d697865640000"
      "0d0000000000000000000000000000000000000a6c6f636b2e6f776e657205616c696365"
      "00000d000000000000000000000000000000000000056f776e657204746573740000");
  auto copies = EncodedCopies("mixed");
  ASSERT_EQ(copies.size(), 2u);
  EXPECT_EQ(copies[0], copies[1]);
}

TEST_F(OsdClusterFixture, RemoveThenRecreateRepOpMatchesGoldenBytes) {
  Start(3, /*replicas=*/2);
  TapRepOps();
  std::vector<osd::Op> first(2);
  first[0].type = osd::Op::Type::kWriteFull;
  first[0].data = Buffer::FromString("old");
  first[1].type = osd::Op::Type::kOmapSet;
  first[1].key = "gone";
  first[1].value = "1";
  ReplicatedPayload("phoenix", std::move(first));
  std::vector<osd::Op> ops(4);
  ops[0].type = osd::Op::Type::kRemove;
  ops[1].type = osd::Op::Type::kCreate;
  ops[1].excl = true;
  ops[2].type = osd::Op::Type::kWriteFull;
  ops[2].data = Buffer::FromString("new");
  ops[3].type = osd::Op::Type::kOmapSet;
  ops[3].key = "kept";
  ops[3].value = "2";
  Buffer payload = ReplicatedPayload("phoenix", std::move(ops));
  ExpectRepOp(payload, "phoenix",
      "0770686f656e697804010000000000000000000000000000000000000000000000010000"
      "000000000000000000000000000000000000000400000000000000000000000000000000"
      "00036e65770000000009000000000000000000000000000000000000046b657074013200"
      "00");
  auto copies = EncodedCopies("phoenix");
  ASSERT_EQ(copies.size(), 2u);
  EXPECT_EQ(copies[0], copies[1]);
  EXPECT_NE(copies[0].find("kept"), std::string::npos);
  EXPECT_EQ(copies[0].find("gone"), std::string::npos);
}

TEST_F(OsdClusterFixture, ScriptWithManyEffectsRepOpMatchesGoldenBytes) {
  // 130 recorded effects: the op count takes two varint bytes.
  Start(3, /*replicas=*/2);
  bool installed = false;
  client->rados.InstallScriptInterface("fill", "v1", R"(
function fill(input)
  for i = 1, 130 do
    cls_omap_set("k" .. tostring(i), input)
  end
  return "ok"
end
)",
                                       [&](Status s) { installed = s.ok(); });
  Settle(8 * sim::kSecond);
  ASSERT_TRUE(installed);
  TapRepOps();
  std::vector<osd::Op> ops = {
      RadosClient::MakeExecOp("fill", "fill", Buffer::FromString("v"))};
  Buffer payload = ReplicatedPayload("many", std::move(ops));
  Decoder dec(payload);
  ASSERT_EQ(dec.GetString(), "many");
  EXPECT_EQ(dec.GetVarU64(), 130u);
  EXPECT_EQ(Hex(payload.View().substr(0, 7)), "046d616e798201");
  EXPECT_EQ(payload.size(), 3539u);
  EXPECT_EQ(Fnv1a(payload.View()), 13340375056327729270ULL);
  ExpectRepOp(payload, "many", Hex(payload.View()));  // golden: the size and hash
  auto copies = EncodedCopies("many");
  ASSERT_EQ(copies.size(), 2u);
  EXPECT_EQ(copies[0], copies[1]);
}

TEST_F(OsdClusterFixture, PrimitiveRepOpPayloadHasNoSpareCapacity) {
  // A replica's stored bytestream aliases the repop payload, so spare
  // capacity behind it would stay pinned with the object.
  Start(3, /*replicas=*/2);
  TapRepOps();
  std::vector<osd::Op> ops(2);
  ops[0].type = osd::Op::Type::kWriteFull;
  ops[0].data = Buffer::FromString(Pattern4k());
  ops[1].type = osd::Op::Type::kOmapSet;
  ops[1].key = "gen";
  ops[1].value = "0000000000000000000000001";
  Buffer payload = ReplicatedPayload("shape", ops);
  EXPECT_EQ(EncodeMessage(osd::OsdOpRequest{"shape", ops}), payload);
  EXPECT_EQ(payload.capacity(), payload.size());
  ops.resize(1);
  Buffer alone = ReplicatedPayload("shape", std::move(ops));
  EXPECT_EQ(alone.capacity(), alone.size());
}

TEST(OsdMessageEncodingTest, HugeElementCountFailsTheDecode) {
  // A corrupt count of 2^40: each decoder reserves no more elements than
  // the remaining bytes can hold, then fails when they run out.
  auto corrupt = [](uint64_t fixed_prefix) {
    Buffer bytes;
    Encoder enc(&bytes);
    for (uint64_t i = 0; i < fixed_prefix; ++i) {
      enc.PutU8(1);
    }
    enc.PutVarU64(uint64_t{1} << 40);
    enc.PutString("one element's worth of bytes, then nothing");
    return bytes;
  };
  {
    Decoder dec(corrupt(/*oid of one byte=*/2));
    EXPECT_NO_THROW(osd::OsdOpRequest::Decode(&dec));
    EXPECT_FALSE(dec.ok());
  }
  {
    Decoder dec(corrupt(/*map_epoch=*/8));
    EXPECT_NO_THROW(osd::OsdOpReply::Decode(&dec));
    EXPECT_FALSE(dec.ok());
  }
  {
    Decoder dec(corrupt(/*replicas=*/4));
    EXPECT_NO_THROW(osd::ScrubListReply::Decode(&dec));
    EXPECT_FALSE(dec.ok());
  }
}

}  // namespace
}  // namespace mal
