// Unit tests for the object store (transactions, ops) and placement.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/osd/messages.h"
#include "src/osd/object_store.h"
#include "src/osd/placement.h"

namespace mal::osd {
namespace {

Op MakeOp(Op::Type type) {
  Op op;
  op.type = type;
  return op;
}

TEST(ObjectStoreTest, WriteAndReadBack) {
  ObjectStore store;
  std::vector<OpResult> results;
  Op write = MakeOp(Op::Type::kWriteFull);
  write.data = mal::Buffer::FromString("hello world");
  ASSERT_TRUE(store.ApplyTransaction("obj", {write}, &results).ok());

  Op read = MakeOp(Op::Type::kRead);
  ASSERT_TRUE(store.ApplyTransaction("obj", {read}, &results).ok());
  EXPECT_EQ(results[0].out.ToString(), "hello world");
}

TEST(ObjectStoreTest, PartialReadAndOffsetWrite) {
  ObjectStore store;
  std::vector<OpResult> results;
  Op write = MakeOp(Op::Type::kWriteFull);
  write.data = mal::Buffer::FromString("abcdefgh");
  ASSERT_TRUE(store.ApplyTransaction("obj", {write}, &results).ok());

  Op patch = MakeOp(Op::Type::kWrite);
  patch.offset = 2;
  patch.data = mal::Buffer::FromString("XY");
  ASSERT_TRUE(store.ApplyTransaction("obj", {patch}, &results).ok());

  Op read = MakeOp(Op::Type::kRead);
  read.offset = 1;
  read.length = 4;
  ASSERT_TRUE(store.ApplyTransaction("obj", {read}, &results).ok());
  EXPECT_EQ(results[0].out.ToString(), "bXYe");
}

TEST(ObjectStoreTest, AppendGrowsObject) {
  ObjectStore store;
  std::vector<OpResult> results;
  for (const char* chunk : {"a", "b", "c"}) {
    Op append = MakeOp(Op::Type::kAppend);
    append.data = mal::Buffer::FromString(chunk);
    ASSERT_TRUE(store.ApplyTransaction("obj", {append}, &results).ok());
  }
  Op read = MakeOp(Op::Type::kRead);
  ASSERT_TRUE(store.ApplyTransaction("obj", {read}, &results).ok());
  EXPECT_EQ(results[0].out.ToString(), "abc");
}

TEST(ObjectStoreTest, CreateExclusiveFailsOnExisting) {
  ObjectStore store;
  std::vector<OpResult> results;
  Op create = MakeOp(Op::Type::kCreate);
  create.excl = true;
  ASSERT_TRUE(store.ApplyTransaction("obj", {create}, &results).ok());
  EXPECT_EQ(store.ApplyTransaction("obj", {create}, &results).code(),
            Code::kAlreadyExists);
  // Non-exclusive create succeeds.
  create.excl = false;
  EXPECT_TRUE(store.ApplyTransaction("obj", {create}, &results).ok());
}

TEST(ObjectStoreTest, ReadMissingObjectFails) {
  ObjectStore store;
  std::vector<OpResult> results;
  EXPECT_EQ(store.ApplyTransaction("nope", {MakeOp(Op::Type::kRead)}, &results).code(),
            Code::kNotFound);
}

TEST(ObjectStoreTest, RemoveDeletesObject) {
  ObjectStore store;
  std::vector<OpResult> results;
  Op write = MakeOp(Op::Type::kWriteFull);
  write.data = mal::Buffer::FromString("x");
  ASSERT_TRUE(store.ApplyTransaction("obj", {write}, &results).ok());
  ASSERT_TRUE(store.ApplyTransaction("obj", {MakeOp(Op::Type::kRemove)}, &results).ok());
  EXPECT_FALSE(store.Exists("obj"));
  EXPECT_EQ(store.ApplyTransaction("obj", {MakeOp(Op::Type::kRemove)}, &results).code(),
            Code::kNotFound);
}

TEST(ObjectStoreTest, OmapRoundTripAndPrefixList) {
  ObjectStore store;
  std::vector<OpResult> results;
  for (const auto& [k, v] : std::map<std::string, std::string>{
           {"idx.a", "1"}, {"idx.b", "2"}, {"other", "3"}}) {
    Op set = MakeOp(Op::Type::kOmapSet);
    set.key = k;
    set.value = v;
    ASSERT_TRUE(store.ApplyTransaction("obj", {set}, &results).ok());
  }
  Op get = MakeOp(Op::Type::kOmapGet);
  get.key = "idx.b";
  ASSERT_TRUE(store.ApplyTransaction("obj", {get}, &results).ok());
  EXPECT_EQ(results[0].out.ToString(), "2");

  Op list = MakeOp(Op::Type::kOmapList);
  list.key = "idx.";
  ASSERT_TRUE(store.ApplyTransaction("obj", {list}, &results).ok());
  mal::Decoder dec(results[0].out);
  auto entries = DecodeStringMap(&dec);
  EXPECT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries.at("idx.a"), "1");

  Op del = MakeOp(Op::Type::kOmapDel);
  del.key = "idx.a";
  ASSERT_TRUE(store.ApplyTransaction("obj", {del}, &results).ok());
  EXPECT_EQ(store.ApplyTransaction("obj", {get}, &results).ok(), true);
  get.key = "idx.a";
  EXPECT_EQ(store.ApplyTransaction("obj", {get}, &results).code(), Code::kNotFound);
}

TEST(ObjectStoreTest, XattrsAndGuard) {
  ObjectStore store;
  std::vector<OpResult> results;
  Op set = MakeOp(Op::Type::kXattrSet);
  set.key = "epoch";
  set.value = "5";
  ASSERT_TRUE(store.ApplyTransaction("obj", {set}, &results).ok());

  Op cmp_ok = MakeOp(Op::Type::kCmpXattr);
  cmp_ok.key = "epoch";
  cmp_ok.value = "5";
  EXPECT_TRUE(store.ApplyTransaction("obj", {cmp_ok}, &results).ok());

  Op cmp_bad = cmp_ok;
  cmp_bad.value = "4";
  EXPECT_EQ(store.ApplyTransaction("obj", {cmp_bad}, &results).code(), Code::kAborted);
}

TEST(ObjectStoreTest, TransactionIsAtomic) {
  ObjectStore store;
  std::vector<OpResult> results;
  Op write = MakeOp(Op::Type::kWriteFull);
  write.data = mal::Buffer::FromString("before");
  ASSERT_TRUE(store.ApplyTransaction("obj", {write}, &results).ok());

  // Transaction: guard fails after a write -> the write must not apply.
  Op mutate = MakeOp(Op::Type::kWriteFull);
  mutate.data = mal::Buffer::FromString("after");
  Op guard = MakeOp(Op::Type::kCmpXattr);
  guard.key = "missing";
  guard.value = "x";
  EXPECT_FALSE(store.ApplyTransaction("obj", {mutate, guard}, &results).ok());

  Op read = MakeOp(Op::Type::kRead);
  ASSERT_TRUE(store.ApplyTransaction("obj", {read}, &results).ok());
  EXPECT_EQ(results[0].out.ToString(), "before");
}

TEST(ObjectStoreTest, GuardedWriteComposition) {
  // The canonical cmpxattr-then-write pattern object interfaces rely on.
  ObjectStore store;
  std::vector<OpResult> results;
  Op init = MakeOp(Op::Type::kXattrSet);
  init.key = "owner";
  init.value = "alice";
  ASSERT_TRUE(store.ApplyTransaction("obj", {init}, &results).ok());

  Op guard = MakeOp(Op::Type::kCmpXattr);
  guard.key = "owner";
  guard.value = "alice";
  Op write = MakeOp(Op::Type::kWriteFull);
  write.data = mal::Buffer::FromString("alice-data");
  EXPECT_TRUE(store.ApplyTransaction("obj", {guard, write}, &results).ok());

  guard.value = "bob";
  write.data = mal::Buffer::FromString("bob-data");
  EXPECT_EQ(store.ApplyTransaction("obj", {guard, write}, &results).code(), Code::kAborted);
  Op read = MakeOp(Op::Type::kRead);
  ASSERT_TRUE(store.ApplyTransaction("obj", {read}, &results).ok());
  EXPECT_EQ(results[0].out.ToString(), "alice-data");
}

TEST(ObjectStoreTest, VersionBumpsOnlyOnMutation) {
  ObjectStore store;
  std::vector<OpResult> results;
  Op write = MakeOp(Op::Type::kWriteFull);
  write.data = mal::Buffer::FromString("v1");
  ASSERT_TRUE(store.ApplyTransaction("obj", {write}, &results).ok());
  uint64_t v1 = store.Get("obj").value()->version;

  ASSERT_TRUE(store.ApplyTransaction("obj", {MakeOp(Op::Type::kRead)}, &results).ok());
  EXPECT_EQ(store.Get("obj").value()->version, v1);

  ASSERT_TRUE(store.ApplyTransaction("obj", {write}, &results).ok());
  EXPECT_EQ(store.Get("obj").value()->version, v1 + 1);
}

TEST(ObjectStoreTest, ObjectEncodeDecodeRoundTrip) {
  Object object;
  object.data = mal::Buffer::FromString("payload");
  object.omap["k"] = "v";
  object.xattrs["x"] = "y";
  object.version = 9;
  mal::Buffer buffer;
  mal::Encoder enc(&buffer);
  object.Encode(&enc);
  mal::Decoder dec(buffer);
  Object decoded = Object::Decode(&dec);
  EXPECT_EQ(decoded.data.ToString(), "payload");
  EXPECT_EQ(decoded.omap.at("k"), "v");
  EXPECT_EQ(decoded.xattrs.at("x"), "y");
  EXPECT_EQ(decoded.version, 9u);
}

TEST(ObjectStoreTest, SnapshotsCaptureAndRestorePointInTime) {
  ObjectStore store;
  std::vector<OpResult> results;
  Op write = MakeOp(Op::Type::kWriteFull);
  write.data = mal::Buffer::FromString("version-1");
  ASSERT_TRUE(store.ApplyTransaction("obj", {write}, &results).ok());

  Op snap = MakeOp(Op::Type::kSnapCreate);
  snap.key = "v1";
  ASSERT_TRUE(store.ApplyTransaction("obj", {snap}, &results).ok());
  // Duplicate snapshot names rejected.
  EXPECT_EQ(store.ApplyTransaction("obj", {snap}, &results).code(), Code::kAlreadyExists);

  write.data = mal::Buffer::FromString("version-2");
  ASSERT_TRUE(store.ApplyTransaction("obj", {write}, &results).ok());

  Op read_snap = MakeOp(Op::Type::kSnapRead);
  read_snap.key = "v1";
  ASSERT_TRUE(store.ApplyTransaction("obj", {read_snap}, &results).ok());
  EXPECT_EQ(results[0].out.ToString(), "version-1");

  Op read = MakeOp(Op::Type::kRead);
  ASSERT_TRUE(store.ApplyTransaction("obj", {read}, &results).ok());
  EXPECT_EQ(results[0].out.ToString(), "version-2");

  Op remove_snap = MakeOp(Op::Type::kSnapRemove);
  remove_snap.key = "v1";
  ASSERT_TRUE(store.ApplyTransaction("obj", {remove_snap}, &results).ok());
  EXPECT_EQ(store.ApplyTransaction("obj", {read_snap}, &results).code(), Code::kNotFound);
}

TEST(ObjectStoreTest, SnapshotSurvivesEncodeDecode) {
  Object object;
  object.data = mal::Buffer::FromString("now");
  object.snapshots["then"] = mal::Buffer::FromString("before");
  mal::Buffer buffer;
  mal::Encoder enc(&buffer);
  object.Encode(&enc);
  mal::Decoder dec(buffer);
  Object decoded = Object::Decode(&dec);
  EXPECT_EQ(decoded.snapshots.at("then").ToString(), "before");
}

TEST(ObjectStoreTest, SnapshotIsUnaffectedByLaterAppends) {
  // kSnapCreate is an O(1) COW alias of the live data; later appends to the
  // object must never leak into the snapshot.
  ObjectStore store;
  std::vector<OpResult> results;
  Op write = MakeOp(Op::Type::kWriteFull);
  write.data = mal::Buffer::FromString("base");
  ASSERT_TRUE(store.ApplyTransaction("obj", {write}, &results).ok());
  Op snap = MakeOp(Op::Type::kSnapCreate);
  snap.key = "s";
  ASSERT_TRUE(store.ApplyTransaction("obj", {snap}, &results).ok());

  for (int i = 0; i < 100; ++i) {
    Op append = MakeOp(Op::Type::kAppend);
    append.data = mal::Buffer::FromString("-more");
    ASSERT_TRUE(store.ApplyTransaction("obj", {append}, &results).ok());
  }

  Op read_snap = MakeOp(Op::Type::kSnapRead);
  read_snap.key = "s";
  ASSERT_TRUE(store.ApplyTransaction("obj", {read_snap}, &results).ok());
  EXPECT_EQ(results[0].out.ToString(), "base");
  Op read = MakeOp(Op::Type::kRead);
  ASSERT_TRUE(store.ApplyTransaction("obj", {read}, &results).ok());
  EXPECT_EQ(results[0].out.size(), 4u + 100 * 5);
}

TEST(ObjectStoreTest, AbortedTransactionLeavesNoTrace) {
  // Delta staging: a transaction that fails mid-way must leave the
  // committed object — data, omap, xattrs, snapshots, version — and the
  // store's byte accounting exactly as they were.
  ObjectStore store;
  std::vector<OpResult> results;
  Op write = MakeOp(Op::Type::kWriteFull);
  write.data = mal::Buffer::FromString("committed");
  Op omap = MakeOp(Op::Type::kOmapSet);
  omap.key = "k";
  omap.value = "v";
  Op snap = MakeOp(Op::Type::kSnapCreate);
  snap.key = "s";
  ASSERT_TRUE(store.ApplyTransaction("obj", {write, omap, snap}, &results).ok());
  uint64_t version = store.Get("obj").value()->version;
  uint64_t bytes = store.bytes_used();

  // Mutate everything, then hit a failing guard: all-or-nothing abort.
  Op grow = MakeOp(Op::Type::kAppend);
  grow.data = mal::Buffer::FromString("-dirty");
  Op omap2 = MakeOp(Op::Type::kOmapSet);
  omap2.key = "k2";
  omap2.value = "v2";
  Op del = MakeOp(Op::Type::kOmapDel);
  del.key = "k";
  Op snap2 = MakeOp(Op::Type::kSnapCreate);
  snap2.key = "s2";
  Op guard = MakeOp(Op::Type::kCmpXattr);
  guard.key = "missing";
  guard.value = "x";
  EXPECT_EQ(
      store.ApplyTransaction("obj", {grow, omap2, del, snap2, guard}, &results).code(),
      Code::kAborted);

  const Object* object = store.Get("obj").value();
  EXPECT_EQ(object->data.ToString(), "committed");
  EXPECT_EQ(object->omap.size(), 1u);
  EXPECT_EQ(object->omap.at("k"), "v");
  EXPECT_EQ(object->snapshots.size(), 1u);
  EXPECT_EQ(object->version, version);
  EXPECT_EQ(store.bytes_used(), bytes);
  EXPECT_EQ(store.bytes_used(), store.RecomputeBytesUsed());
}

TEST(ObjectStoreTest, BytesUsedTracksIncrementally) {
  // bytes_used() is maintained as a running total on commit/Put/Remove;
  // it must always agree with a full recount.
  ObjectStore store;
  std::vector<OpResult> results;
  EXPECT_EQ(store.bytes_used(), 0u);

  Op write = MakeOp(Op::Type::kWriteFull);
  write.data = mal::Buffer::FromString(std::string(1000, 'a'));
  ASSERT_TRUE(store.ApplyTransaction("a", {write}, &results).ok());
  EXPECT_EQ(store.bytes_used(), 1000u);

  Op append = MakeOp(Op::Type::kAppend);
  append.data = mal::Buffer::FromString(std::string(24, 'b'));
  ASSERT_TRUE(store.ApplyTransaction("a", {append}, &results).ok());
  EXPECT_EQ(store.bytes_used(), 1024u);

  Op omap = MakeOp(Op::Type::kOmapSet);
  omap.key = "key";    // 3 bytes
  omap.value = "val";  // 3 bytes
  ASSERT_TRUE(store.ApplyTransaction("a", {omap}, &results).ok());
  EXPECT_EQ(store.bytes_used(), 1030u);
  omap.value = "v";  // overwrite shrinks the value
  ASSERT_TRUE(store.ApplyTransaction("a", {omap}, &results).ok());
  EXPECT_EQ(store.bytes_used(), 1028u);
  Op del = MakeOp(Op::Type::kOmapDel);
  del.key = "key";
  ASSERT_TRUE(store.ApplyTransaction("a", {del}, &results).ok());
  EXPECT_EQ(store.bytes_used(), 1024u);

  // Truncate via resize-style WriteFull, second object, Put/Remove.
  write.data = mal::Buffer::FromString("tiny");
  ASSERT_TRUE(store.ApplyTransaction("a", {write}, &results).ok());
  EXPECT_EQ(store.bytes_used(), 4u);
  Object replica;
  replica.data = mal::Buffer::FromString("0123456789");
  replica.omap["m"] = "n";
  store.Put("b", std::move(replica));
  EXPECT_EQ(store.bytes_used(), 16u);
  EXPECT_EQ(store.bytes_used(), store.RecomputeBytesUsed());
  store.Remove("b");
  EXPECT_EQ(store.bytes_used(), 4u);
  ASSERT_TRUE(store.ApplyTransaction("a", {MakeOp(Op::Type::kRemove)}, &results).ok());
  EXPECT_EQ(store.bytes_used(), 0u);
  EXPECT_EQ(store.bytes_used(), store.RecomputeBytesUsed());
}

TEST(ObjectStoreTest, RemoveThenRecreateInOneTransaction) {
  // The staged view must model "remove then recreate" without resurrecting
  // the removed object's fields.
  ObjectStore store;
  std::vector<OpResult> results;
  Op write = MakeOp(Op::Type::kWriteFull);
  write.data = mal::Buffer::FromString("old");
  Op omap = MakeOp(Op::Type::kOmapSet);
  omap.key = "stale";
  omap.value = "1";
  ASSERT_TRUE(store.ApplyTransaction("obj", {write, omap}, &results).ok());
  uint64_t version = store.Get("obj").value()->version;

  Op remove = MakeOp(Op::Type::kRemove);
  Op create = MakeOp(Op::Type::kCreate);
  Op append = MakeOp(Op::Type::kAppend);
  append.data = mal::Buffer::FromString("new");
  ASSERT_TRUE(store.ApplyTransaction("obj", {remove, create, append}, &results).ok());

  const Object* object = store.Get("obj").value();
  EXPECT_EQ(object->data.ToString(), "new");
  EXPECT_TRUE(object->omap.empty());  // old omap must not survive the remove
  // Recreate starts a fresh version history (same as replacing the object
  // with a newly built one), so the version matches a first commit.
  EXPECT_EQ(object->version, version);
  EXPECT_EQ(store.bytes_used(), store.RecomputeBytesUsed());
}

TEST(ObjectStoreTest, ListIsSortedWhateverTheInsertionOrder) {
  ObjectStore store;
  std::vector<OpResult> results;
  std::vector<std::string> names;
  for (int i = 0; i < 200; ++i) {
    // A scrambled insertion order, spanning several name lengths.
    names.push_back("obj-" + std::to_string((i * 7919) % 1000));
  }
  for (const std::string& name : names) {
    ASSERT_TRUE(store.ApplyTransaction(name, {MakeOp(Op::Type::kCreate)}, &results).ok());
  }
  store.Put("a-put", Object{});
  std::vector<std::string> listed = store.List();
  names.push_back("a-put");
  std::sort(names.begin(), names.end());
  EXPECT_EQ(listed, names);
}

// Runs `ops` against a staged view and commits it, the way a primary does.
Status StageAndCommit(ObjectStore* store, const std::string& oid, const std::vector<Op>& ops) {
  TxnObject staged = store->Stage(oid);
  bool removed = false;
  bool mutated = false;
  for (const Op& op : ops) {
    mutated = mutated || IsMutating(op.type);
    if (op.type == Op::Type::kRemove) {
      staged.Remove();
      removed = true;
      continue;
    }
    OpResult result;
    Status s = ObjectStore::ApplyOp(op, &staged, &result);
    if (!s.ok()) {
      return s;
    }
  }
  store->Commit(oid, std::move(staged), removed, mutated);
  return Status::Ok();
}

TEST(ObjectStoreTest, StagedCommitsKeepBytesUsedExact) {
  ObjectStore store;
  Op write = MakeOp(Op::Type::kWriteFull);
  write.data = mal::Buffer::FromString("0123456789");
  Op set = MakeOp(Op::Type::kOmapSet);
  set.key = "k1";
  set.value = "value-1";
  Op del = MakeOp(Op::Type::kOmapDel);
  del.key = "k1";
  Op remove = MakeOp(Op::Type::kRemove);

  // Create.
  ASSERT_TRUE(StageAndCommit(&store, "obj", {MakeOp(Op::Type::kCreate), write, set}).ok());
  EXPECT_EQ(store.bytes_used(), 10u + 2 + 7);
  EXPECT_EQ(store.bytes_used(), store.RecomputeBytesUsed());
  // Omap set (overwrite plus a new key), then delete.
  set.value = "v";
  Op set2 = set;
  set2.key = "k2";
  ASSERT_TRUE(StageAndCommit(&store, "obj", {set, set2}).ok());
  EXPECT_EQ(store.bytes_used(), store.RecomputeBytesUsed());
  ASSERT_TRUE(StageAndCommit(&store, "obj", {del}).ok());
  EXPECT_EQ(store.bytes_used(), 10u + 2 + 1);
  EXPECT_EQ(store.bytes_used(), store.RecomputeBytesUsed());
  // Remove, then recreate within one transaction.
  write.data = mal::Buffer::FromString("abc");
  ASSERT_TRUE(StageAndCommit(&store, "obj", {remove, write}).ok());
  EXPECT_EQ(store.bytes_used(), 3u);
  EXPECT_EQ(store.bytes_used(), store.RecomputeBytesUsed());
  EXPECT_TRUE(store.Get("obj").value()->omap.empty());
  // Remove outright; a read-only view commits nothing.
  ASSERT_TRUE(StageAndCommit(&store, "obj", {remove}).ok());
  EXPECT_FALSE(store.Exists("obj"));
  ASSERT_TRUE(StageAndCommit(&store, "gone", {MakeOp(Op::Type::kStat)}).code() ==
              Code::kNotFound);
  EXPECT_EQ(store.bytes_used(), 0u);
  EXPECT_EQ(store.bytes_used(), store.RecomputeBytesUsed());
}

TEST(ObjectStoreTest, StagedCommitMatchesApplyTransaction) {
  ObjectStore staged_store;
  ObjectStore applied_store;
  std::vector<OpResult> results;
  Op write = MakeOp(Op::Type::kWriteFull);
  write.data = mal::Buffer::FromString("payload");
  Op append = MakeOp(Op::Type::kAppend);
  append.data = mal::Buffer::FromString("+tail");
  Op set = MakeOp(Op::Type::kOmapSet);
  set.key = "k";
  set.value = "v";
  Op xattr = MakeOp(Op::Type::kXattrSet);
  xattr.key = "x";
  xattr.value = "y";
  for (const std::vector<Op>& txn : std::vector<std::vector<Op>>{
           {write, set}, {append, xattr}, {MakeOp(Op::Type::kRead)}, {append}}) {
    ASSERT_TRUE(StageAndCommit(&staged_store, "obj", txn).ok());
    ASSERT_TRUE(applied_store.ApplyTransaction("obj", txn, &results).ok());
  }
  const Object* a = staged_store.Get("obj").value();
  const Object* b = applied_store.Get("obj").value();
  EXPECT_EQ(a->data.ToString(), "payload+tail+tail");
  EXPECT_EQ(a->data, b->data);
  EXPECT_EQ(a->omap, b->omap);
  EXPECT_EQ(a->xattrs, b->xattrs);
  EXPECT_EQ(a->version, b->version);
  EXPECT_EQ(a->version, 3u);  // the read-only transaction bumped nothing
}

// ---- move-through commits: the split omap overlay ---------------------------

Op OmapSetOp(const std::string& key, const std::string& value) {
  Op op = MakeOp(Op::Type::kOmapSet);
  op.key = key;
  op.value = value;
  return op;
}

Op OmapDelOp(const std::string& key) {
  Op op = MakeOp(Op::Type::kOmapDel);
  op.key = key;
  return op;
}

std::string EncodedObject(const ObjectStore& store, const std::string& oid) {
  mal::Buffer out;
  mal::Encoder enc(&out);
  store.Get(oid).value()->Encode(&enc);
  return out.ToString();
}

TEST(ObjectStoreTest, SetDelSetOfOneKeyInOneTransaction) {
  ObjectStore store;
  std::vector<OpResult> results;
  ASSERT_TRUE(store.ApplyTransaction("obj", {OmapSetOp("k", "base")}, &results).ok());
  // Once on a key the committed object holds, once on one it does not.
  for (const std::string key : {"k", "fresh"}) {
    TxnObject staged = store.Stage("obj");
    staged.OmapSet(key, "first");
    ASSERT_NE(staged.OmapFind(key), nullptr);
    EXPECT_EQ(*staged.OmapFind(key), "first");
    staged.OmapDel(key);
    EXPECT_EQ(staged.OmapFind(key), nullptr);
    EXPECT_TRUE(staged.OmapList("").count(key) == 0);
    staged.OmapSet(key, "final");
    ASSERT_NE(staged.OmapFind(key), nullptr);
    EXPECT_EQ(*staged.OmapFind(key), "final");
    store.Commit("obj", std::move(staged), /*removed=*/false, /*mutated=*/true);
    EXPECT_EQ(store.Get("obj").value()->omap.at(key), "final");
    EXPECT_EQ(store.bytes_used(), store.RecomputeBytesUsed());

    // The same through ApplyTransaction, ending on the delete.
    std::vector<Op> txn = {OmapSetOp(key, "again"), OmapDelOp(key), OmapSetOp(key, "last"),
                           OmapDelOp(key)};
    ASSERT_TRUE(store.ApplyTransaction("obj", txn, &results).ok());
    EXPECT_EQ(store.Get("obj").value()->omap.count(key), 0u);
    EXPECT_EQ(store.bytes_used(), store.RecomputeBytesUsed());
  }
  EXPECT_TRUE(store.Get("obj").value()->omap.empty());
  EXPECT_EQ(store.bytes_used(), 0u);
}

TEST(ObjectStoreTest, DeletedBaseKeyLeavesThePrefixList) {
  ObjectStore store;
  std::vector<OpResult> results;
  std::vector<Op> load = {OmapSetOp("p.a", "1"), OmapSetOp("p.b", "2"), OmapSetOp("q.a", "3")};
  ASSERT_TRUE(store.ApplyTransaction("obj", load, &results).ok());
  Op list = MakeOp(Op::Type::kOmapList);
  list.key = "p.";
  std::vector<Op> txn = {OmapDelOp("p.a"), OmapSetOp("p.c", "4"), list};
  ASSERT_TRUE(store.ApplyTransaction("obj", txn, &results).ok());
  mal::Decoder dec(results[2].out);
  std::map<std::string, std::string> expected = {{"p.b", "2"}, {"p.c", "4"}};
  EXPECT_EQ(DecodeStringMap(&dec), expected);
  // The committed object agrees with what the transaction listed.
  expected["q.a"] = "3";
  EXPECT_EQ(store.Get("obj").value()->omap, expected);
  EXPECT_EQ(store.bytes_used(), store.RecomputeBytesUsed());
}

TEST(ObjectStoreTest, OutOfOrderCommitsSpliceEveryKey) {
  // Each transaction's keys land before, between, on and after the keys the
  // object already holds: commits whose insertion hint misses, commits past
  // the end, overwrites and deletes.
  ObjectStore store;
  std::vector<OpResult> results;
  std::map<std::string, std::string> model;
  const std::vector<std::vector<Op>> txns = {
      {OmapSetOp("k05", "a"), OmapSetOp("k09", "b")},
      {OmapSetOp("k12", "c"), OmapSetOp("k15", "d")},
      {OmapSetOp("k01", "e")},
      {OmapSetOp("k07", "f"), OmapSetOp("k20", "g"), OmapSetOp("k03", "h")},
      {OmapSetOp("k09", "a-longer-value"), OmapSetOp("k05", "")},
      {OmapDelOp("k07"), OmapSetOp("k08", "i"), OmapDelOp("k20"), OmapSetOp("k30", "j")},
  };
  for (const std::vector<Op>& txn : txns) {
    ASSERT_TRUE(store.ApplyTransaction("obj", txn, &results).ok());
    for (const Op& op : txn) {
      if (op.type == Op::Type::kOmapSet) {
        model[op.key] = op.value;
      } else {
        model.erase(op.key);
      }
    }
    EXPECT_EQ(store.Get("obj").value()->omap, model);
    EXPECT_EQ(store.bytes_used(), store.RecomputeBytesUsed());
  }
}

TEST(ObjectStoreTest, MovedOpsCommitTheSameObjectAsBorrowedOps) {
  // A replica hands its decoded ops over by rvalue; the store must build
  // the object the const& path builds, byte for byte.
  ObjectStore borrowed;
  ObjectStore moved;
  std::vector<OpResult> results;
  Op write = MakeOp(Op::Type::kWriteFull);
  write.data = mal::Buffer::FromString("payload");
  Op append = MakeOp(Op::Type::kAppend);
  append.data = mal::Buffer::FromString("+tail");
  Op xattr = MakeOp(Op::Type::kXattrSet);
  xattr.key = "owner";
  xattr.value = "alice";
  Op snap = MakeOp(Op::Type::kSnapCreate);
  snap.key = "s1";
  Op excl = MakeOp(Op::Type::kCreate);
  excl.excl = true;
  const std::vector<std::vector<Op>> txns = {
      {MakeOp(Op::Type::kCreate), write, OmapSetOp("entry.09", "x"),
       OmapSetOp("entry.02", "y")},
      {append, xattr, OmapSetOp("entry.12", "z"), OmapSetOp("entry.05", "w")},
      {snap, OmapDelOp("entry.02"), OmapSetOp("entry.09", "x2")},
      {excl, OmapSetOp("never", "applied")},  // aborts: the object exists
      {MakeOp(Op::Type::kRemove), MakeOp(Op::Type::kCreate), OmapSetOp("entry.01", "new")},
      {append, OmapSetOp("entry.00", "first"), OmapSetOp("entry.99", "last")},
  };
  for (const std::vector<Op>& txn : txns) {
    Status a = borrowed.ApplyTransaction("obj", txn, &results);
    std::vector<Op> owned = txn;
    Status b = moved.ApplyTransaction("obj", std::move(owned), &results);
    EXPECT_EQ(a.code(), b.code());
    EXPECT_EQ(EncodedObject(borrowed, "obj"), EncodedObject(moved, "obj"));
    EXPECT_EQ(borrowed.bytes_used(), moved.bytes_used());
    EXPECT_EQ(moved.bytes_used(), moved.RecomputeBytesUsed());
  }
  EXPECT_EQ(moved.Get("obj").value()->omap.size(), 3u);
}

// ---- placement ---------------------------------------------------------------

mon::OsdMap MakeMap(uint32_t num_osds, uint32_t pg_count = 128) {
  mon::OsdMap map;
  map.epoch = 1;
  map.pg_count = pg_count;
  for (uint32_t i = 0; i < num_osds; ++i) {
    map.osds[i] = {true, 1.0};
  }
  return map;
}

TEST(PlacementTest, DeterministicAndPrimaryFirst) {
  mon::OsdMap map = MakeMap(10);
  auto a = OsdsForObject("obj-1", map, 3);
  auto b = OsdsForObject("obj-1", map, 3);
  EXPECT_EQ(a, b);
  ASSERT_EQ(a.size(), 3u);
  EXPECT_NE(a[0], a[1]);
  EXPECT_NE(a[1], a[2]);
  EXPECT_NE(a[0], a[2]);
}

TEST(PlacementTest, SkipsDownOsds) {
  mon::OsdMap map = MakeMap(5);
  auto before = OsdsForObject("obj-x", map, 3);
  map.osds[before[0]].up = false;
  auto after = OsdsForObject("obj-x", map, 3);
  for (uint32_t osd : after) {
    EXPECT_NE(osd, before[0]);
  }
  EXPECT_EQ(after.size(), 3u);
}

TEST(PlacementTest, StableUnderMembershipChange) {
  // Rendezvous property: adding an OSD moves only the PGs it wins.
  mon::OsdMap small = MakeMap(10);
  mon::OsdMap large = MakeMap(11);
  int moved = 0;
  const int kPgs = 128;
  for (uint32_t pg = 0; pg < kPgs; ++pg) {
    auto a = PgToOsds(pg, small, 1);
    auto b = PgToOsds(pg, large, 1);
    if (a != b) {
      ++moved;
      EXPECT_EQ(b[0], 10u);  // any move must be to the new OSD
    }
  }
  // Expected moved fraction ~ 1/11 of PGs; allow generous slack.
  EXPECT_GT(moved, 0);
  EXPECT_LT(moved, kPgs / 4);
}

TEST(PlacementTest, RoughlyUniformDistribution) {
  mon::OsdMap map = MakeMap(10, 1024);
  std::map<uint32_t, int> primary_count;
  for (uint32_t pg = 0; pg < 1024; ++pg) {
    auto acting = PgToOsds(pg, map, 1);
    ASSERT_EQ(acting.size(), 1u);
    primary_count[acting[0]]++;
  }
  for (const auto& [osd, count] : primary_count) {
    EXPECT_GT(count, 50) << "osd " << osd;   // expected ~102
    EXPECT_LT(count, 180) << "osd " << osd;
  }
}

TEST(PlacementTest, WeightBiasesSelection) {
  mon::OsdMap map = MakeMap(4, 2048);
  map.osds[0].weight = 4.0;  // 4x the others
  std::map<uint32_t, int> primary_count;
  for (uint32_t pg = 0; pg < 2048; ++pg) {
    primary_count[PgToOsds(pg, map, 1)[0]]++;
  }
  EXPECT_GT(primary_count[0], primary_count[1] * 2);
}

TEST(PlacementTest, NoUpOsdsYieldsEmpty) {
  mon::OsdMap map = MakeMap(3);
  for (auto& [id, info] : map.osds) {
    info.up = false;
  }
  EXPECT_TRUE(OsdsForObject("obj", map, 3).empty());
}

TEST(PlacementTest, TableAgreesWithActingSetForOidOnEveryPg) {
  mon::OsdMap map = MakeMap(6);
  mon::PoolLayout ec{mon::PoolLayout::Kind::kErasure, 3};
  map.service_metadata[mon::PoolKey("ec")] = ec.Format();
  map.service_metadata[mon::PoolKey("rep")] = mon::PoolLayout::Replicated(2).Format();
  PlacementTable table;
  // Per kind of oid, a name for every PG (the PG of the logical object,
  // for EC shards).
  std::set<uint32_t> replicated, shards, index, pooled;
  for (int i = 0; replicated.size() < map.pg_count || shards.size() < map.pg_count ||
                  index.size() < map.pg_count || pooled.size() < map.pg_count;
       ++i) {
    std::string name = "obj-" + std::to_string(i);
    std::string logical = PoolOid("ec", name);
    const std::pair<std::string, std::set<uint32_t>*> cases[] = {
        {name, &replicated},
        {EcShardOid(logical, static_cast<uint32_t>(i % 4)), &shards},
        {logical, &index},  // non-shard metadata in an EC pool
        {PoolOid("rep", name), &pooled},
    };
    for (const auto& [oid, seen] : cases) {
      const std::string& pg_name = seen == &shards ? logical : oid;
      seen->insert(PgForObject(pg_name, map.pg_count));
      ASSERT_EQ(table.ActingSet(oid, map, 3), ActingSetForOid(oid, map, 3)) << oid;
    }
  }
}

TEST(PlacementTest, TableStaysStaleUntilCleared) {
  mon::OsdMap map = MakeMap(5);
  PlacementTable table;
  auto before = table.ActingSet("obj-x", map, 3);
  ASSERT_EQ(before, OsdsForObject("obj-x", map, 3));
  // An in-place edit at the same epoch: the pure function sees it at once,
  // the table only after its holder clears it.
  map.osds[before[0]].up = false;
  auto after = ActingSetForOid("obj-x", map, 3);
  ASSERT_NE(after, before);
  EXPECT_EQ(table.ActingSet("obj-x", map, 3), before);
  table.Clear();
  EXPECT_EQ(table.ActingSet("obj-x", map, 3), after);
}

// ---- TxnLog: the replicated transaction, encoded as it is recorded ----------

// The i-th op of a varied transaction: every field is exercised somewhere.
Op VariedOp(size_t i) {
  Op op = MakeOp(i % 3 == 0 ? Op::Type::kOmapSet
                            : (i % 3 == 1 ? Op::Type::kAppend : Op::Type::kRead));
  op.offset = i;
  op.length = i % 5;
  op.data = mal::Buffer::FromString(std::string(i % 7, 'd'));
  op.key = "k" + std::to_string(i);
  op.value = std::string(i % 11, 'v');
  op.cls_name = std::string(i % 3, 'c');
  op.method = std::string(i % 2, 'm');
  op.excl = i % 2 == 0;
  return op;
}

TEST(TxnLogTest, PayloadIsTheRequestEncodingAtEveryCountWidth) {
  // Counts of one, two and three varint bytes, and oids of one- and
  // two-byte length prefixes.
  const std::vector<std::string> oids = {"", "stripe.7", std::string(200, 'o')};
  for (const std::string& oid : oids) {
    for (size_t count : {0, 1, 127, 128, 300, 16384}) {
      std::vector<Op> ops;
      for (size_t i = 0; i < count; ++i) {
        ops.push_back(VariedOp(i));
      }
      TxnLog log(oid);
      for (const Op& op : ops) {
        log.Record(op);
      }
      mal::Buffer payload = std::move(log).Finish();
      ASSERT_EQ(payload, mal::EncodeMessage(OsdOpRequest{oid, ops}))
          << "oid size " << oid.size() << ", count " << count;
    }
  }
}

TEST(TxnLogTest, EffectRecordsEncodeLikeTheOpsTheyStandFor) {
  const std::string oid = "obj";
  TxnLog log(oid);
  std::vector<Op> ops;
  Op create = MakeOp(Op::Type::kCreate);
  Op append = MakeOp(Op::Type::kAppend);
  append.data = mal::Buffer::FromString("bytes");
  Op write = MakeOp(Op::Type::kWrite);
  write.offset = 9;
  write.data = mal::Buffer::FromString("at nine");
  Op set = MakeOp(Op::Type::kOmapSet);
  set.key = "key";
  set.value = "value";
  for (const Op& op : {create, append, write, set}) {
    size_t position = log.end();
    log.Record(op.type, op.offset, op.data, op.key, op.value);
    Op decoded = log.OpAt(position);
    EXPECT_EQ(decoded.type, op.type);
    EXPECT_EQ(decoded.offset, op.offset);
    EXPECT_EQ(decoded.data, op.data);
    EXPECT_EQ(decoded.key, op.key);
    EXPECT_EQ(decoded.value, op.value);
    ops.push_back(op);
  }
  EXPECT_TRUE(log.mutating());
  EXPECT_FALSE(log.removed());
  EXPECT_EQ(std::move(log).Finish(), mal::EncodeMessage(OsdOpRequest{oid, ops}));
}

TEST(TxnLogTest, TracksMutationAndRemoval) {
  const std::string oid = "obj";
  TxnLog reads(oid);
  reads.Record(MakeOp(Op::Type::kRead));
  reads.Record(MakeOp(Op::Type::kOmapGet));
  EXPECT_FALSE(reads.mutating());
  TxnLog recreate(oid);
  recreate.Record(MakeOp(Op::Type::kRemove));
  recreate.Record(MakeOp(Op::Type::kCreate));
  EXPECT_TRUE(recreate.mutating());
  EXPECT_TRUE(recreate.removed());
}

TEST(TxnLogTest, ReservedOpsFillThePayloadExactly) {
  // A 4 KiB write_full and an omap_set, reserved up front: the payload's
  // buffer holds exactly its bytes.
  const std::string oid = "obj.4242";
  std::vector<Op> ops(2);
  ops[0] = MakeOp(Op::Type::kWriteFull);
  ops[0].data = mal::Buffer::FromString(std::string(4096, 'p'));
  ops[1] = MakeOp(Op::Type::kOmapSet);
  ops[1].key = "gen";
  ops[1].value = "1";
  TxnLog log(oid, ops[0].EncodedSize() + ops[1].EncodedSize());
  for (const Op& op : ops) {
    log.Record(op);
  }
  mal::Buffer payload = std::move(log).Finish();
  EXPECT_EQ(payload, mal::EncodeMessage(OsdOpRequest{oid, ops}));
  EXPECT_EQ(payload.capacity(), payload.size());
}

}  // namespace
}  // namespace mal::osd
