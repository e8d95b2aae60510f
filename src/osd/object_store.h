// Local object store: the storage engine inside each OSD.
//
// An object is a bytestream plus a sorted key-value map ("omap") plus
// extended attributes — exactly the native interfaces Ceph exposes to
// object classes (paper §4.2: "reading and writing to a byte stream,
// controlling object snapshots and clones, and accessing a sorted
// key-value database"). Operations are grouped into transactions that
// apply atomically: either every op succeeds or the object set is
// untouched. This transactional composition is what lets object classes
// build semantically rich interfaces (e.g. "atomically update a matrix in
// the bytestream and its index in the key-value database").
//
// Transactions stage per-field deltas (TxnObject) instead of cloning the
// whole object: the bytestream is a COW Buffer alias, the omap / xattr /
// snapshot maps are sparse overlays over the committed object, and commit
// splices the staged map nodes into the object. A transaction therefore
// costs O(bytes it touches), not O(object size) — the difference between
// O(1) and O(n) per append on a CORFU-style stripe object that only grows —
// and a stored entry is built once and moved, never copied, on its way in
// (docs/data_plane.md, "Move-through commits").
#ifndef MALACOLOGY_OSD_OBJECT_STORE_H_
#define MALACOLOGY_OSD_OBJECT_STORE_H_

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/common/buffer.h"
#include "src/common/status.h"

namespace mal::osd {

struct Object {
  mal::Buffer data;
  std::map<std::string, std::string> omap;
  std::map<std::string, std::string> xattrs;
  // Named point-in-time copies of the bytestream ("controlling object
  // snapshots and clones" is one of the native interfaces of §4.2).
  // A snapshot is a COW alias of the bytestream at creation time: O(1) to
  // take, and later appends to `data` never disturb it.
  std::map<std::string, mal::Buffer> snapshots;
  uint64_t version = 0;  // bumped on every mutating transaction

  void Encode(mal::Encoder* enc) const;
  static Object Decode(mal::Decoder* dec);
};

// One primitive operation on an object.
struct Op {
  enum class Type : uint8_t {
    kCreate = 0,      // flags: excl -> kAlreadyExists if present
    kRemove = 1,
    kRead = 2,        // offset, length -> out
    kWrite = 3,       // offset, data
    kWriteFull = 4,   // data (replaces bytestream)
    kAppend = 5,      // data
    kTruncate = 6,    // offset = new size
    kStat = 7,        // -> out: u64 size, u64 version
    kOmapGet = 8,     // key -> out (kNotFound if absent)
    kOmapSet = 9,     // key, value
    kOmapDel = 10,    // key
    kOmapList = 11,   // key = prefix -> out: encoded map
    kXattrGet = 12,   // key -> out
    kXattrSet = 13,   // key, value
    kCmpXattr = 14,   // key, value -> kAborted unless equal (guard op)
    kExec = 15,       // cls_name, method, data = input -> out (handled by OSD)
    kSnapCreate = 16, // key = snapshot name (kAlreadyExists if taken)
    kSnapRead = 17,   // key = snapshot name -> out: snapshot bytes
    kSnapRemove = 18, // key = snapshot name
  };

  Type type = Type::kRead;
  bool excl = false;       // kCreate: fail if object exists
  uint64_t offset = 0;
  uint64_t length = 0;
  mal::Buffer data;
  std::string key;
  std::string value;
  std::string cls_name;    // kExec
  std::string method;      // kExec

  void Encode(mal::Encoder* enc) const;
  static Op Decode(mal::Decoder* dec);
  // Exact byte count Encode() appends.
  size_t EncodedSize() const;
};

// True for ops that change the object (the ones a replica must replay).
bool IsMutating(Op::Type type);

// The replicated form of one transaction, written while the primary runs it:
// the kMsgRepOp payload, byte for byte EncodeMessage(OsdOpRequest{oid, ops})
// of the ops recorded, in order. The primary records every op except kExec
// as it stands, and in place of each kExec the primitive ops its class
// method applied (cls::ClsContext records them). Each op is encoded once,
// straight from its fields, into the payload's own buffer; the oid and the
// op count, known only at the end, go into a slot left in front of the ops
// (docs/data_plane.md, "One encoding per replicated op").
class TxnLog {
 public:
  // `op_bytes` is reserved for the ops known up front (the encoded size of
  // a transaction's non-kExec ops), so a transaction without kExec fills
  // its payload exactly: a replica's stored bytestream can alias the
  // payload, and spare capacity behind it would stay pinned. `oid` must
  // outlive the log.
  explicit TxnLog(std::string_view oid, size_t op_bytes = 0);

  // Appends `op` as it stands.
  void Record(const Op& op);
  // Appends the op of `type` with these fields and every other field at its
  // default: the form of an op a class method applied.
  void Record(Op::Type type, uint64_t offset, const mal::Buffer& data, std::string_view key,
              std::string_view value);

  // Whether any recorded op changes the object, and whether one removes it.
  bool mutating() const { return mutating_; }
  bool removed() const { return removed_; }

  // Byte position of the next op to be recorded, and the op recorded at an
  // earlier such position, decoded.
  size_t end() const { return buf_.size(); }
  Op OpAt(size_t position) const;

  // The payload. The log is spent.
  mal::Buffer Finish() &&;

 private:
  void Counted(Op::Type type);

  std::string_view oid_;
  size_t slot_;  // header slot in front of the ops: the oid and a maximal count
  mal::Buffer buf_;
  size_t count_ = 0;
  bool mutating_ = false;
  bool removed_ = false;
};

struct OpResult {
  mal::Status status;
  mal::Buffer out;
};

// A transaction's sparse delta over one committed map: staged entries in
// the committed map's own node type, so that commit splices the nodes in
// instead of copying them, plus tombstones for deleted keys. A key is in at
// most one of the two.
template <typename V>
struct MapOverlay {
  std::map<std::string, V> sets;
  std::set<std::string> dels;

  void Set(std::string key, V value) {
    dels.erase(key);
    sets.insert_or_assign(std::move(key), std::move(value));
  }
  void Del(const std::string& key) {
    sets.erase(key);
    dels.insert(key);
  }
  void clear() {
    sets.clear();
    dels.clear();
  }
  // Overlay-over-`base` lookup (`base` is nullptr when no committed map is
  // visible). A key that sorts after the base's last key costs the base no
  // tree descent: append-only maps (ZLog stripes) look up mostly such keys.
  const V* Find(const std::map<std::string, V>* base, const std::string& key) const {
    if (auto it = sets.find(key); it != sets.end()) {
      return &it->second;
    }
    if (base == nullptr || base->empty() || base->rbegin()->first < key ||
        dels.count(key) != 0) {
      return nullptr;
    }
    auto it = base->find(key);
    return it == base->end() ? nullptr : &it->second;
  }
};

// A transaction's staged view of one object: a COW alias of the bytestream
// plus sparse overlays over the committed object's maps. Reads merge
// overlay-over-base; writes touch only the overlays, so the committed object
// is untouched until commit and an abort simply drops the TxnObject. `base`
// must outlive the TxnObject and is never mutated through it; pass nullptr
// for a not-yet-existing object.
class TxnObject {
 public:
  explicit TxnObject(const Object* base);

  bool exists() const { return exists_; }
  uint64_t version() const { return version_; }

  // Materializes an empty object if absent (no-op when it exists).
  void Create();
  // Deletes the object: overlays are cleared and the base stops being
  // visible, so a subsequent Create() starts from scratch.
  void Remove();

  const mal::Buffer& data() const { return data_; }
  mal::Buffer* MutableData() { return &data_; }

  // Merged overlay-over-base lookups. Pointers are valid until the next
  // mutation of this TxnObject.
  const std::string* OmapFind(const std::string& key) const;
  const std::string* XattrFind(const std::string& key) const;
  const mal::Buffer* SnapFind(const std::string& name) const;
  std::map<std::string, std::string> OmapList(const std::string& prefix) const;

  // Setters take their arguments by value: callers that own a key or value
  // move it into the overlay, and commit moves it on into the object.
  void OmapSet(std::string key, std::string value);
  void OmapDel(const std::string& key);
  void XattrSet(std::string key, std::string value);
  void SnapSet(std::string name, mal::Buffer snap);
  // Returns false if the snapshot does not exist (merged view).
  bool SnapRemove(const std::string& name);

  // Full object with overlays folded in (nullopt if the object does not
  // exist). O(base size); used by the cls scratch harness and tests — the
  // commit path moves the overlays into the store instead.
  std::optional<Object> Materialize() const;

  // True while reads still see the committed base object underneath the
  // overlays (i.e. the object was not removed during the transaction).
  bool base_visible() const { return base_visible_ && base_ != nullptr; }
  // The committed object this view was opened over (nullptr if absent).
  const Object* base() const { return base_; }

 private:
  friend class ObjectStore;

  // Folds the staged state into `target` — the committed base, or an empty
  // object when the base is not visible — splicing every overlay node in.
  // Adds the change in omap footprint to `*omap_bytes` unless it is null.
  void MoveInto(Object* target, uint64_t* omap_bytes) &&;

  const Object* base_ = nullptr;
  bool base_visible_ = true;
  bool exists_ = false;
  mal::Buffer data_;       // COW alias of base->data until first mutation
  uint64_t version_ = 0;
  MapOverlay<std::string> omap_;
  MapOverlay<std::string> xattrs_;
  MapOverlay<mal::Buffer> snaps_;
};

// The whole-store interface. Thread-free: the simulated OSD serializes all
// access through its CPU model.
class ObjectStore {
 public:
  // Executes all ops on `oid` atomically. If any op fails (other than
  // per-op reads reporting kNotFound data — those fail the transaction
  // too), no mutation is applied and the failing status is returned.
  // Per-op results land in `results` (sized to ops) for the caller to
  // forward. kExec ops must be resolved by the caller into primitive ops
  // via the class runtime; the store rejects them here.
  mal::Status ApplyTransaction(const std::string& oid, const std::vector<Op>& ops,
                               std::vector<OpResult>* results);
  // The same transaction over ops the caller gives up (a replica's decoded
  // repop): omap and xattr keys and values move into the object instead of
  // being copied. The ops are left moved-from.
  mal::Status ApplyTransaction(const std::string& oid, std::vector<Op>&& ops,
                               std::vector<OpResult>* results);

  // Opens a transaction's staged view of `oid` (one lookup). The view stays
  // valid until the object is committed, removed or replaced.
  TxnObject Stage(const std::string& oid) const;
  // Folds a successful transaction's staged view of `oid`, opened with
  // Stage() and not invalidated since, into the store: `removed` when the
  // transaction deleted the object, `mutated` when any op changed it (a
  // read-only view commits nothing). The view's overlay nodes are spliced
  // into the object, not copied. Bumps the version and keeps bytes_used()
  // in sync.
  void Commit(const std::string& oid, TxnObject&& staged, bool removed, bool mutated);

  bool Exists(const std::string& oid) const { return objects_.count(oid) != 0; }
  mal::Result<const Object*> Get(const std::string& oid) const;

  // Direct object install (recovery path: replica push).
  void Put(const std::string& oid, Object object);
  void Remove(const std::string& oid);

  // Fault injection (chaos bit-rot): XORs one bit of the object's
  // bytestream in place without bumping the version — silent corruption,
  // exactly the failure mode checksum scrubbing exists to catch. Returns
  // false when the object is absent or `byte` is past the end.
  bool FlipBit(const std::string& oid, uint64_t byte, uint32_t bit);

  // Drops every object (chaos permanent loss: the disk is gone).
  void Clear();

  // Every object name, sorted (scrub and the chaos bit-rot picker index
  // into this list, so its order is part of the simulated behaviour).
  std::vector<std::string> List() const;
  size_t size() const { return objects_.size(); }

  // Maintained incrementally on commit/Put/Remove (it is cheap enough to
  // sample from a perf loop); RecomputeBytesUsed is the O(store) recount
  // that tests assert agreement against.
  uint64_t bytes_used() const { return bytes_used_; }
  uint64_t RecomputeBytesUsed() const;

  // Applies one op against a transaction's staged object view. Public and
  // static so the OSD's class runtime can expand kExec ops against the
  // staged state before committing. The first form also removes `oid` for
  // kRemove and rejects kExec (the class runtime expands those); the second
  // leaves both to the caller.
  static mal::Status ApplyOp(const std::string& oid, const Op& op, TxnObject* object,
                             OpResult* result);
  static mal::Status ApplyOp(const Op& op, TxnObject* object, OpResult* result);

 private:
  // data + omap footprint, the definition bytes_used() has always used.
  static uint64_t Footprint(const Object& object);

  std::unordered_map<std::string, Object> objects_;
  uint64_t bytes_used_ = 0;
};

}  // namespace mal::osd

#endif  // MALACOLOGY_OSD_OBJECT_STORE_H_
