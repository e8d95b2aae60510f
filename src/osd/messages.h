// Wire messages for the OSD subsystem (envelope types 200-299). Objects move
// between OSDs only by pull: a primary's pull-on-miss, or a scrub repair
// that tells a divergent replica to pull the primary's copy.
#ifndef MALACOLOGY_OSD_MESSAGES_H_
#define MALACOLOGY_OSD_MESSAGES_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/common/buffer.h"
#include "src/osd/object_store.h"

namespace mal::osd {

enum MsgType : uint32_t {
  kMsgOsdOp = 200,      // client -> primary: transaction on one object
  kMsgRepOp = 201,      // primary -> replica: the primitive transaction (TxnLog)
  kMsgGossipMap = 202,  // osd -> osd one-way: current OSDMap (epidemic)
  kMsgPullObject = 203, // recovery: fetch a full object from a peer
  kMsgScrubList = 204,  // scrub agent -> osd: list local replicated objects
  kMsgWatch = 205,      // client -> primary: (un)register a watch
  kMsgNotify = 206,     // primary -> watcher (one-way): object changed
  kMsgScrubRepair = 207,  // scrub agent -> replica: pull the primary's copy
};

struct WatchRequest {
  std::string oid;
  bool unwatch = false;
  void Encode(mal::Encoder* enc) const {
    enc->PutString(oid);
    enc->PutBool(unwatch);
  }
  static WatchRequest Decode(mal::Decoder* dec) {
    WatchRequest req;
    req.oid = dec->GetString();
    req.unwatch = dec->GetBool();
    return req;
  }
};

// Pushed to watchers after a mutating transaction commits.
struct NotifyEvent {
  std::string oid;
  uint64_t version = 0;
  void Encode(mal::Encoder* enc) const {
    enc->PutString(oid);
    enc->PutU64(version);
  }
  static NotifyEvent Decode(mal::Decoder* dec) {
    NotifyEvent event;
    event.oid = dec->GetString();
    event.version = dec->GetU64();
    return event;
  }
};

// How many elements a decoder reserves for a count read off the wire: the
// count, clamped to what the bytes left could hold at `min_bytes` each, so
// a corrupt count fails the decode instead of the reservation.
inline size_t ReservableCount(uint64_t count, const mal::Decoder& dec, size_t min_bytes) {
  return static_cast<size_t>(std::min<uint64_t>(count, dec.remaining() / min_bytes));
}

struct OsdOpRequest {
  // An Op with every field at its default: type, excl, offset, length and
  // five empty length-prefixed fields.
  static constexpr size_t kMinOpBytes = 1 + 1 + 8 + 8 + 5;

  std::string oid;
  std::vector<Op> ops;

  void Encode(mal::Encoder* enc) const {
    size_t size = mal::Encoder::BytesSize(oid.size()) + mal::Encoder::VarU64Size(ops.size());
    for (const Op& op : ops) {
      size += op.EncodedSize();
    }
    enc->Reserve(size);
    enc->PutString(oid);
    enc->PutVarU64(ops.size());
    for (const Op& op : ops) {
      op.Encode(enc);
    }
  }
  static OsdOpRequest Decode(mal::Decoder* dec) {
    OsdOpRequest req;
    req.oid = dec->GetString();
    uint64_t n = dec->GetVarU64();
    req.ops.reserve(ReservableCount(n, *dec, kMinOpBytes));
    for (uint64_t i = 0; i < n && dec->ok(); ++i) {
      req.ops.push_back(Op::Decode(dec));
    }
    return req;
  }
};

// Reply: per-op status codes and outputs, plus the serving OSD's map epoch
// so clients learn about newer maps (Ceph piggybacks epochs the same way).
struct OsdOpReply {
  uint64_t map_epoch = 0;
  std::vector<OpResult> results;

  void Encode(mal::Encoder* enc) const {
    size_t size = 8 + mal::Encoder::VarU64Size(results.size());
    for (const OpResult& r : results) {
      size += 4 + mal::Encoder::BytesSize(r.status.message().size()) +
              mal::Encoder::BytesSize(r.out.size());
    }
    enc->Reserve(size);
    enc->PutU64(map_epoch);
    enc->PutVarU64(results.size());
    for (const OpResult& r : results) {
      enc->PutU32(static_cast<uint32_t>(r.status.code()));
      enc->PutString(r.status.message());
      enc->PutBuffer(r.out);
    }
  }
  static OsdOpReply Decode(mal::Decoder* dec) {
    OsdOpReply reply;
    reply.map_epoch = dec->GetU64();
    uint64_t n = dec->GetVarU64();
    // code, then an empty message and output
    reply.results.reserve(ReservableCount(n, *dec, 4 + 1 + 1));
    for (uint64_t i = 0; i < n && dec->ok(); ++i) {
      OpResult r;
      auto code = static_cast<mal::Code>(dec->GetU32());
      std::string message = dec->GetString();
      r.status = code == mal::Code::kOk ? mal::Status::Ok() : mal::Status(code, message);
      r.out = dec->GetBuffer();
      reply.results.push_back(std::move(r));
    }
    return reply;
  }
};

struct PullObjectRequest {
  std::string oid;
  void Encode(mal::Encoder* enc) const { enc->PutString(oid); }
  static PullObjectRequest Decode(mal::Decoder* dec) { return {dec->GetString()}; }
};

// Reply to kMsgScrubList (the request has no payload): the OSD's replica
// count, so the agent computes acting sets from its own map, and the
// version of every local object that is not an EC shard, sorted by oid.
struct ScrubListReply {
  uint32_t replicas = 0;
  std::vector<std::pair<std::string, uint64_t>> objects;  // (oid, version)

  void Encode(mal::Encoder* enc) const {
    enc->PutU32(replicas);
    enc->PutVarU64(objects.size());
    for (const auto& [oid, version] : objects) {
      enc->PutString(oid);
      enc->PutU64(version);
    }
  }
  static ScrubListReply Decode(mal::Decoder* dec) {
    ScrubListReply reply;
    reply.replicas = dec->GetU32();
    uint64_t n = dec->GetVarU64();
    reply.objects.reserve(ReservableCount(n, *dec, 1 + 8));  // an empty oid, a version
    for (uint64_t i = 0; i < n && dec->ok(); ++i) {
      std::string oid = dec->GetString();
      reply.objects.emplace_back(std::move(oid), dec->GetU64());
    }
    return reply;
  }
};

// kMsgScrubRepair: pull `oid` from `source` and install it only if the
// pulled copy is at `version` (the primary version the agent confirmed).
struct ScrubRepairRequest {
  std::string oid;
  uint32_t source = 0;
  uint64_t version = 0;

  void Encode(mal::Encoder* enc) const {
    enc->PutString(oid);
    enc->PutU32(source);
    enc->PutU64(version);
  }
  static ScrubRepairRequest Decode(mal::Decoder* dec) {
    ScrubRepairRequest req;
    req.oid = dec->GetString();
    req.source = dec->GetU32();
    req.version = dec->GetU64();
    return req;
  }
};

}  // namespace mal::osd

#endif  // MALACOLOGY_OSD_MESSAGES_H_
