#include "src/osd/object_store.h"

#include <algorithm>
#include <utility>

namespace mal::osd {

void Object::Encode(mal::Encoder* enc) const {
  enc->PutBuffer(data);
  EncodeStringMap(enc, omap);
  EncodeStringMap(enc, xattrs);
  enc->PutVarU64(snapshots.size());
  for (const auto& [name, snap] : snapshots) {
    enc->PutString(name);
    enc->PutBuffer(snap);
  }
  enc->PutU64(version);
}

Object Object::Decode(mal::Decoder* dec) {
  Object object;
  object.data = dec->GetBuffer();
  object.omap = DecodeStringMap(dec);
  object.xattrs = DecodeStringMap(dec);
  uint64_t n = dec->GetVarU64();
  for (uint64_t i = 0; i < n && dec->ok(); ++i) {
    std::string name = dec->GetString();
    object.snapshots[name] = dec->GetBuffer();
  }
  object.version = dec->GetU64();
  return object;
}

namespace {

// The one wire layout of an Op, shared by Op::Encode and the effect records
// of TxnLog, which encode from fields that are not in an Op.
void EncodeOp(mal::Encoder* enc, Op::Type type, bool excl, uint64_t offset, uint64_t length,
              const mal::Buffer& data, std::string_view key, std::string_view value,
              std::string_view cls_name, std::string_view method) {
  enc->PutU8(static_cast<uint8_t>(type));
  enc->PutBool(excl);
  enc->PutU64(offset);
  enc->PutU64(length);
  enc->PutBuffer(data);
  enc->PutString(key);
  enc->PutString(value);
  enc->PutString(cls_name);
  enc->PutString(method);
}

size_t EncodedOpSize(size_t data, size_t key, size_t value, size_t cls_name, size_t method) {
  return 1 + 1 + 8 + 8 + mal::Encoder::BytesSize(data) + mal::Encoder::BytesSize(key) +
         mal::Encoder::BytesSize(value) + mal::Encoder::BytesSize(cls_name) +
         mal::Encoder::BytesSize(method);
}

}  // namespace

void Op::Encode(mal::Encoder* enc) const {
  EncodeOp(enc, type, excl, offset, length, data, key, value, cls_name, method);
}

size_t Op::EncodedSize() const {
  return EncodedOpSize(data.size(), key.size(), value.size(), cls_name.size(), method.size());
}

bool IsMutating(Op::Type type) {
  switch (type) {
    case Op::Type::kCreate:
    case Op::Type::kRemove:
    case Op::Type::kWrite:
    case Op::Type::kWriteFull:
    case Op::Type::kAppend:
    case Op::Type::kTruncate:
    case Op::Type::kOmapSet:
    case Op::Type::kOmapDel:
    case Op::Type::kXattrSet:
    case Op::Type::kSnapCreate:
    case Op::Type::kSnapRemove:
      return true;
    default:
      return false;
  }
}

Op Op::Decode(mal::Decoder* dec) {
  Op op;
  op.type = static_cast<Type>(dec->GetU8());
  op.excl = dec->GetBool();
  op.offset = dec->GetU64();
  op.length = dec->GetU64();
  op.data = dec->GetBuffer();
  op.key = dec->GetString();
  op.value = dec->GetString();
  op.cls_name = dec->GetString();
  op.method = dec->GetString();
  return op;
}

TxnLog::TxnLog(std::string_view oid, size_t op_bytes)
    : oid_(oid), slot_(mal::Encoder::BytesSize(oid.size()) + mal::Encoder::kMaxVarU64Bytes) {
  buf_.Reserve(slot_ + op_bytes);
  buf_.Resize(slot_);
}

void TxnLog::Counted(Op::Type type) {
  ++count_;
  mutating_ = mutating_ || IsMutating(type);
  removed_ = removed_ || type == Op::Type::kRemove;
}

void TxnLog::Record(const Op& op) {
  mal::Encoder enc(&buf_);
  enc.Reserve(op.EncodedSize());
  op.Encode(&enc);
  Counted(op.type);
}

void TxnLog::Record(Op::Type type, uint64_t offset, const mal::Buffer& data,
                    std::string_view key, std::string_view value) {
  mal::Encoder enc(&buf_);
  enc.Reserve(EncodedOpSize(data.size(), key.size(), value.size(), 0, 0));
  EncodeOp(&enc, type, /*excl=*/false, offset, /*length=*/0, data, key, value, {}, {});
  Counted(type);
}

Op TxnLog::OpAt(size_t position) const {
  mal::Decoder dec(buf_.View().substr(position));
  return Op::Decode(&dec);
}

mal::Buffer TxnLog::Finish() && {
  // The header (PutString(oid), PutVarU64(count)) ends where the ops begin.
  char oid_size[mal::Encoder::kMaxVarU64Bytes];
  char count[mal::Encoder::kMaxVarU64Bytes];
  size_t oid_size_bytes = mal::Encoder::WriteVarU64(oid_size, oid_.size());
  size_t count_bytes = mal::Encoder::WriteVarU64(count, count_);
  size_t start = slot_ - oid_size_bytes - oid_.size() - count_bytes;
  buf_.Write(start, oid_size, oid_size_bytes);
  buf_.Write(start + oid_size_bytes, oid_.data(), oid_.size());
  buf_.Write(slot_ - count_bytes, count, count_bytes);
  mal::Buffer payload = buf_.Read(start, buf_.size() - start);
  buf_.clear();
  return payload;
}

TxnObject::TxnObject(const Object* base) : base_(base) {
  if (base_ != nullptr) {
    exists_ = true;
    data_ = base_->data;  // O(1) COW alias; writes detach privately
    version_ = base_->version;
  }
}

void TxnObject::Create() {
  if (!exists_) {
    exists_ = true;
  }
}

void TxnObject::Remove() {
  exists_ = false;
  base_visible_ = false;
  data_.clear();
  version_ = 0;
  omap_.clear();
  xattrs_.clear();
  snaps_.clear();
}

const std::string* TxnObject::OmapFind(const std::string& key) const {
  return omap_.Find(base_visible() ? &base_->omap : nullptr, key);
}

const std::string* TxnObject::XattrFind(const std::string& key) const {
  return xattrs_.Find(base_visible() ? &base_->xattrs : nullptr, key);
}

const mal::Buffer* TxnObject::SnapFind(const std::string& name) const {
  return snaps_.Find(base_visible() ? &base_->snapshots : nullptr, name);
}

std::map<std::string, std::string> TxnObject::OmapList(const std::string& prefix) const {
  // Keys sharing a prefix are contiguous in a sorted map.
  auto in_range = [&prefix](const std::string& key) { return key.rfind(prefix, 0) == 0; };
  std::map<std::string, std::string> matched;
  if (base_visible()) {
    auto base = base_->omap.lower_bound(prefix);
    for (; base != base_->omap.end() && in_range(base->first); ++base) {
      matched.emplace_hint(matched.end(), base->first, base->second);
    }
  }
  auto set = omap_.sets.lower_bound(prefix);
  for (; set != omap_.sets.end() && in_range(set->first); ++set) {
    matched.insert_or_assign(set->first, set->second);
  }
  auto del = omap_.dels.lower_bound(prefix);
  for (; del != omap_.dels.end() && in_range(*del); ++del) {
    matched.erase(*del);
  }
  return matched;
}

void TxnObject::OmapSet(std::string key, std::string value) {
  omap_.Set(std::move(key), std::move(value));
}

void TxnObject::OmapDel(const std::string& key) { omap_.Del(key); }

void TxnObject::XattrSet(std::string key, std::string value) {
  xattrs_.Set(std::move(key), std::move(value));
}

void TxnObject::SnapSet(std::string name, mal::Buffer snap) {
  snaps_.Set(std::move(name), std::move(snap));
}

bool TxnObject::SnapRemove(const std::string& name) {
  if (SnapFind(name) == nullptr) {
    return false;
  }
  snaps_.Del(name);
  return true;
}

namespace {

// Moves `overlay` into `target`: tombstoned keys are erased, staged nodes
// are spliced in. A key that sorts after the target's last key is linked at
// the end without a tree descent; any other key costs one descent, whose
// result is the insertion hint. When `bytes` is set it tracks the footprint
// (key + value sizes) of the entries added and removed.
template <typename V>
void SpliceInto(std::map<std::string, V>* target, MapOverlay<V>* overlay, uint64_t* bytes) {
  for (const std::string& key : overlay->dels) {
    auto it = target->find(key);
    if (it != target->end()) {
      if (bytes != nullptr) {
        *bytes -= key.size() + it->second.size();
      }
      target->erase(it);
    }
  }
  while (!overlay->sets.empty()) {
    auto node = overlay->sets.extract(overlay->sets.begin());
    if (bytes != nullptr) {
      *bytes += node.key().size() + node.mapped().size();
    }
    auto hint = target->end();
    if (!target->empty() && !(target->rbegin()->first < node.key())) {
      hint = target->lower_bound(node.key());
      if (hint != target->end() && hint->first == node.key()) {
        if (bytes != nullptr) {
          *bytes -= hint->first.size() + hint->second.size();
        }
        hint->second = std::move(node.mapped());
        continue;
      }
    }
    target->insert(hint, std::move(node));
  }
}

}  // namespace

void TxnObject::MoveInto(Object* target, uint64_t* omap_bytes) && {
  target->data = std::move(data_);
  SpliceInto(&target->omap, &omap_, omap_bytes);
  SpliceInto(&target->xattrs, &xattrs_, nullptr);
  SpliceInto(&target->snapshots, &snaps_, nullptr);
}

std::optional<Object> TxnObject::Materialize() const {
  if (!exists_) {
    return std::nullopt;
  }
  Object out;
  if (base_visible()) {
    out.omap = base_->omap;
    out.xattrs = base_->xattrs;
    out.snapshots = base_->snapshots;
  }
  TxnObject(*this).MoveInto(&out, /*omap_bytes=*/nullptr);
  out.version = version_;
  return out;
}

mal::Result<const Object*> ObjectStore::Get(const std::string& oid) const {
  auto it = objects_.find(oid);
  if (it == objects_.end()) {
    return mal::Status::NotFound("object " + oid);
  }
  return &it->second;
}

void ObjectStore::Put(const std::string& oid, Object object) {
  auto it = objects_.find(oid);
  if (it != objects_.end()) {
    bytes_used_ -= Footprint(it->second);
  }
  bytes_used_ += Footprint(object);
  objects_[oid] = std::move(object);
}

void ObjectStore::Remove(const std::string& oid) {
  auto it = objects_.find(oid);
  if (it == objects_.end()) {
    return;
  }
  bytes_used_ -= Footprint(it->second);
  objects_.erase(it);
}

bool ObjectStore::FlipBit(const std::string& oid, uint64_t byte, uint32_t bit) {
  auto it = objects_.find(oid);
  if (it == objects_.end() || byte >= it->second.data.size()) {
    return false;
  }
  char c = it->second.data.data()[byte];
  c = static_cast<char>(c ^ (1u << (bit % 8)));
  it->second.data.Write(byte, &c, 1);
  return true;
}

void ObjectStore::Clear() {
  objects_.clear();
  bytes_used_ = 0;
}

std::vector<std::string> ObjectStore::List() const {
  std::vector<std::string> names;
  names.reserve(objects_.size());
  for (const auto& [oid, object] : objects_) {
    names.push_back(oid);
  }
  std::sort(names.begin(), names.end());
  return names;
}

uint64_t ObjectStore::Footprint(const Object& object) {
  uint64_t total = object.data.size();
  for (const auto& [k, v] : object.omap) {
    total += k.size() + v.size();
  }
  return total;
}

uint64_t ObjectStore::RecomputeBytesUsed() const {
  uint64_t total = 0;
  for (const auto& [oid, object] : objects_) {
    total += Footprint(object);
  }
  return total;
}

TxnObject ObjectStore::Stage(const std::string& oid) const {
  auto it = objects_.find(oid);
  return TxnObject(it == objects_.end() ? nullptr : &it->second);
}

void ObjectStore::Commit(const std::string& oid, TxnObject&& staged, bool removed,
                         bool mutated) {
  // The store owns every object Stage() hands out as a base.
  Object* base = const_cast<Object*>(staged.base());
  if (removed && !staged.exists()) {
    if (base != nullptr) {
      bytes_used_ -= Footprint(*base);
      objects_.erase(oid);
    }
    return;
  }
  if (!staged.exists() || !mutated) {
    return;
  }
  if (staged.base_visible()) {
    bytes_used_ += staged.data().size();
    bytes_used_ -= base->data.size();
    std::move(staged).MoveInto(base, &bytes_used_);
    ++base->version;
    return;
  }
  // New object, or removed-and-recreated within the transaction: the
  // overlays hold the entire state.
  Object built;
  uint64_t built_bytes = staged.data().size();
  built.version = staged.version() + 1;
  std::move(staged).MoveInto(&built, &built_bytes);
  if (base != nullptr) {
    bytes_used_ -= Footprint(*base);
  }
  bytes_used_ += built_bytes;
  objects_.insert_or_assign(oid, std::move(built));
}

namespace {

// The one op interpreter behind every ApplyOp form and both ApplyTransaction
// forms. `OpRef` is `const Op&`, whose key and value are copied into the
// overlay, or `Op` (an rvalue), whose key and value are moved there.
template <typename OpRef>
mal::Status ApplyPrimitive(OpRef&& op, TxnObject* object, OpResult* result) {
  auto require = [&]() -> mal::Status {
    if (!object->exists()) {
      return mal::Status::NotFound("object does not exist");
    }
    return mal::Status::Ok();
  };

  switch (op.type) {
    case Op::Type::kCreate:
      if (object->exists()) {
        return op.excl ? mal::Status::AlreadyExists() : mal::Status::Ok();
      }
      object->Create();
      return mal::Status::Ok();

    case Op::Type::kRead: {
      mal::Status s = require();
      if (!s.ok()) {
        return s;
      }
      uint64_t len = op.length == 0 ? object->data().size() : op.length;
      result->out = object->data().Read(op.offset, len);
      return mal::Status::Ok();
    }

    case Op::Type::kWrite:
      object->Create();
      object->MutableData()->Write(op.offset, op.data.data(), op.data.size());
      return mal::Status::Ok();

    case Op::Type::kWriteFull:
      object->Create();
      *object->MutableData() = op.data;
      return mal::Status::Ok();

    case Op::Type::kAppend:
      object->Create();
      object->MutableData()->Append(op.data);
      return mal::Status::Ok();

    case Op::Type::kTruncate: {
      mal::Status s = require();
      if (!s.ok()) {
        return s;
      }
      object->MutableData()->Resize(op.offset);
      return mal::Status::Ok();
    }

    case Op::Type::kStat: {
      mal::Status s = require();
      if (!s.ok()) {
        return s;
      }
      mal::Encoder enc(&result->out);
      enc.PutU64(object->data().size());
      enc.PutU64(object->version());
      return mal::Status::Ok();
    }

    case Op::Type::kOmapGet: {
      mal::Status s = require();
      if (!s.ok()) {
        return s;
      }
      const std::string* value = object->OmapFind(op.key);
      if (value == nullptr) {
        return mal::Status::NotFound("omap key " + op.key);
      }
      result->out = mal::Buffer::FromString(*value);
      return mal::Status::Ok();
    }

    case Op::Type::kOmapSet:
      object->Create();
      object->OmapSet(std::forward<OpRef>(op).key, std::forward<OpRef>(op).value);
      return mal::Status::Ok();

    case Op::Type::kOmapDel: {
      mal::Status s = require();
      if (!s.ok()) {
        return s;
      }
      object->OmapDel(op.key);
      return mal::Status::Ok();
    }

    case Op::Type::kOmapList: {
      mal::Status s = require();
      if (!s.ok()) {
        return s;
      }
      std::map<std::string, std::string> matched = object->OmapList(op.key);
      mal::Encoder enc(&result->out);
      EncodeStringMap(&enc, matched);
      return mal::Status::Ok();
    }

    case Op::Type::kXattrGet: {
      mal::Status s = require();
      if (!s.ok()) {
        return s;
      }
      const std::string* value = object->XattrFind(op.key);
      if (value == nullptr) {
        return mal::Status::NotFound("xattr " + op.key);
      }
      result->out = mal::Buffer::FromString(*value);
      return mal::Status::Ok();
    }

    case Op::Type::kXattrSet:
      object->Create();
      object->XattrSet(std::forward<OpRef>(op).key, std::forward<OpRef>(op).value);
      return mal::Status::Ok();

    case Op::Type::kCmpXattr: {
      mal::Status s = require();
      if (!s.ok()) {
        return s;
      }
      const std::string* value = object->XattrFind(op.key);
      if (value == nullptr || *value != op.value) {
        return mal::Status::Aborted("cmpxattr mismatch on " + op.key);
      }
      return mal::Status::Ok();
    }

    case Op::Type::kSnapCreate: {
      mal::Status s = require();
      if (!s.ok()) {
        return s;
      }
      if (object->SnapFind(op.key) != nullptr) {
        return mal::Status::AlreadyExists("snapshot " + op.key);
      }
      object->SnapSet(op.key, object->data());  // O(1) COW alias
      return mal::Status::Ok();
    }

    case Op::Type::kSnapRead: {
      mal::Status s = require();
      if (!s.ok()) {
        return s;
      }
      const mal::Buffer* snap = object->SnapFind(op.key);
      if (snap == nullptr) {
        return mal::Status::NotFound("snapshot " + op.key);
      }
      result->out = *snap;
      return mal::Status::Ok();
    }

    case Op::Type::kSnapRemove: {
      mal::Status s = require();
      if (!s.ok()) {
        return s;
      }
      if (!object->SnapRemove(op.key)) {
        return mal::Status::NotFound("snapshot " + op.key);
      }
      return mal::Status::Ok();
    }

    case Op::Type::kRemove:
    case Op::Type::kExec:
      return mal::Status::Internal("handled by caller");
  }
  return mal::Status::Internal("unknown op");
}

template <typename OpRef>
mal::Status ApplyTxnOp(const std::string& oid, OpRef&& op, TxnObject* object,
                       OpResult* result) {
  if (op.type == Op::Type::kExec) {
    return mal::Status::Internal("kExec must be expanded by the class runtime");
  }
  if (op.type != Op::Type::kRemove) {
    return ApplyPrimitive(std::forward<OpRef>(op), object, result);
  }
  if (!object->exists()) {
    return mal::Status::NotFound("object " + oid);
  }
  object->Remove();
  return mal::Status::Ok();
}

// Hands a borrowed op on as a const lvalue and an owned one as an rvalue,
// so one apply loop serves both ApplyTransaction forms.
const Op& Pass(const Op& op) { return op; }
Op&& Pass(Op& op) { return std::move(op); }

template <typename OpVector>
mal::Status RunTransaction(ObjectStore* store, const std::string& oid, OpVector& ops,
                           std::vector<OpResult>* results) {
  results->clear();
  results->resize(ops.size());

  // Stage: a delta view over the single target object. All ops execute
  // against the staged deltas; commit folds them in only if every op
  // succeeded. The committed object is never touched before commit, so an
  // abort is simply "return" — all-or-nothing without a full-object clone.
  TxnObject staged = store->Stage(oid);
  bool removed = false;
  bool mutated = false;

  for (size_t i = 0; i < ops.size(); ++i) {
    mutated = mutated || IsMutating(ops[i].type);
    removed = removed || ops[i].type == Op::Type::kRemove;
    mal::Status s = ApplyTxnOp(oid, Pass(ops[i]), &staged, &(*results)[i]);
    (*results)[i].status = s;
    if (!s.ok()) {
      return s;  // abort: nothing applied
    }
  }
  store->Commit(oid, std::move(staged), removed, mutated);
  return mal::Status::Ok();
}

}  // namespace

mal::Status ObjectStore::ApplyOp(const std::string& oid, const Op& op, TxnObject* object,
                                 OpResult* result) {
  return ApplyTxnOp(oid, op, object, result);
}

mal::Status ObjectStore::ApplyOp(const Op& op, TxnObject* object, OpResult* result) {
  return ApplyPrimitive(op, object, result);
}

mal::Status ObjectStore::ApplyTransaction(const std::string& oid, const std::vector<Op>& ops,
                                          std::vector<OpResult>* results) {
  return RunTransaction(this, oid, ops, results);
}

mal::Status ObjectStore::ApplyTransaction(const std::string& oid, std::vector<Op>&& ops,
                                          std::vector<OpResult>* results) {
  return RunTransaction(this, oid, ops, results);
}

}  // namespace mal::osd
