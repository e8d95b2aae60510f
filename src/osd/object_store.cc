#include "src/osd/object_store.h"

#include <algorithm>

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

void Op::Encode(mal::Encoder* enc) const {
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

size_t Op::EncodedSize() const {
  return 1 + 1 + 8 + 8 + mal::Encoder::BytesSize(data.size()) +
         mal::Encoder::BytesSize(key.size()) + mal::Encoder::BytesSize(value.size()) +
         mal::Encoder::BytesSize(cls_name.size()) + mal::Encoder::BytesSize(method.size());
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
  if (auto it = omap_.find(key); it != omap_.end()) {
    return it->second ? &*it->second : nullptr;
  }
  if (base_visible()) {
    if (auto it = base_->omap.find(key); it != base_->omap.end()) {
      return &it->second;
    }
  }
  return nullptr;
}

const std::string* TxnObject::XattrFind(const std::string& key) const {
  if (auto it = xattrs_.find(key); it != xattrs_.end()) {
    return it->second ? &*it->second : nullptr;
  }
  if (base_visible()) {
    if (auto it = base_->xattrs.find(key); it != base_->xattrs.end()) {
      return &it->second;
    }
  }
  return nullptr;
}

const mal::Buffer* TxnObject::SnapFind(const std::string& name) const {
  if (auto it = snaps_.find(name); it != snaps_.end()) {
    return it->second ? &*it->second : nullptr;
  }
  if (base_visible()) {
    if (auto it = base_->snapshots.find(name); it != base_->snapshots.end()) {
      return &it->second;
    }
  }
  return nullptr;
}

std::map<std::string, std::string> TxnObject::OmapList(const std::string& prefix) const {
  std::map<std::string, std::string> matched;
  if (base_visible()) {
    // Keys sharing a prefix are contiguous in a sorted map.
    for (auto it = base_->omap.lower_bound(prefix); it != base_->omap.end(); ++it) {
      if (it->first.rfind(prefix, 0) != 0) {
        break;
      }
      matched[it->first] = it->second;
    }
  }
  for (auto it = omap_.lower_bound(prefix); it != omap_.end(); ++it) {
    if (it->first.rfind(prefix, 0) != 0) {
      break;
    }
    if (it->second) {
      matched[it->first] = *it->second;
    } else {
      matched.erase(it->first);
    }
  }
  return matched;
}

void TxnObject::OmapSet(const std::string& key, std::string value) {
  omap_[key] = std::move(value);
}

void TxnObject::OmapDel(const std::string& key) { omap_[key] = std::nullopt; }

void TxnObject::XattrSet(const std::string& key, std::string value) {
  xattrs_[key] = std::move(value);
}

void TxnObject::SnapSet(const std::string& name, mal::Buffer snap) {
  snaps_[name] = std::move(snap);
}

bool TxnObject::SnapRemove(const std::string& name) {
  if (SnapFind(name) == nullptr) {
    return false;
  }
  snaps_[name] = std::nullopt;
  return true;
}

std::optional<Object> TxnObject::Materialize() const {
  if (!exists_) {
    return std::nullopt;
  }
  Object out;
  out.data = data_;
  out.version = version_;
  if (base_visible()) {
    out.omap = base_->omap;
    out.xattrs = base_->xattrs;
    out.snapshots = base_->snapshots;
  }
  for (const auto& [k, v] : omap_) {
    if (v) {
      out.omap[k] = *v;
    } else {
      out.omap.erase(k);
    }
  }
  for (const auto& [k, v] : xattrs_) {
    if (v) {
      out.xattrs[k] = *v;
    } else {
      out.xattrs.erase(k);
    }
  }
  for (const auto& [k, v] : snaps_) {
    if (v) {
      out.snapshots[k] = *v;
    } else {
      out.snapshots.erase(k);
    }
  }
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

void ObjectStore::CommitInPlace(Object* object, const TxnObject& staged) {
  bytes_used_ += staged.data().size();
  bytes_used_ -= object->data.size();
  object->data = staged.data();  // O(1): COW assignment
  for (const auto& [k, v] : staged.omap_overlay()) {
    auto it = object->omap.find(k);
    if (it != object->omap.end()) {
      bytes_used_ -= k.size() + it->second.size();
      if (v) {
        bytes_used_ += k.size() + v->size();
        it->second = *v;
      } else {
        object->omap.erase(it);
      }
    } else if (v) {
      bytes_used_ += k.size() + v->size();
      object->omap.emplace(k, *v);
    }
  }
  for (const auto& [k, v] : staged.xattr_overlay()) {
    if (v) {
      object->xattrs[k] = *v;
    } else {
      object->xattrs.erase(k);
    }
  }
  for (const auto& [k, v] : staged.snap_overlay()) {
    if (v) {
      object->snapshots[k] = *v;
    } else {
      object->snapshots.erase(k);
    }
  }
  ++object->version;
}

TxnObject ObjectStore::Stage(const std::string& oid) const {
  auto it = objects_.find(oid);
  return TxnObject(it == objects_.end() ? nullptr : &it->second);
}

void ObjectStore::Commit(const std::string& oid, const TxnObject& staged, bool removed,
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
    CommitInPlace(base, staged);
    return;
  }
  // New object, or removed-and-recreated within the transaction: the
  // overlays hold the entire state.
  std::optional<Object> built = staged.Materialize();
  ++built->version;
  if (base != nullptr) {
    bytes_used_ -= Footprint(*base);
  }
  bytes_used_ += Footprint(*built);
  objects_.insert_or_assign(oid, std::move(*built));
}

mal::Status ObjectStore::ApplyTransaction(const std::string& oid, const std::vector<Op>& ops,
                                          std::vector<OpResult>* results) {
  results->clear();
  results->resize(ops.size());

  // Stage: a delta view over the single target object. All ops execute
  // against the staged deltas; commit folds them in only if every op
  // succeeded. The committed object is never touched before commit, so an
  // abort is simply "return" — all-or-nothing without a full-object clone.
  TxnObject staged = Stage(oid);
  bool removed = false;
  bool mutated = false;

  for (size_t i = 0; i < ops.size(); ++i) {
    mutated = mutated || IsMutating(ops[i].type);
    removed = removed || ops[i].type == Op::Type::kRemove;
    mal::Status s = ApplyOp(oid, ops[i], &staged, &(*results)[i]);
    (*results)[i].status = s;
    if (!s.ok()) {
      return s;  // abort: nothing applied
    }
  }
  Commit(oid, staged, removed, mutated);
  return mal::Status::Ok();
}

mal::Status ObjectStore::ApplyOp(const std::string& oid, const Op& op, TxnObject* object,
                                 OpResult* result) {
  if (op.type == Op::Type::kExec) {
    return mal::Status::Internal("kExec must be expanded by the class runtime");
  }
  if (op.type != Op::Type::kRemove) {
    return ApplyOp(op, object, result);
  }
  if (!object->exists()) {
    return mal::Status::NotFound("object " + oid);
  }
  object->Remove();
  return mal::Status::Ok();
}

mal::Status ObjectStore::ApplyOp(const Op& op, TxnObject* object, OpResult* result) {
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
      object->OmapSet(op.key, op.value);
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
      object->XattrSet(op.key, op.value);
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

}  // namespace mal::osd
