#include "src/cls/context.h"

namespace mal::cls {

mal::Result<mal::Buffer> ClsContext::Read(uint64_t offset, uint64_t length) const {
  if (!staged_->exists()) {
    return mal::Status::NotFound("object " + oid_);
  }
  uint64_t len = length == 0 ? staged_->data().size() : length;
  return staged_->data().Read(offset, len);  // O(1) aliased slice
}

mal::Result<uint64_t> ClsContext::Size() const {
  if (!staged_->exists()) {
    return mal::Status::NotFound("object " + oid_);
  }
  return static_cast<uint64_t>(staged_->data().size());
}

mal::Result<std::string> ClsContext::OmapGet(const std::string& key) const {
  if (!staged_->exists()) {
    return mal::Status::NotFound("object " + oid_);
  }
  const std::string* value = staged_->OmapFind(key);
  if (value == nullptr) {
    return mal::Status::NotFound("omap key " + key);
  }
  return *value;
}

bool ClsContext::OmapHas(const std::string& key) const {
  return staged_->exists() && staged_->OmapFind(key) != nullptr;
}

mal::Result<std::map<std::string, std::string>> ClsContext::OmapList(
    const std::string& prefix) const {
  if (!staged_->exists()) {
    return mal::Status::NotFound("object " + oid_);
  }
  return staged_->OmapList(prefix);
}

mal::Result<std::string> ClsContext::XattrGet(const std::string& key) const {
  if (!staged_->exists()) {
    return mal::Status::NotFound("object " + oid_);
  }
  const std::string* value = staged_->XattrFind(key);
  if (value == nullptr) {
    return mal::Status::NotFound("xattr " + key);
  }
  return *value;
}

void ClsContext::Record(osd::Op::Type type, uint64_t offset, const mal::Buffer& data,
                        std::string_view key, std::string_view value) {
  size_t position = log_->end();
  log_->Record(type, offset, data, key, value);
  if (effects_ != nullptr) {
    effects_->push_back(log_->OpAt(position));
  }
}

mal::Status ClsContext::Create(bool excl) {
  if (staged_->exists()) {
    if (excl) {
      return mal::Status::AlreadyExists("object " + oid_);
    }
    return mal::Status::Ok();
  }
  staged_->Create();
  // excl is recorded false: the staged check already enforced it.
  Record(osd::Op::Type::kCreate, 0, {}, {}, {});
  return mal::Status::Ok();
}

mal::Status ClsContext::Write(uint64_t offset, const mal::Buffer& data) {
  staged_->Create();
  staged_->MutableData()->Write(offset, data.data(), data.size());
  Record(osd::Op::Type::kWrite, offset, data, {}, {});
  return mal::Status::Ok();
}

mal::Status ClsContext::WriteFull(const mal::Buffer& data) {
  staged_->Create();
  *staged_->MutableData() = data;
  Record(osd::Op::Type::kWriteFull, 0, data, {}, {});
  return mal::Status::Ok();
}

mal::Status ClsContext::Append(const mal::Buffer& data) {
  staged_->Create();
  staged_->MutableData()->Append(data);
  Record(osd::Op::Type::kAppend, 0, data, {}, {});
  return mal::Status::Ok();
}

mal::Status ClsContext::OmapSet(std::string key, std::string value) {
  staged_->Create();
  Record(osd::Op::Type::kOmapSet, 0, {}, key, value);
  staged_->OmapSet(std::move(key), std::move(value));
  return mal::Status::Ok();
}

mal::Status ClsContext::OmapDel(const std::string& key) {
  if (!staged_->exists()) {
    return mal::Status::NotFound("object " + oid_);
  }
  staged_->OmapDel(key);
  Record(osd::Op::Type::kOmapDel, 0, {}, key, {});
  return mal::Status::Ok();
}

mal::Status ClsContext::XattrSet(std::string key, std::string value) {
  staged_->Create();
  Record(osd::Op::Type::kXattrSet, 0, {}, key, value);
  staged_->XattrSet(std::move(key), std::move(value));
  return mal::Status::Ok();
}

}  // namespace mal::cls
