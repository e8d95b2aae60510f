// Execution context handed to object-class methods (paper §4.2).
//
// A method runs "within the context of an object": reads observe the
// staged transaction state, and every mutation is both applied to the
// staged object and recorded as a primitive Op, encoded straight onto the
// transaction's osd::TxnLog. The recorded ops replace the kExec op in the
// transaction that the primary OSD ships to replicas, so replicas never run
// class code — they apply its effects deterministically (like Ceph
// replicating the resulting transaction).
#ifndef MALACOLOGY_CLS_CONTEXT_H_
#define MALACOLOGY_CLS_CONTEXT_H_

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/buffer.h"
#include "src/common/status.h"
#include "src/osd/object_store.h"

namespace mal::cls {

class ClsContext {
 public:
  // `staged` is the transaction's delta view of the object (see
  // osd::TxnObject — the committed object is never touched until commit);
  // every mutation is applied to it and recorded on `log`, the replicated
  // transaction.
  ClsContext(const std::string& oid, osd::TxnObject* staged, osd::TxnLog* log)
      : oid_(oid), staged_(staged), log_(log) {}
  // The same context over a log of its own, with each op it records also
  // decoded into `effects`: for callers that inspect a method's effects
  // rather than ship them.
  ClsContext(const std::string& oid, osd::TxnObject* staged, std::vector<osd::Op>* effects)
      : oid_(oid), staged_(staged), own_log_(std::in_place, oid), log_(&*own_log_),
        effects_(effects) {}
  // The context keeps a reference to `oid`, so a temporary will not do.
  ClsContext(std::string&&, osd::TxnObject*, osd::TxnLog*) = delete;
  ClsContext(std::string&&, osd::TxnObject*, std::vector<osd::Op>*) = delete;
  // `log_` may point at `own_log_`.
  ClsContext(const ClsContext&) = delete;
  ClsContext& operator=(const ClsContext&) = delete;

  const std::string& oid() const { return oid_; }
  bool Exists() const { return staged_->exists(); }

  // -- reads (staged view) ---------------------------------------------------
  mal::Result<mal::Buffer> Read(uint64_t offset, uint64_t length) const;
  mal::Result<uint64_t> Size() const;
  mal::Result<std::string> OmapGet(const std::string& key) const;
  // True when `key` is in the omap: a lookup that copies nothing and builds
  // no error on a miss (the write-once checks).
  bool OmapHas(const std::string& key) const;
  mal::Result<std::map<std::string, std::string>> OmapList(const std::string& prefix) const;
  mal::Result<std::string> XattrGet(const std::string& key) const;

  // -- writes (staged + recorded) ---------------------------------------------
  mal::Status Create(bool excl);
  mal::Status Write(uint64_t offset, const mal::Buffer& data);
  mal::Status WriteFull(const mal::Buffer& data);
  mal::Status Append(const mal::Buffer& data);
  // Key and value are taken by value: they are encoded onto the log from
  // here, then move into the staged object, and commit moves them on into
  // the store. No copy of either is made.
  mal::Status OmapSet(std::string key, std::string value);
  mal::Status OmapDel(const std::string& key);
  mal::Status XattrSet(std::string key, std::string value);

 private:
  void Record(osd::Op::Type type, uint64_t offset, const mal::Buffer& data,
              std::string_view key, std::string_view value);

  const std::string& oid_;
  osd::TxnObject* staged_;
  std::optional<osd::TxnLog> own_log_;
  osd::TxnLog* log_;
  std::vector<osd::Op>* effects_ = nullptr;
};

}  // namespace mal::cls

#endif  // MALACOLOGY_CLS_CONTEXT_H_
