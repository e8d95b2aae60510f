// Byte buffer and wire-format encoding, modeled on Ceph's bufferlist and
// encode/decode framework. Every message that crosses the simulated network
// and every object payload persisted by the object store round-trips through
// this encoding, so the whole stack continuously exercises it.
//
// Buffer is a refcounted copy-on-write slice (shared storage + offset/length
// view), like Ceph's bufferptr over a raw_buffer. Copying a Buffer, slicing
// one with Read(), and handing payloads across the simulated wire are all
// O(1) refcount bumps; mutation detaches a private copy only when the bytes
// are actually shared. Two invariants make aliasing safe:
//   1. Bytes inside any live view are never overwritten through a different
//      Buffer — mutation of shared bytes detaches first.
//   2. Shared storage is never reallocated: appends extend shared storage in
//      place only while spare capacity lasts (new bytes land past every
//      existing view), so raw pointers from data()/View() stay valid until
//      the Buffer they came from is itself mutated.
//
// Wire format:
//   - fixed-width integers: little-endian
//   - varuint: LEB128
//   - string/bytes: varuint length + raw bytes
//   - containers: varuint count + elements
#ifndef MALACOLOGY_COMMON_BUFFER_H_
#define MALACOLOGY_COMMON_BUFFER_H_

#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "src/common/status.h"

namespace mal {

// A refcounted, contiguous byte buffer with copy-on-write sharing.
// Contiguity keeps the simulator fast and the decoding logic simple; a
// production system would use iovec chains.
class Buffer {
 public:
  Buffer() = default;
  explicit Buffer(std::string data)
      : storage_(std::make_shared<std::string>(std::move(data))),
        length_(storage_->size()) {}
  static Buffer FromString(std::string s) { return Buffer(std::move(s)); }

  const char* data() const { return storage_ ? storage_->data() + offset_ : ""; }
  size_t size() const { return length_; }
  bool empty() const { return length_ == 0; }
  void clear() {
    storage_.reset();
    offset_ = 0;
    length_ = 0;
  }

  void Append(const void* p, size_t n);
  void Append(const Buffer& other);
  void Append(std::string_view sv) { Append(sv.data(), sv.size()); }

  // Zero-fill or truncate to exactly n bytes. Truncating a shared buffer is
  // O(1): the view shrinks, the storage is untouched.
  void Resize(size_t n);

  // Pre-allocate capacity for at least n total bytes. Batched payloads
  // (multi-entry transactions, large encoded requests) call this once up
  // front instead of growing through repeated reallocation.
  void Reserve(size_t n);
  size_t capacity() const { return storage_ ? storage_->capacity() - offset_ : 0; }

  // Overwrite [offset, offset+n) growing the buffer (zero-padded) if needed.
  void Write(size_t offset, const void* p, size_t n);

  // Alias [offset, offset+n), clamped to the buffer end: O(1), shares
  // storage. Mutating either buffer afterwards copies-on-write.
  Buffer Read(size_t offset, size_t n) const;

  std::string ToString() const { return std::string(View()); }
  std::string_view View() const {
    return storage_ ? std::string_view(storage_->data() + offset_, length_)
                    : std::string_view();
  }

  bool operator==(const Buffer& other) const { return View() == other.View(); }

  // True if both buffers alias the same underlying storage (regardless of
  // the slice each views). Exposed for COW-semantics tests and asserts.
  bool SharesStorageWith(const Buffer& other) const {
    return storage_ != nullptr && storage_ == other.storage_;
  }

 private:
  Buffer(std::shared_ptr<std::string> storage, size_t offset, size_t length)
      : storage_(std::move(storage)), offset_(offset), length_(length) {}

  bool UniqueFullSpan() const {
    return storage_ && storage_.use_count() == 1 && offset_ == 0 &&
           length_ == storage_->size();
  }
  bool AtTail() const { return storage_ && offset_ + length_ == storage_->size(); }

  // Replaces shared storage with a private copy of the viewed slice,
  // reserving `reserve_total` bytes (clamped up to the current length).
  // Returns the private string; afterwards the buffer is unique+full-span.
  std::string* Detach(size_t reserve_total);

  std::shared_ptr<std::string> storage_;  // null = empty buffer
  size_t offset_ = 0;
  size_t length_ = 0;
};

// Appends wire-encoded values to a Buffer.
class Encoder {
 public:
  // Upper bound on the encoded size of a varuint (LEB128 of a u64).
  static constexpr size_t kMaxVarU64Bytes = 10;

  explicit Encoder(Buffer* out) : out_(out) {}

  // Encoded size of a varuint, and of a length-prefixed string/bytes field.
  static constexpr size_t VarU64Size(uint64_t v) {
    size_t n = 1;
    for (; v >= 0x80; v >>= 7) {
      ++n;
    }
    return n;
  }
  static constexpr size_t BytesSize(size_t n) { return VarU64Size(n) + n; }
  // Writes `v` as a varuint into `out` (room for kMaxVarU64Bytes) and
  // returns its length: the bytes PutVarU64 appends, also for a caller
  // that fills a slot it left in a buffer.
  static size_t WriteVarU64(char* out, uint64_t v) {
    size_t n = 0;
    for (; v >= 0x80; v >>= 7) {
      out[n++] = static_cast<char>(static_cast<uint8_t>(v) | 0x80);
    }
    out[n++] = static_cast<char>(v);
    return n;
  }

  // Makes room for `n` more bytes at once. A message that knows its encoded
  // size reserves it up front, so its buffer is allocated (and its payload
  // copied) exactly once, with no spare capacity left pinned behind it.
  void Reserve(size_t n) { out_->Reserve(out_->size() + n); }

  void PutU8(uint8_t v) { out_->Append(&v, 1); }
  void PutU16(uint16_t v) { PutFixed(v); }
  void PutU32(uint32_t v) { PutFixed(v); }
  void PutU64(uint64_t v) { PutFixed(v); }
  void PutI64(int64_t v) { PutFixed(static_cast<uint64_t>(v)); }
  void PutF64(double v) {
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    PutFixed(bits);
  }
  void PutBool(bool v) { PutU8(v ? 1 : 0); }

  void PutVarU64(uint64_t v);

  void PutString(std::string_view s) {
    Reserve(BytesSize(s.size()));
    PutVarU64(s.size());
    out_->Append(s);
  }
  void PutBuffer(const Buffer& b) {
    Reserve(BytesSize(b.size()));
    PutVarU64(b.size());
    out_->Append(b);
  }

 private:
  template <typename T>
  void PutFixed(T v) {
    char bytes[sizeof(T)];
    for (size_t i = 0; i < sizeof(T); ++i) {
      bytes[i] = static_cast<char>((v >> (8 * i)) & 0xff);
    }
    out_->Append(bytes, sizeof(T));
  }

  Buffer* out_;
};

// Encodes one message (any type with `void Encode(Encoder*) const`) into a
// fresh buffer.
template <typename Msg>
Buffer EncodeMessage(const Msg& msg) {
  Buffer out;
  Encoder enc(&out);
  msg.Encode(&enc);
  return out;
}

// Reads wire-encoded values from a Buffer. All getters are checked: reading
// past the end flips the decoder into a failed state, and subsequent reads
// return zero values. Callers check `ok()` once at the end.
//
// A decoder constructed from a Buffer shares its storage (keeping it alive
// for the decoder's lifetime), and GetBuffer() returns an aliased O(1)
// slice of the input instead of a copy. A decoder over a bare string_view
// cannot alias and falls back to copying.
class Decoder {
 public:
  explicit Decoder(const Buffer& in) : buffer_(in), data_(buffer_.View()) {}
  explicit Decoder(std::string_view in) : data_(in) {}

  bool ok() const { return ok_; }
  size_t remaining() const { return data_.size() - pos_; }

  uint8_t GetU8();
  uint16_t GetU16() { return static_cast<uint16_t>(GetFixed(2)); }
  uint32_t GetU32() { return static_cast<uint32_t>(GetFixed(4)); }
  uint64_t GetU64() { return GetFixed(8); }
  int64_t GetI64() { return static_cast<int64_t>(GetFixed(8)); }
  double GetF64() {
    uint64_t bits = GetFixed(8);
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  bool GetBool() { return GetU8() != 0; }

  uint64_t GetVarU64();

  std::string GetString();
  Buffer GetBuffer();

  Status Finish() const {
    if (!ok_) {
      return Status::Corruption("decode past end of buffer");
    }
    return Status::Ok();
  }

 private:
  uint64_t GetFixed(size_t width);
  void Fail() { ok_ = false; }

  Buffer buffer_;  // shares the input's storage; empty when view-constructed
  std::string_view data_;
  size_t pos_ = 0;
  bool ok_ = true;
};

// Convenience: encode a map<string, string>.
void EncodeStringMap(Encoder* enc, const std::map<std::string, std::string>& m);
std::map<std::string, std::string> DecodeStringMap(Decoder* dec);

}  // namespace mal

#endif  // MALACOLOGY_COMMON_BUFFER_H_
