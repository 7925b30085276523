// Tiny binary encoder/decoder for the prototype's control-session messages.
// Little-endian, length-prefixed strings. A reader that runs out of bytes or
// sees malformed data flips into a failed state checked once at the end
// (monadic style keeps call sites linear).
#ifndef SRC_PROTO_WIRE_H_
#define SRC_PROTO_WIRE_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "src/util/capacity.h"

namespace lard {

// The output grows to power-of-two capacities (see src/util/capacity.h).
class WireWriter {
 public:
  void U8(uint8_t v) { Put(v, 1); }
  void U32(uint32_t v) { Put(v, 4); }
  void U64(uint64_t v) { Put(v, 8); }
  // IEEE-754 double carried through the U64 little-endian framing.
  void F64(double v) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    U64(bits);
  }
  void Str(std::string_view s) {
    U32(static_cast<uint32_t>(s.size()));
    ReserveRounded(&out_, out_.size() + s.size());
    out_.append(s.data(), s.size());
  }

  const std::string& bytes() const { return out_; }
  std::string Take() { return std::move(out_); }

 private:
  // Appends the low `n` bytes of `v`, little-endian.
  void Put(uint64_t v, int n) {
    ReserveRounded(&out_, out_.size() + static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
      out_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }
  }

  std::string out_;
};

class WireReader {
 public:
  explicit WireReader(std::string_view data) : data_(data) {}

  uint8_t U8() {
    if (!Ensure(1)) {
      return 0;
    }
    return static_cast<uint8_t>(data_[pos_++]);
  }
  uint32_t U32() {
    if (!Ensure(4)) {
      return 0;
    }
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<uint32_t>(static_cast<uint8_t>(data_[pos_++])) << (8 * i);
    }
    return v;
  }
  uint64_t U64() {
    if (!Ensure(8)) {
      return 0;
    }
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<uint64_t>(static_cast<uint8_t>(data_[pos_++])) << (8 * i);
    }
    return v;
  }
  double F64() {
    const uint64_t bits = U64();
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  std::string Str() {
    const uint32_t len = U32();
    if (!Ensure(len)) {
      return "";
    }
    std::string s(data_.substr(pos_, len));
    pos_ += len;
    return s;
  }

  // True when every read so far was in bounds and all bytes were consumed.
  bool Complete() const { return ok_ && pos_ == data_.size(); }
  bool ok() const { return ok_; }
  size_t remaining() const { return data_.size() - pos_; }

 private:
  bool Ensure(size_t n) {
    if (!ok_ || data_.size() - pos_ < n) {
      ok_ = false;
      return false;
    }
    return true;
  }

  std::string_view data_;
  size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace lard

#endif  // SRC_PROTO_WIRE_H_
