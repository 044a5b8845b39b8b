// Little-endian POD byte codec for checkpoint payloads.
//
// The checkpoint format (transport/checkpoint.hpp) needs exact,
// platform-independent bytes: every field is written explicitly in
// little-endian order rather than memcpy'ing structs, so a snapshot
// taken on one build loads on another and the CRC in the trailer is
// meaningful. The reader is bounds-checked and never throws: a
// truncated or corrupt payload turns into `ok() == false`, which the
// loader reports as a rejected checkpoint instead of UB.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace rfd {

class ByteWriter {
 public:
  explicit ByteWriter(std::vector<std::uint8_t>& out) : out_(&out) {}

  void u8(std::uint8_t v) { out_->push_back(v); }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      out_->push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      out_->push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
  }
  void bytes(const void* data, std::size_t size) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    out_->insert(out_->end(), p, p + size);
  }
  void str(const std::string& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    bytes(s.data(), s.size());
  }

 private:
  std::vector<std::uint8_t>* out_;
};

/// Bounds-checked reader over a byte span. After any failed read, ok()
/// is false and every subsequent read returns a zero value - callers
/// check ok() once at the end of a decode instead of after every field.
class ByteReader {
 public:
  ByteReader(const std::uint8_t* data, std::size_t size)
      : cur_(data), end_(data + size) {}

  bool ok() const { return ok_; }
  std::size_t remaining() const {
    return static_cast<std::size_t>(end_ - cur_);
  }

  std::uint8_t u8() {
    if (!take(1)) return 0;
    return cur_[-1];
  }
  std::uint32_t u32() {
    if (!take(4)) return 0;
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(cur_[i - 4]) << (8 * i);
    }
    return v;
  }
  std::uint64_t u64() {
    if (!take(8)) return 0;
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(cur_[i - 8]) << (8 * i);
    }
    return v;
  }
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64() {
    const std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  bool bytes(void* out, std::size_t size) {
    if (!take(size)) return false;
    std::memcpy(out, cur_ - size, size);
    return true;
  }
  std::string str() {
    const std::uint32_t n = u32();
    if (!take(n)) return {};
    return std::string(reinterpret_cast<const char*>(cur_ - n), n);
  }
  /// A u32 length and that many bytes, in place; null when truncated.
  const std::uint8_t* block(std::size_t& size) {
    size = u32();
    return take(size) ? cur_ - size : nullptr;
  }

 private:
  bool take(std::size_t n) {
    if (!ok_ || remaining() < n) {
      ok_ = false;
      return false;
    }
    cur_ += n;
    return true;
  }

  const std::uint8_t* cur_;
  const std::uint8_t* end_;
  bool ok_ = true;
};

}  // namespace rfd
