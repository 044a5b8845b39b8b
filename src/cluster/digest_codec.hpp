// Wire codec for gossip digest payloads.
//
// A heartbeat message carries the sender's own counter plus up to
// digest_size piggybacked (peer id, counter) entries. Shipping those as
// raw (int32, int32) pairs makes payload bytes scale with both the
// digest size and - through the id values - log2(n); at n=10k a single
// digest is kilobytes. The codec instead sorts entries by id and
// delta-compresses the id stream (LEB128 varints of the gaps), so a
// digest that samples k of n ids costs ~log2(n/k) bits per id: with the
// bench's digest_size = n/8 the gaps average 8 and the id stream is one
// byte per entry regardless of n. Counters are plain varints (they are
// small for most of a run and bounded by one per heartbeat interval).
//
// Sorting by id is also what makes the receiver's observe() loop walk
// its per-peer arrays in ascending index order - a cache-friendly
// drain instead of random access per entry - and it is lossless:
// duplicate ids (a hot-queue entry also hit by the rotation cursor) are
// kept as zero gaps, so the decoded entry count and multiset match the
// selection exactly.
#pragma once

#include <cstdint>
#include <vector>

#include "common/assert.hpp"

namespace rfd::cluster {

/// LEB128 varint write for the hot encode path: the caller guarantees at
/// least 5 writable bytes at `p`.
inline std::uint8_t* put_varint_raw(std::uint8_t* p, std::uint32_t v) {
  while (v >= 0x80u) {
    *p++ = static_cast<std::uint8_t>(v | 0x80u);
    v >>= 7;
  }
  *p++ = static_cast<std::uint8_t>(v);
  return p;
}

/// Sequential reader over an encoded payload - the one varint decoder of
/// the cluster stack. read() never reads past the buffer: it returns
/// false on a truncated varint, and on one longer than the five bytes a
/// 32-bit value needs or carrying bits beyond 32. varint() is for payloads
/// this process encoded (or validate_digest() accepted) and aborts on a
/// malformed one.
class DigestReader {
 public:
  DigestReader(const std::uint8_t* data, std::size_t size)
      : p_(data), end_(data + size) {}

  bool read(std::uint32_t& out) {
    std::uint32_t value = 0;
    for (unsigned shift = 0; shift < 35; shift += 7) {
      if (p_ == end_) return false;
      const std::uint8_t byte = *p_++;
      if (shift == 28 && byte > 0x0fu) return false;
      value |= static_cast<std::uint32_t>(byte & 0x7fu) << shift;
      if ((byte & 0x80u) == 0) {
        out = value;
        return true;
      }
    }
    return false;
  }

  std::uint32_t varint() {
    std::uint32_t value = 0;
    RFD_REQUIRE_MSG(read(value), "malformed digest payload");
    return value;
  }

  bool done() const { return p_ == end_; }

 private:
  const std::uint8_t* p_;
  const std::uint8_t* end_;
};

/// Encodes one message payload: the sender's counter, the entry count,
/// then (id gap, counter) pairs for `ids` (which must be sorted
/// ascending; duplicates allowed). `counter_of` maps an id to the
/// counter value to ship.
template <typename CounterOf>
void encode_digest(std::uint32_t own_counter,
                   const std::vector<std::int32_t>& ids,
                   CounterOf&& counter_of, std::vector<std::uint8_t>& out) {
  // Size for the 5-bytes-per-varint worst case up front, then write
  // through a raw cursor and trim: one bounds decision per message
  // instead of one per byte (this encode runs once per heartbeat sent
  // and dominated the send path when it grew by push_back).
  const std::size_t base = out.size();
  out.resize(base + 10 + ids.size() * 10);
  std::uint8_t* p = out.data() + base;
  p = put_varint_raw(p, own_counter);
  p = put_varint_raw(p, static_cast<std::uint32_t>(ids.size()));
  std::int32_t prev = 0;
  for (const std::int32_t id : ids) {
    p = put_varint_raw(p, static_cast<std::uint32_t>(id - prev));
    p = put_varint_raw(p, static_cast<std::uint32_t>(counter_of(id)));
    prev = id;
  }
  out.resize(static_cast<std::size_t>(p - out.data()));
}

}  // namespace rfd::cluster
