#include "transport/checkpoint.hpp"

#include <cstdio>

#include "common/bytes.hpp"
#include "common/crc32.hpp"

namespace rfd::transport {

namespace {
constexpr std::uint32_t kMagic = 0x43444652u;  // "RFDC"
constexpr std::uint32_t kVersion = 2;
}  // namespace

bool write_checkpoint(const std::string& path, const CheckpointData& data,
                      std::string& error) {
  std::vector<std::uint8_t> bytes;
  bytes.reserve(data.payload.size() + 64);
  ByteWriter w(bytes);
  w.u32(kMagic);
  w.u32(kVersion);
  w.u64(data.config_fingerprint);
  w.i64(data.tick);
  w.f64(data.now_ms);
  w.u64(data.payload.size());
  w.bytes(data.payload.data(), data.payload.size());
  w.u32(crc32(bytes.data(), bytes.size()));

  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    error = "cannot open " + tmp + " for writing";
    return false;
  }
  const bool wrote =
      std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
  const bool flushed = std::fflush(f) == 0;
  std::fclose(f);
  if (!wrote || !flushed) {
    error = "short write to " + tmp;
    std::remove(tmp.c_str());
    return false;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    error = "rename " + tmp + " -> " + path + " failed";
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

bool read_checkpoint(const std::string& path,
                     std::uint64_t expected_fingerprint, CheckpointData& out,
                     std::string& error) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    error = "cannot open " + path;
    return false;
  }
  std::vector<std::uint8_t> bytes;
  std::uint8_t buf[1 << 16];
  for (;;) {
    const std::size_t n = std::fread(buf, 1, sizeof(buf), f);
    bytes.insert(bytes.end(), buf, buf + n);
    if (n < sizeof(buf)) break;
  }
  const bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  if (read_error) {
    error = "read error on " + path;
    return false;
  }
  // Trailer first: the CRC covers everything before it, so any
  // truncation or corruption anywhere in the file fails here.
  if (bytes.size() < 44) {  // header (40) + crc (4)
    error = "checkpoint truncated (header incomplete)";
    return false;
  }
  ByteReader trailer(bytes.data() + bytes.size() - 4, 4);
  const std::uint32_t stored_crc = trailer.u32();
  const std::uint32_t actual_crc = crc32(bytes.data(), bytes.size() - 4);
  if (stored_crc != actual_crc) {
    error = "checkpoint CRC mismatch (corrupted or torn write)";
    return false;
  }
  ByteReader r(bytes.data(), bytes.size() - 4);
  if (r.u32() != kMagic) {
    error = "bad checkpoint magic";
    return false;
  }
  const std::uint32_t version = r.u32();
  if (version != kVersion) {
    error = "unsupported checkpoint version " + std::to_string(version);
    return false;
  }
  out.config_fingerprint = r.u64();
  out.tick = r.i64();
  out.now_ms = r.f64();
  const std::uint64_t payload_size = r.u64();
  if (!r.ok() || payload_size != r.remaining()) {
    error = "checkpoint payload size mismatch";
    return false;
  }
  if (expected_fingerprint != 0 &&
      out.config_fingerprint != expected_fingerprint) {
    error = "checkpoint was produced by a different configuration";
    return false;
  }
  out.payload.resize(payload_size);
  if (payload_size != 0 && !r.bytes(out.payload.data(), payload_size)) {
    error = "checkpoint payload truncated";
    return false;
  }
  return true;
}

}  // namespace rfd::transport
