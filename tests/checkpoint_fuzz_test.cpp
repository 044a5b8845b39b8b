// Checkpoint-loader mutation fuzz. One small soak checkpoint (n=16, sim
// backend, Chen detectors, so every started pair carries an adaptive
// detector slice; a crash, a partition and a recovery before it) is
// mutated 1,000 times from a fixed seed - truncations, 1-3 bit flips and
// spliced length fields - and each mutant is re-sealed with a fresh CRC,
// so it gets past the file checks into the payload parser. Every mutant
// must either be refused by run_soak(resume=true) with a non-empty error,
// or resume and finish. An abort anywhere (a failed RFD_REQUIRE, or a
// sanitizer report in the ASan+UBSan build) kills the binary and fails
// the test.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "common/crc32.hpp"
#include "common/rng.hpp"
#include "common/shutdown.hpp"
#include "transport/soak.hpp"

namespace rfd::transport {
namespace {

constexpr std::size_t kHeaderBytes = 40;  // see transport/checkpoint.hpp
constexpr int kMutants = 1'000;

SoakConfig fuzz_config(const std::string& ckpt) {
  SoakConfig config;
  config.n = 16;
  config.seed = 1606;
  config.duration_ms = 3'000.0;
  config.network.loss_prob = 0.05;
  config.detector.kind = rt::DetectorKind::kChen;
  config.detector.chen.alpha_ms = 400.0;
  config.scenario.crash(800.0, 3)
      .partition(1'200.0,
                 {{0, 1, 2, 3, 4, 5, 6, 7}, {8, 9, 10, 11, 12, 13, 14, 15}})
      .heal(1'900.0)
      .recover(2'300.0, 3)
      .crash(2'500.0, 9);
  config.checkpoint_path = ckpt;
  return config;
}

std::vector<std::uint8_t> read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

void put_u32(std::vector<std::uint8_t>& b, std::size_t at, std::uint32_t v) {
  for (std::size_t i = 0; i < 4 && at + i < b.size(); ++i) {
    b[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

void put_u64(std::vector<std::uint8_t>& b, std::size_t at, std::uint64_t v) {
  for (std::size_t i = 0; i < 8 && at + i < b.size(); ++i) {
    b[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

std::uint32_t get_u32(const std::vector<std::uint8_t>& b, std::size_t at) {
  std::uint32_t v = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(b[at + i]) << (8 * i);
  }
  return v;
}

/// Offsets of the payload's u32 length fields: one per node state, then
/// the transport state's, which follows the last fixed-size section.
std::vector<std::size_t> length_fields(const std::vector<std::uint8_t>& file,
                                       int max_nodes) {
  std::vector<std::size_t> at;
  std::size_t p = kHeaderBytes + 12;  // magic, n, max_nodes
  for (int i = 0; i < max_nodes; ++i) {
    at.push_back(p);
    p += 4 + get_u32(file, p);
  }
  // The transport length sits just before its bytes, at the file's tail;
  // find it by scanning back for a length that lands exactly on the CRC.
  for (std::size_t q = file.size() - 8; q > p; --q) {
    if (q + 4 + get_u32(file, q) == file.size() - 4) {
      at.push_back(q);
      break;
    }
  }
  return at;
}

/// Seals `body` (a whole file minus its CRC) with a fresh CRC and writes it.
void write_sealed(const std::string& path, std::vector<std::uint8_t> body) {
  const std::uint32_t crc = crc32(body.data(), body.size());
  body.resize(body.size() + 4);
  put_u32(body, body.size() - 4, crc);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(body.data()),
            static_cast<std::streamsize>(body.size()));
}

TEST(CheckpointFuzz, MutatedCheckpointsAreRefusedOrResumeCleanly) {
  reset_shutdown();
  const std::string ckpt = ::testing::TempDir() + "rfd_fuzz_ckpt_" +
                           std::to_string(::getpid());
  SoakConfig config = fuzz_config(ckpt);
  SoakReport first;
  std::string error;
  ASSERT_TRUE(run_soak(config, first, error)) << error;
  ASSERT_GT(first.raises, 0);
  const std::vector<std::uint8_t> file = read_bytes(ckpt);
  ASSERT_GT(file.size(), kHeaderBytes + 4);
  const std::vector<std::size_t> lengths =
      length_fields(file, first.max_nodes);
  ASSERT_EQ(lengths.size(), static_cast<std::size_t>(first.max_nodes) + 1);
  const std::vector<std::uint8_t> body(file.begin(), file.end() - 4);

  SoakConfig resume = config;
  resume.duration_ms = 3'500.0;
  resume.resume = true;
  Rng rng(0xf022);
  int refused = 0;
  int resumed = 0;
  for (int m = 0; m < kMutants; ++m) {
    std::vector<std::uint8_t> mutant = body;
    const auto payload_at = static_cast<std::int64_t>(kHeaderBytes);
    const auto size = static_cast<std::int64_t>(mutant.size());
    switch (m % 3) {
      case 0: {
        // Truncation; half the time the header's payload size follows, so
        // the cut reaches the payload parser.
        const std::int64_t keep = rng.range(payload_at, size - 1);
        mutant.resize(static_cast<std::size_t>(keep));
        if (rng.chance(0.5)) {
          put_u64(mutant, 32, static_cast<std::uint64_t>(keep - payload_at));
        }
        break;
      }
      case 1: {
        // 1-3 bit flips, mostly in the payload.
        const std::int64_t flips = rng.range(1, 3);
        for (std::int64_t f = 0; f < flips; ++f) {
          const std::int64_t lo = rng.chance(0.9) ? payload_at : 0;
          const auto at = static_cast<std::size_t>(rng.range(lo, size - 1));
          mutant[at] ^= static_cast<std::uint8_t>(1u << rng.below(8));
        }
        break;
      }
      default: {
        // A spliced length: a hostile u32 over a length field, or over
        // any payload offset (which may be a count inside a node state).
        const std::uint32_t values[] = {
            0u,          1u,          3u,
            0x7fffffffu, 0x80000000u, 0xffffffffu,
            1u << 24,    static_cast<std::uint32_t>(rng.below(1 << 16))};
        const std::size_t at =
            rng.chance(0.5)
                ? lengths[static_cast<std::size_t>(rng.below(
                      static_cast<std::int64_t>(lengths.size())))]
                : static_cast<std::size_t>(rng.range(payload_at, size - 4));
        put_u32(mutant, at, values[rng.below(8)]);
        break;
      }
    }
    write_sealed(ckpt, mutant);
    SoakReport report;
    error.clear();
    if (run_soak(resume, report, error)) {
      ++resumed;
      EXPECT_TRUE(report.resumed) << "mutant " << m;
    } else {
      ++refused;
      EXPECT_FALSE(error.empty()) << "mutant " << m;
    }
  }
  std::remove(ckpt.c_str());
  std::printf("%d mutants: %d refused, %d resumed\n", kMutants, refused,
              resumed);
  EXPECT_EQ(refused + resumed, kMutants);
  EXPECT_GT(refused, 0);
  EXPECT_GT(resumed, 0);
}

}  // namespace
}  // namespace rfd::transport
