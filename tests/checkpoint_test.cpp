// Checkpoint format and soak crash-resume tests: files round-trip,
// corruption in any byte is caught by the CRC trailer, foreign configs
// are refused, and a killed-and-resumed sim-backend soak produces the
// exact outcome an uninterrupted run does - with the fixed, Chen and phi
// detectors. A node's adaptive detector slice is also checked on its
// own: the bytes are pinned, and malformed slices are refused.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "cluster/node.hpp"
#include "cluster/scenario.hpp"
#include "common/crc32.hpp"
#include "common/shutdown.hpp"
#include "transport/checkpoint.hpp"
#include "transport/soak.hpp"

namespace rfd::transport {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "rfd_" + name + "_" +
         std::to_string(::getpid());
}

CheckpointData sample_data() {
  CheckpointData data;
  data.config_fingerprint = 0x1122334455667788ull;
  data.tick = 1234;
  data.now_ms = 123400.0;
  for (int i = 0; i < 257; ++i) {
    data.payload.push_back(static_cast<std::uint8_t>(i * 7));
  }
  return data;
}

TEST(CheckpointFile, RoundTripsAllFields) {
  const std::string path = temp_path("roundtrip");
  const CheckpointData in = sample_data();
  std::string error;
  ASSERT_TRUE(write_checkpoint(path, in, error)) << error;

  CheckpointData out;
  ASSERT_TRUE(read_checkpoint(path, in.config_fingerprint, out, error))
      << error;
  EXPECT_EQ(out.config_fingerprint, in.config_fingerprint);
  EXPECT_EQ(out.tick, in.tick);
  EXPECT_DOUBLE_EQ(out.now_ms, in.now_ms);
  EXPECT_EQ(out.payload, in.payload);
  std::remove(path.c_str());
}

TEST(CheckpointFile, RejectsCorruption) {
  const std::string path = temp_path("corrupt");
  const CheckpointData in = sample_data();
  std::string error;
  ASSERT_TRUE(write_checkpoint(path, in, error)) << error;

  // Flip one payload byte in place; the CRC trailer must catch it.
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 60, SEEK_SET);
  const int byte = std::fgetc(f);
  std::fseek(f, 60, SEEK_SET);
  std::fputc(byte ^ 0xff, f);
  std::fclose(f);

  CheckpointData out;
  EXPECT_FALSE(read_checkpoint(path, in.config_fingerprint, out, error));
  EXPECT_NE(error.find("CRC"), std::string::npos) << error;
  std::remove(path.c_str());
}

TEST(CheckpointFile, RejectsTruncation) {
  const std::string path = temp_path("truncate");
  const CheckpointData in = sample_data();
  std::string error;
  ASSERT_TRUE(write_checkpoint(path, in, error)) << error;

  // Drop the tail (as a torn write would); re-write the file shorter.
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::vector<std::uint8_t> bytes(4096);
  const std::size_t n = std::fread(bytes.data(), 1, bytes.size(), f);
  std::fclose(f);
  ASSERT_GT(n, 100u);
  f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fwrite(bytes.data(), 1, n - 40, f);
  std::fclose(f);

  CheckpointData out;
  EXPECT_FALSE(read_checkpoint(path, in.config_fingerprint, out, error));
  std::remove(path.c_str());
}

TEST(CheckpointFile, RejectsHeaderStub) {
  const std::string path = temp_path("stub");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fwrite("RFDC", 1, 4, f);
  std::fclose(f);
  CheckpointData out;
  std::string error;
  EXPECT_FALSE(read_checkpoint(path, 0, out, error));
  EXPECT_NE(error.find("truncated"), std::string::npos) << error;
  std::remove(path.c_str());
}

TEST(CheckpointFile, RejectsForeignFingerprint) {
  const std::string path = temp_path("foreign");
  const CheckpointData in = sample_data();
  std::string error;
  ASSERT_TRUE(write_checkpoint(path, in, error)) << error;
  CheckpointData out;
  EXPECT_FALSE(read_checkpoint(path, in.config_fingerprint + 1, out, error));
  EXPECT_NE(error.find("different configuration"), std::string::npos)
      << error;
  // Fingerprint 0 = caller opts out of the check.
  EXPECT_TRUE(read_checkpoint(path, 0, out, error)) << error;
  std::remove(path.c_str());
}

TEST(CheckpointFile, MissingFileReportsError) {
  CheckpointData out;
  std::string error;
  EXPECT_FALSE(
      read_checkpoint(temp_path("never_written"), 0, out, error));
  EXPECT_FALSE(error.empty());
}

// --- soak resume -----------------------------------------------------

SoakConfig base_soak_config(
    rt::DetectorKind kind = rt::DetectorKind::kFixed) {
  SoakConfig config;
  config.n = 10;
  config.seed = 20020623;
  config.tick_ms = 100.0;
  config.duration_ms = 24'000.0;
  config.network.loss_prob = 0.03;
  config.detector.kind = kind;
  config.detector.fixed.timeout_ms = 1'000.0;
  config.detector.chen.alpha_ms = 400.0;
  config.detector.phi.min_stddev_ms = 150.0;
  config.scenario.crash(4'000.0, 2)
      .partition(8'000.0, {{0, 1, 3, 4}, {5, 6, 7, 8, 9}})
      .heal(12'000.0)
      .recover(14'000.0, 2)
      .crash(18'000.0, 7);
  return config;
}

/// FNV-1a 64-bit of a file's bytes, as fixed-width hex.
std::string file_digest(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

/// Kills a soak at `kill_ms` (after a checkpoint), resumes it, and expects
/// the uninterrupted run's exact outcome; returns the digest of the
/// checkpoint the first leg left behind.
std::string expect_resume_exact(rt::DetectorKind kind, const char* tag,
                                double kill_ms = 11'000.0) {
  reset_shutdown();
  SoakConfig full = base_soak_config(kind);
  SoakReport uninterrupted;
  std::string error;
  EXPECT_TRUE(run_soak(full, uninterrupted, error)) << error;
  // The timeline must actually exercise detection for this test to
  // mean anything.
  EXPECT_GT(uninterrupted.raises, 0);
  EXPECT_GT(uninterrupted.detection.count(), 0);

  const std::string ckpt = temp_path(std::string("resume_") + tag);
  SoakConfig first_leg = base_soak_config(kind);
  first_leg.duration_ms = kill_ms;
  first_leg.checkpoint_path = ckpt;
  first_leg.checkpoint_every_ms = 3'000.0;
  SoakReport half;
  EXPECT_TRUE(run_soak(first_leg, half, error)) << error;
  EXPECT_GT(half.checkpoints_written, 0);
  const std::string digest = file_digest(ckpt);

  SoakConfig second_leg = base_soak_config(kind);
  second_leg.checkpoint_path = ckpt;
  second_leg.resume = true;
  SoakReport resumed;
  EXPECT_TRUE(run_soak(second_leg, resumed, error)) << error;
  EXPECT_TRUE(resumed.resumed);

  EXPECT_EQ(resumed.outcome_fingerprint, uninterrupted.outcome_fingerprint);
  EXPECT_EQ(resumed.raises, uninterrupted.raises);
  EXPECT_EQ(resumed.clears, uninterrupted.clears);
  EXPECT_EQ(resumed.false_suspicions, uninterrupted.false_suspicions);
  EXPECT_EQ(resumed.missed, uninterrupted.missed);
  EXPECT_EQ(resumed.transport.sent, uninterrupted.transport.sent);
  EXPECT_EQ(resumed.transport.delivered, uninterrupted.transport.delivered);
  EXPECT_EQ(resumed.transport.dropped, uninterrupted.transport.dropped);
  EXPECT_EQ(resumed.detection.count(), uninterrupted.detection.count());
  EXPECT_EQ(resumed.detection.sum(), uninterrupted.detection.sum());
  EXPECT_EQ(resumed.final_agreement, uninterrupted.final_agreement);
  EXPECT_EQ(resumed.disruptions, uninterrupted.disruptions);
  EXPECT_EQ(resumed.convergence.count(), uninterrupted.convergence.count());
  EXPECT_EQ(resumed.convergence.sum(), uninterrupted.convergence.sum());
  std::remove(ckpt.c_str());
  return digest;
}

TEST(SoakResume, MatchesUninterruptedRun) {
  expect_resume_exact(rt::DetectorKind::kFixed, "fixed");
}

// The checkpoint digests pin the whole byte stream, each pair's adaptive
// detector slice included. They were first pinned before the detectors
// moved from per-pair heap objects into the node's ring slab (the layout
// change left them intact) and re-pinned once for format version 2, whose
// QoS ledger section replaced the per-raise detection samples.
TEST(SoakResume, ChenMatchesUninterruptedRun) {
  EXPECT_EQ(expect_resume_exact(rt::DetectorKind::kChen, "chen"),
            "e66267c5022ee85e");
}

TEST(SoakResume, PhiMatchesUninterruptedRun) {
  EXPECT_EQ(expect_resume_exact(rt::DetectorKind::kPhi, "phi"),
            "6a2f5e8d7d1072dc");
}

// Killed 500 ms after node 2 crashed, before any observer's 1 s timeout
// ran out: only the suspicion wheel, re-armed from the restored nodes,
// brings those pairs due again (node 2 sends nothing that would arm them),
// so a resume that skipped the re-arm would miss every detection of it.
TEST(SoakResume, KilledBetweenCrashAndDetection) {
  for (const rt::DetectorKind kind :
       {rt::DetectorKind::kFixed, rt::DetectorKind::kPhi}) {
    expect_resume_exact(kind, "predetect", 4'500.0);
  }
}

TEST(SoakResume, RefusesVersionOneCheckpoint) {
  reset_shutdown();
  const std::string ckpt = temp_path("v1_ckpt");
  SoakConfig config = base_soak_config();
  config.duration_ms = 2'000.0;
  config.checkpoint_path = ckpt;
  SoakReport report;
  std::string error;
  ASSERT_TRUE(run_soak(config, report, error)) << error;

  // Rewrite the version field (bytes 4..7) to 1 and re-seal the CRC, so
  // the file is an intact version-1 checkpoint.
  std::ifstream in(ckpt, std::ios::binary);
  std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                                  std::istreambuf_iterator<char>());
  in.close();
  ASSERT_GT(bytes.size(), 44u);
  const std::uint8_t one[4] = {1, 0, 0, 0};
  std::memcpy(bytes.data() + 4, one, 4);
  const std::uint32_t crc = crc32(bytes.data(), bytes.size() - 4);
  for (int i = 0; i < 4; ++i) {
    bytes[bytes.size() - 4 + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(crc >> (8 * i));
  }
  std::ofstream out(ckpt, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  out.close();

  config.duration_ms = 3'000.0;
  config.resume = true;
  SoakReport resumed;
  EXPECT_FALSE(run_soak(config, resumed, error));
  EXPECT_EQ(error, "unsupported checkpoint version 1");
  std::remove(ckpt.c_str());
}

TEST(SoakResume, RefusesForeignConfig) {
  reset_shutdown();
  const std::string ckpt = temp_path("foreign_cfg");
  SoakConfig config = base_soak_config();
  config.duration_ms = 3'000.0;
  config.checkpoint_path = ckpt;
  config.checkpoint_every_ms = 1'000.0;
  SoakReport report;
  std::string error;
  ASSERT_TRUE(run_soak(config, report, error)) << error;

  SoakConfig other = base_soak_config();
  other.seed = config.seed + 1;  // any run-defining change
  other.checkpoint_path = ckpt;
  other.resume = true;
  SoakReport resumed;
  EXPECT_FALSE(run_soak(other, resumed, error));
  EXPECT_NE(error.find("different configuration"), std::string::npos)
      << error;
  std::remove(ckpt.c_str());
}

TEST(SoakResume, ResumeWithoutCheckpointFails) {
  reset_shutdown();
  SoakConfig config = base_soak_config();
  config.checkpoint_path = temp_path("missing_ckpt");
  config.resume = true;
  SoakReport report;
  std::string error;
  EXPECT_FALSE(run_soak(config, report, error));
  EXPECT_FALSE(error.empty());
}

TEST(SoakShutdown, StopsAtNextTickAndStillCheckpoints) {
  reset_shutdown();
  const std::string ckpt = temp_path("sig_ckpt");
  SoakConfig config = base_soak_config();
  config.checkpoint_path = ckpt;
  config.checkpoint_every_ms = 5'000.0;
  request_shutdown();  // flag already set: the loop must exit on tick 1
  SoakReport report;
  std::string error;
  ASSERT_TRUE(run_soak(config, report, error)) << error;
  reset_shutdown();
  EXPECT_TRUE(report.stopped_by_signal);
  EXPECT_EQ(report.ticks_run, 0);
  EXPECT_EQ(report.checkpoints_written, 0);  // nothing ran, nothing saved

  // A shutdown arriving mid-run leaves a resumable final checkpoint.
  SoakReport fresh;
  SoakConfig first = base_soak_config();
  first.duration_ms = 6'000.0;
  first.checkpoint_path = ckpt;
  first.checkpoint_every_ms = 100'000.0;  // only the exit snapshot
  ASSERT_TRUE(run_soak(first, fresh, error)) << error;
  EXPECT_EQ(fresh.checkpoints_written, 1);
  SoakConfig second = base_soak_config();
  second.checkpoint_path = ckpt;
  second.resume = true;
  SoakReport resumed;
  ASSERT_TRUE(run_soak(second, resumed, error)) << error;
  EXPECT_TRUE(resumed.resumed);
  std::remove(ckpt.c_str());
}

// --- adaptive detector slices ----------------------------------------
//
// A node's checkpoint carries, per started (observer, peer) pair, one
// length-prefixed detector slice: phi [last, mean, var, count,
// intervals...], Chen [expected, count, arrivals...]. These tests edit
// that slice in an otherwise valid stream.

constexpr int kSliceWindow = 4;

cluster::NodeParams slice_params(rt::DetectorKind kind) {
  cluster::NodeParams params;
  params.detector.kind = kind;
  params.detector.phi.window = kSliceWindow;
  params.detector.chen.window = kSliceWindow;
  return params;
}

/// Node 0 of 2 after 7 advances from peer 1 (the window has wrapped).
std::vector<std::uint8_t> saved_node(rt::DetectorKind kind) {
  cluster::ClusterNode node(0, 2, slice_params(kind));
  node.learn_peer(1, 0.0);
  for (int k = 1; k <= 8; ++k) node.observe(1, k, 95.0 * k + 3.0 * (k % 3));
  std::vector<std::uint8_t> bytes;
  node.save_state(bytes);
  return bytes;
}

bool restores(rt::DetectorKind kind, const std::vector<std::uint8_t>& bytes) {
  cluster::ClusterNode node(0, 2, slice_params(kind));
  std::size_t consumed = 0;
  return node.restore_state(bytes.data(), bytes.size(), consumed) &&
         consumed == bytes.size();
}

// Fixed layout of a 2-node stream: header, then per peer 4 counter +
// 10 hot + 8 eval-tick bytes, then peer 0's record (never started), then
// peer 1's record: known_since, suspect_since, started byte, slice.
constexpr std::size_t kHeader = 4 + 4 + 8 + 1 + 8 + 4 + 4;
constexpr std::size_t kSliceLen = kHeader + 2 * (4 + 10 + 8) + 17 + 17;

std::vector<double> slice_of(const std::vector<std::uint8_t>& bytes) {
  std::uint32_t len = 0;
  for (int i = 0; i < 4; ++i) {
    len |= static_cast<std::uint32_t>(bytes[kSliceLen + i]) << (8 * i);
  }
  std::vector<double> slice(len);
  for (std::uint32_t k = 0; k < len; ++k) {
    std::uint64_t bits = 0;
    for (int i = 0; i < 8; ++i) {
      bits |= static_cast<std::uint64_t>(bytes[kSliceLen + 4 + 8 * k + i])
              << (8 * i);
    }
    std::memcpy(&slice[k], &bits, sizeof(bits));
  }
  return slice;
}

/// The stream with peer 1's slice replaced by `slice`.
std::vector<std::uint8_t> with_slice(const std::vector<std::uint8_t>& bytes,
                                     const std::vector<double>& slice) {
  const std::size_t old_end = kSliceLen + 4 + 8 * slice_of(bytes).size();
  std::vector<std::uint8_t> out(bytes.begin(), bytes.begin() + kSliceLen);
  const auto len = static_cast<std::uint32_t>(slice.size());
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>(len >> (8 * i)));
  }
  for (const double x : slice) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &x, sizeof(bits));
    for (int i = 0; i < 8; ++i) {
      out.push_back(static_cast<std::uint8_t>(bits >> (8 * i)));
    }
  }
  out.insert(out.end(), bytes.begin() + static_cast<std::ptrdiff_t>(old_end),
             bytes.end());
  return out;
}

void expect_slice_checks(rt::DetectorKind kind, std::size_t count_at) {
  const std::vector<std::uint8_t> bytes = saved_node(kind);
  const std::vector<double> slice = slice_of(bytes);
  ASSERT_EQ(slice.size(), count_at + 1 + kSliceWindow);
  ASSERT_EQ(slice[count_at], kSliceWindow);  // the window is full
  EXPECT_TRUE(restores(kind, bytes));
  EXPECT_TRUE(restores(kind, with_slice(bytes, slice)));  // editor is exact

  // count > window, even when the slice really holds that many entries.
  std::vector<double> over = slice;
  over[count_at] = kSliceWindow + 1;
  over.push_back(over.back() + 1.0);
  EXPECT_FALSE(restores(kind, with_slice(bytes, over)));
  // A truncated slice: its count promises one entry more than it holds.
  std::vector<double> truncated = slice;
  truncated.pop_back();
  EXPECT_FALSE(restores(kind, with_slice(bytes, truncated)));
  // A slice longer than its count says.
  std::vector<double> longer = slice;
  longer[count_at] = kSliceWindow - 1;
  EXPECT_FALSE(restores(kind, with_slice(bytes, longer)));
  // A stream cut inside the slice.
  const std::vector<std::uint8_t> cut(
      bytes.begin(),
      bytes.begin() + static_cast<std::ptrdiff_t>(kSliceLen + 12));
  EXPECT_FALSE(restores(kind, cut));
  // A negative or NaN count.
  std::vector<double> negative = slice;
  negative[count_at] = -1.0;
  EXPECT_FALSE(restores(kind, with_slice(bytes, negative)));
}

TEST(NodeCheckpoint, PhiSliceBoundsAreChecked) {
  expect_slice_checks(rt::DetectorKind::kPhi, 3);
}

TEST(NodeCheckpoint, ChenSliceBoundsAreChecked) {
  expect_slice_checks(rt::DetectorKind::kChen, 1);
}

TEST(NodeCheckpoint, AdaptiveNodeBytesArePinned) {
  // Pinned before the compact-detector refactor (see the soak digests).
  const auto digest = [](const std::vector<std::uint8_t>& bytes) {
    std::uint64_t h = 1469598103934665603ull;
    for (const std::uint8_t b : bytes) {
      h ^= b;
      h *= 1099511628211ull;
    }
    return h;
  };
  EXPECT_EQ(digest(saved_node(rt::DetectorKind::kPhi)),
            0xf6c3d02e9467609dull);
  EXPECT_EQ(digest(saved_node(rt::DetectorKind::kChen)),
            0x378f2d8ceb38e4f7ull);
}

}  // namespace
}  // namespace rfd::transport
