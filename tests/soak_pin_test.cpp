// Soak runner pins: every scenario file runs through run_soak on the sim
// backend wrapped in FlakyTransport (3% loss, 2% duplication) with each
// detector kind at a fixed seed, and an n=64 crash timeline runs with
// checkpoints. Each run pins its outcome fingerprint and the FNV-1a of its
// trace bytes; the checkpointed runs also pin the FNV-1a of the checkpoint
// file. The digests were computed with the soak runner that scanned every
// pair each tick and decoded payloads with its own varint reader, so they
// check that the shared node step (one decoder, the suspicion wheel)
// reproduces that runner exactly. On a mismatch the test prints a
// paste-ready replacement table.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/shutdown.hpp"
#include "scenario_test_util.hpp"
#include "transport/soak.hpp"

namespace rfd::transport {
namespace {

using cluster::testutil::fnv1a_hex;
using cluster::testutil::read_file;

constexpr std::uint64_t kSeed = 20020623;

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "rfd_pin_" + name + "_" +
         std::to_string(::getpid());
}

struct Pin {
  const char* name;
  const char* fingerprint;
  const char* trace;
  const char* checkpoint;  // "" when the run writes none
};

struct Outcome {
  std::string fingerprint;
  std::string trace;
  std::string checkpoint;
  SoakReport report;
};

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

SoakConfig base_config(rt::DetectorKind kind) {
  SoakConfig config;
  config.seed = kSeed;
  config.topology.kind = cluster::TopologyKind::kGossip;
  config.topology.gossip_fanout = 3;
  config.topology.digest_size = 16;
  config.detector.kind = kind;
  config.detector.fixed.timeout_ms = 1'000.0;
  config.obs.snapshot_every_ticks = 10;
  return config;
}

/// Runs `config` with a trace (and its checkpoint, if set) in temp files
/// and hashes what the run left behind.
Outcome run_pinned(SoakConfig config, const std::string& tag) {
  reset_shutdown();
  Outcome out;
  config.obs.trace_path = temp_path(tag + ".jsonl");
  std::string error;
  EXPECT_TRUE(run_soak(config, out.report, error)) << tag << ": " << error;
  out.fingerprint = hex(out.report.outcome_fingerprint);
  out.trace = fnv1a_hex(read_file(config.obs.trace_path));
  std::remove(config.obs.trace_path.c_str());
  if (!config.checkpoint_path.empty()) {
    out.checkpoint = fnv1a_hex(read_file(config.checkpoint_path));
  }
  return out;
}

void check_pins(const std::vector<Pin>& pins,
                const std::vector<std::string>& names,
                const std::vector<Outcome>& outcomes) {
  EXPECT_EQ(pins.size(), outcomes.size());
  bool all_match = pins.size() == outcomes.size();
  for (std::size_t i = 0; all_match && i < pins.size(); ++i) {
    EXPECT_EQ(names[i], pins[i].name);
    const bool match = outcomes[i].fingerprint == pins[i].fingerprint &&
                       outcomes[i].trace == pins[i].trace &&
                       outcomes[i].checkpoint == pins[i].checkpoint;
    EXPECT_TRUE(match) << names[i] << ": fingerprint "
                       << outcomes[i].fingerprint << " trace "
                       << outcomes[i].trace << " checkpoint "
                       << outcomes[i].checkpoint;
    all_match = all_match && match;
  }
  if (!all_match) {
    std::string table;
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
      table += "      {\"" + names[i] + "\", \"" + outcomes[i].fingerprint +
               "\", \"" + outcomes[i].trace + "\", \"" +
               outcomes[i].checkpoint + "\"},\n";
    }
    ADD_FAILURE() << "replacement pins:\n" << table;
  }
}

const rt::DetectorKind kKinds[] = {rt::DetectorKind::kFixed,
                                   rt::DetectorKind::kChen,
                                   rt::DetectorKind::kPhi};

const char* const kScenarioFiles[] = {
    "asymmetric_partition.scn", "byzantine_counters.scn",
    "cascading_overload.scn",   "churn_storm.scn",
    "crash_recovery_wave.scn",  "flapping_links.scn",
    "gray_failure.scn",         "partition_cascade.scn",
    "rack_failure.scn",         "slow_nodes.scn",
};

TEST(SoakPins, ScenarioLibraryOverFlakySim) {
  const std::vector<Pin> pins = {
      {"asymmetric_partition.scn/fixed", "d52fab73c9e55367",
       "fd85bcaba63724ec", ""},
      {"asymmetric_partition.scn/chen", "7bd2261f3454da9e",
       "68ab70e992d1e817", ""},
      {"asymmetric_partition.scn/phi", "57a001b18f16575c",
       "7688296e09f3a4fc", ""},
      {"byzantine_counters.scn/fixed", "93dc52b99905ebe9",
       "1a6287e2df4fcf5b", ""},
      {"byzantine_counters.scn/chen", "a9026f48767a69ca",
       "cba94febcb59b939", ""},
      {"byzantine_counters.scn/phi", "f633d4102e8182cb",
       "eeec79ffe2900044", ""},
      {"cascading_overload.scn/fixed", "611dd34272cea0c4",
       "6ec48a76ba1723f8", ""},
      {"cascading_overload.scn/chen", "dc5dc35ae574c1e9",
       "94e004f699593b64", ""},
      {"cascading_overload.scn/phi", "5fa257c6bed26c8e",
       "72efa43c59970b5d", ""},
      {"churn_storm.scn/fixed", "625e21446380237f", "49a18e255db6309d", ""},
      {"churn_storm.scn/chen", "6a5055f459f27316", "71ead7f07081bbbf", ""},
      {"churn_storm.scn/phi", "897c1bdb034dff09", "45bb81d013a2f042", ""},
      {"crash_recovery_wave.scn/fixed", "11460a1405c06498",
       "7be7c8dbb9634495", ""},
      {"crash_recovery_wave.scn/chen", "b27ead7c25417b87",
       "2664b34649abceb9", ""},
      {"crash_recovery_wave.scn/phi", "caa8855543f35212",
       "04dda8e102e4e369", ""},
      {"flapping_links.scn/fixed", "e3853f3fad027ac4", "8a401cc9218a9079", ""},
      {"flapping_links.scn/chen", "32a4a45a13dea380", "e59808a228a23173", ""},
      {"flapping_links.scn/phi", "6b859a55d126ef55", "8ae24ed9c1784e58", ""},
      {"gray_failure.scn/fixed", "5b3990c2f500d324", "b7f02057d9a0db82", ""},
      {"gray_failure.scn/chen", "fafb52b59ced676d", "037a39cad7e6e772", ""},
      {"gray_failure.scn/phi", "d98b10a6a5e93f8a", "32423b839534acfc", ""},
      {"partition_cascade.scn/fixed", "b546489479957ceb",
       "669e991c29c4d3dc", ""},
      {"partition_cascade.scn/chen", "d69c22dc753fef65",
       "9f656bd41be6b740", ""},
      {"partition_cascade.scn/phi", "6252f48786bfee04", "45ce96cc9c46b321", ""},
      {"rack_failure.scn/fixed", "8d78aac5e1929ef0", "bddd14a4244946dc", ""},
      {"rack_failure.scn/chen", "75cebd288bc991b6", "1f645cae2e103e2f", ""},
      {"rack_failure.scn/phi", "f3bbd88bdb10d986", "f55b04de6a20e96e", ""},
      {"slow_nodes.scn/fixed", "7be010c32d40256f", "a4e47ce232ef5fda", ""},
      {"slow_nodes.scn/chen", "4e7b2cec15dd14b3", "0162ab228c47a0b5", ""},
      {"slow_nodes.scn/phi", "0a3fcaa6c9961f3d", "3f3b420a674a9f17", ""},
  };
  std::vector<std::string> names;
  std::vector<Outcome> outcomes;
  for (const char* file : kScenarioFiles) {
    const cluster::ScenarioDoc doc = cluster::testutil::load_doc(file);
    for (const rt::DetectorKind kind : kKinds) {
      SoakConfig config = base_config(kind);
      config.n = doc.n;
      config.max_nodes = doc.max_nodes;
      config.duration_ms = doc.duration_ms;
      config.scenario = doc.scenario;
      config.flaky = true;
      config.flaky_params.network.loss_prob = 0.03;
      config.flaky_params.dup_prob = 0.02;
      names.push_back(std::string(file) + "/" +
                      rt::detector_kind_name(kind));
      outcomes.push_back(run_pinned(config, "scn"));
    }
  }
  check_pins(pins, names, outcomes);
}

SoakConfig crash_timeline(rt::DetectorKind kind) {
  SoakConfig config = base_config(kind);
  config.n = 64;
  config.duration_ms = 16'000.0;
  config.network.loss_prob = 0.05;
  config.scenario.crash(3'000.0, 5)
      .crash(3'000.0, 41)
      .recover(9'000.0, 5)
      .crash(12'000.0, 63);
  return config;
}

// The checkpoint digest is that of the final checkpoint of the run, which
// carries every node's state; the kill+resume leg must reproduce the
// uninterrupted outcome.
TEST(SoakPins, CheckpointedCrashTimelineAtN64) {
  const std::vector<Pin> pins = {
      {"n64/fixed", "f6779eda23a68e35", "034365338709d186", "dfd1d2be6d06c1ea"},
      {"n64/chen", "4a882f85af06fbf8", "8bf8e712947282ba", "8e8f41e01c386d9e"},
      {"n64/phi", "577dfbd008b32267", "77fdf8bd8a06428c", "3cf625c7e224fb46"},
  };
  std::vector<std::string> names;
  std::vector<Outcome> outcomes;
  for (const rt::DetectorKind kind : kKinds) {
    const std::string tag = rt::detector_kind_name(kind);
    SoakConfig config = crash_timeline(kind);
    config.checkpoint_path = temp_path(tag + ".ckpt");
    config.checkpoint_every_ms = 4'000.0;
    names.push_back("n64/" + tag);
    outcomes.push_back(run_pinned(config, tag));
    std::remove(config.checkpoint_path.c_str());
    EXPECT_GT(outcomes.back().report.detection.count(), 0) << tag;

    SoakConfig first = config;
    first.duration_ms = 7'000.0;  // killed between the crashes and recovery
    const Outcome half = run_pinned(first, tag + "_a");
    EXPECT_GT(half.report.checkpoints_written, 0) << tag;
    SoakConfig second = config;
    second.resume = true;
    const Outcome resumed = run_pinned(second, tag + "_b");
    std::remove(config.checkpoint_path.c_str());
    EXPECT_TRUE(resumed.report.resumed) << tag;
    EXPECT_EQ(resumed.fingerprint, outcomes.back().fingerprint) << tag;
    EXPECT_EQ(resumed.checkpoint, outcomes.back().checkpoint) << tag;
  }
  check_pins(pins, names, outcomes);
}

}  // namespace
}  // namespace rfd::transport
