// Soak runner pins: every scenario file runs through run_soak on the sim
// backend wrapped in FlakyTransport (3% loss, 2% duplication) with each
// detector kind at a fixed seed, and an n=64 crash timeline runs with
// checkpoints. Each run pins its outcome fingerprint and the FNV-1a of its
// trace bytes; the checkpointed runs also pin the FNV-1a of the checkpoint
// file. The trace digests were computed with the soak runner that scanned
// every pair each tick and decoded payloads with its own varint reader, so
// they check that the shared node step (one decoder, the suspicion wheel)
// reproduces that runner exactly. The fingerprints were re-pinned once
// when the soak took run_cluster's QoS semantics (cluster/qos_ledger.hpp):
// one detection sample per (live observer, down victim) pair instead of
// one per raise, and no miss for a never-met peer; only n64/fixed's trace
// changed then, in its footer's missed count. The checkpoint digests were
// re-pinned for checkpoint format version 2. On a mismatch the test prints
// a paste-ready replacement table. The replay test re-derives each scenario
// run's QoS offline from its trace.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/shutdown.hpp"
#include "obs/replay.hpp"
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
/// and hashes what the run left behind. With `replay` set, the trace's
/// offline replay is stored there before the trace is removed.
Outcome run_pinned(SoakConfig config, const std::string& tag,
                   obs::ReplayQos* replay = nullptr) {
  reset_shutdown();
  Outcome out;
  config.obs.trace_path = temp_path(tag + ".jsonl");
  std::string error;
  EXPECT_TRUE(run_soak(config, out.report, error)) << tag << ": " << error;
  out.fingerprint = hex(out.report.outcome_fingerprint);
  out.trace = fnv1a_hex(read_file(config.obs.trace_path));
  if (replay != nullptr) *replay = obs::replay_qos(config.obs.trace_path);
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

/// A scenario file's pinned configuration.
SoakConfig scenario_config(const char* file, rt::DetectorKind kind) {
  const cluster::ScenarioDoc doc = cluster::testutil::load_doc(file);
  SoakConfig config = base_config(kind);
  config.n = doc.n;
  config.max_nodes = doc.max_nodes;
  config.duration_ms = doc.duration_ms;
  config.scenario = doc.scenario;
  config.flaky = true;
  config.flaky_params.network.loss_prob = 0.03;
  config.flaky_params.dup_prob = 0.02;
  return config;
}

TEST(SoakPins, ScenarioLibraryOverFlakySim) {
  const std::vector<Pin> pins = {
      {"asymmetric_partition.scn/fixed", "b8375619dda67e67",
       "fd85bcaba63724ec", ""},
      {"asymmetric_partition.scn/chen", "782dd16b0cce5c29",
       "68ab70e992d1e817", ""},
      {"asymmetric_partition.scn/phi", "04b67340dbb6029c",
       "7688296e09f3a4fc", ""},
      {"byzantine_counters.scn/fixed", "0ac15d85f05f2fc8",
       "1a6287e2df4fcf5b", ""},
      {"byzantine_counters.scn/chen", "492c08909eb3fb8e",
       "cba94febcb59b939", ""},
      {"byzantine_counters.scn/phi", "d03bfe1025f1e5ab",
       "eeec79ffe2900044", ""},
      {"cascading_overload.scn/fixed", "b7cd645a31b974c4",
       "6ec48a76ba1723f8", ""},
      {"cascading_overload.scn/chen", "03031af55a66342c",
       "94e004f699593b64", ""},
      {"cascading_overload.scn/phi", "74c1242073b6d72e",
       "72efa43c59970b5d", ""},
      {"churn_storm.scn/fixed", "fde5229aa390a59a", "49a18e255db6309d", ""},
      {"churn_storm.scn/chen", "5fd67712baccddaf", "71ead7f07081bbbf", ""},
      {"churn_storm.scn/phi", "aab27698fe2c439f", "45bb81d013a2f042", ""},
      {"crash_recovery_wave.scn/fixed", "e8c6c0be36347013",
       "7be7c8dbb9634495", ""},
      {"crash_recovery_wave.scn/chen", "f7c144a0dcae4dba",
       "2664b34649abceb9", ""},
      {"crash_recovery_wave.scn/phi", "5b03580b7c73d6bf",
       "04dda8e102e4e369", ""},
      {"flapping_links.scn/fixed", "2a11c81c7b339d64", "8a401cc9218a9079", ""},
      {"flapping_links.scn/chen", "cffc46eb56020e07", "e59808a228a23173", ""},
      {"flapping_links.scn/phi", "8d5f867c42485855", "8ae24ed9c1784e58", ""},
      {"gray_failure.scn/fixed", "ed67369989ed04c4", "b7f02057d9a0db82", ""},
      {"gray_failure.scn/chen", "d012daa1d7cdb8ef", "037a39cad7e6e772", ""},
      {"gray_failure.scn/phi", "10ec88e7afb025aa", "32423b839534acfc", ""},
      {"partition_cascade.scn/fixed", "5c7705965c4c278b",
       "669e991c29c4d3dc", ""},
      {"partition_cascade.scn/chen", "6a3902c4210925c4",
       "9f656bd41be6b740", ""},
      {"partition_cascade.scn/phi", "e7b9dad67d40a0a4", "45ce96cc9c46b321", ""},
      {"rack_failure.scn/fixed", "f040a2328c5a3f33", "bddd14a4244946dc", ""},
      {"rack_failure.scn/chen", "c5799446691f181e", "1f645cae2e103e2f", ""},
      {"rack_failure.scn/phi", "45d171b4896774ef", "f55b04de6a20e96e", ""},
      {"slow_nodes.scn/fixed", "9e8e03dd9b65cecf", "a4e47ce232ef5fda", ""},
      {"slow_nodes.scn/chen", "2b2c93c93bcba301", "0162ab228c47a0b5", ""},
      {"slow_nodes.scn/phi", "6fb19039a849a09d", "3f3b420a674a9f17", ""},
  };
  std::vector<std::string> names;
  std::vector<Outcome> outcomes;
  for (const char* file : kScenarioFiles) {
    for (const rt::DetectorKind kind : kKinds) {
      names.push_back(std::string(file) + "/" +
                      rt::detector_kind_name(kind));
      outcomes.push_back(run_pinned(scenario_config(file, kind), "scn"));
    }
  }
  check_pins(pins, names, outcomes);
}

// The soak's trace is a complete record of its QoS: replay_qos, fed only
// the trace, re-derives the live report's detection samples (in the same
// order, so even the sum matches bit for bit) and suspicion counts.
TEST(SoakReplay, ReplayMatchesLiveSoakReport) {
  for (const char* file : kScenarioFiles) {
    for (const rt::DetectorKind kind : kKinds) {
      const std::string name =
          std::string(file) + "/" + rt::detector_kind_name(kind);
      obs::ReplayQos replay;
      const Outcome live =
          run_pinned(scenario_config(file, kind), "replay", &replay);
      const SoakReport& r = live.report;
      ASSERT_TRUE(replay.ok) << name << ": " << replay.error;
      EXPECT_EQ(replay.lost_records, 0) << name;
      EXPECT_EQ(r.trace_dropped, 0) << name;
      EXPECT_EQ(replay.detection_latency_ms.count(), r.detection.count())
          << name;
      EXPECT_EQ(replay.detection_latency_ms.sum(), r.detection.sum())
          << name;
      if (r.detection.count() > 0) {
        EXPECT_EQ(replay.detection_latency_ms.percentile(0.5),
                  r.detection.percentile(0.5))
            << name;
        EXPECT_EQ(replay.detection_latency_ms.percentile(0.99),
                  r.detection.percentile(0.99))
            << name;
      }
      EXPECT_EQ(replay.false_suspicions, r.false_suspicions) << name;
      EXPECT_EQ(replay.suspicion_raises, r.raises) << name;
      EXPECT_EQ(replay.suspicion_clears, r.clears) << name;
    }
  }
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
      {"n64/fixed", "83bb88ab40301e59", "5000ccf4912a2f53", "581bd7237a8edcfc"},
      {"n64/chen", "ac2487db96a2ef43", "8bf8e712947282ba", "e7871328c6a982c9"},
      {"n64/phi", "b552dd5bcc9cb279", "77fdf8bd8a06428c", "e9dcb430624a790a"},
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
