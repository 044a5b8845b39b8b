// Cluster-layer tests: partition/storm support in the network, crash
// detection under every dissemination topology, the scripted
// partition/heal scenario (all live nodes converge on the true crashed
// set after heal), churn, delay storms, determinism under a fixed seed,
// and the message-complexity separation (gossip sublinear vs all-to-all
// quadratic) that the E11 bench measures at scale. Also: the node's
// compact Chen / phi state against the standalone rt detectors, and the
// up-front memory budget.
#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "cluster/digest_codec.hpp"
#include "cluster/engine.hpp"
#include "cluster/node.hpp"
#include "cluster/scenario.hpp"
#include "cluster/topology.hpp"
#include "common/rng.hpp"
#include "runtime/detectors.hpp"
#include "runtime/event_queue.hpp"
#include "runtime/network.hpp"
#include "transport/soak.hpp"

namespace rfd::cluster {
namespace {

ClusterConfig base_config(TopologyKind kind, int n) {
  ClusterConfig config;
  config.n = n;
  config.topology.kind = kind;
  config.topology.digest_size = 16;
  config.detector.kind = rt::DetectorKind::kChen;
  // Indirect dissemination (gossip hops, digest rotation) adds jitter a
  // direct-heartbeat margin would not tolerate, and the sharded core's
  // barrier delivery adds up to half a check interval more per hop (a
  // message is observed at the next check-grid boundary after arrival).
  // Slack of ~4 heartbeat periods keeps every topology honest on a calm
  // network - exactly the tuning a real operator does.
  config.detector.chen.alpha_ms = 400.0;
  config.heartbeat_interval_ms = 100.0;
  config.check_interval_ms = 100.0;
  config.duration_ms = 20'000.0;
  return config;
}

TEST(Network, PartitionBlocksCrossTraffic) {
  rt::EventQueue queue;
  rt::Network net(queue, 1, rt::NetworkParams{});
  net.set_partition({{0, 1}, {2, 3}});
  EXPECT_FALSE(net.partitioned(0, 1));
  EXPECT_FALSE(net.partitioned(2, 3));
  EXPECT_TRUE(net.partitioned(0, 2));
  EXPECT_TRUE(net.partitioned(3, 1));
  int delivered = 0;
  net.send(0, 2, [&] { ++delivered; });
  net.send(0, 1, [&] { ++delivered; });
  queue.run_until(1e6);
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(net.partition_dropped(), 1);

  net.clear_partition();
  EXPECT_FALSE(net.partitioned(0, 2));
  net.send(0, 2, [&] { ++delivered; });
  queue.run_until(2e6);
  EXPECT_EQ(delivered, 2);
  EXPECT_EQ(net.partition_dropped(), 1);
}

TEST(Network, UnlistedNodesJoinFirstGroup) {
  rt::EventQueue queue;
  rt::Network net(queue, 1, rt::NetworkParams{});
  net.set_partition({{0, 1}, {2}});
  // Node 7 is listed nowhere: it behaves as a member of groups[0].
  EXPECT_FALSE(net.partitioned(7, 0));
  EXPECT_TRUE(net.partitioned(7, 2));
}

TEST(Network, DelayStormRaisesDelays) {
  rt::EventQueue queue;
  rt::NetworkParams params;
  rt::Network net(queue, 4, params);
  double calm_sum = 0.0;
  for (int i = 0; i < 300; ++i) calm_sum += net.sample_delay();
  net.set_storm(500.0, 1.0);
  double storm_sum = 0.0;
  for (int i = 0; i < 300; ++i) storm_sum += net.sample_delay();
  net.clear_storm();
  double after_sum = 0.0;
  for (int i = 0; i < 300; ++i) after_sum += net.sample_delay();
  EXPECT_GT(storm_sum / 300.0, calm_sum / 300.0 + 400.0);
  EXPECT_LT(after_sum / 300.0, calm_sum / 300.0 + 50.0);
}

TEST(ClusterNode, GraceThenDetectorTakesOver) {
  NodeParams params;
  params.bootstrap_grace_ms = 1000.0;
  ClusterNode node(0, 4, params);
  node.learn_peer(1, 0.0);
  EXPECT_TRUE(node.knows(1));
  EXPECT_FALSE(node.suspects(1, 500.0));   // inside the grace window
  EXPECT_TRUE(node.suspects(1, 1500.0));   // never heard: grace expired
  // The first-ever counter is a membership high-water mark, not a
  // heartbeat: a gossiped value can be arbitrarily stale (it could be a
  // dead node's final counter still circulating), so it must not buy
  // trust. Only an advance beyond it does.
  EXPECT_FALSE(node.observe(1, 5, 1600.0).advanced);
  EXPECT_TRUE(node.suspects(1, 1700.0));   // still only grace-covered
  EXPECT_TRUE(node.observe(1, 6, 1750.0).advanced);
  EXPECT_FALSE(node.suspects(1, 1800.0));  // detector trusts the advance
  // Stale and zero counters are not liveness evidence.
  EXPECT_FALSE(node.observe(1, 5, 1850.0).advanced);
  EXPECT_FALSE(node.observe(1, 3, 1900.0).advanced);
  EXPECT_FALSE(node.observe(2, 0, 2000.0).advanced);
  EXPECT_TRUE(node.knows(2));  // ...but they do carry membership
  EXPECT_FALSE(node.suspects(0, 5000.0));  // never self-suspects
}

class EveryTopology : public ::testing::TestWithParam<TopologyKind> {};

TEST_P(EveryTopology, EveryLiveNodeDetectsTheCrash) {
  ClusterConfig config = base_config(GetParam(), 16);
  config.topology.cluster_size = 4;
  config.scenario.crash(5'000.0, 3);
  const ClusterReport report = run_cluster(config, 7);

  EXPECT_EQ(report.detection_latency_ms.count(), 15) << report.summary();
  EXPECT_EQ(report.missed_detections, 0) << report.summary();
  // Multi-hop dissemination has gap tails even on a calm network; a
  // couple of self-healing flaps over 20s is within spec, sustained
  // flapping is not.
  EXPECT_LE(report.false_suspicions, 2) << report.summary();
  EXPECT_TRUE(report.final_agreement) << report.summary();
  EXPECT_EQ(report.convergence_ms.count(), 1) << report.summary();
  EXPECT_GT(report.detection_latency_ms.max(), 0.0);
  EXPECT_LT(report.detection_latency_ms.max(), 10'000.0);
}

INSTANTIATE_TEST_SUITE_P(AllKinds, EveryTopology,
                         ::testing::Values(TopologyKind::kAllToAll,
                                           TopologyKind::kRing,
                                           TopologyKind::kGossip,
                                           TopologyKind::kHierarchical));

TEST(Cluster, PartitionHealConvergesOnTrueCrashedSet) {
  // The acceptance scenario: split 16 nodes down the middle, crash one
  // node inside the partition, heal, and require every live node to end
  // agreeing on exactly {3} as the crashed set.
  ClusterConfig config = base_config(TopologyKind::kGossip, 16);
  config.duration_ms = 30'000.0;
  config.scenario
      .partition(4'000.0, {{0, 1, 2, 3, 4, 5, 6, 7},
                           {8, 9, 10, 11, 12, 13, 14, 15}})
      .crash(8'000.0, 3)
      .heal(14'000.0);
  const ClusterReport report = run_cluster(config, 11);

  // Both sides falsely suspected the other during the cut...
  EXPECT_GT(report.false_suspicions, 0) << report.summary();
  EXPECT_GT(report.partition_dropped, 0);
  // ...yet after heal everyone converges on the truth.
  EXPECT_TRUE(report.final_agreement) << report.summary();
  EXPECT_EQ(report.detection_latency_ms.count(), 15) << report.summary();
  EXPECT_EQ(report.missed_detections, 0) << report.summary();
  EXPECT_GE(report.convergence_ms.count(), 1) << report.summary();
}

TEST(Cluster, PartitionHealIsDeterministicUnderFixedSeed) {
  ClusterConfig config = base_config(TopologyKind::kGossip, 16);
  config.duration_ms = 30'000.0;
  config.scenario
      .partition(4'000.0, {{0, 1, 2, 3, 4, 5, 6, 7},
                           {8, 9, 10, 11, 12, 13, 14, 15}})
      .crash(8'000.0, 3)
      .heal(14'000.0);
  const ClusterReport a = run_cluster(config, 11);
  const ClusterReport b = run_cluster(config, 11);
  EXPECT_EQ(a.messages_sent, b.messages_sent);
  EXPECT_EQ(a.messages_dropped, b.messages_dropped);
  EXPECT_EQ(a.false_suspicions, b.false_suspicions);
  EXPECT_EQ(a.detection_latency_ms.count(), b.detection_latency_ms.count());
  EXPECT_DOUBLE_EQ(a.detection_latency_ms.mean(),
                   b.detection_latency_ms.mean());
  EXPECT_DOUBLE_EQ(a.convergence_ms.mean(), b.convergence_ms.mean());
}

TEST(Cluster, ChurnJoinAndSilentLeave) {
  ClusterConfig config = base_config(TopologyKind::kGossip, 8);
  config.max_nodes = 9;
  config.duration_ms = 25'000.0;
  config.scenario.join(3'000.0, 8).leave(10'000.0, 2);
  const ClusterReport report = run_cluster(config, 5);

  // The silent leave is indistinguishable from a crash: all 8 remaining
  // live nodes (7 originals + the joiner) must detect it.
  EXPECT_EQ(report.detection_latency_ms.count(), 8) << report.summary();
  EXPECT_EQ(report.missed_detections, 0) << report.summary();
  EXPECT_TRUE(report.final_agreement) << report.summary();
}

TEST(Cluster, CrashRecoveryIsForgiven) {
  ClusterConfig config = base_config(TopologyKind::kGossip, 8);
  config.duration_ms = 25'000.0;
  config.scenario.crash(5'000.0, 2).recover(12'000.0, 2);
  const ClusterReport report = run_cluster(config, 3);

  // The node was down, so suspicions of it were accurate; after recovery
  // everyone (including the restarted node, which lost its peer memory)
  // must settle back into full agreement with nobody suspected.
  EXPECT_TRUE(report.final_agreement) << report.summary();
  EXPECT_EQ(report.detection_latency_ms.count(), 0) << report.summary();
  EXPECT_EQ(report.missed_detections, 0) << report.summary();
  EXPECT_GE(report.disruptions, 2);
}

TEST(Cluster, RecoveredNodeRelearnsTheDead) {
  // A restarted node rejoins with empty peer memory while another node
  // is already dead. The dead node's final counter still circulates in
  // digests; it must read as membership, not as a heartbeat, so the
  // restarted node ends up suspecting the dead peer like everyone else
  // instead of trusting a ghost.
  ClusterConfig config = base_config(TopologyKind::kGossip, 8);
  config.duration_ms = 30'000.0;
  config.scenario.crash(5'000.0, 2).crash(8'000.0, 3).recover(14'000.0, 3);
  const ClusterReport report = run_cluster(config, 9);

  // 7 live nodes at the end, every one of them - including restarted
  // node 3 - must have victim 2 in its crashed set.
  EXPECT_EQ(report.detection_latency_ms.count(), 7) << report.summary();
  EXPECT_EQ(report.missed_detections, 0) << report.summary();
  EXPECT_TRUE(report.final_agreement) << report.summary();
}

TEST(Cluster, DelayStormCausesFalseSuspicionsThatHeal) {
  ClusterConfig config = base_config(TopologyKind::kAllToAll, 8);
  config.detector.kind = rt::DetectorKind::kFixed;
  config.detector.fixed.timeout_ms = 250.0;
  config.duration_ms = 20'000.0;
  config.scenario.delay_storm(4'000.0, 9'000.0, 1'000.0, 0.8);
  const ClusterReport report = run_cluster(config, 2);

  EXPECT_GT(report.false_suspicions, 0) << report.summary();
  EXPECT_TRUE(report.final_agreement) << report.summary();
  EXPECT_EQ(report.missed_detections, 0);
}

TEST(Cluster, GossipMessageLoadIsSublinear) {
  // The reason gossip architectures exist: per-node message load is flat
  // in n, where all-to-all grows linearly (O(n^2) cluster-wide).
  ClusterConfig g16 = base_config(TopologyKind::kGossip, 16);
  ClusterConfig g64 = base_config(TopologyKind::kGossip, 64);
  ClusterConfig a64 = base_config(TopologyKind::kAllToAll, 64);
  for (ClusterConfig* config : {&g16, &g64, &a64}) {
    config->duration_ms = 6'000.0;
  }
  const ClusterReport rg16 = run_cluster(g16, 1);
  const ClusterReport rg64 = run_cluster(g64, 1);
  const ClusterReport ra64 = run_cluster(a64, 1);

  EXPECT_LT(rg64.messages_per_node_per_s,
            ra64.messages_per_node_per_s / 5.0);
  EXPECT_LT(rg64.messages_per_node_per_s,
            rg16.messages_per_node_per_s * 1.5);
  EXPECT_GT(ra64.messages_per_node_per_s,
            rg64.messages_per_node_per_s);
}

TEST(DigestCodec, RoundTripsWorstCaseVarints) {
  // Covers the raw-cursor encode fast path at the varint extremes that a
  // short simulation never reaches: multi-byte gaps, 32-bit maxima, and
  // duplicate ids (zero gaps), appended after pre-existing payload bytes
  // the way the engine reuses pooled buffers.
  const std::vector<std::int32_t> ids = {0,       5,          5,
                                         127,     128,        16'384,
                                         1 << 21, 2'000'000'000};
  const auto counter_of = [](std::int32_t id) {
    return static_cast<std::uint32_t>(id) * 2654435761u;
  };
  std::vector<std::uint8_t> out = {0xab, 0xcd};  // pre-existing bytes
  encode_digest(0xdeadbeefu, ids, counter_of, out);
  ASSERT_GT(out.size(), 2u);
  EXPECT_EQ(out[0], 0xab);
  EXPECT_EQ(out[1], 0xcd);

  DigestReader reader(out.data() + 2, out.size() - 2);
  EXPECT_EQ(reader.varint(), 0xdeadbeefu);
  ASSERT_EQ(reader.varint(), ids.size());
  std::int32_t id = 0;
  for (const std::int32_t expected : ids) {
    id += static_cast<std::int32_t>(reader.varint());
    EXPECT_EQ(id, expected);
    EXPECT_EQ(reader.varint(), counter_of(expected));
  }
  EXPECT_TRUE(reader.done());
}

TEST(Cluster, HierarchicalLoadSitsBetweenGossipAndAllToAll) {
  ClusterConfig h = base_config(TopologyKind::kHierarchical, 64);
  ClusterConfig g = base_config(TopologyKind::kGossip, 64);
  ClusterConfig a = base_config(TopologyKind::kAllToAll, 64);
  for (ClusterConfig* config : {&h, &g, &a}) {
    config->duration_ms = 6'000.0;
  }
  const ClusterReport rh = run_cluster(h, 1);
  const ClusterReport rg = run_cluster(g, 1);
  const ClusterReport ra = run_cluster(a, 1);
  EXPECT_GT(rh.messages_per_node_per_s, rg.messages_per_node_per_s);
  EXPECT_LT(rh.messages_per_node_per_s, ra.messages_per_node_per_s);
}

// ------------------------------------------------ compact adaptive detectors
//
// ClusterNode runs Chen and phi over its per-node ring slab; the
// standalone rt detectors run the same math over a ring of their own.
// Fed the same arrivals, both must give the same deadline and verdict,
// bit for bit.

NodeParams compact_params(rt::DetectorKind kind) {
  NodeParams params;
  params.detector.kind = kind;
  params.detector.chen.window = 8;
  params.detector.chen.alpha_ms = 150.0;
  params.detector.phi.window = 8;
  params.detector.phi.min_stddev_ms = 20.0;
  params.bootstrap_grace_ms = 1'500.0;
  return params;
}

/// One monitored peer, fed to the node and to its standalone twin.
struct Twin {
  NodeId peer = 0;
  std::int32_t counter = 0;
  double clock = 0.0;
  std::unique_ptr<rt::PeerDetector> detector;
};

void expect_same_verdicts(const ClusterNode& node, const Twin& t) {
  const double deadline = t.detector->suspect_deadline();
  EXPECT_EQ(node.suspect_deadline(t.peer), deadline) << "peer " << t.peer;
  const double after = std::nextafter(
      deadline, std::numeric_limits<double>::infinity());
  for (const double probe : {t.clock, deadline - 50.0, deadline, after,
                             deadline + 50.0, t.clock + 10'000.0}) {
    EXPECT_EQ(node.suspects(t.peer, probe), t.detector->suspects(probe))
        << "peer " << t.peer << " at " << probe;
  }
}

/// Jittered arrivals, with an occasional long gap, for each twin in turn;
/// `rounds` arrivals per twin.
void feed(ClusterNode& node, std::vector<Twin>& twins, Rng& rng,
          int rounds) {
  for (int i = 0; i < rounds; ++i) {
    for (Twin& t : twins) {
      t.clock += 60.0 + rng.uniform01() * 90.0 +
                 (rng.below(12) == 0 ? 700.0 : 0.0);
      ++t.counter;
      ASSERT_TRUE(node.observe(t.peer, t.counter, t.clock).advanced);
      t.detector->on_heartbeat(t.clock);
      expect_same_verdicts(node, t);
    }
  }
}

void expect_compact_matches_standalone(rt::DetectorKind kind) {
  const NodeParams params = compact_params(kind);
  constexpr int kWindow = 8;
  auto node = std::make_unique<ClusterNode>(0, 5, params);
  Rng rng(kind == rt::DetectorKind::kPhi ? 0x9b1u : 0xc4eu);
  std::vector<Twin> twins;
  for (const NodeId peer : {1, 3, 4}) {
    node->learn_peer(peer, 0.0);
    // A first counter is membership, not liveness evidence.
    EXPECT_FALSE(node->observe(peer, 1, 0.0).advanced);
    twins.push_back(Twin{peer, 1, 0.0, rt::make_detector(params.detector)});
  }
  // Peer 2 is known but never heard: only the bootstrap grace covers it.
  node->learn_peer(2, 0.0);
  EXPECT_EQ(node->suspect_deadline(2), 1'500.0);
  EXPECT_FALSE(node->suspects(2, 1'500.0));
  EXPECT_TRUE(node->suspects(2, 1'500.5));

  // Five windows of arrivals: every ring wraps several times.
  feed(*node, twins, rng, 5 * kWindow);
  EXPECT_EQ(node->suspect_deadline(2), 1'500.0);

  // A checkpointed copy carries on exactly like the original.
  std::vector<std::uint8_t> bytes;
  node->save_state(bytes);
  auto restored = std::make_unique<ClusterNode>(0, 5, params);
  std::size_t consumed = 0;
  ASSERT_TRUE(restored->restore_state(bytes.data(), bytes.size(), consumed));
  EXPECT_EQ(consumed, bytes.size());
  node = std::move(restored);
  for (const Twin& t : twins) expect_same_verdicts(*node, t);
  feed(*node, twins, rng, 2 * kWindow + 3);

  // A restart forgets every window; detectors start over on the first
  // advance after the new high-water mark, under a fresh grace window.
  double reset_at = 0.0;
  for (const Twin& t : twins) reset_at = std::max(reset_at, t.clock);
  reset_at += 10.0;
  node->reset_peers(reset_at, {1, 2, 3, 4});
  for (Twin& t : twins) {
    EXPECT_EQ(node->suspect_deadline(t.peer), reset_at + 1'500.0);
    t.clock = reset_at;
    ++t.counter;
    EXPECT_FALSE(node->observe(t.peer, t.counter, t.clock).advanced);
    t.detector = rt::make_detector(params.detector);
  }
  Twin& first = twins.front();
  first.clock += 100.0;
  ++first.counter;
  const ObserveResult started =
      node->observe(first.peer, first.counter, first.clock);
  EXPECT_TRUE(started.advanced);
  EXPECT_TRUE(started.started_detector);
  first.detector->on_heartbeat(first.clock);
  expect_same_verdicts(*node, first);
  feed(*node, twins, rng, 3 * kWindow);
  EXPECT_EQ(node->suspect_deadline(2), reset_at + 1'500.0);
}

TEST(CompactDetectors, PhiNodeMatchesStandaloneDetector) {
  expect_compact_matches_standalone(rt::DetectorKind::kPhi);
}

TEST(CompactDetectors, ChenNodeMatchesStandaloneDetector) {
  expect_compact_matches_standalone(rt::DetectorKind::kChen);
}

TEST(CompactDetectors, PhiThresholdIsSolvedOncePerRun) {
  ClusterConfig config = base_config(TopologyKind::kGossip, 16);
  config.detector.kind = rt::DetectorKind::kPhi;
  config.detector.phi.threshold = 7.125;  // asked for nowhere else here
  config.duration_ms = 3'000.0;
  const std::uint64_t before = rt::phi_z_solves();
  const ClusterReport report = run_cluster(config, 7);
  EXPECT_GT(report.messages_sent, 0);
  EXPECT_EQ(rt::phi_z_solves() - before, 1u);
}

bool meminfo_readable() {
  std::ifstream in("/proc/meminfo");
  std::string line;
  return static_cast<bool>(std::getline(in, line));
}

TEST(MemoryBudgetDeathTest, OversizeClusterIsRefusedBeforeAllocating) {
  if (!meminfo_readable()) GTEST_SKIP() << "no /proc/meminfo";
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  // ~3.5e14 bytes of node state: an allocation attempt would die of
  // bad_alloc (or the OOM killer), not with this message.
  ClusterConfig config = base_config(TopologyKind::kGossip, 1 << 20);
  config.max_nodes = 1 << 20;
  config.detector.kind = rt::DetectorKind::kPhi;
  EXPECT_DEATH(run_cluster(config, 7),
               "too large.*n=1048576.*phi.*MemAvailable");

  transport::SoakConfig soak;
  soak.n = 1 << 20;
  soak.detector.kind = rt::DetectorKind::kPhi;
  transport::SoakReport report;
  std::string error;
  EXPECT_DEATH(transport::run_soak(soak, report, error),
               "too large.*n=1048576.*phi.*MemAvailable");
}

TEST(MemoryBudget, EstimateCoversTheAdaptiveWindow) {
  NodeParams fixed;
  fixed.detector.kind = rt::DetectorKind::kFixed;
  NodeParams phi = fixed;
  phi.detector.kind = rt::DetectorKind::kPhi;
  phi.detector.phi.window = 32;
  NodeParams chen = fixed;
  chen.detector.kind = rt::DetectorKind::kChen;
  chen.detector.chen.window = 16;
  EXPECT_EQ(node_bytes_per_peer(phi) - node_bytes_per_peer(fixed),
            32 * sizeof(double) + sizeof(rt::PhiFit));
  EXPECT_EQ(node_bytes_per_peer(chen) - node_bytes_per_peer(fixed),
            16 * sizeof(double) + sizeof(double));
}

}  // namespace
}  // namespace rfd::cluster
