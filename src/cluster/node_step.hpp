// The per-node protocol of the cluster monitoring engine, shared by its two
// drivers: run_cluster (cluster/engine.cpp) runs the nodes in shards that
// exchange messages in memory at check barriers; the soak runner
// (transport/soak.cpp) pushes them through a Transport on a tick grid. A
// driver owns time and transport, and feeds what the nodes do to the QoS
// ledger (cluster/qos_ledger.hpp); a NodeStep owns what the nodes
// [lo, hi) do: heartbeat() (counter, lie, targets, digest, and
// encode() for a message that survives), receive() (one payload walked
// into observe() and the wheel's arming; wire payloads pass
// validate_digest() first), evaluate() (the pairs the suspicion wheel has
// due at a tick, never a scan of all n^2), and apply_fault() (the node
// effects of a fault; a restarted node is reseeded and re-armed). Driver
// hooks on the per-entry and per-pair paths are template parameters, so
// they inline.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "cluster/digest_codec.hpp"
#include "cluster/node.hpp"
#include "cluster/scenario.hpp"
#include "cluster/topology.hpp"
#include "common/rng.hpp"
#include "obs/profile.hpp"
#include "obs/record.hpp"
#include "runtime/network.hpp"

namespace rfd::cluster {

/// A node's counter lie (kLieStart / kLieEnd): while `on`, the advertised
/// counter moves by `delta` per heartbeat from `value`, the counter peers
/// last believed, while the true counter keeps its honest +1 underneath.
struct Lie {
  bool on = false;
  double delta = 0.0;
  double value = 0.0;
};

/// The nodes a driver steps: protocol state, each node's random stream and
/// its lie. Every step of a driver shares one set and writes only the nodes
/// it owns.
struct NodeSet {
  /// Refuses (require_node_memory) a cluster of `max_nodes` nodes, `n` of
  /// them initially up, that the host cannot hold, before allocating any.
  /// Node i draws from Rng(rng_seed).split(i).
  NodeSet(int n, int max_nodes, const NodeParams& params,
          std::uint64_t rng_seed);
  int max_nodes() const { return static_cast<int>(nodes.size()); }

  std::vector<ClusterNode> nodes;
  std::vector<Rng> rngs;
  std::vector<Lie> lies;
};

/// Scenario ground truth: which ids ever ran, which run now, and since
/// when each down id is down (-1 = up or never ran).
struct GroundTruth {
  std::vector<char> ever;
  std::vector<char> up;
  std::vector<double> down_since;

  bool down(NodeId j) const {
    return ever[static_cast<std::size_t>(j)] != 0 &&
           up[static_cast<std::size_t>(j)] == 0;
  }

  /// Ids below `n` up since the start, the rest of `max_nodes` never run.
  void reset(int max_nodes, int n);

  /// The transition of a crash, leave, recover or join of `j` at `now`.
  /// Returns false for one with no effect (a crash of a down node, a
  /// recover of a live or never-started one, a second join); every other
  /// kind leaves the truth alone and returns true.
  bool apply(FaultKind kind, NodeId j, double now);
};

/// Whether `kind` reshapes the network (partition, storm, link, slow)
/// rather than a node.
bool is_network_fault(FaultKind kind);

/// Applies a network-shaped fault to `net`. A node fault leaves `net`
/// alone and returns false.
bool apply_network_fault(rt::Network& net, const FaultEvent& event);

/// Checks a digest payload off the wire before anything is observed: both
/// header varints and `count` (id gap, counter) pairs, every varint at most
/// five bytes and within 32 bits, every id inside [0, max_nodes), every
/// counter inside the 31-bit range nodes ship, and no trailing bytes.
bool validate_digest(const std::uint8_t* data, std::size_t size,
                     int max_nodes);

/// Suspicion-deadline wheel over check ticks: a ring for the near future
/// (detector timeouts span a handful of ticks) with a far-map fallback.
/// Every armed pair holds a 32-bit key in it. push() is an amortized O(1)
/// append into the tick's slot; drain() hands the slot's storage to the
/// caller, so a drained slot holds no memory.
class EvalWheel {
 public:
  void push(std::int64_t current_tick, std::int64_t tick,
            std::uint32_t key) {
    // Slot reuse is safe up to a full revolution: tick <= current + kSlots
    // lands in a slot that cannot be drained again before `tick`.
    if (tick - current_tick <= kSlots) {
      ring_[static_cast<std::size_t>(tick & (kSlots - 1))].push_back(key);
    } else {
      far_[tick].push_back(key);
    }
  }

  /// Replaces `out` (freeing its storage) with the keys due at `tick`.
  void drain(std::int64_t tick, std::vector<std::uint32_t>& out) {
    out = std::exchange(
        ring_[static_cast<std::size_t>(tick & (kSlots - 1))], {});
    const auto it = far_.find(tick);
    if (it != far_.end()) {
      out.insert(out.end(), it->second.begin(), it->second.end());
      far_.erase(it);
    }
  }

 private:
  static constexpr std::int64_t kSlots = 512;  // power of two
  std::array<std::vector<std::uint32_t>, kSlots> ring_;
  std::map<std::int64_t, std::vector<std::uint32_t>> far_;
};

class NodeStep {
 public:
  /// Largest id space whose (observer, peer) pairs have 32-bit wheel keys;
  /// its node state alone would be hundreds of GB.
  static constexpr int kMaxNodes = 1 << 16;

  /// Steps the nodes [lo, hi) of `set` on a check grid of `check_ms`.
  NodeStep(NodeSet& set, NodeId lo, NodeId hi,
           const TopologyParams& topology, double check_ms);

  Topology& topology() { return *topology_; }
  const NodeSet& nodes() const { return set_; }
  GroundTruth& truth() { return truth_; }
  const GroundTruth& truth() const { return truth_; }
  NodeId lo() const { return lo_; }
  NodeId hi() const { return hi_; }
  bool owns(NodeId j) const { return j >= lo_ && j < hi_; }
  void set_profiler(obs::Profiler* profiler) { profiler_ = profiler; }
  /// Sink for the hb_send / hb_recv records (null = untraced).
  void set_trace(obs::RecordSink* trace) { trace_ = trace; }

  /// The check tick whose context the step runs in: arming never targets
  /// a tick at or before it. Drivers set it to k - 1 before the faults,
  /// heartbeats and deliveries of tick k; evaluate(k) sets it to k.
  std::int64_t check_tick() const { return check_tick_; }
  void set_check_tick(std::int64_t tick) { check_tick_ = tick; }

  /// The initial membership: ids below `n` are up and know each other,
  /// the rest are idle until they join. Every pair is armed.
  void seed(int n);

  /// One heartbeat of node `i` at `now` (a no-op while it is down):
  /// advances its counter and, for each of this round's targets, selects
  /// the digest and calls ship(target, digest_entries). The driver calls
  /// encode() inside ship for a message it actually sends.
  template <typename Ship>
  void heartbeat(NodeId i, double now, Ship&& ship);

  /// Appends the payload of the message heartbeat() is shipping.
  void encode(std::vector<std::uint8_t>& out);

  /// Walks one digest payload from `from` into observer `to` at `at`,
  /// arming the wheel for every pair it moved; calls on_learned(peer)
  /// when the payload first introduces `peer`. The payload must be one
  /// encode() produced or one validate_digest() accepted.
  template <typename OnLearned>
  void receive(NodeId to, NodeId from, const std::uint8_t* data,
               std::size_t size, double at, OnLearned&& on_learned);

  /// Re-judges the pairs due at check tick `tick` at time `now`. On each
  /// verdict change the cached suspicion flips and on_flip(i, j,
  /// suspected) runs; pairs come in wheel order, not (i, j) order.
  template <typename OnFlip>
  void evaluate(std::int64_t tick, double now, OnFlip&& on_flip);

  /// Applies the node effects of a crash, recover, join, leave or lie to
  /// this step's truth replica and to the nodes it owns. Returns false for
  /// a fault with no effect (a crash of a down node, a recover of a live
  /// or never-started one, a second join).
  bool apply_fault(const FaultEvent& event, double now);

  /// Arms every unsuspected pair of every live owned node, for a wheel
  /// rebuilt from restored nodes (checkpoints carry no arming).
  void rearm();

 private:
  /// Fits 32 bits: the constructor bounds max_nodes by kMaxNodes.
  std::uint32_t pair_key(NodeId i, NodeId j) const {
    return static_cast<std::uint32_t>(i) *
               static_cast<std::uint32_t>(set_.max_nodes()) +
           static_cast<std::uint32_t>(j);
  }
  ClusterNode& node(NodeId i) {
    return set_.nodes[static_cast<std::size_t>(i)];
  }
  void arm_pair(NodeId i, NodeId j, std::int64_t tick);
  void arm_deadline(NodeId i, NodeId j);
  void restart(NodeId x, double now);
  void sort_ids(std::vector<NodeId>& ids);

  NodeSet& set_;
  NodeId lo_;
  NodeId hi_;
  double check_ms_;
  std::unique_ptr<Topology> topology_;
  obs::Profiler* profiler_ = nullptr;
  obs::RecordSink* trace_ = nullptr;
  GroundTruth truth_;
  EvalWheel wheel_;
  std::int64_t check_tick_ = 0;

  // heartbeat() state for encode().
  NodeId sender_ = -1;
  std::uint32_t advertised_ = 0;
  std::vector<NodeId> targets_;
  std::vector<NodeId> digest_;
  /// Bitmap over node ids for sort_ids(); all-zero between calls.
  std::vector<std::uint64_t> id_bits_;
  std::vector<std::uint32_t> due_;
};

template <typename Ship>
void NodeStep::heartbeat(NodeId i, double now, Ship&& ship) {
  ClusterNode& n = node(i);
  if (!n.active()) return;
  n.advance_own_counter();
  sender_ = i;
  advertised_ = static_cast<std::uint32_t>(n.own_counter());
  Lie& lie = set_.lies[static_cast<std::size_t>(i)];
  if (lie.on) {
    // Clamping keeps the advertisement a plausible wire value whatever
    // the delta.
    lie.value = std::clamp(
        lie.value + lie.delta, 1.0,
        static_cast<double>(std::numeric_limits<std::int32_t>::max()));
    advertised_ = static_cast<std::uint32_t>(lie.value);
  }
  targets_.clear();
  topology_->targets(n, set_.rngs[static_cast<std::size_t>(i)], targets_);
  for (const NodeId target : targets_) {
    digest_.clear();
    {
      const obs::ScopedPhase phase(profiler_, obs::Phase::kDigest);
      topology_->digest(n, target, digest_);
    }
    ship(target, digest_.size());
    if (trace_ != nullptr) {
      obs::Record r;
      r.type = obs::RecordType::kHbSend;
      r.t = now;
      r.a = i;
      r.b = target;
      r.c = static_cast<std::int64_t>(digest_.size()) + 1;
      trace_->emit(r);
    }
  }
}

template <typename OnLearned>
void NodeStep::receive(NodeId to, NodeId from, const std::uint8_t* data,
                       std::size_t size, double at, OnLearned&& on_learned) {
  // The varint stream is decoded straight into the observe walk - no
  // materialized entry list. After the leading sender entry, ids arrive
  // sorted ascending (the codec's delta stream), so the walk touches the
  // per-peer arrays in ascending order.
  std::uint32_t count = 0;
  std::int64_t advanced = 0;
  {
    const obs::ScopedPhase phase(profiler_, obs::Phase::kObserve);
    ClusterNode& n = node(to);
    const bool monotone = n.deadline_monotone();
    DigestReader reader(data, size);
    const std::uint32_t own = reader.varint();
    count = reader.varint();
    NodeId peer = from;
    std::int32_t value = static_cast<std::int32_t>(own);
    NodeId id = 0;
    for (std::uint32_t e = 0;; ++e) {
      const ObserveResult result = n.observe(peer, value, at);
      if (result.newly_known) {
        // A fresh record is unsuspected and expires at the end of the
        // bootstrap grace window unless a counter advance arrives first.
        on_learned(peer);
        arm_deadline(to, peer);
      }
      if (result.advanced) {
        ++advanced;
        // The advance is this pair's heartbeat: its deadline moved. A
        // suspected pair must be re-judged at the very next tick (the
        // advance is its refutation); an unsuspected pair gets its
        // deadline re-registered - unless the detector's deadline is
        // monotone and the pair is already armed, where re-arming is
        // provably a no-op (arm_pair keeps the earliest tick and the new
        // deadline can only be later). A freshly started detector always
        // re-arms: its deadline family changed from the grace window,
        // which monotonicity says nothing about.
        if (n.is_suspected(peer)) {
          arm_pair(to, peer, check_tick_ + 1);
        } else if (!monotone || result.started_detector || !n.armed(peer)) {
          arm_deadline(to, peer);
        }
      }
      if (e == count) break;
      id += static_cast<NodeId>(reader.varint());
      peer = id;
      value = static_cast<std::int32_t>(reader.varint());
    }
  }
  if (trace_ != nullptr) {
    obs::Record r;
    r.type = obs::RecordType::kHbRecv;
    r.t = at;
    r.a = to;
    r.b = from;
    r.c = static_cast<std::int64_t>(count) + 1;
    r.x = static_cast<double>(advanced);
    trace_->emit(r);
  }
}

template <typename OnFlip>
void NodeStep::evaluate(std::int64_t tick, double now, OnFlip&& on_flip) {
  check_tick_ = tick;
  wheel_.drain(tick, due_);
  const auto max_nodes = static_cast<std::uint32_t>(set_.max_nodes());
  for (const std::uint32_t key : due_) {
    const NodeId i = static_cast<NodeId>(key / max_nodes);
    const NodeId j = static_cast<NodeId>(key % max_nodes);
    ClusterNode& n = node(i);
    if (n.eval_tick(j) != tick) continue;  // superseded by an earlier arm
    n.set_eval_tick(j, -1);
    // A crashed observer's cached state is frozen until it restarts; a
    // wiped record re-arms when the peer is re-learned.
    if (!n.active() || !n.knows(j)) continue;
    const bool suspected = n.suspects(j, now);
    if (suspected != n.is_suspected(j)) {
      n.set_suspected(j, suspected, suspected ? now : -1.0);
      on_flip(i, j, suspected);
    }
    // Unsuspected pairs always hold a future deadline; suspected pairs
    // sleep until a counter advance refutes them.
    if (!suspected) arm_deadline(i, j);
  }
}

}  // namespace rfd::cluster
