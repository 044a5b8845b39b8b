#include "cluster/engine.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "cluster/digest_codec.hpp"
#include "common/assert.hpp"
#include "common/logging.hpp"
#include "common/rng.hpp"
#include "obs/profile.hpp"
#include "obs/record.hpp"
#include "obs/registry.hpp"
#include "obs/trace_writer.hpp"
#include "runtime/event_queue.hpp"
#include "runtime/shard_executor.hpp"

namespace rfd::cluster {
namespace {

// ---------------------------------------------------------------------------
// Sharded conservative core.
//
// The node id space is partitioned into contiguous blocks, one per shard.
// Each shard owns an EventQueue (heartbeat pump timers for its nodes), a
// Network instance, a Topology instance, and per-shard replicas of the
// scenario ground truth. Every worker runs the whole loop itself (the
// engine dispatches each shard exactly once per run) and time advances
// one check window per round, with three meets at the executor's spin
// barrier per check tick k:
//   1. run_window(k): each shard advances its local events (pumps, with
//      scenario faults spliced in at their exact times) to T_k.
//   2. Barrier, then deliver_and_evaluate(k): each shard collects the
//      messages addressed to it, applies those due at T_k, and evaluates
//      the suspicion wheel's slot for tick k.
//   3. Barrier, then shard 0 alone runs the coordinator step: a flat sum
//      over the shards of the disagreeing-pair and pending-event counts,
//      the scenario bookkeeping, agreement and convergence, the inline
//      trace merge, a snapshot when one is due, and the stop check.
//   4. A release barrier publishes the stop decision to the peers.
//
// Messages are never delivered inside the window they were sent in:
// every message - same-shard or cross-shard alike - is buffered and
// applied at the first barrier T_b > arrival time, with the receiver
// observing it at its true arrival timestamp. Applying them in one
// sorted drain (by receiver, then arrival time, then sender, then the
// sender's send sequence) is also what fixes the PR-5 observe() hot
// spot: each receiver's per-peer arrays are walked once per round
// instead of being re-fetched per message in arrival order.
//
// Determinism argument - why every shard count produces bit-identical
// metrics and traces on a fixed seed:
//   1. All randomness is per-node streams: each node's pump draws
//      (phase, topology targets) from its own Rng, and the network draws
//      loss/delay from a per-source stream, so the values a node sees
//      depend only on its own history, which is fixed by the protocol
//      below regardless of where the node lives.
//   2. Within a window, nodes interact with nothing but their own state:
//      deliveries are deferred to the barrier, scenario faults are
//      applied at identical times by every shard against its own truth
//      replica (each shard mutating only the nodes it owns), and shared
//      counters are integer sums accumulated per shard.
//   3. Barrier exchange is merge-order deterministic: deliveries apply
//      in (receiver, arrival, sender, send-seq) order and suspicion
//      evaluations drain a per-tick wheel whose per-shard content is the
//      shard's subsequence of the shards=1 sequence, so every per-pair
//      outcome matches.
//   4. Trace bytes: records are staged per shard and merged once per
//      round under a total order on (t, type rank, a, b) - any remaining
//      tie is between records of one shard, whose relative order is
//      itself shard-invariant - then formatted by the single TraceWriter
//      in merged order. Window k+1 only emits records with t strictly
//      above window k's, so the sorted concatenation of per-round
//      batches equals the globally sorted stream for every shard count.
//      Floating-point reductions (detection latency,
//      convergence) happen only on the coordinator in a fixed global
//      order, never as a shard-order-dependent sum.
//
// Relative to the pre-sharding engine the *semantics* changed in exactly
// one way: a message is now observed at the barrier after its arrival
// instead of mid-window, so gossip learned early in a window no longer
// piggybacks on sends later in the same window. Detection/convergence
// quality is the same to within one check interval (the report's
// resolution floor); runs remain a pure function of (config, seed).
// ---------------------------------------------------------------------------

/// In-flight heartbeat message, buffered between barriers.
struct Message {
  double at = 0.0;  // arrival time; the receiver observes entries at this t
  NodeId from = -1;
  NodeId to = -1;
  /// Per-source send sequence: the shard-invariant tiebreak for two
  /// messages from one sender arriving at the same instant.
  std::uint32_t seq = 0;
  /// Delta-compressed digest (see cluster/digest_codec.hpp).
  std::vector<std::uint8_t> payload;
};

/// Per-shard staging buffer for trace records; the coordinator merges
/// all shards' buffers into the TraceWriter once per round.
struct BufferSink final : obs::RecordSink {
  void emit(const obs::Record& r) override { records.push_back(r); }
  std::vector<obs::Record> records;
};

/// Suspicion-deadline wheel over check ticks: a ring for the near future
/// (detector timeouts span a handful of ticks) with a far-map fallback,
/// replacing the old per-tick unordered_map buckets. push() is an
/// amortized O(1) vector append into the tick's slot.
class EvalWheel {
 public:
  void push(std::int64_t current_tick, std::int64_t tick,
            std::uint64_t key) {
    // Slot reuse is safe up to a full revolution: tick <= current + kSlots
    // lands in a slot that cannot be drained again before `tick`.
    if (tick - current_tick <= kSlots) {
      ring_[static_cast<std::size_t>(tick & (kSlots - 1))].push_back(key);
    } else {
      far_[tick].push_back(key);
    }
  }

  void drain(std::int64_t tick, std::vector<std::uint64_t>& out) {
    out.swap(ring_[static_cast<std::size_t>(tick & (kSlots - 1))]);
    const auto it = far_.find(tick);
    if (it != far_.end()) {
      out.insert(out.end(), it->second.begin(), it->second.end());
      far_.erase(it);
    }
  }

 private:
  static constexpr std::int64_t kSlots = 512;  // power of two
  std::array<std::vector<std::uint64_t>, kSlots> ring_;
  std::map<std::int64_t, std::vector<std::uint64_t>> far_;
};

/// Coordinator-side record of one fault a shard found effective; shard 0
/// stages these so the coordinator can do the cluster-global bookkeeping
/// (disruption counting, convergence timing, detection baselines) at the
/// next barrier.
struct FaultNote {
  std::size_t index = 0;  // into the sorted fault list
  double at = 0.0;
};

struct ShardState {
  int index = 0;
  NodeId lo = 0;  // owned node range [lo, hi)
  NodeId hi = 0;

  rt::EventQueue queue;
  std::unique_ptr<rt::Network> network;
  std::unique_ptr<Topology> topology;
  BufferSink sink;
  obs::RecordSink* trace = nullptr;  // &sink when tracing, else null
  std::unique_ptr<obs::Profiler> profiler;
  std::vector<BufferedLogLine> log_buf;

  // Ground-truth replicas (every shard applies every fault to its own
  // copy, so window-time reads never cross shards).
  std::vector<char> ever_active;
  std::vector<char> truth_active;
  std::int64_t disagreeing = 0;

  std::int64_t check_tick = 0;
  std::size_t fault_cursor = 0;
  EvalWheel wheel;

  // Message plumbing: per-destination-shard outboxes filled during the
  // window, and delivery buckets keyed by barrier index (ring + far map).
  std::vector<std::uint32_t> send_seq;
  std::vector<std::vector<Message>> outbox;
  std::vector<std::vector<Message>> buckets;
  std::map<std::int64_t, std::vector<Message>> far_buckets;
  std::int64_t pending_msgs = 0;
  std::int64_t delivered_msgs = 0;
  std::vector<std::vector<std::uint8_t>> payload_pool;

  // Shard-local counter accumulators; summed into the registry by the
  // coordinator (integer sums are order-insensitive).
  std::int64_t c_digest_entries = 0;
  std::int64_t c_payload_bytes = 0;
  std::int64_t c_raises = 0;
  std::int64_t c_clears = 0;
  std::int64_t c_false = 0;

  std::vector<NodeId> targets_scratch;
  std::vector<NodeId> digest_scratch;
  std::vector<std::uint64_t> wheel_scratch;
  /// Scratch bitmap over node ids for sort_ids(); all-zero between calls.
  std::vector<std::uint64_t> id_bits;

  // Shard 0 only: effective faults awaiting coordinator bookkeeping.
  std::vector<FaultNote> fault_notes;

};

/// Total order for the per-round trace merge: records sort by time, then
/// a fixed per-type rank, then the (a, b) ids. Any remaining tie is
/// between records staged by one shard in a shard-invariant relative
/// order, which stable_sort preserves.
int record_rank(obs::RecordType type) {
  switch (type) {
    case obs::RecordType::kFault:
      return 0;
    case obs::RecordType::kLeader:
      return 1;
    case obs::RecordType::kHbSend:
      return 2;
    case obs::RecordType::kDrop:
      return 3;
    case obs::RecordType::kHbRecv:
      return 4;
    case obs::RecordType::kSuspect:
      return 5;
    case obs::RecordType::kClear:
      return 6;
    default:
      return 7;
  }
}

bool record_before(const obs::Record& lhs, const obs::Record& rhs) {
  if (lhs.t != rhs.t) return lhs.t < rhs.t;
  const int lr = record_rank(lhs.type);
  const int rr = record_rank(rhs.type);
  if (lr != rr) return lr < rr;
  if (lhs.a != rhs.a) return lhs.a < rhs.a;
  return lhs.b < rhs.b;
}

class ClusterEngine {
 public:
  ClusterEngine(const ClusterConfig& config, std::uint64_t seed)
      : config_(config),
        max_nodes_(config.max_nodes > 0 ? config.max_nodes : config.n),
        check_ms_(config.check_interval_ms),
        faults_(config.scenario.sorted()) {
    RFD_REQUIRE(config_.n >= 2);
    RFD_REQUIRE(max_nodes_ >= config_.n);
    NodeParams node_params;
    node_params.detector = config_.detector;
    node_params.bootstrap_grace_ms = config_.bootstrap_grace_ms;
    node_params.hot_transmissions = config_.hot_transmissions;
    require_node_memory(config_.n, max_nodes_, node_params);
    {
      // Reject malformed timelines before any state exists: an unmatched
      // storm_off or link_up would silently corrupt the per-shard network
      // replicas mid-run (the builders sort, this rejects).
      const std::string scenario_error = config_.scenario.validate();
      RFD_REQUIRE_MSG(scenario_error.empty(), scenario_error.c_str());
    }
    RFD_REQUIRE(config_.heartbeat_interval_ms > 0.0);
    RFD_REQUIRE(config_.check_interval_ms > 0.0);
    RFD_REQUIRE(config_.shards >= 1);
    seed_ = seed;
    shard_count_ = std::min(config_.shards, max_nodes_);

    // The registry is the backing store for everything the report
    // aggregates; registration order here fixes the field order of the
    // snapshot records in the trace.
    c_digest_entries_ = &registry_.counter(metric::kDigestEntries);
    c_payload_bytes_ = &registry_.counter(metric::kPayloadBytes);
    c_raises_ = &registry_.counter(metric::kSuspicionRaises);
    c_clears_ = &registry_.counter(metric::kSuspicionClears);
    c_false_ = &registry_.counter(metric::kFalseSuspicions);
    c_disruptions_ = &registry_.counter(metric::kDisruptions);
    c_missed_ = &registry_.counter(metric::kMissedDetections);
    h_detect_ = &registry_.histogram(metric::kDetectionMs);
    h_convergence_ = &registry_.histogram(metric::kConvergenceMs);
    g_disagreeing_ = &registry_.gauge(metric::kDisagreeingPairs);
    g_net_sent_ = &registry_.gauge(metric::kNetSent);
    g_net_dropped_ = &registry_.gauge(metric::kNetDropped);
    g_net_partition_ = &registry_.gauge(metric::kNetPartitionDropped);
    g_queue_size_ = &registry_.gauge(metric::kQueueSize);
    g_queue_executed_ = &registry_.gauge(metric::kQueueExecuted);
    g_hot_queue_ = &registry_.gauge(metric::kMaxHotQueue);

    if (config_.obs.trace_enabled()) {
      trace_storage_ = std::make_unique<obs::TraceWriter>(config_.obs);
      if (trace_storage_->ok()) trace_ = trace_storage_.get();
    }
    const bool profile = obs::kEnabled && config_.obs.profile;

    // Shards own contiguous node blocks; sizes differ by at most one.
    owner_.assign(static_cast<std::size_t>(max_nodes_), 0);
    shards_.reserve(static_cast<std::size_t>(shard_count_));
    const int base = max_nodes_ / shard_count_;
    const int extra = max_nodes_ % shard_count_;
    NodeId lo = 0;
    for (int s = 0; s < shard_count_; ++s) {
      auto shard = std::make_unique<ShardState>();
      shard->index = s;
      shard->lo = lo;
      shard->hi = lo + base + (s < extra ? 1 : 0);
      lo = shard->hi;
      shard->network = std::make_unique<rt::Network>(
          shard->queue, mix_seed(seed, 0xc1e5), config_.network);
      shard->topology = make_topology(config_.topology, max_nodes_);
      if (trace_ != nullptr) {
        shard->trace = &shard->sink;
        shard->network->set_trace(shard->trace);
      }
      shard->topology->set_trace(shard->trace, &shard->queue);
      if (profile) {
        shard->profiler =
            std::make_unique<obs::Profiler>(config_.obs.profile_sample_shift);
        shard->queue.set_profiler(shard->profiler.get());
        shard->network->set_profiler(shard->profiler.get());
      }
      shard->ever_active.assign(static_cast<std::size_t>(max_nodes_), 0);
      shard->truth_active.assign(static_cast<std::size_t>(max_nodes_), 0);
      shard->send_seq.assign(static_cast<std::size_t>(max_nodes_), 0);
      shard->outbox.resize(static_cast<std::size_t>(shard_count_));
      shard->buckets.resize(kBucketSlots);
      shard->id_bits.assign(static_cast<std::size_t>(max_nodes_ + 63) / 64,
                            0);
      for (NodeId j = shard->lo; j < shard->hi; ++j) {
        owner_[static_cast<std::size_t>(j)] = s;
      }
      shards_.push_back(std::move(shard));
    }
    RFD_REQUIRE(lo == max_nodes_);
    executor_ = std::make_unique<rt::ShardExecutor>(shard_count_);
    nodes_.reserve(static_cast<std::size_t>(max_nodes_));
    const Rng base_rng(mix_seed(seed, 0x0dde));
    for (NodeId i = 0; i < max_nodes_; ++i) {
      nodes_.emplace_back(i, max_nodes_, node_params);
      rngs_.push_back(base_rng.split(static_cast<std::uint64_t>(i)));
    }

    down_since_.assign(static_cast<std::size_t>(max_nodes_), -1.0);
    lying_.assign(static_cast<std::size_t>(max_nodes_), 0);
    lie_delta_.assign(static_cast<std::size_t>(max_nodes_), 0.0);
    lie_value_.assign(static_cast<std::size_t>(max_nodes_), 0.0);
    for (auto& shard : shards_) {
      for (NodeId i = 0; i < config_.n; ++i) {
        shard->ever_active[static_cast<std::size_t>(i)] = 1;
        shard->truth_active[static_cast<std::size_t>(i)] = 1;
      }
    }
    for (NodeId i = config_.n; i < max_nodes_; ++i) {
      nodes_[static_cast<std::size_t>(i)].set_active(false);
    }
    // The initial membership list is configuration, not discovery.
    for (NodeId i = 0; i < config_.n; ++i) {
      ShardState& shard = *shards_[static_cast<std::size_t>(
          owner_[static_cast<std::size_t>(i)])];
      for (NodeId j = 0; j < config_.n; ++j) {
        if (i == j) continue;
        nodes_[static_cast<std::size_t>(i)].learn_peer(j, 0.0);
        on_learned(shard, i, j);
      }
    }

    report_.n = config_.n;
    report_.max_nodes = max_nodes_;
    report_.topology = shards_.front()->topology->name();
    report_.detector = rt::detector_kind_name(config_.detector.kind);
    report_.duration_ms = config_.duration_ms;
  }

  ClusterReport run() {
    if (trace_ != nullptr) {
      trace_->write_line(
          obs::JsonLine{}
              .str("type", "run")
              .integer("v", 1)
              .num("t", 0.0)
              .integer("n", config_.n)
              .integer("max_nodes", max_nodes_)
              .str("topology", report_.topology)
              .str("detector", report_.detector)
              .integer("seed", static_cast<std::int64_t>(seed_))
              .num("duration_ms", config_.duration_ms)
              .num("heartbeat_ms", config_.heartbeat_interval_ms)
              .num("check_ms", config_.check_interval_ms)
              .finish());
    }
    for (NodeId i = 0; i < max_nodes_; ++i) {
      // Desynchronized heartbeat phases, as in any real deployment. The
      // phase draws happen here in global id order, so every node's Rng
      // stream starts identically for every shard count.
      const double phase =
          rngs_[static_cast<std::size_t>(i)].uniform01() *
          config_.heartbeat_interval_ms;
      ShardState* shard = shards_[static_cast<std::size_t>(
                                      owner_[static_cast<std::size_t>(i)])]
                              .get();
      shard->queue.schedule(phase, [this, shard, i] { pump(*shard, i); });
    }

    // Fix the round count of the check grid up front, replicating the
    // exact additive accumulation (T += check) the workers' clocks
    // perform, so the count and the clocks agree bit-for-bit.
    rounds_total_ = 0;
    {
      double t = 0.0;
      for (;;) {
        const double next = t + check_ms_;
        if (next > config_.duration_ms) break;
        t = next;
        ++rounds_total_;
      }
    }
    // One dispatch per run: the workers own the whole round loop and
    // synchronize among themselves at the executor's spin barrier.
    executor_->run([this](int s) { shard_loop(s); });
    finalize();
    return std::move(report_);
  }

 private:
  static constexpr std::int64_t kBucketSlots = 256;  // power of two

  /// The worker-resident round loop; every shard runs this once per
  /// simulation (shard 0 on the calling thread). One round per check
  /// tick: window, exchange, coordinator step, release. stopped_early_
  /// is plain: shard 0 writes it before the release barrier and the
  /// peers read it after, so the barrier's release/acquire pairing
  /// orders it. Any `return` on a false meet() is the abort path: a
  /// peer threw, the executor rethrows after the join.
  void shard_loop(int s) {
    ShardState& shard = *shards_[static_cast<std::size_t>(s)];
    const ScopedThreadLogBuffer log_scope(&shard.log_buf);
    rt::SpinBarrier& barrier = executor_->barrier();
    obs::Profiler* const prof = shard.profiler.get();
    const auto meet = [&] {
      if (shard_count_ == 1) return true;
      const obs::ScopedPhase sync(prof, obs::Phase::kSync, true);
      return barrier.arrive_and_wait();
    };

    double T = 0.0;
    std::int64_t k = 0;
    while (k < rounds_total_ && !stopped_early_) {
      ++k;
      T += check_ms_;
      run_window(shard, T, k);
      if (!meet()) return;
      deliver_and_evaluate(shard, k, T);
      if (!meet()) return;
      if (s == 0) coordinator_step(k, T);
      if (!meet()) return;
    }
    if (!stopped_early_ && T < config_.duration_ms) {
      // Grid-misaligned tail: run the remaining pumps (and any faults)
      // up to the duration. No check tick lands here - same as the old
      // engine - and deliveries arriving past the last tick can no
      // longer influence any metric, so they stay buffered. A stopped
      // run skips the tail: simulating up to the full horizon is
      // exactly what the stop flag asked to avoid.
      run_window(shard, config_.duration_ms, k + 1);
      if (!meet()) return;
    }
    // Peers do nothing after their final barrier, so shard 0 may read
    // every shard's staging buffers here without further handshaking.
    if (s == 0) merge_inline();
  }

  bool owns(const ShardState& shard, NodeId j) const {
    return j >= shard.lo && j < shard.hi;
  }

  bool truly_down(const ShardState& shard, NodeId j) const {
    return shard.ever_active[static_cast<std::size_t>(j)] != 0 &&
           shard.truth_active[static_cast<std::size_t>(j)] == 0;
  }

  std::uint64_t pair_key(NodeId i, NodeId j) const {
    return static_cast<std::uint64_t>(i) *
               static_cast<std::uint64_t>(max_nodes_) +
           static_cast<std::uint64_t>(j);
  }

  /// First barrier at which a message arriving at `at` may be applied:
  /// the smallest b with T_b strictly after `at`. Strict, because at an
  /// exact grid time the old engine ran the check (lowest sequence
  /// number) before same-instant deliveries.
  std::int64_t barrier_index(double at) const {
    std::int64_t b = static_cast<std::int64_t>(at / check_ms_) + 1;
    while (static_cast<double>(b) * check_ms_ <= at) ++b;
    return b;
  }

  /// Arms pair (i, j) for evaluation at check tick `tick` (clamped to the
  /// next tick). Earliest arming wins; superseded wheel entries are
  /// skipped via the eval_tick mismatch when their tick comes up.
  void arm_pair(ShardState& shard, NodeId i, NodeId j, std::int64_t tick) {
    tick = std::max(tick, shard.check_tick + 1);
    ClusterNode& node = nodes_[static_cast<std::size_t>(i)];
    const std::int64_t current = node.eval_tick(j);
    if (current >= 0 && current <= tick) return;
    node.set_eval_tick(j, tick);
    shard.wheel.push(shard.check_tick, tick, pair_key(i, j));
  }

  /// Check tick at which deadline `at` could first flip a verdict. One
  /// tick early on purpose: arming early costs one extra suspects()
  /// query, arming late would miss the tick the full scan would have
  /// caught.
  std::int64_t deadline_tick(double at) const {
    return static_cast<std::int64_t>(std::floor(at / check_ms_)) - 1;
  }

  void arm_deadline(ShardState& shard, NodeId i, NodeId j) {
    const double deadline =
        nodes_[static_cast<std::size_t>(i)].suspect_deadline(j);
    if (!std::isfinite(deadline)) return;
    arm_pair(shard, i, j, deadline_tick(deadline));
  }

  /// Bookkeeping when observer `i` (owned by `shard`) first learns that
  /// `j` exists: the fresh record is unsuspected, and the pair expires at
  /// the end of the bootstrap grace window unless a counter advance
  /// arrives first.
  void on_learned(ShardState& shard, NodeId i, NodeId j) {
    if (nodes_[static_cast<std::size_t>(i)].active() &&
        truly_down(shard, j)) {
      ++shard.disagreeing;
    }
    arm_deadline(shard, i, j);
  }

  /// Adds (sign=+1) or removes (sign=-1) observer row `i`'s known pairs
  /// from the disagreement count, when the row enters or leaves the set
  /// of live observers. Called only on the shard owning `i`.
  void count_row(ShardState& shard, NodeId i, int sign) {
    const ClusterNode& node = nodes_[static_cast<std::size_t>(i)];
    for (NodeId j = 0; j < max_nodes_; ++j) {
      if (j == i || !node.knows(j)) continue;
      if (node.is_suspected(j) != truly_down(shard, j)) {
        shard.disagreeing += sign;
      }
    }
  }

  /// Re-scores column `j` after truly_down(j) flipped; call with the
  /// truth replicas already updated. Every shard rescoring its own
  /// observer rows covers the column exactly once.
  void rescore_column(ShardState& shard, NodeId j) {
    const bool down = truly_down(shard, j);
    for (NodeId i = shard.lo; i < shard.hi; ++i) {
      const ClusterNode& node = nodes_[static_cast<std::size_t>(i)];
      if (i == j || !node.active() || !node.knows(j)) continue;
      shard.disagreeing += (node.is_suspected(j) != down) ? 1 : 0;
      shard.disagreeing -= (node.is_suspected(j) != !down) ? 1 : 0;
    }
  }

  /// Sorts digest ids ascending in place for the codec. The selection is
  /// near-unique ids bounded by max_nodes_, so a bitmap insert + ordered
  /// bit walk beats a comparison sort per message; the rare duplicate (a
  /// hot-queue id also hit by the rotation cursor) falls back to
  /// std::sort. Either path yields the identical sorted multiset.
  void sort_ids(ShardState& shard, std::vector<NodeId>& ids) {
    auto& words = shard.id_bits;
    for (const NodeId id : ids) {
      const std::size_t w = static_cast<std::size_t>(id) >> 6;
      const std::uint64_t bit = std::uint64_t{1} << (id & 63);
      if ((words[w] & bit) != 0) {
        for (const NodeId x : ids) words[static_cast<std::size_t>(x) >> 6] = 0;
        std::sort(ids.begin(), ids.end());
        return;
      }
      words[w] |= bit;
    }
    std::size_t n = 0;
    for (std::size_t w = 0; w < words.size(); ++w) {
      std::uint64_t word = words[w];
      if (word == 0) continue;
      words[w] = 0;
      do {
        ids[n++] = static_cast<NodeId>(
            (w << 6) + static_cast<std::size_t>(std::countr_zero(word)));
        word &= word - 1;
      } while (word != 0);
    }
  }

  std::vector<std::uint8_t> take_payload(ShardState& shard) {
    if (shard.payload_pool.empty()) return {};
    std::vector<std::uint8_t> buffer = std::move(shard.payload_pool.back());
    shard.payload_pool.pop_back();
    return buffer;
  }

  /// Files a message into the owning shard's delivery buckets. `round` is
  /// the barrier index currently being produced (window k files for
  /// buckets >= k; barrier-time collection files for >= the barrier's k).
  void file_message(ShardState& shard, std::int64_t round, Message&& m) {
    const std::int64_t b = barrier_index(m.at);
    RFD_REQUIRE(b >= round);
    ++shard.pending_msgs;
    if (b - round < kBucketSlots) {
      shard.buckets[static_cast<std::size_t>(b & (kBucketSlots - 1))]
          .push_back(std::move(m));
    } else {
      shard.far_buckets[b].push_back(std::move(m));
    }
  }

  void pump(ShardState& shard, NodeId i) {
    ClusterNode& node = nodes_[static_cast<std::size_t>(i)];
    if (node.active()) {
      node.advance_own_counter();
      std::uint32_t advertised =
          static_cast<std::uint32_t>(node.own_counter());
      if (lying_[static_cast<std::size_t>(i)] != 0) {
        // The lie moves by delta per heartbeat interval while the true
        // counter keeps its honest +1 underneath; clamping keeps the
        // advertisement a plausible wire value whatever the delta.
        double& v = lie_value_[static_cast<std::size_t>(i)];
        v = std::clamp(v + lie_delta_[static_cast<std::size_t>(i)], 1.0,
                       static_cast<double>(
                           std::numeric_limits<std::int32_t>::max()));
        advertised = static_cast<std::uint32_t>(v);
      }
      shard.targets_scratch.clear();
      shard.topology->targets(node, rngs_[static_cast<std::size_t>(i)],
                              shard.targets_scratch);
      const std::int64_t window_round = shard.check_tick + 1;
      for (NodeId target : shard.targets_scratch) {
        shard.digest_scratch.clear();
        {
          obs::ScopedPhase phase(shard.profiler.get(), obs::Phase::kDigest);
          shard.topology->digest(node, target, shard.digest_scratch);
        }
        shard.c_digest_entries +=
            static_cast<std::int64_t>(shard.digest_scratch.size());
        if (shard.trace != nullptr) {
          obs::Record r;
          r.type = obs::RecordType::kHbSend;
          r.t = shard.queue.now();
          r.a = i;
          r.b = target;
          r.c = static_cast<std::int64_t>(shard.digest_scratch.size()) + 1;
          shard.trace->emit(r);
        }
        // Draw the drop verdict before materializing anything: a lost or
        // partitioned message must cost neither a payload buffer nor a
        // bucket entry. The digest above still runs unconditionally -
        // selection rotates hot-queue state, and a real sender pays that
        // work (and the bandwidth) whether or not the packet survives.
        const std::optional<double> delay = shard.network->route(i, target);
        if (!delay) continue;
        Message m;
        m.at = shard.queue.now() + *delay;
        m.from = i;
        m.to = target;
        m.seq = shard.send_seq[static_cast<std::size_t>(i)]++;
        m.payload = take_payload(shard);
        sort_ids(shard, shard.digest_scratch);
        encode_digest(
            advertised,
            shard.digest_scratch,
            [&node](NodeId j) {
              return static_cast<std::uint32_t>(node.counter(j));
            },
            m.payload);
        shard.c_payload_bytes +=
            static_cast<std::int64_t>(m.payload.size());
        const int dst = owner_[static_cast<std::size_t>(target)];
        if (dst == shard.index) {
          file_message(shard, window_round, std::move(m));
        } else {
          shard.outbox[static_cast<std::size_t>(dst)].push_back(
              std::move(m));
        }
      }
    }
    ShardState* self = &shard;
    shard.queue.schedule_in(config_.heartbeat_interval_ms,
                            [this, self, i] { pump(*self, i); });
  }

  /// Phase A of a round: advance the shard's local events (pumps, with
  /// scenario faults spliced in at their exact times) to the barrier.
  void run_window(ShardState& shard, double t_end, std::int64_t round) {
    shard.check_tick = round - 1;
    while (shard.fault_cursor < faults_.size() &&
           faults_[shard.fault_cursor].at_ms <= t_end) {
      shard.queue.run_before(faults_[shard.fault_cursor].at_ms);
      apply_fault(shard, shard.fault_cursor);
      ++shard.fault_cursor;
    }
    shard.queue.run_until(t_end);
  }

  /// Phase B of a round, entered with every shard parked behind the
  /// window barrier: collect this shard's inbound messages, apply bucket
  /// k in deterministic merge order, then evaluate check tick k.
  void deliver_and_evaluate(ShardState& shard, std::int64_t k, double now) {
    for (auto& src : shards_) {
      auto& box = src->outbox[static_cast<std::size_t>(shard.index)];
      for (Message& m : box) file_message(shard, k, std::move(m));
      box.clear();
    }
    auto& bucket =
        shard.buckets[static_cast<std::size_t>(k & (kBucketSlots - 1))];
    if (const auto it = shard.far_buckets.find(k);
        it != shard.far_buckets.end()) {
      for (Message& m : it->second) bucket.push_back(std::move(m));
      shard.far_buckets.erase(it);
    }
    std::sort(bucket.begin(), bucket.end(),
              [](const Message& lhs, const Message& rhs) {
                if (lhs.to != rhs.to) return lhs.to < rhs.to;
                if (lhs.at != rhs.at) return lhs.at < rhs.at;
                if (lhs.from != rhs.from) return lhs.from < rhs.from;
                return lhs.seq < rhs.seq;
              });
    shard.check_tick = k - 1;  // deliveries run in tick k-1's context
    for (Message& m : bucket) deliver(shard, m);
    shard.pending_msgs -= static_cast<std::int64_t>(bucket.size());
    shard.delivered_msgs += static_cast<std::int64_t>(bucket.size());
    bucket.clear();

    shard.check_tick = k;
    shard.wheel_scratch.clear();
    shard.wheel.drain(k, shard.wheel_scratch);
    for (const std::uint64_t key : shard.wheel_scratch) {
      evaluate_pair(shard, key, now);
    }
  }

  void deliver(ShardState& shard, Message& m) {
    ClusterNode& node = nodes_[static_cast<std::size_t>(m.to)];
    if (!node.active()) {
      m.payload.clear();
      shard.payload_pool.push_back(std::move(m.payload));
      return;
    }
    const double now = m.at;
    const bool monotone = node.deadline_monotone();
    const NodeId to = m.to;
    std::int64_t advanced = 0;
    std::int64_t entry_count = 0;
    {
      // The varint stream is decoded straight into the observe walk - no
      // materialized entry list. After the leading sender entry, ids
      // arrive sorted ascending (the codec's delta stream), so the walk
      // touches the per-peer arrays in ascending order - the
      // cache-friendly drain that removed the PR-5 observe hot spot.
      obs::ScopedPhase phase(shard.profiler.get(), obs::Phase::kObserve);
      DigestReader reader(m.payload.data(), m.payload.size());
      const std::uint32_t own = reader.varint();
      const std::uint32_t count = reader.varint();
      entry_count = static_cast<std::int64_t>(count) + 1;
      NodeId peer = m.from;
      std::int32_t value = static_cast<std::int32_t>(own);
      NodeId id = 0;
      for (std::uint32_t e = 0;; ++e) {
        const ObserveResult result = node.observe(peer, value, now);
        if (result.newly_known) on_learned(shard, to, peer);
        if (result.advanced) {
          ++advanced;
          // The advance is this pair's heartbeat: its deadline moved. A
          // suspected pair must be re-judged at the very next tick (the
          // advance is its refutation); an unsuspected pair gets its
          // deadline re-registered - unless the detector's deadline is
          // monotone and the pair is already armed, where re-arming is
          // provably a no-op (arm_pair keeps the earliest tick and the
          // new deadline can only be later), so the re-query is skipped.
          // A freshly started detector always re-arms: its deadline
          // family changed from the grace window, which monotonicity
          // says nothing about.
          if (node.is_suspected(peer)) {
            arm_pair(shard, to, peer, shard.check_tick + 1);
          } else if (!monotone || result.started_detector ||
                     !node.armed(peer)) {
            arm_deadline(shard, to, peer);
          }
        }
        if (e == count) break;
        id += static_cast<NodeId>(reader.varint());
        peer = id;
        value = static_cast<std::int32_t>(reader.varint());
      }
    }
    m.payload.clear();
    shard.payload_pool.push_back(std::move(m.payload));
    if (shard.trace != nullptr) {
      obs::Record r;
      r.type = obs::RecordType::kHbRecv;
      r.t = now;
      r.a = to;
      r.b = m.from;
      r.c = entry_count;
      r.x = static_cast<double>(advanced);
      shard.trace->emit(r);
    }
  }

  void evaluate_pair(ShardState& shard, std::uint64_t key, double now) {
    const NodeId i = static_cast<NodeId>(
        key / static_cast<std::uint64_t>(max_nodes_));
    const NodeId j = static_cast<NodeId>(
        key % static_cast<std::uint64_t>(max_nodes_));
    ClusterNode& node = nodes_[static_cast<std::size_t>(i)];
    if (node.eval_tick(j) != shard.check_tick) return;  // superseded
    node.set_eval_tick(j, -1);
    // A crashed observer's cached state is frozen until it resets; a
    // wiped record re-arms when the peer is re-learned.
    if (!node.active() || !node.knows(j)) return;
    const bool down = truly_down(shard, j);
    const bool was_suspected = node.is_suspected(j);
    const bool suspected = node.suspects(j, now);
    if (suspected != was_suspected) {
      shard.disagreeing += (suspected != down) ? 1 : 0;
      shard.disagreeing -= (was_suspected != down) ? 1 : 0;
      node.set_suspected(j, suspected, suspected ? now : -1.0);
      if (suspected) {
        ++shard.c_raises;
        if (!down) ++shard.c_false;
      } else {
        ++shard.c_clears;
      }
      if (shard.trace != nullptr) {
        obs::Record r;
        r.type =
            suspected ? obs::RecordType::kSuspect : obs::RecordType::kClear;
        r.t = now;
        r.a = i;
        r.b = j;
        r.c = down ? 1 : 0;
        shard.trace->emit(r);
      }
    }
    // Unsuspected pairs always hold a future deadline; suspected pairs
    // sleep until a counter advance refutes them.
    if (!suspected) arm_deadline(shard, i, j);
  }

  std::vector<NodeId> active_contacts(const ShardState& shard) const {
    std::vector<NodeId> contacts;
    for (NodeId j = 0; j < max_nodes_; ++j) {
      if (shard.truth_active[static_cast<std::size_t>(j)] != 0) {
        contacts.push_back(j);
      }
    }
    return contacts;
  }

  /// Rejoins node `x` with a wiped peer table seeded from `contacts`,
  /// re-arming the grace deadline of every seeded pair. The caller
  /// activates the row and counts it afterwards. Owner shard only.
  void reseed_peers(ShardState& shard, NodeId x, double now,
                    const std::vector<NodeId>& contacts) {
    nodes_[static_cast<std::size_t>(x)].reset_peers(now, contacts);
    for (NodeId contact : contacts) {
      if (contact != x) arm_deadline(shard, x, contact);
    }
  }

  /// Stages the coordinator-side bookkeeping (and the trace record) for
  /// an effective fault. Only shard 0 stages, so each fault is recorded
  /// exactly once; effectiveness is decided identically by every shard
  /// from its truth replica. The trace's fault stream remains exactly
  /// the ground-truth transition sequence - the invariant the offline
  /// replay relies on.
  void note_fault(ShardState& shard, std::size_t index, double now) {
    if (shard.index != 0) return;
    if (shard.trace != nullptr) {
      shard.trace->emit(fault_record(faults_[index], now));
    }
    shard.fault_notes.push_back({index, now});
  }

  /// Applies the shard-local effects of one fault: truth replicas, owned
  /// node state, owned observer rows, and this shard's network instance.
  void apply_fault(ShardState& shard, std::size_t index) {
    const FaultEvent& event = faults_[index];
    const double now = shard.queue.now();
    switch (event.kind) {
      case FaultKind::kCrash:
      case FaultKind::kLeave: {
        const NodeId j = event.node;
        RFD_REQUIRE(j >= 0 && j < max_nodes_);
        if (shard.truth_active[static_cast<std::size_t>(j)] == 0) return;
        note_fault(shard, index, now);
        if (owns(shard, j)) {
          count_row(shard, j, -1);  // the dead row leaves the agreement set
        }
        shard.truth_active[static_cast<std::size_t>(j)] = 0;
        if (owns(shard, j)) {
          nodes_[static_cast<std::size_t>(j)].set_active(false);
        }
        rescore_column(shard, j);
        break;
      }
      case FaultKind::kRecover: {
        const NodeId j = event.node;
        RFD_REQUIRE(j >= 0 && j < max_nodes_);
        if (shard.ever_active[static_cast<std::size_t>(j)] == 0 ||
            shard.truth_active[static_cast<std::size_t>(j)] != 0) {
          return;
        }
        note_fault(shard, index, now);
        shard.truth_active[static_cast<std::size_t>(j)] = 1;
        rescore_column(shard, j);
        if (owns(shard, j)) {
          // A restarted process lost its peer memory; it rejoins from
          // the current membership the way a provisioning system would
          // seed it.
          reseed_peers(shard, j, now, active_contacts(shard));
          nodes_[static_cast<std::size_t>(j)].set_active(true);
          count_row(shard, j, +1);
        }
        break;
      }
      case FaultKind::kJoin: {
        const NodeId j = event.node;
        RFD_REQUIRE(j >= 0 && j < max_nodes_);
        if (shard.ever_active[static_cast<std::size_t>(j)] != 0) return;
        note_fault(shard, index, now);
        shard.ever_active[static_cast<std::size_t>(j)] = 1;
        shard.truth_active[static_cast<std::size_t>(j)] = 1;
        if (owns(shard, j)) {
          reseed_peers(shard, j, now, active_contacts(shard));
          nodes_[static_cast<std::size_t>(j)].set_active(true);
          count_row(shard, j, +1);
        }
        // The join itself does not change the true crashed set, so it is
        // not a disruption to converge from.
        break;
      }
      case FaultKind::kPartition:
        note_fault(shard, index, now);
        shard.network->set_partition(event.groups);
        break;
      case FaultKind::kHeal:
        note_fault(shard, index, now);
        shard.network->clear_partition();
        break;
      case FaultKind::kStormStart:
        note_fault(shard, index, now);
        shard.network->set_storm(event.extra_delay_ms, event.delay_prob);
        break;
      case FaultKind::kStormEnd:
        note_fault(shard, index, now);
        shard.network->clear_storm();
        break;
      case FaultKind::kLinkDown:
        note_fault(shard, index, now);
        shard.network->add_link_block(event.groups[0], event.groups[1]);
        break;
      case FaultKind::kLinkUp:
        note_fault(shard, index, now);
        shard.network->remove_link_block(event.groups[0], event.groups[1]);
        break;
      case FaultKind::kSlowStart:
        RFD_REQUIRE(event.node >= 0 && event.node < max_nodes_);
        note_fault(shard, index, now);
        shard.network->set_delay_factor(event.node, event.factor);
        break;
      case FaultKind::kSlowEnd:
        RFD_REQUIRE(event.node >= 0 && event.node < max_nodes_);
        note_fault(shard, index, now);
        shard.network->set_delay_factor(event.node, 1.0);
        break;
      case FaultKind::kLieStart: {
        const NodeId j = event.node;
        RFD_REQUIRE(j >= 0 && j < max_nodes_);
        note_fault(shard, index, now);
        if (owns(shard, j)) {
          lying_[static_cast<std::size_t>(j)] = 1;
          lie_delta_[static_cast<std::size_t>(j)] = event.factor;
          // The lie diverges from the current truth, so a jump and a
          // regress both start from the counter peers last believed.
          lie_value_[static_cast<std::size_t>(j)] = static_cast<double>(
              nodes_[static_cast<std::size_t>(j)].own_counter());
        }
        break;
      }
      case FaultKind::kLieEnd: {
        const NodeId j = event.node;
        RFD_REQUIRE(j >= 0 && j < max_nodes_);
        note_fault(shard, index, now);
        if (owns(shard, j)) lying_[static_cast<std::size_t>(j)] = 0;
        break;
      }
    }
  }

  /// Coordinator bookkeeping for one fault shard 0 found effective:
  /// ground-truth versioning, disruption counting, detection baselines.
  /// Applied in staged (chronological) order, before the agreement check
  /// of the tick whose window produced it - the old in-window ordering.
  void apply_fault_note(const FaultNote& note) {
    const FaultEvent& event = faults_[note.index];
    switch (event.kind) {
      case FaultKind::kCrash:
      case FaultKind::kLeave:
        down_since_[static_cast<std::size_t>(event.node)] = note.at;
        bump_truth(note.at);
        break;
      case FaultKind::kRecover:
        down_since_[static_cast<std::size_t>(event.node)] = -1.0;
        bump_truth(note.at);
        break;
      case FaultKind::kJoin:
      case FaultKind::kPartition:
      case FaultKind::kStormStart:
      case FaultKind::kLinkDown:
      case FaultKind::kSlowStart:
      case FaultKind::kLieStart:
        break;
      case FaultKind::kHeal:
      case FaultKind::kStormEnd:
      case FaultKind::kLinkUp:
      case FaultKind::kSlowEnd:
      case FaultKind::kLieEnd:
        // Re-convergence is only measurable if the episode actually
        // drove the cluster into disagreement.
        if (!last_agreement_) bump_truth(note.at);
        break;
    }
  }

  void bump_truth(double now) {
    // A batch of same-instant faults (e.g. a rack failing) is one
    // disruption to converge from, not many.
    if (truth_version_ > 0 && truth_change_time_ == now) return;
    ++truth_version_;
    truth_change_time_ = now;
    c_disruptions_->add(1);
  }

  /// The serial coordinator step for check tick k (shard 0 only, peers
  /// parked at the release barrier): flat sums over the shards of the
  /// disagreeing-pair and pending-event counts, scenario bookkeeping,
  /// cluster agreement, convergence, the pending peak, the inline trace
  /// merge, a snapshot when one is due, and the graceful-stop check.
  void coordinator_step(std::int64_t k, double now) {
    ShardState& shard0 = *shards_.front();
    std::int64_t disagreeing = 0;
    for (const auto& shard : shards_) disagreeing += shard->disagreeing;
    for (const FaultNote& note : shard0.fault_notes) apply_fault_note(note);
    shard0.fault_notes.clear();
    const bool all_agree = disagreeing == 0;
    if (all_agree && agreed_version_ < truth_version_) {
      h_convergence_->add(now - truth_change_time_);
      agreed_version_ = truth_version_;
    }
    last_agreement_ = all_agree;
    peak_logical_queue_ = std::max(peak_logical_queue_, logical_pending());
    rounds_done_ = k;
    merge_inline();
    // Snapshots piggyback on the coordinator step instead of scheduling
    // their own events, so enabling them cannot perturb the simulation.
    if (trace_ != nullptr && config_.obs.snapshot_every_ticks > 0 &&
        k % config_.obs.snapshot_every_ticks == 0) {
      snapshot(k, now, disagreeing);
    }
    if (config_.stop != nullptr && k < rounds_total_ &&
        config_.stop->load(std::memory_order_relaxed)) {
      // Graceful stop: every shard leaves its round loop after this
      // tick's release barrier, and the report and rate normalization
      // cover exactly what ran. finalize() still executes: counters
      // merge, the trace drains and the footer is written.
      stopped_early_ = true;
      report_.duration_ms = now;
    }
  }

  /// Logical pending-event count at an exchange barrier: local timers
  /// plus buffered messages and unapplied faults - the same population
  /// the old single queue held at snapshot time (the check chain itself
  /// is mid-execution there and uncounted). Shard-count-invariant by
  /// construction (each term is).
  std::int64_t logical_pending() const {
    std::int64_t pending = 0;
    for (const auto& shard : shards_) {
      pending += static_cast<std::int64_t>(shard->queue.size());
      pending += shard->pending_msgs;
    }
    pending += static_cast<std::int64_t>(faults_.size() -
                                         shards_.front()->fault_cursor);
    return pending;
  }

  /// Logical executed-event count: local events (pumps), applied
  /// messages, applied faults, and check rounds - the same population
  /// the old single-queue engine counted.
  std::int64_t logical_executed(std::int64_t rounds) const {
    std::int64_t executed = rounds;
    for (const auto& shard : shards_) {
      executed += shard->queue.executed();
      executed += shard->delivered_msgs;
    }
    executed += static_cast<std::int64_t>(shards_.front()->fault_cursor);
    return executed;
  }

  /// Folds the per-shard counter accumulators into the registry (integer
  /// sums in fixed shard order).
  void sync_counters() {
    std::int64_t digest = 0;
    std::int64_t payload = 0;
    std::int64_t raises = 0;
    std::int64_t clears = 0;
    std::int64_t false_s = 0;
    for (const auto& shard : shards_) {
      digest += shard->c_digest_entries;
      payload += shard->c_payload_bytes;
      raises += shard->c_raises;
      clears += shard->c_clears;
      false_s += shard->c_false;
    }
    c_digest_entries_->add(digest - c_digest_entries_->value());
    c_payload_bytes_->add(payload - c_payload_bytes_->value());
    c_raises_->add(raises - c_raises_->value());
    c_clears_->add(clears - c_clears_->value());
    c_false_->add(false_s - c_false_->value());
  }

  void snapshot(std::int64_t k, double now, std::int64_t disagreeing) {
    sync_counters();
    g_disagreeing_->set(static_cast<double>(disagreeing));
    std::int64_t sent = 0;
    std::int64_t dropped = 0;
    std::int64_t partition_dropped = 0;
    for (const auto& shard : shards_) {
      sent += shard->network->sent();
      dropped += shard->network->dropped();
      partition_dropped += shard->network->partition_dropped();
    }
    g_net_sent_->set(static_cast<double>(sent));
    g_net_dropped_->set(static_cast<double>(dropped));
    g_net_partition_->set(static_cast<double>(partition_dropped));
    g_queue_size_->set(static_cast<double>(logical_pending()));
    g_queue_executed_->set(static_cast<double>(logical_executed(k)));
    std::size_t max_hot = 0;
    for (const ClusterNode& node : nodes_) {
      if (node.active()) max_hot = std::max(max_hot, node.hot_queue_depth());
    }
    g_hot_queue_->set(static_cast<double>(max_hot));
    registry_.snapshot(*trace_, now, k);
  }

  /// Merges every shard's staging buffers into the writer under the
  /// deterministic total order, then forwards buffered worker log lines
  /// (whole lines, shard order) to the process-wide sink. Shard 0 only,
  /// with every peer parked: once per coordinator step, and once more
  /// for the tail window after the workers quiesce.
  void merge_inline() {
    if (trace_ != nullptr) {
      merge_scratch_.clear();
      for (const auto& shard : shards_) {
        merge_scratch_.insert(merge_scratch_.end(),
                              shard->sink.records.begin(),
                              shard->sink.records.end());
        shard->sink.records.clear();
      }
      std::stable_sort(merge_scratch_.begin(), merge_scratch_.end(),
                       record_before);
      for (const obs::Record& r : merge_scratch_) trace_->emit(r);
    }
    for (const auto& shard : shards_) {
      for (const BufferedLogLine& line : shard->log_buf) {
        detail::log_line(line.level, line.line);
      }
      shard->log_buf.clear();
    }
  }

  void finalize() {
    // Faults from a grid-misaligned tail window: no tick follows them,
    // so they replay here, in staged order.
    for (const FaultNote& note : shards_.front()->fault_notes) {
      apply_fault_note(note);
    }
    shards_.front()->fault_notes.clear();
    const ShardState& shard0 = *shards_.front();
    for (NodeId j = 0; j < max_nodes_; ++j) {
      const bool down = truly_down(shard0, j);
      if (!down || down_since_[static_cast<std::size_t>(j)] < 0.0) {
        continue;
      }
      const double down_at = down_since_[static_cast<std::size_t>(j)];
      for (NodeId i = 0; i < max_nodes_; ++i) {
        if (i == j ||
            shard0.truth_active[static_cast<std::size_t>(i)] == 0) {
          continue;
        }
        const ClusterNode& node = nodes_[static_cast<std::size_t>(i)];
        if (!node.knows(j)) continue;  // never met the victim; not a miss
        if (node.is_suspected(j)) {
          // A suspicion already standing at crash time detects
          // "instantly" from the abstraction's point of view.
          h_detect_->add(
              std::max(0.0, node.record(j).suspect_since - down_at));
        } else {
          c_missed_->add(1);
        }
      }
    }
    sync_counters();
    fill_report_from_registry(report_, registry_);
    report_.events_executed = logical_executed(rounds_done_);
    report_.peak_event_queue = peak_logical_queue_;
    std::int64_t sent = 0;
    std::int64_t dropped = 0;
    std::int64_t partition_dropped = 0;
    for (const auto& shard : shards_) {
      sent += shard->network->sent();
      dropped += shard->network->dropped();
      partition_dropped += shard->network->partition_dropped();
    }
    report_.messages_sent = sent;
    report_.messages_dropped = dropped;
    report_.partition_dropped = partition_dropped;
    report_.unconverged_disruptions =
        report_.disruptions - report_.convergence_ms.count();
    report_.final_agreement = last_agreement_;
    finalize_rates(report_);
    report_.profile = merged_profile();
    if (trace_ != nullptr) {
      for (const obs::PhaseStat& stat : report_.profile) {
        trace_->write_line(obs::JsonLine{}
                               .str("type", "profile")
                               .str("phase", stat.phase)
                               .integer("calls", stat.calls)
                               .integer("sampled", stat.sampled)
                               .num("est_ms", stat.est_ms)
                               .finish());
      }
      trace_->write_line(
          obs::JsonLine{}
              .str("type", "end")
              .num("t", report_.duration_ms)
              .integer("events_executed", report_.events_executed)
              .integer("messages_sent", report_.messages_sent)
              .integer("detections", report_.detection_latency_ms.count())
              .integer("false_suspicions", report_.false_suspicions)
              .boolean("final_agreement", report_.final_agreement)
              .finish());
      trace_->close();
      report_.trace_records = trace_->written_records();
      report_.trace_dropped = trace_->dropped();
    }
  }

  /// Sums the per-shard phase-timer rollups (counts are exact sums;
  /// durations are sums of the per-shard scaled estimates).
  std::vector<obs::PhaseStat> merged_profile() const {
    std::vector<obs::PhaseStat> merged;
    for (const auto& shard : shards_) {
      if (shard->profiler == nullptr) continue;
      for (const obs::PhaseStat& stat : shard->profiler->stats()) {
        obs::PhaseStat* slot = nullptr;
        for (obs::PhaseStat& existing : merged) {
          if (existing.phase == stat.phase) {
            slot = &existing;
            break;
          }
        }
        if (slot == nullptr) {
          merged.push_back(stat);
        } else {
          slot->calls += stat.calls;
          slot->sampled += stat.sampled;
          slot->est_ms += stat.est_ms;
        }
      }
    }
    return merged;
  }

  ClusterConfig config_;
  int max_nodes_;
  double check_ms_;
  int shard_count_ = 1;
  std::vector<FaultEvent> faults_;
  std::vector<int> owner_;
  std::vector<std::unique_ptr<ShardState>> shards_;
  std::unique_ptr<rt::ShardExecutor> executor_;
  std::vector<ClusterNode> nodes_;
  std::vector<Rng> rngs_;

  // Byzantine-ish lying nodes (kLieStart/kLieEnd): the advertised
  // counter diverges from own_counter() by lie_delta_ per heartbeat
  // interval while lying_[i] is set. Owner-shard-only writes, like the
  // node state itself, so shard determinism is preserved; when no lie is
  // active the pump path is bit-identical to the pre-lie engine.
  std::vector<char> lying_;
  std::vector<double> lie_delta_;
  std::vector<double> lie_value_;

  // Coordinator-side scenario bookkeeping (shard replicas carry the
  // window-time truth; these drive the report's QoS aggregation).
  std::vector<double> down_since_;
  std::int64_t truth_version_ = 0;
  std::int64_t agreed_version_ = 0;
  double truth_change_time_ = 0.0;
  bool last_agreement_ = true;
  std::int64_t rounds_done_ = 0;
  std::int64_t peak_logical_queue_ = 0;

  // Round loop state: rounds_total_ is fixed before the dispatch;
  // stopped_early_ is set by the coordinator when config_.stop cut the
  // run short (see shard_loop for how it reaches the peers).
  std::int64_t rounds_total_ = 0;
  bool stopped_early_ = false;

  // Observability. The registry always exists (it is the aggregation
  // store); trace exists only when configured. Handles are cached once.
  std::uint64_t seed_ = 0;
  obs::Registry registry_;
  std::unique_ptr<obs::TraceWriter> trace_storage_;
  obs::TraceWriter* trace_ = nullptr;
  std::vector<obs::Record> merge_scratch_;
  obs::Counter* c_digest_entries_ = nullptr;
  obs::Counter* c_payload_bytes_ = nullptr;
  obs::Counter* c_raises_ = nullptr;
  obs::Counter* c_clears_ = nullptr;
  obs::Counter* c_false_ = nullptr;
  obs::Counter* c_disruptions_ = nullptr;
  obs::Counter* c_missed_ = nullptr;
  obs::Histo* h_detect_ = nullptr;
  obs::Histo* h_convergence_ = nullptr;
  obs::Gauge* g_disagreeing_ = nullptr;
  obs::Gauge* g_net_sent_ = nullptr;
  obs::Gauge* g_net_dropped_ = nullptr;
  obs::Gauge* g_net_partition_ = nullptr;
  obs::Gauge* g_queue_size_ = nullptr;
  obs::Gauge* g_queue_executed_ = nullptr;
  obs::Gauge* g_hot_queue_ = nullptr;

  ClusterReport report_;
};

}  // namespace

ClusterReport run_cluster(const ClusterConfig& config, std::uint64_t seed) {
  ClusterEngine engine(config, seed);
  return engine.run();
}

}  // namespace rfd::cluster
