#include "cluster/engine.hpp"

#include <algorithm>
#include <atomic>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "cluster/node_step.hpp"
#include "cluster/qos_ledger.hpp"
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
// Network instance, and a NodeStep (cluster/node_step.hpp) for its block:
// the per-node protocol - heartbeat send, the receive walk, the suspicion
// wheel and the node effects of faults, with the shard's replica of the
// scenario ground truth - that the soak runner drives too. QoS is decided
// by the QosLedger (cluster/qos_ledger.hpp), as in the soak runner and the
// trace replay: each shard keeps a QosTally of the observer rows it owns,
// and the coordinator feeds their sum to the ledger and copies its results
// into the metrics registry and the report. The engine itself keeps only
// the scheduling below. Every worker runs the whole loop itself (the
// engine dispatches each shard exactly once per run) and time advances
// one check window per round, with three meets at the executor's spin
// barrier per check tick k:
//   1. run_window(k): each shard advances its local events (pumps, with
//      scenario faults spliced in at their exact times) to T_k.
//   2. Barrier, then deliver_and_evaluate(k): each shard collects the
//      messages addressed to it, applies those due at T_k, and evaluates
//      the suspicion wheel's slot for tick k.
//   3. Barrier, then shard 0 alone runs the coordinator step: a flat sum
//      over the shards of the QoS tallies and pending-event counts, the
//      ledger's tick (agreement and convergence), the inline trace merge,
//      a snapshot when one is due, and the stop check.
//   4. A release barrier publishes the stop decision to the peers.
//
// Messages are never delivered inside the window they were sent in:
// every message - same-shard or cross-shard alike - is buffered and
// applied at the first barrier T_b > arrival time, with the receiver
// observing it at its true arrival timestamp. Each shard keeps one
// in-flight list; a barrier takes the messages due there and applies
// them in one sorted drain (by receiver, then arrival time, then sender,
// then the sender's send sequence), so each receiver's per-peer arrays
// are walked once per round instead of re-fetched per message in arrival
// order.
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
  /// The barrier that applies it (see barrier_index).
  std::int64_t barrier = 0;
  /// Delta-compressed digest (see cluster/digest_codec.hpp).
  std::vector<std::uint8_t> payload;
};

/// The deterministic merge order of one barrier's deliveries.
bool message_before(const Message& lhs, const Message& rhs) {
  if (lhs.to != rhs.to) return lhs.to < rhs.to;
  if (lhs.at != rhs.at) return lhs.at < rhs.at;
  if (lhs.from != rhs.from) return lhs.from < rhs.from;
  return lhs.seq < rhs.seq;
}

/// Per-shard staging buffer for trace records; the coordinator merges
/// all shards' buffers into the TraceWriter once per round.
struct BufferSink final : obs::RecordSink {
  void emit(const obs::Record& r) override { records.push_back(r); }
  std::vector<obs::Record> records;
};

struct ShardState {
  ShardState(NodeSet& set, int shard_index, NodeId lo, NodeId hi,
             const ClusterConfig& config)
      : index(shard_index),
        step(set, lo, hi, config.topology, config.check_interval_ms) {}

  int index = 0;

  rt::EventQueue queue;
  std::unique_ptr<rt::Network> network;
  /// The protocol of the owned nodes, with this shard's replica of the
  /// ground truth (every shard applies every fault to its own copy, so
  /// window-time reads never cross shards).
  NodeStep step;
  BufferSink sink;
  obs::RecordSink* trace = nullptr;  // &sink when tracing, else null
  std::unique_ptr<obs::Profiler> profiler;
  std::vector<BufferedLogLine> log_buf;

  /// QoS of the owned observer rows.
  QosTally qos;
  std::size_t fault_cursor = 0;

  // Message plumbing: per-destination-shard outboxes filled during the
  // window, and the messages filed for a later barrier, in no order.
  std::vector<std::uint32_t> send_seq;
  std::vector<std::vector<Message>> outbox;
  std::vector<Message> in_flight;
  std::int64_t delivered_msgs = 0;
  std::vector<std::vector<std::uint8_t>> payload_pool;

  // Shard-local counter accumulators; summed into the registry by the
  // coordinator (integer sums are order-insensitive).
  std::int64_t c_digest_entries = 0;
  std::int64_t c_payload_bytes = 0;
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
    qos_.publish(registry_);
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

    nodes_.emplace(config_.n, max_nodes_,
                   NodeParams{config_.detector, config_.bootstrap_grace_ms,
                              config_.hot_transmissions},
                   mix_seed(seed, 0x0dde));

    // Shards own contiguous node blocks; sizes differ by at most one.
    owner_.assign(static_cast<std::size_t>(max_nodes_), 0);
    shards_.reserve(static_cast<std::size_t>(shard_count_));
    const int base = max_nodes_ / shard_count_;
    const int extra = max_nodes_ % shard_count_;
    NodeId lo = 0;
    for (int s = 0; s < shard_count_; ++s) {
      const NodeId hi = lo + base + (s < extra ? 1 : 0);
      auto shard = std::make_unique<ShardState>(*nodes_, s, lo, hi, config_);
      lo = hi;
      shard->network = std::make_unique<rt::Network>(
          shard->queue, mix_seed(seed, 0xc1e5), config_.network);
      if (trace_ != nullptr) {
        shard->trace = &shard->sink;
        shard->network->set_trace(shard->trace);
        shard->step.set_trace(shard->trace);
      }
      shard->step.topology().set_trace(shard->trace, &shard->queue);
      if (profile) {
        shard->profiler =
            std::make_unique<obs::Profiler>(config_.obs.profile_sample_shift);
        shard->queue.set_profiler(shard->profiler.get());
        shard->network->set_profiler(shard->profiler.get());
        shard->step.set_profiler(shard->profiler.get());
      }
      shard->send_seq.assign(static_cast<std::size_t>(max_nodes_), 0);
      shard->outbox.resize(static_cast<std::size_t>(shard_count_));
      for (NodeId j = shard->step.lo(); j < shard->step.hi(); ++j) {
        owner_[static_cast<std::size_t>(j)] = s;
      }
      shard->step.seed(config_.n);
      shards_.push_back(std::move(shard));
    }
    RFD_REQUIRE(lo == max_nodes_);
    executor_ = std::make_unique<rt::ShardExecutor>(shard_count_);

    report_.n = config_.n;
    report_.max_nodes = max_nodes_;
    report_.topology = shards_.front()->step.topology().name();
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
          nodes_->rngs[static_cast<std::size_t>(i)].uniform01() *
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

  /// First barrier at which a message arriving at `at` may be applied:
  /// the smallest b with T_b strictly after `at`. Strict, because at an
  /// exact grid time the old engine ran the check (lowest sequence
  /// number) before same-instant deliveries.
  std::int64_t barrier_index(double at) const {
    std::int64_t b = static_cast<std::int64_t>(at / check_ms_) + 1;
    while (static_cast<double>(b) * check_ms_ <= at) ++b;
    return b;
  }

  std::vector<std::uint8_t> take_payload(ShardState& shard) {
    if (shard.payload_pool.empty()) return {};
    std::vector<std::uint8_t> buffer = std::move(shard.payload_pool.back());
    shard.payload_pool.pop_back();
    return buffer;
  }

  /// Files a message into the owning shard's in-flight list. `round` is
  /// the barrier index currently being produced (window k files for
  /// barriers >= k; barrier-time collection files for >= the barrier's k).
  void file_message(ShardState& shard, std::int64_t round, Message&& m) {
    m.barrier = barrier_index(m.at);
    RFD_REQUIRE(m.barrier >= round);
    shard.in_flight.push_back(std::move(m));
  }

  void pump(ShardState& shard, NodeId i) {
    const std::int64_t window_round = shard.step.check_tick() + 1;
    const double now = shard.queue.now();
    shard.step.heartbeat(i, now, [&](NodeId target, std::size_t entries) {
      shard.c_digest_entries += static_cast<std::int64_t>(entries);
      // Draw the drop verdict before materializing anything: a lost or
      // partitioned message must cost neither a payload buffer nor an
      // in-flight entry. The digest selection still ran - it rotates
      // hot-queue state, and a real sender pays that work (and the
      // bandwidth) whether or not the packet survives.
      const std::optional<double> delay = shard.network->route(i, target);
      if (!delay) return;
      Message m;
      m.at = now + *delay;
      m.from = i;
      m.to = target;
      m.seq = shard.send_seq[static_cast<std::size_t>(i)]++;
      m.payload = take_payload(shard);
      shard.step.encode(m.payload);
      shard.c_payload_bytes += static_cast<std::int64_t>(m.payload.size());
      const int dst = owner_[static_cast<std::size_t>(target)];
      if (dst == shard.index) {
        file_message(shard, window_round, std::move(m));
      } else {
        shard.outbox[static_cast<std::size_t>(dst)].push_back(std::move(m));
      }
    });
    ShardState* self = &shard;
    shard.queue.schedule_in(config_.heartbeat_interval_ms,
                            [this, self, i] { pump(*self, i); });
  }

  /// Phase A of a round: advance the shard's local events (pumps, with
  /// scenario faults spliced in at their exact times) to the barrier.
  void run_window(ShardState& shard, double t_end, std::int64_t round) {
    shard.step.set_check_tick(round - 1);
    while (shard.fault_cursor < faults_.size() &&
           faults_[shard.fault_cursor].at_ms <= t_end) {
      shard.queue.run_before(faults_[shard.fault_cursor].at_ms);
      apply_fault(shard, shard.fault_cursor);
      ++shard.fault_cursor;
    }
    shard.queue.run_until(t_end);
  }

  /// Phase B of a round, entered with every shard parked behind the
  /// window barrier: collect this shard's inbound messages, apply those
  /// due at barrier k in deterministic merge order, then evaluate check
  /// tick k.
  void deliver_and_evaluate(ShardState& shard, std::int64_t k, double now) {
    for (auto& src : shards_) {
      auto& box = src->outbox[static_cast<std::size_t>(shard.index)];
      for (Message& m : box) file_message(shard, k, std::move(m));
      box.clear();
    }
    auto& flight = shard.in_flight;
    const auto due = std::partition(
        flight.begin(), flight.end(),
        [k](const Message& m) { return m.barrier != k; });
    std::sort(due, flight.end(), message_before);
    shard.step.set_check_tick(k - 1);  // deliveries run in tick k-1's context
    for (auto it = due; it != flight.end(); ++it) deliver(shard, *it);
    shard.delivered_msgs += flight.end() - due;
    flight.erase(due, flight.end());

    shard.step.evaluate(k, now, [&](NodeId i, NodeId j, bool suspected) {
      shard.qos.flip(i, j, suspected, shard.step.truth().down(j), now,
                     shard.trace);
    });
  }

  void deliver(ShardState& shard, Message& m) {
    if (nodes_->nodes[static_cast<std::size_t>(m.to)].active()) {
      shard.step.receive(m.to, m.from, m.payload.data(), m.payload.size(),
                         m.at, [&shard](NodeId peer) {
                           shard.qos.learned(shard.step.truth().down(peer));
                         });
    }
    m.payload.clear();
    shard.payload_pool.push_back(std::move(m.payload));
  }

  /// Applies the shard-local effects of one fault: this shard's network
  /// instance, or the node step (truth replica, owned node state) plus the
  /// QoS tally of the owned observer rows. Shard 0 alone records an
  /// effective fault - its trace record and the QoS ledger's disruption
  /// bookkeeping - so each counts once; every shard decides effectiveness
  /// identically from its truth replica. Shard 0's thread is the only one
  /// that touches the ledger (window, coordinator step and finalize), and
  /// a window's faults reach it in time order, before the tick that checks
  /// agreement. The trace's fault stream remains exactly the ground-truth
  /// transition sequence - the invariant the offline replay relies on.
  void apply_fault(ShardState& shard, std::size_t index) {
    const FaultEvent& event = faults_[index];
    const double now = shard.queue.now();
    if (!apply_network_fault(*shard.network, event)) {
      if (!shard.step.apply_fault(event, now)) return;
      shard.qos.rescore(event.kind, event.node, shard.step);
    }
    if (shard.index != 0) return;
    if (shard.trace != nullptr) shard.trace->emit(fault_record(event, now));
    qos_.fault(event.kind, now);
  }

  /// The serial coordinator step for check tick k (shard 0 only, peers
  /// parked at the release barrier): the QoS ledger's tick over the sum of
  /// the shards' tallies, the pending peak, the inline trace merge, a
  /// snapshot when one is due, and the graceful-stop check.
  void coordinator_step(std::int64_t k, double now) {
    QosTally total;
    for (const auto& shard : shards_) total += shard->qos;
    qos_.tick(now, total);
    peak_logical_queue_ = std::max(peak_logical_queue_, logical_pending());
    rounds_done_ = k;
    merge_inline();
    // Snapshots piggyback on the coordinator step instead of scheduling
    // their own events, so enabling them cannot perturb the simulation.
    if (trace_ != nullptr && config_.obs.snapshot_every_ticks > 0 &&
        k % config_.obs.snapshot_every_ticks == 0) {
      snapshot(k, now);
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
      pending += static_cast<std::int64_t>(shard->in_flight.size());
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

  /// Folds the per-shard counter accumulators (integer sums in fixed
  /// shard order) and the QoS ledger's results into the registry.
  void sync_counters() {
    std::int64_t digest = 0;
    std::int64_t payload = 0;
    for (const auto& shard : shards_) {
      digest += shard->c_digest_entries;
      payload += shard->c_payload_bytes;
    }
    c_digest_entries_->add(digest - c_digest_entries_->value());
    c_payload_bytes_->add(payload - c_payload_bytes_->value());
    qos_.publish(registry_);
  }

  void snapshot(std::int64_t k, double now) {
    sync_counters();
    g_disagreeing_->set(static_cast<double>(qos_.total().disagreeing));
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
    for (const ClusterNode& n : nodes_->nodes) {
      if (n.active()) max_hot = std::max(max_hot, n.hot_queue_depth());
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
    qos_.finalize(shards_.front()->step.truth(), *nodes_);
    sync_counters();
    qos_.report(report_);
    report_.digest_entries_sent = c_digest_entries_->value();
    report_.digest_payload_bytes = c_payload_bytes_->value();
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
  /// Nodes, their random streams and lies; each shard's step writes only
  /// the nodes it owns, so shard determinism is preserved. Declared
  /// before the shards, whose steps refer to it.
  std::optional<NodeSet> nodes_;
  std::vector<std::unique_ptr<ShardState>> shards_;
  std::unique_ptr<rt::ShardExecutor> executor_;

  // Coordinator-side QoS (shard replicas carry the window-time truth).
  QosLedger qos_;
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
