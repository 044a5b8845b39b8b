// perfbench worker: one repetition of one benchmark workload, in its own
// process, printing one JSON line of raw measurements for run.py.
//
//   perfbench_worker <workload> <seed> <mode> <scratch-dir> [port] [port2]
//
// Modes:
//   setup   the workload's config cut to one check window (or tick);
//   run     the full workload, untraced (timed repetition);
//   replay  `run`, then (outside timing) obs::replay_qos over the trace;
//   resume  soak-sim-ckpt only: a run killed at half time and resumed
//           from its last checkpoint (the fingerprint is compared with
//           an uninterrupted `run` by run.py);
//   traced  the full workload with the phase profiler and the event
//           trace on, then per-layer probes fed with the workload's own
//           inputs.
//
// Only public entry points are called: cluster::run_cluster,
// transport::run_soak and the public functions of each layer. Each
// process measures a single run, so VmHWM is the run's own peak.
#include <malloc.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "cluster/digest_codec.hpp"
#include "cluster/engine.hpp"
#include "cluster/node.hpp"
#include "cluster/scenario_dsl.hpp"
#include "cluster/topology.hpp"
#include "common/rng.hpp"
#include "obs/replay.hpp"
#include "obs/trace_writer.hpp"
#include "runtime/detectors.hpp"
#include "runtime/event_queue.hpp"
#include "runtime/network.hpp"
#include "runtime/shard_executor.hpp"
#include "transport/checkpoint.hpp"
#include "transport/flaky.hpp"
#include "transport/sim.hpp"
#include "transport/soak.hpp"
#include "transport/udp.hpp"

namespace {

using namespace rfd;
using Clock = std::chrono::steady_clock;

// ------------------------------------------------------------ workloads

enum class Kind { kGossipSharded, kPhiAdaptive, kSoakSim, kSoakUdp };

struct Workload {
  const char* name;
  Kind kind;
  int n;
  double duration_ms;
  /// One check window (engine) or soak tick: the horizon of the
  /// set-up run.
  double window_ms;
  int crashes;
  /// Phi workload: one live node slowed x3 for 15% of the run.
  bool slow_node;
};

// Run lengths are the shortest that keep every workload in the accepted
// detection regime: crashes land at 20-30% of the run, and the rest of
// the run covers detection (p99 + margin) and final agreement.
constexpr Workload kWorkloads[] = {
    {"gossip-sharded", Kind::kGossipSharded, 1024, 10'000.0, 50.0, 16, false},
    {"phi-adaptive", Kind::kPhiAdaptive, 256, 12'000.0, 100.0, 4, true},
    {"soak-sim-ckpt", Kind::kSoakSim, 256, 16'000.0, 100.0, 4, false},
    {"soak-udp-paced", Kind::kSoakUdp, 256, 12'000.0, 100.0, 4, false},
};

constexpr double kSoakLoss = 0.05;
constexpr double kUdpTimeScale = 0.5;
constexpr double kCheckpointEveryMs = 5'000.0;

bool is_soak(const Workload& w) {
  return w.kind == Kind::kSoakSim || w.kind == Kind::kSoakUdp;
}

/// The seed picks the crash victims and times and the slow node; the
/// engine and soak runner only ever see the resulting DSL text.
std::string scenario_text(const Workload& w, std::uint64_t seed) {
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + static_cast<std::uint64_t>(w.kind));
  std::vector<int> ids(static_cast<std::size_t>(w.n));
  std::iota(ids.begin(), ids.end(), 0);
  for (std::size_t i = ids.size() - 1; i > 0; --i) {
    std::swap(ids[i], ids[static_cast<std::size_t>(
                          rng.below(static_cast<std::int64_t>(i) + 1))]);
  }
  std::string text = "name \"" + std::string(w.name) + "\"\n";
  char line[128];
  const double d = w.duration_ms;
  // The soak runner applies a fault at the first tick at or after it and
  // samples latency from that tick; its crashes share one seed-chosen
  // phase within the tick, so crash_lag_ms() can restore the time from
  // the crash instant exactly.
  const auto tick = static_cast<long long>(w.window_ms);
  const long long phase = rng.below(tick);
  for (int c = 0; c < w.crashes; ++c) {
    auto at = static_cast<long long>(0.2 * d + rng.uniform01() * 0.1 * d);
    if (is_soak(w)) at = (at / tick + 1) * tick - phase;
    std::snprintf(line, sizeof(line), "crash at=%lld node=%d\n", at,
                  ids[static_cast<std::size_t>(c)]);
    text += line;
  }
  if (w.slow_node) {
    const int node = ids[static_cast<std::size_t>(w.crashes)];
    const auto from =
        static_cast<long long>(0.35 * d + rng.uniform01() * 0.2 * d);
    const auto to = from + static_cast<long long>(0.15 * d);
    std::snprintf(line, sizeof(line),
                  "slow at=%lld node=%d factor=3\nslow_end at=%lld node=%d\n",
                  from, node, to, node);
    text += line;
  }
  return text;
}

cluster::TopologyParams gossip_topology(int n) {
  cluster::TopologyParams t;
  t.kind = cluster::TopologyKind::kGossip;
  t.gossip_fanout = 3;
  t.digest_size = n;  // full digest
  return t;
}

rt::DetectorParams detector_params(const Workload& w) {
  rt::DetectorParams d;
  switch (w.kind) {
    case Kind::kGossipSharded:
      d.kind = rt::DetectorKind::kFixed;
      d.fixed.timeout_ms = 3'000.0;
      break;
    case Kind::kPhiAdaptive:
      d.kind = rt::DetectorKind::kPhi;
      d.phi.threshold = 8.0;
      // The default 10 ms floor raises ~194 false suspicions/node/min on
      // gossip at n=256. At 100 ms the rate is 1.5/node/min, yet across
      // 256 nodes one false suspicion stands at a random instant about
      // half the time, so final agreement fails on half the scenarios.
      // 150 ms leaves at most one false suspicion per run.
      d.phi.min_stddev_ms = 150.0;
      break;
    case Kind::kSoakSim:
    case Kind::kSoakUdp:
      d.kind = rt::DetectorKind::kFixed;
      d.fixed.timeout_ms = 1'500.0;
      break;
  }
  return d;
}

cluster::ClusterConfig cluster_config(const Workload& w, double duration_ms,
                                      const std::string& trace_path,
                                      bool profile) {
  cluster::ClusterConfig c;
  c.n = w.n;
  c.topology = gossip_topology(w.n);
  c.detector = detector_params(w);
  c.duration_ms = duration_ms;
  if (w.kind == Kind::kGossipSharded) {
    c.heartbeat_interval_ms = 250.0;
    c.check_interval_ms = 50.0;
    // The default 1.5 s grace suspects never-heard peers before a 1024-node
    // full-digest fabric has carried everyone's second counter around
    // (~220 false suspicions/node/min); a grace equal to the timeout
    // does not.
    c.bootstrap_grace_ms = 3'000.0;
    c.shards = 2;
  } else {
    c.heartbeat_interval_ms = 100.0;
    c.check_interval_ms = 100.0;
    c.shards = 1;
  }
  c.obs.trace_path = trace_path;
  c.obs.profile = profile;
  return c;
}

transport::SoakConfig soak_config(const Workload& w, std::uint64_t seed,
                                  double duration_ms,
                                  const std::string& scratch,
                                  std::uint16_t port) {
  transport::SoakConfig s;
  s.n = w.n;
  s.topology = gossip_topology(w.n);
  s.detector = detector_params(w);
  s.tick_ms = w.window_ms;
  s.duration_ms = duration_ms;
  s.seed = seed;
  if (w.kind == Kind::kSoakSim) {
    s.backend = transport::SoakBackend::kSim;
    s.network.loss_prob = kSoakLoss;
    s.checkpoint_path = scratch + "/soak.ckpt";
    s.checkpoint_every_ms = kCheckpointEveryMs;
  } else {
    s.backend = transport::SoakBackend::kUdp;
    s.flaky = true;
    s.flaky_params.network.loss_prob = kSoakLoss;
    s.udp.base_port = port;
    s.time_scale = kUdpTimeScale;
  }
  return s;
}

// ----------------------------------------------------------- measuring

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// A /proc/self/status field in bytes (VmRSS, VmHWM), or -1.
std::int64_t status_bytes(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::size_t len = std::strlen(field);
  while (std::getline(in, line)) {
    if (line.compare(0, len, field) == 0 && line.size() > len &&
        line[len] == ':') {
      return std::atoll(line.c_str() + len + 1) * 1024;
    }
  }
  return -1;
}

std::int64_t file_size(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  return in ? static_cast<std::int64_t>(in.tellg()) : -1;
}

/// Flat JSON object written field by field.
class Out {
 public:
  Out& num(const char* key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return raw(key, buf);
  }
  Out& integer(const char* key, std::int64_t v) {
    return raw(key, std::to_string(v));
  }
  Out& boolean(const char* key, bool v) { return raw(key, v ? "true" : "false"); }
  Out& str(const char* key, const std::string& v) {
    std::string quoted = "\"";
    for (const char c : v) {
      // Messages are diagnostics: keep them printable and unquoted.
      quoted += (c == '"' || c == '\\' || static_cast<unsigned char>(c) < 0x20)
                    ? ' '
                    : c;
    }
    return raw(key, quoted + "\"");
  }
  Out& raw(const char* key, const std::string& v) {
    s_ += (s_.size() > 1 ? ",\"" : "\"") + std::string(key) + "\":" + v;
    return *this;
  }
  std::string finish() const { return s_ + "}"; }

 private:
  std::string s_ = "{";
};

/// Common to every mode: wall/CPU/RSS of the measured span plus the
/// parsed scenario.
struct Span {
  Clock::time_point wall0;
  double cpu0 = 0.0;
  std::int64_t rss_before = 0;
  double parse_ms = 0.0;
  cluster::ScenarioDoc doc;

  bool begin(const Workload& w, std::uint64_t seed, std::string& error) {
    const std::string text = scenario_text(w, seed);
    rss_before = status_bytes("VmRSS");
    wall0 = Clock::now();
    cpu0 = cpu_seconds();
    cluster::DslContext ctx;
    ctx.max_nodes = w.n;
    cluster::DslError err;
    const bool ok = cluster::parse_scenario(text, ctx, doc, err);
    parse_ms = seconds_since(wall0) * 1e3;
    if (!ok) error = "scenario: " + err.to_string();
    return ok;
  }

  void end(Out& out) const {
    out.num("wall_s", seconds_since(wall0))
        .num("cpu_s", cpu_seconds() - cpu0)
        .integer("rss_before", rss_before)
        .integer("peak_rss", status_bytes("VmHWM"))
        .num("parse_ms", parse_ms);
  }
};

void put_cluster_report(Out& out, const cluster::ClusterReport& r) {
  const auto& d = r.detection_latency_ms;
  const double sim_s = r.duration_ms / 1000.0;
  out.integer("n", r.n)
      .integer("max_nodes", r.max_nodes)
      .num("sim_s", sim_s)
      .integer("samples", d.count())
      .num("p50", d.count() > 0 ? d.percentile(0.5) : 0.0)
      .num("p99", d.count() > 0 ? d.percentile(0.99) : 0.0)
      .integer("missed", r.missed_detections)
      .integer("false", r.false_suspicions)
      .integer("raises", r.suspicion_raises)
      .integer("clears", r.suspicion_clears)
      .boolean("agreement", r.final_agreement)
      .integer("sent", r.messages_sent)
      .integer("dropped", r.messages_dropped)
      .integer("entries", r.digest_entries_sent)
      .integer("payload_bytes", r.digest_payload_bytes)
      .integer("events", r.events_executed)
      .integer("peak_queue", r.peak_event_queue)
      .integer("trace_records", r.trace_records)
      .integer("trace_dropped", r.trace_dropped);
  for (const obs::PhaseStat& p : r.profile) {
    out.integer(("prof_" + p.phase + "_calls").c_str(), p.calls)
        .num(("prof_" + p.phase + "_ms").c_str(), p.est_ms);
  }
}

/// Time from the crash instant to the tick the soak runner applied it
/// at, common to every crash of a soak scenario (see scenario_text);
/// -1 when the crashes disagree.
double crash_lag_ms(const cluster::Scenario& scenario, double tick_ms) {
  double lag = 0.0;
  bool first = true;
  for (const cluster::FaultEvent& e : scenario.events) {
    if (e.kind != cluster::FaultKind::kCrash) continue;
    const double l = std::ceil(e.at_ms / tick_ms) * tick_ms - e.at_ms;
    if (!first && l != lag) return -1.0;
    lag = l;
    first = false;
  }
  return lag;
}

/// Soak latencies run from the tick a crash was applied at; `lag_ms`
/// shifts them to run from the crash instant, as the engine's do.
void put_soak_report(Out& out, const transport::SoakReport& r,
                     double lag_ms) {
  const auto& t = r.transport;
  char fp[32];
  std::snprintf(fp, sizeof(fp), "%016" PRIx64, r.outcome_fingerprint);
  out.integer("n", r.n)
      .integer("max_nodes", r.max_nodes)
      .num("sim_s", r.sim_ms / 1000.0)
      .integer("samples", r.detection.count())
      .num("p50", r.detection.count() > 0
                      ? r.detection.percentile(0.5) + lag_ms
                      : 0.0)
      .num("p99", r.detection.count() > 0
                      ? r.detection.percentile(0.99) + lag_ms
                      : 0.0)
      .num("crash_lag_ms", lag_ms)
      .integer("missed", r.missed)
      .integer("false", r.false_suspicions)
      .integer("raises", r.raises)
      .integer("clears", r.clears)
      .boolean("agreement", r.final_agreement)
      .integer("sent", t.sent)
      .integer("delivered", t.delivered)
      .integer("dropped", t.dropped)
      .integer("queue_drops", t.queue_drops)
      .integer("retries", t.retries)
      .integer("sock_errors", t.sock_errors)
      .integer("checkpoints", r.checkpoints_written)
      .boolean("resumed", r.resumed)
      .str("fingerprint", fp)
      .integer("trace_records", r.trace_records)
      .integer("trace_dropped", r.trace_dropped);
}

/// Sums the "entries" and "advanced" fields of every hb_recv record:
/// the exact observe() and detector-advance counts of an engine run.
void count_receives(const std::string& path, std::int64_t& entries,
                    std::int64_t& advanced) {
  entries = 0;
  advanced = 0;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, 18, "{\"type\":\"hb_recv\",") != 0) continue;
    const std::size_t e = line.find("\"entries\":");
    const std::size_t a = line.find("\"advanced\":");
    if (e == std::string::npos || a == std::string::npos) continue;
    entries += std::atoll(line.c_str() + e + 10);
    advanced += std::atoll(line.c_str() + a + 11);
  }
}

// -------------------------------------------------------------- probes
//
// Each probe times batches of calls into one layer's public functions,
// with no other layer inside the timed span, so a batch's duration is
// the layer's self time. Inputs follow the workload: its n and digest
// size, detector params, delay model, datagram size and record mix.

template <typename F>
double time_ns(F&& f) {
  const auto t0 = Clock::now();
  f();
  return std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
}

/// Median over `batches` timed batches of `per_batch` operations, in ns
/// per operation. `setup` runs untimed before each batch.
template <typename Setup, typename Body>
double probe(int batches, int per_batch, Setup&& setup, Body&& body) {
  std::vector<double> ns;
  for (int b = 0; b < batches; ++b) {
    setup();
    ns.push_back(time_ns(body) / per_batch);
  }
  std::nth_element(ns.begin(), ns.begin() + static_cast<long>(ns.size() / 2),
                   ns.end());
  return ns[ns.size() / 2];
}

std::atomic<std::uint64_t> g_sink{0};

void probe_event_queue(Out& out) {
  constexpr int kEvents = 4096;
  rt::EventQueue q(1.0);
  Rng rng(7);
  std::uint64_t fired = 0;
  double base = 0.0;
  const double ns = probe(
      64, kEvents, [] {},
      [&] {
        for (int i = 0; i < kEvents; ++i) {
          q.schedule(base + rng.uniform01() * 100.0, [&fired] { ++fired; });
        }
        base += 100.0;
        q.run_until(base);
      });
  g_sink += fired;
  out.num("probe_event_ns", ns);
}

/// One node per id, each knowing every peer with a live counter (the
/// steady state of a full-digest gossip fabric), so the probes below
/// touch a working set the size of the run's.
std::vector<std::unique_ptr<cluster::ClusterNode>> warm_fabric(
    int n, const rt::DetectorParams& d) {
  cluster::NodeParams params;
  params.detector = d;
  std::vector<std::unique_ptr<cluster::ClusterNode>> nodes;
  for (int id = 0; id < n; ++id) {
    auto node = std::make_unique<cluster::ClusterNode>(id, n, params);
    for (int p = 0; p < n; ++p) node->learn_peer(p, 0.0);
    for (int round = 1; round <= 3; ++round) {
      for (int p = 0; p < n; ++p) node->observe(p, round, 100.0 * round);
    }
    nodes.push_back(std::move(node));
  }
  return nodes;
}

void probe_topology_codec_node(const Workload& w, Out& out) {
  const int n = w.n;
  auto topology = cluster::make_topology(gossip_topology(n), n);
  // The inline fixed-timeout detector: adaptive detector work is charged
  // to probe_detectors, so this measures the walk itself.
  rt::DetectorParams fixed;
  fixed.kind = rt::DetectorKind::kFixed;
  fixed.fixed.timeout_ms = 3'000.0;
  auto fabric = warm_fabric(n, fixed);
  Rng rng(11);
  std::int32_t round = 3;
  double now = 300.0;
  constexpr int kPerBatch = 8;
  std::vector<int> picked(kPerBatch);
  const auto pick = [&] {
    for (int& r : picked) r = static_cast<int>(rng.below(n));
  };
  std::vector<rt::NodeId> ids;

  // Digest selection on random senders, after a third of each sender's
  // peers advanced (one heartbeat round of full-digest gossip).
  const double digest_ns = probe(
      48, kPerBatch,
      [&] {
        pick();
        ++round;
        now += 100.0;
        for (const int r : picked) {
          for (int p = 0; p < n; ++p) {
            if (rng.below(3) == 0) fabric[static_cast<std::size_t>(r)]->observe(p, round, now);
          }
        }
      },
      [&] {
        for (const int r : picked) {
          ids.clear();
          topology->digest(*fabric[static_cast<std::size_t>(r)], (r + 1) % n, ids);
        }
      });
  std::sort(ids.begin(), ids.end());

  // Codec: encode and decode the last selected digest.
  const cluster::ClusterNode& sender = *fabric[static_cast<std::size_t>(picked.back())];
  std::vector<std::uint8_t> buf;
  const auto counter_of = [&](std::int32_t id) { return sender.counter(id); };
  constexpr int kCodecReps = 64;
  const double entries = static_cast<double>(ids.size());
  const double encode_ns = probe(
      32, 1, [] {},
      [&] {
        for (int i = 0; i < kCodecReps; ++i) {
          buf.clear();
          cluster::encode_digest(static_cast<std::uint32_t>(round), ids,
                                 counter_of, buf);
        }
      }) / (kCodecReps * entries);
  std::uint64_t sum = 0;
  const double decode_ns = probe(
      32, 1, [] {},
      [&] {
        for (int i = 0; i < kCodecReps; ++i) {
          cluster::DigestReader reader(buf.data(), buf.size());
          sum += reader.varint();
          const std::uint32_t count = reader.varint();
          for (std::uint32_t e = 0; e < count; ++e) {
            sum += reader.varint();
            sum += reader.varint();
          }
        }
      }) / (kCodecReps * entries);
  g_sink += sum;

  // Observe walk: sorted full digests delivered to random receivers; a
  // third of each digest's entries carry a counter advance.
  std::vector<std::int32_t> counters(static_cast<std::size_t>(kPerBatch) * n);
  const double observe_ns = probe(
      48, kPerBatch * n,
      [&] {
        pick();
        ++round;
        now += 100.0;
        for (std::int32_t& c : counters) c = rng.below(3) == 0 ? round : 1;
      },
      [&] {
        const std::int32_t* c = counters.data();
        for (const int r : picked) {
          cluster::ClusterNode& node = *fabric[static_cast<std::size_t>(r)];
          for (int p = 0; p < n; ++p) node.observe(p, *c++, now);
        }
      });

  out.num("probe_digest_ns", digest_ns)
      .num("probe_digest_entries", entries)
      .num("probe_encode_ns", encode_ns)
      .num("probe_decode_ns", decode_ns)
      .num("probe_bytes_per_entry",
           static_cast<double>(buf.size()) / (entries + 1.0))
      .num("probe_observe_ns", observe_ns);
}

/// Heap bytes per (observer, peer) of warm nodes with the workload's
/// detector, each peer's heartbeat history filling its window. Counted
/// from malloc's in-use total, which freed memory of the run does not
/// blur the way it blurs RSS.
void probe_node_bytes(const Workload& w, Out& out) {
  constexpr int kNodes = 32;
  const rt::DetectorParams d = detector_params(w);
  const auto in_use = [] {
    const struct mallinfo2 mi = mallinfo2();
    return static_cast<double>(mi.uordblks + mi.hblkhd);
  };
  const double before = in_use();
  std::vector<std::unique_ptr<cluster::ClusterNode>> nodes;
  cluster::NodeParams params;
  params.detector = d;
  const int beats = d.kind == rt::DetectorKind::kFixed ? 2 : d.phi.window + 2;
  for (int k = 0; k < kNodes; ++k) {
    nodes.push_back(std::make_unique<cluster::ClusterNode>(k, w.n, params));
    for (int p = 0; p < w.n; ++p) nodes.back()->learn_peer(p, 0.0);
    for (int b = 1; b <= beats; ++b) {
      for (int p = 0; p < w.n; ++p) nodes.back()->observe(p, b, 100.0 * b);
    }
  }
  out.num("probe_node_bytes_per_peer", (in_use() - before) / (kNodes * w.n));
}

/// Detector calls on the run's population of (observer, peer) detectors,
/// capped at 65,536: each batch serves every detector of a few random
/// observers, as one delivered digest does.
void probe_detectors(const Workload& w, Out& out) {
  const rt::DetectorParams d = detector_params(w);
  const int peers = w.n - 1;
  const int observers = std::min(w.n, 65'536 / peers);
  std::vector<std::vector<std::unique_ptr<rt::PeerDetector>>> dets(
      static_cast<std::size_t>(observers));
  for (auto& row : dets) {
    for (int p = 0; p < peers; ++p) row.push_back(rt::make_detector(d));
  }
  Rng rng(13);
  std::vector<double> clock(static_cast<std::size_t>(observers), 0.0);
  // Heartbeats about every 100 ms with jitter; fill each window first.
  const auto beat = [&](std::size_t o) {
    clock[o] += 70.0 + rng.uniform01() * 60.0;
    for (const auto& det : dets[o]) det->on_heartbeat(clock[o]);
  };
  for (int r = 0; r < d.phi.window + 2; ++r) {
    for (std::size_t o = 0; o < dets.size(); ++o) beat(o);
  }
  constexpr int kPerBatch = 8;
  std::vector<std::size_t> picked(kPerBatch);
  const auto pick = [&] {
    for (std::size_t& o : picked) {
      o = static_cast<std::size_t>(rng.below(observers));
      clock[o] += 70.0 + rng.uniform01() * 60.0;
    }
  };
  const double calls = static_cast<double>(kPerBatch) * peers;
  const double advance_ns = probe(32, 1, pick, [&] {
    for (const std::size_t o : picked) {
      for (const auto& det : dets[o]) det->on_heartbeat(clock[o]);
    }
  }) / calls;
  double acc = 0.0;
  const double deadline_ns = probe(32, 1, pick, [&] {
    for (const std::size_t o : picked) {
      for (const auto& det : dets[o]) acc += det->suspect_deadline();
    }
  }) / calls;
  std::uint64_t hits = 0;
  const double suspects_ns = probe(32, 1, pick, [&] {
    for (const std::size_t o : picked) {
      for (const auto& det : dets[o]) hits += det->suspects(clock[o] + 150.0);
    }
  }) / calls;
  g_sink += hits + static_cast<std::uint64_t>(acc > 0.0);
  out.num("probe_advance_ns", advance_ns)
      .num("probe_deadline_ns", deadline_ns)
      .num("probe_suspects_ns", suspects_ns);
}

rt::NetworkParams network_params(const Workload& w) {
  rt::NetworkParams p;
  if (is_soak(w)) p.loss_prob = kSoakLoss;
  return p;
}

void probe_network(const Workload& w, Out& out) {
  rt::EventQueue clock(1.0);
  rt::Network net(clock, 17, network_params(w));
  constexpr int kRoutes = 4096;
  double sum = 0.0;
  const double ns = probe(32, kRoutes, [] {}, [&] {
    for (int i = 0; i < kRoutes; ++i) {
      const auto from = static_cast<rt::NodeId>(i % w.n);
      const auto v = net.route(from, (from + 1 + i % 7) % w.n);
      if (v) sum += *v;
    }
  });
  g_sink += static_cast<std::uint64_t>(sum);
  out.num("probe_route_ns", ns);
}

void probe_barrier(Out& out) {
  constexpr int kRounds = 20'000;
  rt::SpinBarrier barrier(2);
  std::thread peer([&] {
    for (int i = 0; i < 8 * kRounds; ++i) barrier.arrive_and_wait();
  });
  const double ns = probe(8, kRounds, [] {}, [&] {
    for (int i = 0; i < kRounds; ++i) barrier.arrive_and_wait();
  });
  peer.join();
  out.num("probe_barrier_ns", ns);
}

bool probe_trace_writer(const Workload& w, const std::string& scratch,
                        Out& out, std::string& error) {
  obs::Config config;
  config.trace_path = scratch + "/probe-trace.jsonl";
  constexpr int kRecords = 1 << 16;
  Rng rng(23);
  double ns = 0.0;
  {
    obs::TraceWriter writer(config);
    if (!writer.ok()) {
      error = "cannot write " + config.trace_path;
      return false;
    }
    ns = time_ns([&] {
      for (int i = 0; i < kRecords; ++i) {
        obs::Record r;
        r.t = i * 0.01;
        r.type = (i & 1) ? obs::RecordType::kHbRecv : obs::RecordType::kHbSend;
        r.a = static_cast<std::int32_t>(rng.below(w.n));
        r.b = static_cast<std::int32_t>(rng.below(w.n));
        r.c = w.n;
        r.x = static_cast<double>(rng.below(w.n / 3 + 1));
        writer.emit(r);
      }
      writer.close();
    });
  }
  const std::int64_t bytes = file_size(config.trace_path);
  std::remove(config.trace_path.c_str());
  out.num("probe_trace_ns", ns / kRecords)
      .num("probe_trace_bytes", static_cast<double>(bytes) / kRecords);
  return true;
}

/// Send/poll cost per datagram of the workload's transport (sim for all
/// but the UDP workload), at the workload's full-digest datagram size:
/// about two bytes per entry (codec.bytes_per_entry) plus the header.
bool probe_transport(const Workload& w, std::uint16_t port, Out& out,
                     std::string& error) {
  constexpr int kNodes = 32;
  constexpr int kBatch = 256;
  const std::size_t size = static_cast<std::size_t>(w.n) * 2 + 8;
  std::unique_ptr<transport::Transport> t;
  if (w.kind == Kind::kSoakUdp) {
    if (port == 0) {
      error = "udp probe needs a port range";
      return false;
    }
    transport::UdpParams up;
    up.base_port = port;
    transport::FlakyParams fp;
    fp.network = network_params(w);
    t = std::make_unique<transport::FlakyTransport>(
        std::make_unique<transport::UdpTransport>(kNodes, up), kNodes, 29, fp);
  } else {
    t = std::make_unique<transport::SimTransport>(kNodes, 29,
                                                  network_params(w));
  }
  std::vector<std::uint8_t> payload(size, 0x5a);
  std::vector<transport::Delivery> got;
  const auto start = Clock::now();
  double clock_ms = 0.0;
  std::vector<double> send_ns;
  std::vector<double> poll_ns;
  for (int b = 0; b < 24; ++b) {
    clock_ms = w.kind == Kind::kSoakUdp ? seconds_since(start) * 1e3
                                        : clock_ms + 100.0;
    send_ns.push_back(time_ns([&] {
                        for (int i = 0; i < kBatch; ++i) {
                          t->send(i % kNodes, (i + 1 + i / kNodes) % kNodes,
                                  payload.data(), payload.size(), clock_ms);
                        }
                      }) /
                      kBatch);
    got.clear();
    // Let the batch come due untimed (the flaky layer holds datagrams
    // for their drawn delay; the sim clock simply jumps past it), then
    // time the polls that surface it.
    double poll_at = clock_ms + 50.0;
    if (w.kind == Kind::kSoakUdp) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      poll_at = seconds_since(start) * 1e3;
    }
    double ns = 0.0;
    for (int i = 0; i < 4; ++i) {
      ns += time_ns([&] { t->poll(poll_at, got); });
    }
    if (!got.empty()) poll_ns.push_back(ns / static_cast<double>(got.size()));
  }
  std::sort(send_ns.begin(), send_ns.end());
  std::sort(poll_ns.begin(), poll_ns.end());
  out.num("probe_send_ns", send_ns[send_ns.size() / 2])
      .num("probe_poll_ns", poll_ns.empty() ? 0.0 : poll_ns[poll_ns.size() / 2])
      .integer("probe_dgram_bytes", static_cast<std::int64_t>(size));
  return true;
}

/// Checkpoint write and read at the size of the run's checkpoint, or of
/// the workload's node state when the run writes none.
bool probe_checkpoint(const Workload& w, std::int64_t run_bytes,
                      const std::string& scratch, Out& out,
                      std::string& error) {
  std::int64_t bytes = run_bytes;
  if (bytes <= 0) {
    cluster::NodeParams params;
    params.detector = detector_params(w);
    cluster::ClusterNode node(0, w.n, params);
    for (int p = 0; p < w.n; ++p) node.learn_peer(p, 0.0);
    for (int b = 1; b <= 3; ++b) {
      for (int p = 0; p < w.n; ++p) node.observe(p, b, 100.0 * b);
    }
    std::vector<std::uint8_t> state;
    node.save_state(state);
    bytes = static_cast<std::int64_t>(state.size()) * w.n;
  }
  transport::CheckpointData data;
  data.config_fingerprint = 31;
  data.payload.assign(static_cast<std::size_t>(bytes), 0x3c);
  const std::string path = scratch + "/probe.ckpt";
  std::vector<double> write_ms;
  std::vector<double> read_ms;
  bool ok = true;
  for (int i = 0; i < 3 && ok; ++i) {
    write_ms.push_back(time_ns([&] {
                         ok = transport::write_checkpoint(path, data, error);
                       }) / 1e6);
    transport::CheckpointData back;
    read_ms.push_back(time_ns([&] {
                        ok = ok && transport::read_checkpoint(path, 31, back,
                                                              error);
                      }) / 1e6);
  }
  std::remove(path.c_str());
  if (!ok) return false;
  std::sort(write_ms.begin(), write_ms.end());
  std::sort(read_ms.begin(), read_ms.end());
  out.num("probe_ckpt_write_ms", write_ms[1])
      .num("probe_ckpt_read_ms", read_ms[1])
      .integer("probe_ckpt_bytes", bytes);
  return true;
}

// ---------------------------------------------------------------- modes

int fail(const std::string& message) {
  std::fprintf(stderr, "perfbench_worker: %s\n", message.c_str());
  return 2;
}

int run_mode(const Workload& w, std::uint64_t seed, const std::string& mode,
             const std::string& scratch, std::uint16_t port,
             std::uint16_t probe_port) {
  const bool setup = mode == "setup";
  const bool traced = mode == "traced";
  const double duration = setup ? w.window_ms : w.duration_ms;
  Out out;
  Span span;
  std::string error;
  if (!span.begin(w, seed, error)) return fail(error);

  std::int64_t ckpt_bytes = 0;
  if (!is_soak(w)) {
    // The gossip workload always writes its event trace; the traced run
    // turns it on everywhere for the exact receive counts.
    const std::string trace =
        (w.kind == Kind::kGossipSharded || traced)
            ? scratch + "/events.jsonl"
            : std::string();
    cluster::ClusterConfig c = cluster_config(w, duration, trace, traced);
    c.scenario = span.doc.scenario;
    const cluster::ClusterReport report = cluster::run_cluster(c, seed);
    span.end(out);
    put_cluster_report(out, report);
    if (!trace.empty()) {
      out.integer("trace_bytes", file_size(trace));
    }
    if (mode == "replay") {
      const obs::ReplayQos replay = obs::replay_qos(trace);
      const auto& live = report.detection_latency_ms;
      const auto& re = replay.detection_latency_ms;
      const bool same =
          replay.ok && replay.lost_records == 0 && re.count() == live.count() &&
          (live.count() == 0 ||
           (re.percentile(0.5) == live.percentile(0.5) &&
            re.percentile(0.99) == live.percentile(0.99) &&
            re.sum() == live.sum())) &&
          replay.false_suspicions == report.false_suspicions &&
          replay.suspicion_raises == report.suspicion_raises &&
          replay.suspicion_clears == report.suspicion_clears;
      out.boolean("replay_equal", same).str("replay_error", replay.error);
    }
    if (traced) {
      std::int64_t entries = 0;
      std::int64_t advanced = 0;
      count_receives(trace, entries, advanced);
      out.integer("recv_entries", entries).integer("recv_advanced", advanced);
    }
    if (!trace.empty()) std::remove(trace.c_str());
  } else {
    transport::SoakConfig s = soak_config(w, seed, duration, scratch, port);
    s.scenario = span.doc.scenario;
    transport::SoakReport report;
    if (mode == "resume") {
      if (w.kind != Kind::kSoakSim) return fail("resume needs soak-sim-ckpt");
      transport::SoakConfig first = s;
      first.duration_ms = std::floor(duration / 2 / w.window_ms) * w.window_ms;
      transport::SoakReport half;
      if (!transport::run_soak(first, half, error)) return fail(error);
      s.resume = true;
    }
    if (!transport::run_soak(s, report, error)) return fail(error);
    span.end(out);
    const double lag = crash_lag_ms(span.doc.scenario, w.window_ms);
    if (lag < 0.0) return fail("soak crashes do not share a tick phase");
    put_soak_report(out, report, lag);
    if (!s.checkpoint_path.empty()) {
      ckpt_bytes = file_size(s.checkpoint_path);
      out.integer("checkpoint_bytes", ckpt_bytes);
      if (traced) {
        transport::CheckpointData back;
        bool ok = false;
        const double read_ms =
            time_ns([&] {
              ok = transport::read_checkpoint(s.checkpoint_path, 0, back,
                                              error);
            }) / 1e6;
        if (!ok) return fail("checkpoint: " + error);
        out.num("ckpt_read_ms", read_ms);
      }
      std::remove(s.checkpoint_path.c_str());
    }
  }

  if (traced) {
    probe_event_queue(out);
    probe_topology_codec_node(w, out);
    probe_node_bytes(w, out);
    probe_detectors(w, out);
    probe_network(w, out);
    probe_barrier(out);
    if (!probe_trace_writer(w, scratch, out, error) ||
        !probe_transport(w, probe_port, out, error) ||
        !probe_checkpoint(w, ckpt_bytes, scratch, out, error)) {
      return fail(error);
    }
  }
  std::printf("%s\n", out.finish().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 5) {
    return fail(
        "usage: perfbench_worker <workload> <seed> "
        "<setup|run|replay|resume|traced> <scratch-dir> [port] [probe-port]");
  }
  const std::string name = argv[1];
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (name == w.name) workload = &w;
  }
  if (workload == nullptr) return fail("unknown workload " + name);
  const std::string mode = argv[3];
  if (mode != "setup" && mode != "run" && mode != "replay" &&
      mode != "resume" && mode != "traced") {
    return fail("unknown mode " + mode);
  }
  const std::uint64_t seed = std::strtoull(argv[2], nullptr, 10);
  const auto port =
      static_cast<std::uint16_t>(argc > 5 ? std::atoi(argv[5]) : 0);
  const auto probe_port =
      static_cast<std::uint16_t>(argc > 6 ? std::atoi(argv[6]) : 0);
  if (workload->kind == Kind::kSoakUdp && port == 0) {
    return fail("soak-udp-paced needs a tested port range");
  }
  return run_mode(*workload, seed, mode, argv[4], port, probe_port);
}
