// Experiment E12: simulation-core throughput - how many discrete events
// per wall-clock second the runtime layer sustains at cluster scale.
//
// Two sections:
//   (a) cluster: end-to-end events/sec, wall-clock ms and peak event-queue
//       size for the gossip fabric at n in {64, 256, 1024} (the e11
//       flagship workload, shortened). This is the number the tentpole
//       refactors move: slab events + timer wheel in the queue, verdict-
//       first Network::route, and incremental suspicion tracking in the
//       engine's check loop.
//   (b) core: a synthetic heartbeat-shaped workload (a large population of
//       periodic timers, each firing a short-delay jittered delivery) run
//       through the current EventQueue and through LegacyEventQueue - a
//       frozen copy of the pre-refactor std::function + binary-heap core -
//       so the core-level speedup stays measurable across future PRs.
//
// Section (d), adaptive: full-digest gossip at n=256 with Chen and phi
// detectors, whose per-pair windows live in each node's ring slab.
// Reports node heap bytes per (observer, peer) pair, read from malloc's
// in-use total (mallinfo2) around a set of warm nodes, and wall ms per
// simulated second of a full run. It runs in smoke mode too.
//
// RFD_E12_SMOKE=1 restricts section (a) to n=64 for CI smoke runs.
//
// RFD_E12_TRACE=1 adds section (c): the observability overhead check.
// The same gossip workload runs trace-off and trace-on (JSONL event
// trace + snapshots + phase profiling, best of 2 each) at
// n=RFD_E12_TRACE_N (default 1024), the trace landing at
// RFD_E12_TRACE_PATH (default e12_trace.jsonl). CI gates on the
// events/sec ratio staying >= 0.95.
#include <benchmark/benchmark.h>
#include <malloc.h>

#include <chrono>
#include <cstdlib>
#include <ctime>
#include <functional>
#include <queue>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "cluster/engine.hpp"
#include "cluster/node.hpp"
#include "common/assert.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "runtime/event_queue.hpp"

namespace rfd {
namespace {

using cluster::ClusterConfig;
using cluster::ClusterReport;
using cluster::TopologyKind;

double wall_ms(const std::function<void()>& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  const auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(end - start).count();
}

// Process CPU time: the right clock for the E12c instrumentation-overhead
// ratio. The sim is single-threaded, and on shared/virtualized runners
// wall clock includes steal and scheduling noise that swamps a 5% budget;
// CPU time measures only the cycles this process actually burned.
double cpu_ms(const std::function<void()>& fn) {
  timespec start{}, end{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &start);
  fn();
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &end);
  return (static_cast<double>(end.tv_sec - start.tv_sec)) * 1e3 +
         (static_cast<double>(end.tv_nsec - start.tv_nsec)) * 1e-6;
}

// The e11 gossip scaling cell, shortened to a throughput workload: the
// detector timeout tracks the dissemination cadence exactly as in e11 so
// the event mix (pumps, deliveries, checks) is representative.
ClusterConfig gossip_config(int n) {
  constexpr double kIntervalMs = 250.0;
  ClusterConfig config;
  config.n = n;
  config.topology.kind = TopologyKind::kGossip;
  config.topology.digest_size = std::max(32, n / 8);
  config.heartbeat_interval_ms = kIntervalMs;
  // The check grid runs finer than the heartbeat period: detection
  // latencies and convergence times are quantized to it, and a 250ms
  // quantum is coarse against the latencies under measurement. It is
  // also the knob the simulation core must sustain: every tick cost the
  // pre-refactor engine a full n*(n-1) suspicion scan, which is the
  // documented reason e11 runs were unaffordable past n=256.
  config.check_interval_ms = 50.0;
  config.detector.kind = rt::DetectorKind::kFixed;
  const double per_round =
      static_cast<double>(config.topology.gossip_fanout) *
      config.topology.digest_size;
  const double gap_ms = kIntervalMs * std::max(1.0, n / per_round);
  config.detector.fixed.timeout_ms = std::max(1'000.0, 12.0 * gap_ms);
  config.bootstrap_grace_ms =
      std::max(1500.0, config.detector.fixed.timeout_ms);
  config.duration_ms = 12'000.0;
  const int crashes = std::max(1, n / 64);
  config.scenario =
      cluster::multi_crash_scenario(n, crashes, config.duration_ms * 0.4);
  return config;
}

/// Full-digest gossip at n with an adaptive detector, heartbeat and
/// check grid at 100 ms and a crash wave at 40% of a 12 s run: the regime
/// in which phi (threshold 8, 150 ms stddev floor) and Chen (800 ms
/// margin) both stay near zero false suspicions.
ClusterConfig adaptive_config(int n, rt::DetectorKind kind) {
  ClusterConfig config;
  config.n = n;
  config.topology.kind = TopologyKind::kGossip;
  config.topology.digest_size = n;
  config.heartbeat_interval_ms = 100.0;
  config.check_interval_ms = 100.0;
  config.detector.kind = kind;
  config.detector.chen.alpha_ms = 800.0;
  config.detector.phi.min_stddev_ms = 150.0;
  config.duration_ms = 12'000.0;
  config.scenario = cluster::multi_crash_scenario(n, std::max(1, n / 64),
                                                  config.duration_ms * 0.4);
  return config;
}

/// Node heap bytes per (observer, peer) pair: malloc's in-use growth over
/// building `nodes` nodes of an n-node cluster in which every peer has
/// advanced enough times to fill its window.
double node_heap_bytes_per_pair(const ClusterConfig& config, int nodes) {
  const auto in_use = [] {
    const struct mallinfo2 mi = mallinfo2();
    return static_cast<double>(mi.uordblks + mi.hblkhd);
  };
  cluster::NodeParams params;
  params.detector = config.detector;
  const int n = config.n;
  const int beats =
      std::max(config.detector.chen.window, config.detector.phi.window) + 2;
  const double before = in_use();
  std::vector<cluster::ClusterNode> fabric;
  fabric.reserve(static_cast<std::size_t>(nodes));
  for (int k = 0; k < nodes; ++k) {
    cluster::ClusterNode& node = fabric.emplace_back(k, n, params);
    for (int p = 0; p < n; ++p) node.learn_peer(p, 0.0);
    for (int b = 1; b <= beats; ++b) {
      for (int p = 0; p < n; ++p) node.observe(p, b, 100.0 * b);
    }
  }
  return (in_use() - before) / (static_cast<double>(nodes) * n);
}

// ------------------------------------------------------------------ legacy
// Frozen copy of the pre-refactor event core (PR 1 state): one heap-
// allocated std::function per event, all events through a binary heap.
// Kept as the comparison baseline for section (b); do not "improve" it.
class LegacyEventQueue {
 public:
  using Action = std::function<void()>;

  void schedule(double at, Action action) {
    queue_.push({at, next_seq_++, std::move(action)});
  }
  void schedule_in(double delay, Action action) {
    schedule(now_ + delay, std::move(action));
  }
  double now() const { return now_; }
  std::int64_t executed() const { return executed_; }

  void run_until(double t_end) {
    while (!queue_.empty() && queue_.top().at <= t_end) {
      Entry entry{queue_.top().at, queue_.top().seq,
                  std::move(const_cast<Entry&>(queue_.top()).action)};
      queue_.pop();
      now_ = entry.at;
      ++executed_;
      entry.action();
    }
    now_ = t_end;
  }

 private:
  struct Entry {
    double at;
    std::int64_t seq;
    Action action;
    bool operator>(const Entry& other) const {
      if (at != other.at) return at > other.at;
      return seq > other.seq;
    }
  };
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> queue_;
  double now_ = 0.0;
  std::int64_t next_seq_ = 0;
  std::int64_t executed_ = 0;
};

// Synthetic heartbeat-shaped workload: `timers` periodic 100ms timers,
// each firing a 0.5-8.5ms jittered one-shot delivery per period (the
// heartbeat + network-delivery mix that dominates the cluster engine).
template <typename Queue>
class CoreWorkload {
 public:
  explicit CoreWorkload(Queue& queue, int timers) : queue_(queue) {
    const Rng base(0xe12);
    Rng phases(0x9a5e);
    rngs_.reserve(static_cast<std::size_t>(timers));
    for (int i = 0; i < timers; ++i) {
      rngs_.push_back(base.split(static_cast<std::uint64_t>(i)));
      queue_.schedule(phases.uniform01() * 100.0, [this, i] { tick(i); });
    }
  }

  std::int64_t delivered() const { return delivered_; }

 private:
  void tick(int i) {
    const double jitter =
        0.5 + rngs_[static_cast<std::size_t>(i)].uniform01() * 8.0;
    queue_.schedule_in(jitter, [this] { ++delivered_; });
    queue_.schedule_in(100.0, [this, i] { tick(i); });
  }

  Queue& queue_;
  std::vector<Rng> rngs_;
  std::int64_t delivered_ = 0;
};

void BM_ClusterThroughput256(benchmark::State& state) {
  ClusterConfig config = gossip_config(256);
  config.duration_ms = 6'000.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cluster::run_cluster(config, 42));
  }
}
BENCHMARK(BM_ClusterThroughput256)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(2);

}  // namespace
}  // namespace rfd

int main(int argc, char** argv) {
  using namespace rfd;
  const bool smoke = std::getenv("RFD_E12_SMOKE") != nullptr;
  bench::JsonReport json("e12_throughput");

  std::printf("E12: simulation-core throughput (gossip fabric, %s)\n\n",
              smoke ? "smoke: n=64 only" : "n in {64, 256, 1024}");

  {
    Table table({"n", "sim events", "wall ms", "events/s", "peak queue",
                 "msgs sent"});
    const std::vector<int> sizes = smoke ? std::vector<int>{64}
                                         : std::vector<int>{64, 256, 1024};
    for (const int n : sizes) {
      const ClusterConfig config = gossip_config(n);
      ClusterReport r;
      const double ms = wall_ms([&] { r = cluster::run_cluster(config, 0xe12); });
      const double events_per_s =
          ms > 0.0 ? static_cast<double>(r.events_executed) / (ms / 1000.0)
                   : 0.0;
      table.add_row({Table::num(n), Table::num(r.events_executed),
                     Table::fixed(ms, 1), Table::fixed(events_per_s, 0),
                     Table::num(r.peak_event_queue),
                     Table::num(r.messages_sent)});
      json.row("cluster")
          .str("topology", "gossip")
          .num("n", n)
          .num("sim_duration_ms", config.duration_ms)
          .num("events_executed", static_cast<double>(r.events_executed))
          .num("wall_ms", ms)
          .num("events_per_s", events_per_s)
          .num("peak_event_queue", static_cast<double>(r.peak_event_queue))
          .num("messages_sent", static_cast<double>(r.messages_sent));
    }
    table.print("E12a: cluster engine throughput (12s simulated, gossip)");
  }

  if (std::getenv("RFD_E12_TRACE") != nullptr) {
    const char* n_env = std::getenv("RFD_E12_TRACE_N");
    const int n = n_env != nullptr ? std::atoi(n_env) : 1024;
    const char* path_env = std::getenv("RFD_E12_TRACE_PATH");
    const std::string trace_path =
        path_env != nullptr ? path_env : "e12_trace.jsonl";

    const ClusterConfig off_config = gossip_config(n);
    ClusterConfig on_config = off_config;
    on_config.obs.trace_path = trace_path;
    on_config.obs.snapshot_every_ticks = 20;
    // Profiling is its own opt-in toggle (it perturbs the stream with
    // wall-clock rollups), so the gated ratio measures pure trace +
    // snapshot cost; a separate profiled run below feeds the rollup rows.

    // Interleaved best-of-5 on process CPU time: off/on alternate so
    // frequency drift or a noisy neighbour biases neither side, and the
    // minimum discards runs that ate a page-cache miss or a steal spike.
    const auto run_one = [](const ClusterConfig& config, ClusterReport& out) {
      return cpu_ms([&] { out = cluster::run_cluster(config, 0xe12); });
    };
    ClusterReport off_report, on_report;
    double off_ms = 0.0, on_ms = 0.0;
    for (int rep = 0; rep < 5; ++rep) {
      ClusterReport off_r, on_r;
      const double o = run_one(off_config, off_r);
      const double t = run_one(on_config, on_r);
      if (rep == 0 || o < off_ms) {
        off_ms = o;
        off_report = std::move(off_r);
      }
      if (rep == 0 || t < on_ms) {
        on_ms = t;
        on_report = std::move(on_r);
      }
    }
    const auto rate = [](const ClusterReport& r, double ms) {
      return ms > 0.0 ? static_cast<double>(r.events_executed) / (ms / 1000.0)
                      : 0.0;
    };
    const double off_rate = rate(off_report, off_ms);
    const double on_rate = rate(on_report, on_ms);
    const double ratio = off_rate > 0.0 ? on_rate / off_rate : 0.0;

    Table table({"mode", "cpu ms", "events/s", "trace records", "ratio"});
    table.add_row({"trace-off", Table::fixed(off_ms, 1),
                   Table::fixed(off_rate, 0), "-", "1.00"});
    table.add_row({"trace-on", Table::fixed(on_ms, 1),
                   Table::fixed(on_rate, 0),
                   Table::num(on_report.trace_records),
                   Table::fixed(ratio, 3)});
    table.print("E12c: observability overhead (gossip n=" +
                std::to_string(n) + ", trace + snapshots)");
    json.row("trace_overhead")
        .str("topology", "gossip")
        .num("n", n)
        .num("off_events_per_s", off_rate)
        .num("on_events_per_s", on_rate)
        .num("ratio", ratio)
        .num("trace_records", static_cast<double>(on_report.trace_records))
        .num("trace_dropped", static_cast<double>(on_report.trace_dropped))
        .str("trace_path", trace_path);
    // Separate profiled run (profiling alone, no trace file) for the
    // per-phase rollup rows; not part of the gated overhead pair.
    ClusterConfig profile_config = off_config;
    profile_config.obs.profile = true;
    ClusterReport profile_report;
    run_one(profile_config, profile_report);
    for (const auto& stat : profile_report.profile) {
      json.row("profile")
          .str("phase", stat.phase)
          .num("calls", static_cast<double>(stat.calls))
          .num("sampled", static_cast<double>(stat.sampled))
          .num("est_ms", stat.est_ms);
      std::printf("profile: %-8s calls=%lld est=%.2fms\n", stat.phase.c_str(),
                  static_cast<long long>(stat.calls), stat.est_ms);
    }
    std::printf("\ntrace overhead: %.1f%% (events/s ratio %.3f)\n\n",
                (1.0 - ratio) * 100.0, ratio);
  }

  {
    constexpr int kN = 256;
    Table table({"detector", "n", "node heap B/pair", "wall ms/sim-s",
                 "msgs/node/s", "false/node/min"});
    for (const rt::DetectorKind kind :
         {rt::DetectorKind::kChen, rt::DetectorKind::kPhi}) {
      const ClusterConfig config = adaptive_config(kN, kind);
      const double heap = node_heap_bytes_per_pair(config, 32);
      ClusterReport r;
      const double ms =
          wall_ms([&] { r = cluster::run_cluster(config, 0xe12); });
      const double per_sim_s = ms / (config.duration_ms / 1000.0);
      const std::string name = rt::detector_kind_name(kind);
      table.add_row({name, Table::num(kN), Table::fixed(heap, 1),
                     Table::fixed(per_sim_s, 1),
                     Table::fixed(r.messages_per_node_per_s, 1),
                     Table::fixed(r.false_suspicions_per_node_per_min, 2)});
      json.row("adaptive")
          .str("detector", name)
          .num("n", kN)
          .num("node_heap_bytes_per_pair", heap)
          .num("wall_ms_per_sim_s", per_sim_s)
          .num("msgs_per_node_per_s", r.messages_per_node_per_s)
          .num("false_per_node_per_min",
               r.false_suspicions_per_node_per_min);
    }
    table.print("E12d: adaptive detectors (gossip n=256, 12s simulated)");
  }

  {
    Table table({"core", "timers", "sim events", "wall ms", "events/s"});
    const int timers = smoke ? 256 : 1024;
    const double horizon = smoke ? 5'000.0 : 20'000.0;

    rt::EventQueue current;
    const double cur_ms = wall_ms([&] {
      CoreWorkload workload(current, timers);
      current.run_until(horizon);
      benchmark::DoNotOptimize(workload.delivered());
    });
    LegacyEventQueue legacy;
    const double leg_ms = wall_ms([&] {
      CoreWorkload workload(legacy, timers);
      legacy.run_until(horizon);
      benchmark::DoNotOptimize(workload.delivered());
    });
    RFD_REQUIRE(current.executed() == legacy.executed());

    const auto rate = [](std::int64_t events, double ms) {
      return ms > 0.0 ? static_cast<double>(events) / (ms / 1000.0) : 0.0;
    };
    for (const auto& [label, ms, events] :
         {std::tuple<const char*, double, std::int64_t>{
              "current", cur_ms, current.executed()},
          {"legacy", leg_ms, legacy.executed()}}) {
      table.add_row({label, Table::num(timers), Table::num(events),
                     Table::fixed(ms, 1), Table::fixed(rate(events, ms), 0)});
      json.row("core")
          .str("impl", label)
          .num("timers", timers)
          .num("events_executed", static_cast<double>(events))
          .num("wall_ms", ms)
          .num("events_per_s", rate(events, ms));
    }
    json.row("core_speedup").num("current_over_legacy",
                                 leg_ms > 0.0 ? leg_ms / cur_ms : 0.0);
    table.print("E12b: event core, current vs frozen pre-refactor copy");
    std::printf("\ncore speedup (legacy wall / current wall): %.2fx\n\n",
                leg_ms > 0.0 ? leg_ms / cur_ms : 0.0);
  }

  json.write();

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
