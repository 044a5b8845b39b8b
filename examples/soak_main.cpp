// Soak runner: the cluster protocol on a real or simulated transport,
// with checkpointed crash-resume and graceful signal shutdown.
//
//   ./soak [seed]
//          [--backend sim|udp]        transport (default sim)
//          [--scenario <file.scn>]    fault timeline (scenario DSL)
//          [--n <count>]              initial nodes (default 16)
//          [--duration <ms>]          simulated horizon (default 30000)
//          [--tick <ms>]              heartbeat/check grid (default 100)
//          [--detector fixed|chen|phi] (default fixed; chen runs alpha
//                                     800 ms, phi a 150 ms stddev floor)
//          [--timeout <ms>]           fixed detector timeout (default 1000)
//          [--flaky]                  socket-boundary fault injection
//          [--flaky-loss <p>]         injection loss probability
//          [--flaky-dup <p>]          injection duplication probability
//          [--loss <p>]               sim backend network loss
//          [--checkpoint <path>]      checkpoint file (enables snapshots)
//          [--checkpoint-every <ms>]  cadence (default 5000 when enabled)
//          [--resume]                 resume from --checkpoint
//          [--time-scale <x>]         udp wall ms per sim ms (default 1.0)
//          [--base-port <port>]       udp port range base (default 39000)
//          [--trace <path|->]         JSONL trace
//          [--trace-every <ticks>]    metrics snapshot cadence
//
// The same .scn files the simulator runs drive this binary on both
// backends; on udp, network-shaped faults require --flaky (the
// injection layer is where partitions/storms/loss live - real sockets
// have no verdict network). SIGINT/SIGTERM stop the run at the next
// tick, flush the trace and write a final checkpoint; a second signal
// kills the process the default way.
//
// The last stdout line is machine-readable: "SOAK {json}".
#include <cstdio>
#include <cstdlib>
#include <string>

#include "cluster/scenario_dsl.hpp"
#include "common/cli.hpp"
#include "common/shutdown.hpp"
#include "common/table.hpp"
#include "obs/trace_writer.hpp"
#include "transport/soak.hpp"

int main(int argc, char** argv) {
  using namespace rfd;
  const Cli cli(argc, argv);
  const std::uint64_t seed =
      !cli.positional().empty()
          ? std::strtoull(cli.positional()[0].c_str(), nullptr, 10)
          : 1;

  transport::SoakConfig config;
  config.seed = seed;
  config.n = static_cast<int>(cli.get_int("n", 16));
  config.duration_ms = cli.get_double("duration", 30'000.0);
  config.tick_ms = cli.get_double("tick", 100.0);
  config.topology.kind = cluster::TopologyKind::kGossip;
  config.topology.gossip_fanout = 3;

  const std::string backend = cli.get("backend", "sim");
  if (backend == "udp") {
    config.backend = transport::SoakBackend::kUdp;
  } else if (backend != "sim") {
    std::fprintf(stderr, "soak: unknown backend \"%s\" (sim|udp)\n",
                 backend.c_str());
    return 1;
  }

  const std::string detector = cli.get("detector", "fixed");
  if (detector == "fixed") {
    config.detector.kind = rt::DetectorKind::kFixed;
    config.detector.fixed.timeout_ms = cli.get_double("timeout", 1'000.0);
  } else if (detector == "chen") {
    // A gossiped counter arrives after a few hops, so its arrivals jitter
    // far more than direct heartbeats do; these are the margins the E12d
    // gossip cells run with (rt's defaults raise thousands of false
    // suspicions here).
    config.detector.kind = rt::DetectorKind::kChen;
    config.detector.chen.alpha_ms = 800.0;
  } else if (detector == "phi") {
    config.detector.kind = rt::DetectorKind::kPhi;
    config.detector.phi.min_stddev_ms = 150.0;
  } else {
    std::fprintf(stderr, "soak: unknown detector \"%s\" (fixed|chen|phi)\n",
                 detector.c_str());
    return 1;
  }

  config.network.loss_prob = cli.get_double("loss", 0.0);
  config.flaky = cli.get_bool("flaky", false);
  config.flaky_params.network.loss_prob = cli.get_double("flaky-loss", 0.0);
  config.flaky_params.dup_prob = cli.get_double("flaky-dup", 0.0);
  config.udp.base_port =
      static_cast<std::uint16_t>(cli.get_int("base-port", 39000));
  config.time_scale = cli.get_double("time-scale", 1.0);

  config.checkpoint_path = cli.get("checkpoint", "");
  config.checkpoint_every_ms = cli.get_double(
      "checkpoint-every", config.checkpoint_path.empty() ? 0.0 : 5'000.0);
  config.resume = cli.get_bool("resume", false);

  config.obs.trace_path = cli.get("trace", "");
  config.obs.snapshot_every_ticks = static_cast<int>(
      cli.get_int("trace-every", config.obs.trace_path.empty() ? 0 : 50));

  const std::string scenario_path = cli.get("scenario", "");
  if (!scenario_path.empty()) {
    cluster::ScenarioDoc doc;
    cluster::DslError err;
    if (!cluster::load_scenario_file(scenario_path, cluster::DslContext{},
                                     doc, err)) {
      std::fprintf(stderr, "soak: %s: %s\n", scenario_path.c_str(),
                   err.to_string().c_str());
      return 1;
    }
    if (doc.n > 0) config.n = doc.n;
    if (doc.max_nodes > 0) config.max_nodes = doc.max_nodes;
    if (doc.duration_ms > 0.0 && cli.get("duration", "").empty()) {
      config.duration_ms = doc.duration_ms;
    }
    config.scenario = std::move(doc.scenario);
  }
  config.topology.digest_size = std::max(32, config.n);

  install_shutdown_handlers();

  transport::SoakReport report;
  std::string error;
  if (!transport::run_soak(config, report, error)) {
    std::fprintf(stderr, "soak: %s\n", error.c_str());
    return 1;
  }

  // One field list feeds both the human table and the SOAK json line.
  obs::JsonLine json;
  Table table({"metric", "value"});
  const auto text = [&](const char* key, const std::string& v) {
    json.str(key, v);
    table.add_row({key, v});
  };
  const auto count = [&](const char* key, std::int64_t v) {
    json.integer(key, v);
    table.add_row({key, Table::num(v)});
  };
  const auto ms = [&](const char* key, double v) {
    json.num(key, v);
    table.add_row({key, Table::fixed(v, 1)});
  };
  const auto flag = [&](const char* key, bool v) {
    json.boolean(key, v);
    table.add_row({key, Table::yes_no(v)});
  };
  const auto pct = [](const Summary& s, double q) {
    return s.count() > 0 ? s.percentile(q) : 0.0;
  };
  const auto& t = report.transport;
  char fingerprint[17];
  std::snprintf(fingerprint, sizeof(fingerprint), "%016llx",
                static_cast<unsigned long long>(report.outcome_fingerprint));
  text("backend", report.backend);
  count("n", report.n);
  ms("sim_ms", report.sim_ms);
  count("ticks", report.ticks_run);
  ms("wall_ms", report.wall_ms);
  count("sent", t.sent);
  count("delivered", t.delivered);
  count("dropped", t.dropped);
  count("duplicated", t.duplicated);
  count("queue_drops", t.queue_drops);
  count("retries", t.retries);
  count("sock_errors", t.sock_errors);
  count("raises", report.raises);
  count("clears", report.clears);
  count("false", report.false_suspicions);
  count("missed", report.missed);
  count("detections", report.detection.count());
  ms("detect_p50_ms", pct(report.detection, 0.5));
  ms("detect_p99_ms", pct(report.detection, 0.99));
  flag("agreement", report.final_agreement);
  count("disruptions", report.disruptions);
  count("converged", report.convergence.count());
  ms("converge_p50_ms", pct(report.convergence, 0.5));
  ms("converge_p99_ms", pct(report.convergence, 0.99));
  count("overruns", report.tick_overruns);
  ms("max_lag_ms", report.max_lag_ms);
  count("checkpoints", report.checkpoints_written);
  flag("resumed", report.resumed);
  flag("signal", report.stopped_by_signal);
  text("fingerprint", fingerprint);
  table.print("soak run");
  std::printf("SOAK %s\n", json.finish().c_str());
  return 0;
}
