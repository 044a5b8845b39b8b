#!/usr/bin/env python3
"""Repository benchmark: builds the library and the worker from source,
runs one workload, checks its outputs and prints its metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout. Every line but the last is a human
or diagnostic record (ENV, SUMMARY); the last line is the result object
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end ones, from untraced runs; with --trace 1 they are the
per-layer ones, from one traced run plus per-layer probes. See README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import socket
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True  # write nothing next to the sources

import metrics as m  # noqa: E402

ROOT = HERE.parent

# Per workload: measured peak RSS in MiB (the memory guard refuses to
# start below this plus MEMORY_MARGIN_MIB available), whether a seed's
# outcome is deterministic, and how many scenarios one invocation derives
# from its seed. Repetitions cycle through the scenarios, so one run's
# medians cover several crash-victim sets (peak memory and the detection
# tail depend on which nodes crash); a deterministic workload runs its
# first scenario at least twice.
WORKLOADS = {
    "gossip-sharded": {"peak_mib": 160, "deterministic": True, "scenarios": 3},
    "phi-adaptive": {"peak_mib": 120, "deterministic": True, "scenarios": 3},
    "soak-sim-ckpt": {"peak_mib": 30, "deterministic": True, "scenarios": 5},
    "soak-udp-paced": {"peak_mib": 20, "deterministic": False, "scenarios": 3},
}
MEMORY_MARGIN_MIB = 512

# Set-up runs per invocation; set-up_s is their median.
SETUP_REPS = 15
# The regime a workload must stay in for its numbers to mean anything.
MIN_DETECTIONS = 1000
MAX_FALSE_PER_NODE_MIN = 5.0

# Fields of a worker result that a seed fixes on a deterministic workload.
OUTCOME_FIELDS = ("samples", "p50", "p99", "missed", "false", "raises",
                  "clears", "agreement", "sent", "dropped", "entries",
                  "payload_bytes", "events", "delivered", "checkpoints",
                  "fingerprint", "trace_records")

# End-to-end metrics carried in the result object (BENCHMARK.json).
END_TO_END = ("setup_s", "wall_ms_per_sim_s", "cpu_ms_per_sim_s", "peak_rss_mb",
              "rss_bytes_per_pair", "msgs_per_node_s", "detect_p50_ms",
              "detect_p99_ms")

# UDP ranges are drawn below the kernel's ephemeral range.
PORT_LO, PORT_HI = 20000, 32000
# Sockets of the traced run's UDP probe (kNodes in worker.cpp probe_transport).
UDP_PROBE_NODES = 32


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def die(msg):
    log(msg)
    sys.exit(1)


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = Path.cwd() / target
    return target


def build(bdir):
    """Configures and builds the worker (Release); a no-op when current."""
    src = HERE
    out = bdir / "perfbench"
    if not (ROOT / "src").is_dir():
        die("library sources (src/) not found next to perfbench/")
    if not (out / "CMakeCache.txt").exists():
        gen = ["-G", "Ninja"] if _has("ninja") else []
        _run_build(["cmake", "-S", str(src), "-B", str(out),
                    "-DCMAKE_BUILD_TYPE=Release"] + gen)
    _run_build(["cmake", "--build", str(out), "-j", str(min(4, os.cpu_count() or 1))])
    worker = out / "perfbench_worker"
    if not worker.exists():
        die("build produced no perfbench_worker")
    return worker


def _has(tool):
    return shutil.which(tool) is not None


def _run_build(cmd):
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-4000:])
        die(f"build failed: {' '.join(cmd)}")


# ------------------------------------------------------------ environment

def _meminfo():
    info = {}
    with open("/proc/meminfo") as f:
        for line in f:
            key, _, rest = line.partition(":")
            info[key] = int(rest.split()[0]) * 1024
    return info


def _cache_value(bdir, key):
    try:
        for line in (bdir / "perfbench" / "CMakeCache.txt").read_text().splitlines():
            if line.startswith(key + ":"):
                return line.split("=", 1)[1]
    except OSError:
        pass
    return ""


def _source_digest():
    h = hashlib.sha256()
    for path in sorted(list((ROOT / "src").rglob("*.[ch]pp")) +
                       list(HERE.glob("*.*"))):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment(bdir):
    compiler = _cache_value(bdir, "CMAKE_CXX_COMPILER")
    version = ""
    if compiler:
        try:
            version = subprocess.run([compiler, "--version"], capture_output=True,
                                     text=True).stdout.splitlines()[0]
        except (OSError, IndexError):
            pass
    sha = "none (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if proc.returncode == 0:
            sha = proc.stdout.strip()
    mem = _meminfo()
    return {
        "compiler": compiler,
        "compiler_version": version,
        "build_type": _cache_value(bdir, "CMAKE_BUILD_TYPE"),
        "git_sha": sha,
        "source_sha256": _source_digest(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "mem_total_mib": mem.get("MemTotal", 0) // m.MIB,
        "kernel": platform.release(),
    }


def memory_guard(name):
    need = WORKLOADS[name]["peak_mib"] + MEMORY_MARGIN_MIB
    avail = _meminfo().get("MemAvailable", 0) // m.MIB
    if avail < need:
        die(f"refusing {name}: {avail} MiB available, needs its recorded peak "
            f"{WORKLOADS[name]['peak_mib']} MiB + {MEMORY_MARGIN_MIB} MiB margin")


# -------------------------------------------------------------- UDP ports

class PortRanges:
    """Hands out per-invocation UDP port ranges that were free when
    test-bound and never overlap one another, so a taken range fails here
    with a message instead of aborting the soak runner mid-run."""

    def __init__(self, seed):
        self._rng = random.Random(f"{os.getpid()}-{time.time_ns()}-{seed}")
        self._used = []

    def take(self, count):
        for _ in range(64):
            base = self._rng.randrange(PORT_LO, PORT_HI - count)
            if any(base < hi and lo < base + count for lo, hi in self._used):
                continue
            if self._test_bind(base, count):
                self._used.append((base, base + count))
                return base
        die(f"no free UDP range of {count} ports in [{PORT_LO}, {PORT_HI}) "
            "on 127.0.0.1")

    @staticmethod
    def _test_bind(base, count):
        socks = []
        try:
            for port in range(base, base + count):
                s = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
                socks.append(s)
                s.bind(("127.0.0.1", port))
            return True
        except OSError:
            return False
        finally:
            for s in socks:
                s.close()


# ----------------------------------------------------------------- worker

class Worker:
    def __init__(self, exe, name, scratch, ports):
        self.exe, self.name = exe, name
        self.scratch, self.ports = scratch, ports

    def __call__(self, mode, seed):
        cmd = [str(self.exe), self.name, str(seed), mode, str(self.scratch)]
        if self.name == "soak-udp-paced":
            cmd.append(str(self.ports.take(256)))
            if mode == "traced":
                cmd.append(str(self.ports.take(UDP_PROBE_NODES)))
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE, text=True, timeout=150)
        except subprocess.TimeoutExpired:
            die(f"worker timed out ({mode})")
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr[-4000:])
            die(f"worker failed ({mode}, exit {proc.returncode})")
        return json.loads(proc.stdout.strip().splitlines()[-1])


# ----------------------------------------------------------------- checks

def regime_failures(r):
    """Checks one full run against the accepted detection regime."""
    fails = []
    owed = r["samples"] + r["missed"]
    if r["samples"] < MIN_DETECTIONS:
        fails.append(f"{r['samples']} detection samples < {MIN_DETECTIONS}")
    if not m.tail_supported(r["samples"], 0.99):
        fails.append("p99 has fewer than 10 samples beyond it")
    if r["missed"] != 0:
        fails.append(f"missed {r['missed']} of {owed} owed detections")
    if not r["agreement"]:
        fails.append("no final agreement")
    fpm = false_per_node_min(r)
    if fpm >= MAX_FALSE_PER_NODE_MIN:
        fails.append(f"{fpm:.2f} false suspicions/node/min")
    if r.get("trace_dropped", 0) != 0:
        fails.append(f"trace dropped {r['trace_dropped']} records")
    return fails


def false_per_node_min(r):
    return r["false"] / r["n"] / (r["sim_s"] / 60.0)


def run_checks(name, reps, extra):
    """Returns the list of failed checks over every timed repetition."""
    fails = []
    for i, r in enumerate(reps):
        fails += [f"rep {i}: {f}" for f in regime_failures(r)]
        if name == "soak-udp-paced":
            if r["sock_errors"] or r["queue_drops"]:
                fails.append(f"rep {i}: sock_errors={r['sock_errors']} "
                             f"queue_drops={r['queue_drops']}")
    if WORKLOADS[name]["deterministic"]:
        first = {}
        for i, r in enumerate(reps):
            ref = first.setdefault(r["seed"], r)
            diff = [k for k in OUTCOME_FIELDS if r.get(k) != ref.get(k)]
            if diff:
                fails.append(f"rep {i} (seed {r['seed']}) outcome differs from "
                             f"the seed's first run in {diff}")
    if name == "gossip-sharded" and not reps[0].get("replay_equal"):
        fails.append("replay_qos over the event trace differs from the live "
                     f"report {reps[0].get('replay_error', '')}")
    if name == "soak-sim-ckpt":
        resumed = extra["resume"]
        if not resumed["resumed"] or resumed["fingerprint"] != reps[0]["fingerprint"]:
            fails.append("resume from a mid-run checkpoint ended with "
                         f"{resumed['fingerprint']}, uninterrupted "
                         f"{reps[0]['fingerprint']}")
    return fails


# ---------------------------------------------------------------- metrics

def end_to_end(reps, setups):
    setup_wall = m.median([s["wall_s"] for s in setups])
    setup_cpu = m.median([s["cpu_s"] for s in setups])
    setup_sim = m.median([s["sim_s"] for s in setups])

    def med(f):
        return m.median([f(r) for r in reps])

    return {
        "setup_s": (setup_wall, "s"),
        "wall_ms_per_sim_s": (med(lambda r: m.per_sim_second(
            r["wall_s"], setup_wall, r["sim_s"], setup_sim)), "ms/s"),
        "cpu_ms_per_sim_s": (med(lambda r: m.per_sim_second(
            r["cpu_s"], setup_cpu, r["sim_s"], setup_sim)), "ms/s"),
        "peak_rss_mb": (med(lambda r: r["peak_rss"] / m.MIB), "MB"),
        "rss_bytes_per_pair": (med(lambda r: m.rss_bytes_per_pair(
            r["peak_rss"], r["rss_before"], r["max_nodes"])), "B"),
        "msgs_per_node_s": (med(lambda r: r["sent"] / r["n"] / r["sim_s"]), "1/s"),
        "detect_p50_ms": (med(lambda r: r["p50"]), "ms"),
        "detect_p99_ms": (med(lambda r: r["p99"]), "ms"),
        # Not in BENCHMARK.json (zero in the accepted regime, so no
        # relative bound can apply); reported and checked instead.
        "false_susp_per_node_min": (med(false_per_node_min), "1/min"),
        "missed_detect_ratio": (med(lambda r: r["missed"] / max(
            1, r["samples"] + r["missed"])), "ratio"),
    }


def per_layer(name, t, reps):
    """Per-layer metrics from the traced run `t`, with shares of the
    untraced median CPU of the same scenario; see README.md for each
    count's source."""
    soak = name.startswith("soak-")
    sim_s = t["sim_s"]
    same = [r for r in reps if r["seed"] == t["seed"]]
    u_cpu_ns = m.median([r["cpu_s"] for r in same]) * 1e9
    u_wall = m.median([r["wall_s"] for r in same])
    trace_records = m.median([r["trace_records"] for r in reps])
    trace_dropped = max(r["trace_dropped"] for r in reps)

    if soak:
        digest_calls = t["sent"]
        entries_per_msg = t["probe_digest_entries"]
        bytes_per_entry = t["probe_bytes_per_entry"]
        observe_calls = t["delivered"] * (entries_per_msg + 1)
        advances = 0  # fixed-timeout detector, inline in the node walk
        events = peak = 0
        route_calls = t["sent"]
        sync_meets, sync_ms = 0, 0.0
    else:
        digest_calls = t["prof_digest_calls"]
        entries_per_msg = t["entries"] / t["sent"]
        bytes_per_entry = t["payload_bytes"] / (t["entries"] + t["sent"])
        observe_calls = t["recv_entries"]
        advances = t["recv_advanced"] if name == "phi-adaptive" else 0
        events, peak = t["events"], t["peak_queue"]
        route_calls = t["prof_route_calls"]
        sync_meets = t.get("prof_sync_calls", 0)
        sync_ms = t.get("prof_sync_ms", 0.0)
    sent = t["sent"]
    delivered = t.get("delivered", 0)
    dropped = t["dropped"]
    trace_bytes = (m.median([r["trace_bytes"] / r["trace_records"] for r in reps])
                   if trace_records else t["probe_trace_bytes"])
    ckpt_count = t.get("checkpoints", 0)

    # Self cost of each layer over the run, in ns. Transport sends route
    # through rt::Network, so the transport's self time excludes it.
    route_ns = t["probe_route_ns"]
    costs = {
        "event_queue": events * t["probe_event_ns"],
        "topology": digest_calls * t["probe_digest_ns"],
        "codec": digest_calls * entries_per_msg * t["probe_encode_ns"] +
                 (0 if soak else observe_calls * t["probe_decode_ns"]),
        "node": observe_calls * t["probe_observe_ns"],
        "detectors": advances * (t["probe_advance_ns"] + t["probe_deadline_ns"]),
        "network": route_calls * route_ns,
        "shard_executor": sync_ms * 1e6,
        "trace_writer": trace_records * t["probe_trace_ns"],
        "transport": (sent * max(0.0, t["probe_send_ns"] - route_ns) +
                      delivered * t["probe_poll_ns"]) if soak else 0.0,
        "checkpoint": ckpt_count * t["probe_ckpt_write_ms"] * 1e6,
        "scenario_dsl": t["parse_ms"] * 1e6,
    }
    shares = m.layer_shares(costs, u_cpu_ns)

    out = {
        "event_queue.events": (events, "count"),
        "event_queue.peak": (peak, "count"),
        "event_queue.ns_per_event": (t["probe_event_ns"], "ns"),
        "topology.digest_calls": (digest_calls, "count"),
        "topology.ns_per_digest": (t["probe_digest_ns"], "ns"),
        "topology.entries_per_msg": (entries_per_msg, "count"),
        "codec.encode_ns_per_entry": (t["probe_encode_ns"], "ns"),
        "codec.decode_ns_per_entry": (t["probe_decode_ns"], "ns"),
        "codec.bytes_per_entry": (bytes_per_entry, "B"),
        "node.observe_calls": (observe_calls, "count"),
        "node.observe_ns_per_entry": (t["probe_observe_ns"], "ns"),
        "node.bytes_per_peer": (t["probe_node_bytes_per_peer"], "B"),
        "detector.advance_ns": (t["probe_advance_ns"], "ns"),
        "detector.deadline_ns": (t["probe_deadline_ns"], "ns"),
        "detector.suspects_ns": (t["probe_suspects_ns"], "ns"),
        "network.route_calls": (route_calls, "count"),
        "network.route_ns": (route_ns, "ns"),
        "network.drop_ratio": (dropped / sent if sent else 0.0, "ratio"),
        "sync.meets": (sync_meets, "count"),
        "sync.wait_ms_per_sim_s": (sync_ms / sim_s, "ms/s"),
        "sync.barrier_ns": (t["probe_barrier_ns"], "ns"),
        "trace.records_per_sim_s": (trace_records / sim_s, "1/s"),
        "trace.bytes_per_record": (trace_bytes, "B"),
        "trace.ns_per_record": (t["probe_trace_ns"], "ns"),
        "trace.dropped": (trace_dropped, "count"),
        "transport.sent": (sent if soak else 0, "count"),
        "transport.delivered_ratio": (delivered / sent if soak else 0.0, "ratio"),
        "transport.send_ns": (t["probe_send_ns"], "ns"),
        "transport.poll_ns_per_dgram": (t["probe_poll_ns"], "ns"),
        "transport.queue_drops": (t.get("queue_drops", 0), "count"),
        "transport.retries": (t.get("retries", 0), "count"),
        "transport.sock_errors": (t.get("sock_errors", 0), "count"),
        "checkpoint.count": (ckpt_count, "count"),
        "checkpoint.bytes": (t.get("checkpoint_bytes", 0), "B"),
        "checkpoint.write_ms": (t["probe_ckpt_write_ms"], "ms"),
        "checkpoint.read_ms": (t.get("ckpt_read_ms", t["probe_ckpt_read_ms"]), "ms"),
        "scenario.parse_ms": (t["parse_ms"], "ms"),
        "unattributed_pct": (shares.pop("unattributed_pct"), "%"),
        "trace_overhead_pct": (100.0 * (t["wall_s"] - u_wall) / u_wall, "%"),
    }
    for layer, pct in shares.items():
        out[f"share.{layer}_pct"] = (pct, "%")
    return out


# ------------------------------------------------------------------- main

def scenario_seeds(seed, count):
    """The scenario seeds one invocation derives from --seed."""
    return [seed * 16 + i for i in range(count)]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    bdir = build_dir()
    exe = build(bdir)
    env = environment(bdir)
    print("ENV " + json.dumps(env, sort_keys=True), flush=True)
    memory_guard(args.workload)

    scratch = bdir / "scratch" / f"{args.workload}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        result = measure(args, exe, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(result))


def measure(args, exe, scratch):
    """Runs the set-up, timed, check and (with --trace 1) traced runs and
    returns the result object."""
    worker = Worker(exe, args.workload, scratch, PortRanges(args.seed))
    spec = WORKLOADS[args.workload]
    seeds = scenario_seeds(args.seed, spec["scenarios"])
    min_reps = len(seeds) + (1 if spec["deterministic"] else 0)

    setups = [worker("setup", seeds[0]) for _ in range(SETUP_REPS)]
    reps = []
    start = time.monotonic()
    while len(reps) < min_reps or time.monotonic() - start < args.seconds:
        seed = seeds[len(reps) % len(seeds)]
        first = not reps and args.workload == "gossip-sharded"
        r = worker("replay" if first else "run", seed)
        r["seed"] = seed
        reps.append(r)
    extra = {}
    if args.workload == "soak-sim-ckpt":
        extra["resume"] = worker("resume", seeds[0])
    fails = run_checks(args.workload, reps, extra)

    e2e = end_to_end(reps, setups)
    attempted = sum(r["samples"] + r["missed"] for r in reps)
    failed = sum(r["missed"] for r in reps) + len(fails)
    if args.workload.startswith("soak-"):
        attempted += sum(r["sent"] for r in reps)
        failed += sum(r["queue_drops"] + r["sock_errors"] for r in reps)

    print("SUMMARY " + json.dumps({
        "workload": args.workload, "seed": args.seed, "reps": len(reps),
        "scenario_seeds": seeds,
        "setup_reps": len(setups), "detection_samples": reps[0]["samples"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
    }, sort_keys=True), flush=True)
    for f in fails:
        log(f"check failed: {f}")

    if args.trace:
        traced = worker("traced", seeds[0])
        traced["seed"] = seeds[0]
        chosen = per_layer(args.workload, traced, reps)
    else:
        chosen = {k: e2e[k] for k in END_TO_END}
    return {
        "correct": not fails,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in chosen.items()},
    }


if __name__ == "__main__":
    main()
