"""Arithmetic of the repository benchmark, kept apart from process
management so that tests/test_metrics.py can check it directly."""

import math

# A percentile is reported only when at least this many samples lie
# beyond it, so the tail it describes is supported by data.
MIN_SAMPLES_BEYOND = 10

MIB = 1 << 20


def percentile(values, q):
    """Linear-interpolated percentile, q in [0, 1] (the rule of
    rfd::Summary::percentile, so benchmark and library agree)."""
    if not values:
        raise ValueError("percentile of no values")
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must be in [0, 1]")
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(math.floor(pos))
    hi = min(lo + 1, len(ordered) - 1)
    frac = pos - lo
    return ordered[lo] * (1.0 - frac) + ordered[hi] * frac


def median(values):
    return percentile(values, 0.5)


def tail_supported(count, q):
    """True when `count` samples leave at least MIN_SAMPLES_BEYOND above
    the q-th percentile (p99 needs 1,000 samples)."""
    return count * (1.0 - q) >= MIN_SAMPLES_BEYOND - 1e-9


def per_sim_second(full, setup, full_sim_s, setup_sim_s):
    """Steady-state cost per simulated second, in milli-units per second:
    the set-up run (same config cut to one window) is subtracted from the
    full run in both its cost and its simulated time."""
    sim = full_sim_s - setup_sim_s
    if sim <= 0:
        raise ValueError("full run must simulate more than the set-up run")
    return (full - setup) * 1000.0 / sim


def rss_bytes_per_pair(peak_rss, rss_before, max_nodes):
    """Resident bytes the run added per (observer, peer) pair."""
    pairs = max_nodes * (max_nodes - 1)
    if pairs <= 0:
        raise ValueError("need at least two nodes")
    return (peak_rss - rss_before) / pairs


def layer_shares(costs_ns, total_ns):
    """Percent of `total_ns` each layer's self cost accounts for, plus
    `unattributed_pct`, the remainder; the values sum to 100."""
    if total_ns <= 0:
        raise ValueError("total must be positive")
    shares = {name: 100.0 * ns / total_ns for name, ns in costs_ns.items()}
    shares["unattributed_pct"] = 100.0 - sum(shares.values())
    return shares
