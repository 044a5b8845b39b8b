"""Tests for the benchmark's own arithmetic.

    python3 -m unittest discover -s perfbench/tests
"""

import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import metrics as m  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_interpolates_between_ranks(self):
        values = [40.0, 10.0, 30.0, 20.0]
        self.assertEqual(m.percentile(values, 0.0), 10.0)
        self.assertEqual(m.percentile(values, 1.0), 40.0)
        # pos = 0.5 * 3 = 1.5: halfway between 20 and 30.
        self.assertAlmostEqual(m.percentile(values, 0.5), 25.0)
        self.assertAlmostEqual(m.median(values), 25.0)

    def test_p99_of_a_ramp(self):
        values = list(range(1, 1001))  # 1..1000
        # pos = 0.99 * 999 = 989.01 -> 990 + 0.01
        self.assertAlmostEqual(m.percentile(values, 0.99), 990.01)

    def test_rejects_empty_and_out_of_range(self):
        with self.assertRaises(ValueError):
            m.percentile([], 0.5)
        with self.assertRaises(ValueError):
            m.percentile([1.0], 1.5)


class SupportedTailTest(unittest.TestCase):
    def test_p99_needs_ten_samples_beyond(self):
        self.assertTrue(m.tail_supported(1000, 0.99))
        self.assertTrue(m.tail_supported(16128, 0.99))
        self.assertFalse(m.tail_supported(999, 0.99))
        self.assertTrue(m.tail_supported(20, 0.5))
        self.assertFalse(m.tail_supported(19, 0.5))


class PerSimSecondTest(unittest.TestCase):
    def test_subtracts_setup_cost_and_setup_sim_time(self):
        # 4.5 s wall for 10 s simulated; set-up took 0.5 s for 0.05 s.
        got = m.per_sim_second(4.5, 0.5, 10.0, 0.05)
        self.assertAlmostEqual(got, 4000.0 / 9.95)

    def test_paced_run_reads_its_pacing_floor(self):
        # A run paced at 0.5 wall ms per sim ms, whose set-up run covered
        # one 100 ms tick (50 ms of pacing plus 20 ms of binds).
        setup = 0.02 + 0.05
        full = 0.02 + 12.0 * 0.5
        self.assertAlmostEqual(m.per_sim_second(full, setup, 12.0, 0.1), 500.0)

    def test_rejects_setup_as_long_as_run(self):
        with self.assertRaises(ValueError):
            m.per_sim_second(1.0, 0.5, 0.1, 0.1)


class RssPerPairTest(unittest.TestCase):
    def test_divides_growth_by_ordered_pairs(self):
        # 256 nodes: 65,280 (observer, peer) pairs.
        before, peak = 3 << 20, 3 * (1 << 20) + 65280 * 100
        self.assertAlmostEqual(m.rss_bytes_per_pair(peak, before, 256), 100.0)

    def test_rejects_single_node(self):
        with self.assertRaises(ValueError):
            m.rss_bytes_per_pair(10, 0, 1)


class LayerSharesTest(unittest.TestCase):
    def test_shares_and_remainder_sum_to_100(self):
        costs = {"node": 3e9, "topology": 1e9, "event_queue": 2.5e7}
        shares = m.layer_shares(costs, 8e9)
        self.assertAlmostEqual(shares["node"], 37.5)
        self.assertAlmostEqual(shares["topology"], 12.5)
        self.assertAlmostEqual(shares["unattributed_pct"], 100 - 37.5 - 12.5 - 0.3125)
        self.assertAlmostEqual(sum(shares.values()), 100.0)

    def test_overattribution_shows_as_negative_remainder(self):
        shares = m.layer_shares({"a": 6.0, "b": 6.0}, 10.0)
        self.assertAlmostEqual(shares["unattributed_pct"], -20.0)
        self.assertAlmostEqual(sum(shares.values()), 100.0)


if __name__ == "__main__":
    unittest.main()
