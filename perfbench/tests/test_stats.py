"""Self-tests of the benchmark's statistics.

    python3 -m unittest discover -s perfbench/tests
"""

import os
import statistics
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import stats  # noqa: E402


def ramp_step(rate, n, base_us, growth_us=0.0, p99_us=None):
    """A synthetic ladder step: n requests due every 1/rate s, each answered
    base_us after its due time plus a share of growth_us that rises linearly
    over the step; with p99_us the slowest 2% take that long instead, so
    that is the step's nearest-rank p99."""
    due = [int(i * 1e9 / rate) for i in range(n)]
    lat = [base_us + growth_us * i / n for i in range(n)]
    if p99_us is not None:
        for i in range(n - n // 50, n):
            lat[i] = p99_us
    done = [d + int(l * 1e3) for d, l in zip(due, lat)]
    return {"rate": rate, "due_ns": due, "sent_ns": due, "done_ns": done, "failed": 0}


class PercentileRule(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(stats.percentile(values, 0.5), 50)
        self.assertEqual(stats.percentile(values, 0.99), 99)
        self.assertEqual(stats.percentile(values, 1.0), 100)
        self.assertEqual(stats.percentile([7], 0.99), 7)
        self.assertEqual(stats.percentile(list(reversed(values)), 0.5), 50)

    def test_tail_needs_ten_samples_beyond(self):
        self.assertEqual(stats.beyond(1000, 0.99), 10)
        self.assertEqual(stats.tail(list(range(1000)))[0], 0.99)
        # 999 samples leave only 9 beyond p99, so p95 is the reported tail.
        self.assertEqual(stats.beyond(999, 0.99), 9)
        self.assertEqual(stats.tail(list(range(999)))[0], 0.95)
        self.assertEqual(stats.tail(list(range(100)))[0], 0.9)
        self.assertEqual(stats.tail(list(range(20)))[0], 0.5)

    def test_tail_falls_back_to_the_median(self):
        q, value = stats.tail([5, 1, 9])
        self.assertEqual((q, value), (0.5, 5))

    def test_tail_never_above_the_wanted_percentile(self):
        self.assertEqual(stats.tail(list(range(100000)), wanted=0.9)[0], 0.9)


class Quartiles(unittest.TestCase):
    def test_match_statistics_quantiles(self):
        values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0, 6.0, 5.5, 3.5]
        self.assertEqual(list(stats.quartiles(values)),
                         statistics.quantiles(values, n=4))


class OpenLoop(unittest.TestCase):
    def test_latency_counts_from_the_due_time(self):
        # Three requests due at 0, 1 and 2 ms.  A 5 ms stall at the start
        # delays the first answer and, behind it, the next two: timed from
        # their send they look fast, timed from their due time they do not.
        due = [0, 1_000_000, 2_000_000]
        sent = [0, 5_000_000, 5_000_000]
        done = [5_100_000, 5_200_000, 5_300_000]
        self.assertEqual(stats.due_latencies_us(due, done), [5100.0, 4200.0, 3300.0])
        self.assertEqual(stats.send_lag_us(due, sent), [0.0, 4000.0, 3000.0])

    def test_failed_requests_have_no_latency(self):
        self.assertEqual(stats.due_latencies_us([0, 10, 20], [100, 0, 150]),
                         [0.1, 0.13])

    def test_backlog_growth(self):
        flat = ramp_step(1000, 400, 200.0)
        growing = ramp_step(1000, 400, 200.0, growth_us=8000.0)
        self.assertAlmostEqual(stats.backlog_growth_us(flat["due_ns"], flat["done_ns"]), 0.0)
        self.assertGreater(stats.backlog_growth_us(growing["due_ns"], growing["done_ns"]),
                           stats.BACKLOG_LIMIT_US)

    def test_step_verdict(self):
        self.assertTrue(stats.step_verdict(ramp_step(1000, 1000, 300.0))[0])
        self.assertFalse(stats.step_verdict(ramp_step(1000, 1000, 300.0, p99_us=20000.0))[0])
        self.assertFalse(stats.step_verdict(ramp_step(1000, 1000, 300.0, growth_us=8000.0))[0])
        failed = ramp_step(1000, 1000, 300.0)
        failed["failed"] = 1
        self.assertFalse(stats.step_verdict(failed)[0])


class MaxRate(unittest.TestCase):
    def test_interpolates_between_the_last_pass_and_the_next_step(self):
        steps = [ramp_step(1000, 1000, 300.0, p99_us=1000.0),
                 ramp_step(2000, 1000, 300.0, p99_us=100000.0)]
        # log-midpoint: p99 crosses 10 ms halfway between 1 ms and 100 ms.
        self.assertAlmostEqual(stats.max_rate(steps), 1500.0, places=6)

    def test_a_noisy_failure_below_the_highest_pass_is_ignored(self):
        steps = [ramp_step(1000, 1000, 300.0, p99_us=50000.0),
                 ramp_step(2000, 1000, 300.0, p99_us=1000.0),
                 ramp_step(3000, 1000, 300.0, p99_us=10000.0),
                 ramp_step(4000, 1000, 300.0, p99_us=1e6)]
        self.assertAlmostEqual(stats.max_rate(steps), 3000.0)

    def test_edges(self):
        self.assertEqual(stats.max_rate([ramp_step(1000, 1000, 300.0, p99_us=1e5)]), 0.0)
        self.assertEqual(stats.max_rate([ramp_step(1000, 1000, 300.0)]), 1000.0)


class Pairs(unittest.TestCase):
    def test_overhead_can_come_out_positive(self):
        pairs = [(1.00, 1.03), (1.00, 1.02), (2.00, 2.06), (1.00, 1.01), (1.00, 1.04)]
        pct, spread = stats.overhead_pct(pairs)
        self.assertAlmostEqual(pct, 3.0)
        self.assertGreater(spread, 0.0)

    def test_overhead_is_not_clamped(self):
        pct, _ = stats.overhead_pct([(1.0, 0.98), (1.0, 0.99), (1.0, 0.97)])
        self.assertAlmostEqual(pct, -2.0)

    def test_pair_wins_ties_count_for_neither(self):
        parent = [10, 10, 10, 10]
        change = [11, 10, 9, 12]
        self.assertEqual(stats.pair_wins(parent, change, "higher"), 0.5)
        self.assertEqual(stats.pair_wins(parent, change, "lower"), 0.25)
        with self.assertRaises(ValueError):
            stats.pair_wins([1, 2], [1])

    def test_claims_gain(self):
        parent = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
        better = [110, 111, 109, 110, 112, 108, 110, 111, 109, 110]
        self.assertTrue(stats.claims_gain(parent, better, "higher"))
        self.assertFalse(stats.claims_gain(parent, better, "lower"))
        # Wins every pair but moves less than the parent's own spread.
        barely = [p + 0.5 for p in parent]
        self.assertFalse(stats.claims_gain(parent, barely, "higher"))
        # Big median move but only 8 of 10 pairs won.
        mixed = better[:8] + [90, 90]
        self.assertFalse(stats.claims_gain(parent, mixed, "higher"))


if __name__ == "__main__":
    unittest.main()
