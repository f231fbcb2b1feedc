"""Tests of the benchmark's own arithmetic.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import math
import os
import random
import unittest

import benchlib as bl

with open(os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "workloads.json")) as _f:
    WEIGHTS = json.load(_f)["query-serve"]["mix_weights"]


def req(due_us, sent_us, done_us, outcome=bl.OK):
    """A request record from microsecond times (None = never)."""
    ns = lambda t: None if t is None else int(t * 1000)  # noqa: E731
    return bl.Request(ns(due_us), ns(sent_us), ns(done_us), outcome)


class PercentileTest(unittest.TestCase):
    def test_highest_percentile_with_ten_samples_beyond(self):
        values = list(range(1, 1001))  # 1..1000
        q, value, n = bl.tail_percentile(values)
        self.assertEqual((q, value, n), (0.99, 990, 1000))
        self.assertEqual(bl.tail_percentile(values[:999])[0], 0.9)
        self.assertEqual(bl.tail_percentile(list(range(10000)))[0], 0.999)
        self.assertEqual(bl.tail_percentile(list(range(100)))[0], 0.9)
        self.assertEqual(bl.tail_percentile(list(range(20)))[0], 0.5)

    def test_unsupported_percentile_is_refused(self):
        with self.assertRaises(ValueError):
            bl.tail_percentile(list(range(19)))
        with self.assertRaises(ValueError):
            bl.supported_percentile(list(range(999)), 0.99)
        self.assertEqual(bl.supported_percentile(list(range(1000)), 0.99),
                         989)

    def test_nearest_rank(self):
        self.assertEqual(bl.percentile([5, 1, 3, 2, 4], 0.5), 3)
        self.assertEqual(bl.percentile([7], 0.99), 7)


class OpenLoopTest(unittest.TestCase):
    def test_latency_counts_from_due_time_not_send_time(self):
        # The generator sent 300 us late; the server answered 50 us after
        # the send.  The user-visible latency is 350 us.
        records = [req(1000, 1300, 1350)]
        self.assertEqual(bl.latencies_us(records), [350.0])
        self.assertEqual(bl.lags_us(records), [300.0])

    def test_stall_charges_every_delayed_request(self):
        # A 1 ms stall at t=0 holds three requests due 0, 100, 200 us; all
        # are answered at 1000 us.
        records = [req(d, d, 1000) for d in (0, 100, 200)]
        self.assertEqual(bl.latencies_us(records), [1000.0, 900.0, 800.0])

    def test_failed_requests_are_not_latency_samples(self):
        records = [req(0, 0, 10), req(0, 0, 20, bl.BUSY),
                   req(0, 0, None, bl.UNANSWERED), req(0, 0, 5, bl.MISMATCH)]
        self.assertEqual(bl.latencies_us(records), [10.0])
        self.assertEqual(bl.miss_latencies_us(records),
                         [10.0, math.inf, math.inf, math.inf])

    def test_backlog_series_and_growth(self):
        # Each request answered 150 us after it was due, one due every
        # 100 us: never more than two outstanding.
        steady = [req(100 * i, 100 * i, 100 * i + 150) for i in range(40)]
        series = bl.backlog_series(steady)
        self.assertEqual(max(series), 2)
        self.assertFalse(bl.backlog_grows(series))
        # Answers fall further behind every request: the backlog grows.
        growing = [req(100 * i, 100 * i, 100 * i + 60 * i * i)
                   for i in range(40)]
        self.assertTrue(bl.backlog_grows(bl.backlog_series(growing)))
        # Unanswered requests stay outstanding.
        self.assertEqual(bl.backlog_series([req(0, 0, None), req(10, 10, 20)]),
                         [1, 2])

    def test_windowed_percentile_is_median_of_windows(self):
        window_ns = 1000 * 1000  # 1 ms
        records = []
        for w, latency in enumerate((100, 200, 5000)):
            for i in range(20):
                due = w * 1000 + i
                records.append(req(due, due, due + latency))
        value, used = bl.windowed_percentile(records, window_ns, 0.5)
        self.assertEqual((value, used), (200.0, 3))


class MaxRateTest(unittest.TestCase):
    WINDOW_NS = 10 ** 9

    def rung(self, n, failed):
        records = [req(10 * i, 10 * i, 10 * i + 100) for i in range(n)]
        for r in records[:failed]:
            r.outcome = bl.BUSY
        return records

    def test_failed_request_counts_as_a_miss(self):
        # 1000 requests at 100 us: p99 is 100 us, within a 2 ms limit...
        self.assertTrue(bl.rung_passes(self.rung(1000, 0), 2000,
                                       self.WINDOW_NS))
        # ...and 2% refused pushes p99 to a miss, even though every
        # answered request was fast.
        self.assertFalse(bl.rung_passes(self.rung(1000, 20), 2000,
                                        self.WINDOW_NS))
        # Under 1% refused still passes.
        self.assertTrue(bl.rung_passes(self.rung(1000, 5), 2000,
                                       self.WINDOW_NS))

    def test_growing_backlog_fails_the_rung(self):
        records = [req(100 * i, 100 * i, 100 * i + 3 * i * i)
                   for i in range(1000)]
        self.assertFalse(bl.rung_passes(records, 10 ** 9, self.WINDOW_NS))

    def test_max_passing_rate(self):
        self.assertEqual(bl.max_passing_rate([(10, True), (20, True),
                                              (30, False)]), 20)
        self.assertEqual(bl.max_passing_rate([(10, False)]), 0.0)

    def test_ladder_walk(self):
        rates = bl.ladder(100.0, 2.0, 2, 2)
        self.assertEqual(rates, [25.0, 50.0, 100.0, 200.0, 400.0])
        capacity = 150.0
        up = bl.walk_ladder(rates, 2, lambda r: r <= capacity)
        self.assertEqual(up, [(100.0, True), (200.0, False)])
        self.assertEqual(bl.max_passing_rate(up), 100.0)
        down = bl.walk_ladder(rates, 2, lambda r: r <= 30.0)
        self.assertEqual(down, [(100.0, False), (50.0, False), (25.0, True)])
        self.assertEqual(bl.max_passing_rate(down), 25.0)


class SelfTimeTest(unittest.TestCase):
    def test_self_time_subtracts_children_coverage(self):
        spans = [
            {"id": 1, "parent": 0, "ts": 0, "dur": 100},
            {"id": 2, "parent": 1, "ts": 10, "dur": 20},    # 10..30
            {"id": 3, "parent": 1, "ts": 20, "dur": 30},    # 20..50 overlaps
            {"id": 4, "parent": 1, "ts": 90, "dur": 30},    # clipped at 100
            {"id": 5, "parent": 2, "ts": 12, "dur": 5},     # grandchild
        ]
        self_s = bl.self_times(spans)
        self.assertEqual(self_s[1], 100 - 40 - 10)
        self.assertEqual(self_s[2], 15)
        self.assertEqual(self_s[3], 30)
        self.assertEqual(self_s[5], 5)


class ZipfTest(unittest.TestCase):
    def test_same_seed_same_keys(self):
        a = bl.ZipfSampler(1000, 1.1, 7)
        b = bl.ZipfSampler(1000, 1.1, 7)
        self.assertEqual([a.draw() for _ in range(500)],
                         [b.draw() for _ in range(500)])
        self.assertEqual(a.hot(10), b.hot(10))

    def test_other_seed_other_keys(self):
        a = bl.ZipfSampler(1000, 1.1, 7)
        c = bl.ZipfSampler(1000, 1.1, 8)
        self.assertNotEqual(a.hot(10), c.hot(10))
        self.assertNotEqual([a.draw() for _ in range(50)],
                            [c.draw() for _ in range(50)])

    def test_skew(self):
        sampler = bl.ZipfSampler(1000, 1.1, 3)
        draws = [sampler.draw() for _ in range(20000)]
        hottest = sampler.hot(1)[0]
        # Rank 1 of Zipf(1.1) over 1000 keys has p ~ 0.15; uniform is 0.001.
        self.assertGreater(draws.count(hottest) / len(draws), 0.1)
        self.assertTrue(all(0 <= k < 1000 for k in draws))

    def test_schedule_is_deterministic_and_valid(self):
        def make(seed):
            rng = random.Random(seed)
            mix = bl.RequestMix(bl.ZipfSampler(500, 1.1, seed), rng,
                                [[1, 2, 3]], WEIGHTS)
            return bl.schedule(2000, 1.0, mix, rng)
        first, again = make(5), make(5)
        self.assertEqual(first, again)
        self.assertNotEqual(first, make(6))
        dues = [d for d, _ in first]
        self.assertEqual(dues, sorted(dues))
        self.assertTrue(1500 < len(first) < 2500)
        kinds = {line.split()[0] for _, line in first}
        self.assertEqual(kinds, set(WEIGHTS))
        for _, line in first:
            if line.startswith("common-neighbors"):
                _, u, v = line.split()
                self.assertNotEqual(u, v)

    def test_priming_covers_every_fixed_operand_line(self):
        rng = random.Random(9)
        mix = bl.RequestMix(bl.ZipfSampler(500, 1.1, 9), rng,
                            [[1, 2, 3], [4, 5]], WEIGHTS)
        primed = set(mix.priming_lines())
        for _, line in bl.schedule(5000, 1.0, mix, rng):
            if line.split()[0] in ("top-hubs", "paraclique-expand",
                                   "kcore-membership"):
                self.assertIn(line, primed)


if __name__ == "__main__":
    unittest.main()
