"""Tests for the benchmark's own arithmetic.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import os
import sys
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import report  # noqa: E402

SPECS = [{"name": "trials_per_sec", "unit": "trials/s", "better": "higher"},
         {"name": "setup_s", "unit": "s", "better": "lower"}]


class PercentileRule(unittest.TestCase):
    def test_p90_needs_ten_samples_beyond(self):
        self.assertEqual(report.percentile(list(range(1, 101)), 0.9), 90)
        with self.assertRaises(report.Refused):
            report.percentile(list(range(1, 100)), 0.9)

    def test_median_needs_twenty_samples(self):
        self.assertEqual(report.percentile(list(range(20, 0, -1)), 0.5), 10)
        with self.assertRaises(report.Refused):
            report.percentile(list(range(19)), 0.5)

    def test_empty_is_refused(self):
        with self.assertRaises(report.Refused):
            report.percentile([], 0.5)


class SelfTime(unittest.TestCase):
    def test_overlapping_children_count_once(self):
        # Parent 0..100; two worker children 10..60 and 40..90 overlap on
        # 40..60, so together they cover 10..90.
        spans = [(1, 0, -1, "bench.round", 0, 100),
                 (2, 1, 7, "inject.runInjection", 10, 60),
                 (3, 1, 8, "inject.runInjection", 40, 90)]
        st = report.self_times(spans)
        self.assertEqual(st, {1: 20, 2: 50, 3: 50})

    def test_children_are_clipped_to_the_parent(self):
        spans = [(1, 0, -1, "bench.setup", 100, 200),
                 (2, 1, -1, "lang.compileIntoModule", 50, 150),
                 (3, 1, -1, "opt.optimize", 180, 260)]
        self.assertEqual(report.self_times(spans)[1], 30)

    def test_layer_sums(self):
        spans = [(1, 0, -1, "bench.setup", 0, 4_000_000),
                 (2, 1, -1, "lang.compileIntoModule", 0, 1_000_000),
                 (3, 1, -1, "lang.compileIntoModule", 1_000_000, 3_000_000)]
        per = report.layer_self_ms(spans)
        self.assertAlmostEqual(per["lang"], 3.0)
        self.assertAlmostEqual(per["bench"], 1.0)
        self.assertEqual(per["vm"], 0.0)

    def test_unknown_layer_is_an_error(self):
        with self.assertRaises(ValueError):
            report.layer_self_ms([(1, 0, -1, "nolayer", 0, 1)])


class FailureShare(unittest.TestCase):
    def test_share(self):
        self.assertEqual(report.failure_share(200, 0), 0.0)
        self.assertEqual(report.failure_share(200, 5), 0.025)

    def test_nothing_attempted_or_overcount(self):
        with self.assertRaises(ValueError):
            report.failure_share(0, 0)
        with self.assertRaises(ValueError):
            report.failure_share(3, 4)


class SetupSeconds(unittest.TestCase):
    def test_moves_with_the_share_of_slow_setups(self):
        # Fast setups take 4 s, slow ones 6 s. A plain median of seven slow
        # in twelve jumps to 6; the grouped figure stays in between.
        times = [4, 4, 6, 6, 6, 4, 6, 4, 6, 4, 6, 6]
        self.assertEqual(sorted(times)[6], 6)
        self.assertAlmostEqual(report.setup_seconds(times), 5.0)

    def test_groups_interleave(self):
        # Groups are setups 0,3,6,9 / 1,4,7,10 / 2,5,8,11.
        times = [1, 2, 3] * 4
        self.assertEqual(report.setup_seconds(times), 2)

    def test_one_wild_group_is_ignored(self):
        self.assertEqual(report.setup_seconds([1, 1, 100, 1, 1, 1]), 1)

    def test_too_few_setups(self):
        with self.assertRaises(ValueError):
            report.setup_seconds([1.0, 2.0])


class OutputSchema(unittest.TestCase):
    def test_result_round_trips_through_the_check(self):
        out = report.result(10, 1, {"trials_per_sec": 170.5, "setup_s": 0.2,
                                    "extra": 1}, SPECS)
        self.assertEqual(out["correct"], False)
        self.assertEqual(out["metrics"]["setup_s"],
                         {"value": 0.2, "unit": "s"})
        self.assertNotIn("extra", out["metrics"])
        report.check_result(out, SPECS)

    def test_missing_metric_is_refused(self):
        with self.assertRaises(ValueError):
            report.result(10, 0, {"trials_per_sec": 1.0}, SPECS)

    def test_check_rejects_bad_shapes(self):
        good = report.result(4, 0, {"trials_per_sec": 1.0, "setup_s": 2.0},
                             SPECS)
        bad_extra_key = dict(good, note="x")
        bad_count = dict(good, attempted=1.5)
        bad_unit = dict(good, metrics=dict(
            good["metrics"], setup_s={"value": 2.0, "unit": "ms"}))
        bad_value = dict(good, metrics=dict(
            good["metrics"], setup_s={"value": float("nan"), "unit": "s"}))
        for bad in (bad_extra_key, bad_count, bad_unit, bad_value):
            with self.assertRaises(ValueError):
                report.check_result(bad, SPECS)


if __name__ == "__main__":
    unittest.main()
