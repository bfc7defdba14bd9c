"""Unit tests of the benchmark's statistics rules and run comparison.

    cd perfbench && python3 -m unittest test_benchstats
"""

import io
import json
import math
import os
import sys
import tempfile
import unittest

sys.dont_write_bytecode = True
import benchstats  # noqa: E402
import compare_runs  # noqa: E402
import run  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(benchstats.percentile(values, 50), 50)
        self.assertEqual(benchstats.percentile(values, 99), 99)
        self.assertEqual(benchstats.percentile(values, 100), 100)
        self.assertEqual(benchstats.percentile([7.0], 99), 7.0)
        self.assertEqual(benchstats.percentile([], 50), 0.0)

    def test_null_is_infinity(self):
        self.assertEqual(benchstats.percentile([1.0, None], 100), math.inf)

    def test_samples_beyond(self):
        self.assertEqual(benchstats.samples_beyond(1000, 99), 10)
        self.assertEqual(benchstats.samples_beyond(999, 99), 9)
        self.assertEqual(benchstats.samples_beyond(1200, 99), 12)
        self.assertEqual(benchstats.samples_beyond(0, 99), 0)

    def test_percentile_needs_ten_beyond(self):
        self.assertFalse(benchstats.percentile_supported(19, 50))
        self.assertTrue(benchstats.percentile_supported(20, 50))
        self.assertFalse(benchstats.percentile_supported(999, 99))
        self.assertTrue(benchstats.percentile_supported(1000, 99))
        self.assertTrue(benchstats.percentile_supported(1200, 99))
        self.assertFalse(benchstats.percentile_supported(960, 99))
        self.assertFalse(benchstats.percentile_supported(9999, 99.9))
        self.assertTrue(benchstats.percentile_supported(10000, 99.9))


class GmeanTest(unittest.TestCase):
    def test_plain(self):
        self.assertAlmostEqual(benchstats.clipped_gmean([1.0, 100.0]), 10.0)
        self.assertAlmostEqual(benchstats.clipped_gmean([2.0, 2.0, 2.0]), 2.0)

    def test_clips_infinity_and_null(self):
        self.assertAlmostEqual(benchstats.clipped_gmean([None]) / 1e10, 1.0)
        self.assertAlmostEqual(
            benchstats.clipped_gmean([math.inf, 1.0]) / 1e5, 1.0)
        self.assertAlmostEqual(benchstats.clipped_gmean([1e12, 1e8]) / 1e9,
                               1.0)

    def test_empty(self):
        self.assertEqual(benchstats.clipped_gmean([]), 0.0)


class CompareTest(unittest.TestCase):
    BASE = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]

    def test_unchanged(self):
        change = [v + 0.01 for v in self.BASE]
        result = benchstats.compare(self.BASE, change[::-1], "higher", 0.1)
        self.assertEqual(result["verdict"], "unchanged")

    def test_worse_beyond_bound(self):
        change = [v * 0.8 for v in self.BASE]
        result = benchstats.compare(self.BASE, change, "higher", 0.1)
        self.assertEqual(result["verdict"], "worse")
        result = benchstats.compare(self.BASE, [v * 1.2 for v in self.BASE],
                                    "lower", 0.1)
        self.assertEqual(result["verdict"], "worse")

    def test_within_bound_is_not_worse(self):
        change = [v * 0.95 for v in self.BASE]
        result = benchstats.compare(self.BASE, change, "higher", 0.1)
        self.assertEqual(result["verdict"], "unchanged")
        self.assertEqual(result["wins"], 0.0)

    def test_better_needs_nine_in_ten_pairs(self):
        change = [v * 1.05 for v in self.BASE]
        result = benchstats.compare(self.BASE, change, "higher", 0.1)
        self.assertEqual(result["verdict"], "better")
        self.assertEqual(result["wins"], 1.0)
        # Two lost pairs out of ten: no gain can be claimed.
        mixed = change[:8] + [v * 0.99 for v in self.BASE[8:]]
        result = benchstats.compare(self.BASE, mixed, "higher", 0.1)
        self.assertEqual(result["verdict"], "unchanged")

    def test_wide_spread_is_unresolved(self):
        noisy = [50.0, 150.0, 60.0, 140.0, 100.0, 70.0, 130.0, 90.0, 110.0,
                 100.0]
        result = benchstats.compare(self.BASE, noisy, "lower", 0.1)
        self.assertEqual(result["verdict"], "unresolved")

    def test_clear_regression_with_wide_spread_is_worse(self):
        noisy = [50.0, 150.0, 60.0, 140.0, 100.0, 70.0, 130.0, 90.0, 110.0,
                 100.0]
        # Ten times slower: far beyond the bound and the base's quartiles.
        result = benchstats.compare(noisy, [v * 10 for v in noisy], "lower",
                                    0.1)
        self.assertEqual(result["verdict"], "worse")
        result = benchstats.compare(noisy, [v / 10 for v in noisy], "higher",
                                    0.1)
        self.assertEqual(result["verdict"], "worse")
        # Beyond the bound but inside the base's quartiles: unresolved.
        result = benchstats.compare(noisy, [v * 1.2 for v in noisy], "lower",
                                    0.1)
        self.assertEqual(result["verdict"], "unresolved")

    def test_every_run_better_overrides_spread(self):
        noisy = [10.0, 30.0, 12.0, 28.0, 20.0, 14.0, 26.0, 18.0, 22.0, 20.0]
        result = benchstats.compare(self.BASE, noisy, "lower", 0.1)
        self.assertEqual(result["verdict"], "better")

    def test_quartiles_match_statistics_quantiles(self):
        q1, q2, q3 = benchstats.quartiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
        self.assertEqual((q1, q2, q3), (2.75, 5.5, 8.25))
        self.assertAlmostEqual(benchstats.spread([1, 2, 3, 4, 5, 6, 7, 8, 9,
                                                  10]), 5.5 / 5.5)


def result(workload, seed, values):
    return {"workload": workload, "seed": seed, "trace": 0, "correct": True,
            "metrics": {name: {"value": v, "unit": "x"}
                        for name, v in values.items()}}


class CompareRunsTest(unittest.TestCase):
    BENCH = {"end_to_end": [
        {"name": "sat_qps", "unit": "1/s", "better": "higher",
         "bound": 0.1},
        {"name": "lat_p99_ms", "unit": "ms", "better": "lower",
         "bound": 0.1}]}

    def write_set(self, directory, scale_qps, scale_lat, noise):
        for seed in range(10):
            wobble = 1.0 + noise * ((-1) ** seed) * (seed % 3)
            values = {"sat_qps": 1000.0 * scale_qps * wobble,
                      "lat_p99_ms": 20.0 * scale_lat * wobble}
            path = os.path.join(directory, "w-s%d.json" % seed)
            with open(path, "w") as f:
                json.dump(result("w", seed, values), f)

    def test_verdicts_on_synthetic_sets(self):
        with tempfile.TemporaryDirectory() as base_dir, \
                tempfile.TemporaryDirectory() as change_dir:
            self.write_set(base_dir, 1.0, 1.0, 0.002)
            self.write_set(change_dir, 1.5, 1.3, 0.002)
            out = io.StringIO()
            verdicts = compare_runs.compare_sets(
                self.BENCH, compare_runs.load_set(base_dir),
                compare_runs.load_set(change_dir), out)
            self.assertEqual(verdicts, ["better", "worse"])
            self.assertIn("worse", out.getvalue())

    def test_noisy_change_is_unresolved(self):
        with tempfile.TemporaryDirectory() as base_dir, \
                tempfile.TemporaryDirectory() as change_dir:
            self.write_set(base_dir, 1.0, 1.0, 0.002)
            self.write_set(change_dir, 1.0, 1.0, 0.2)
            verdicts = compare_runs.compare_sets(
                self.BENCH, compare_runs.load_set(base_dir),
                compare_runs.load_set(change_dir), io.StringIO())
            self.assertEqual(verdicts, ["unresolved", "unresolved"])


class DeriveMetricsTest(unittest.TestCase):
    def test_anytime_metrics_from_raw_record(self):
        raw = {
            "config": {"kind": "anytime", "k": 10, "checkpoints": 4},
            "setup_s": [0.3, 0.1, 0.2],
            "scalars": {"peak_rss_mb": 64.0},
            "samples": {"lat_ms": [1.0] * 99 + [5.0]},
            "queries": [
                # Median time to K: 100 ms and 300 ms.
                {"ttk_ms": [90.0, 100.0, 500.0],
                 "alpha_ckpt": [4, 2, 1, 1, 8, 2, 1, 1, 2, 2, 1, 1]},
                {"ttk_ms": [300.0],
                 "alpha_ckpt": [None, 100, 10, 1]},
            ],
            "alpha": [],
        }
        metrics = run.end_to_end(raw)
        self.assertAlmostEqual(metrics["setup_s"], 0.2)
        self.assertAlmostEqual(metrics["sat_qps"], 2 / 0.4)
        self.assertEqual(metrics["lat_p50_ms"], 1.0)
        self.assertEqual(metrics["lat_p99_ms"], 1.0)
        # Per checkpoint median over repetitions, then clipped gmean:
        # [4, 2, 1, 1] and [1e10, 100, 10, 1].
        expected = benchstats.clipped_gmean([4, 2, 1, 1, None, 100, 10, 1])
        self.assertAlmostEqual(metrics["alpha_gmean"], expected)

    def test_layer_metrics_default_to_zero_off_path(self):
        raw = {"scalars": {"climb.ms": 2.5},
               "samples": {"sched.queue_ms": [1.0, 2.0, 3.0]}}
        metrics = run.per_layer(raw, ["climb.ms", "sched.queue_ms_p50",
                                      "router.submit_us_p99"])
        self.assertEqual(metrics, {"climb.ms": 2.5, "sched.queue_ms_p50": 2.0,
                                   "router.submit_us_p99": 0.0})


if __name__ == "__main__":
    unittest.main()
