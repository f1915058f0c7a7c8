#!/usr/bin/env python3
"""Tests of the benchmark itself:  python3 e2ebench/test_bench.py

The percentile rule and the metric names of BENCHMARK.json are checked
here; ECO-stream determinism and legality and the chosen-access digest
are checked by `pao_e2e selftest`, which this builds (like run.py) and
runs.
"""

import os
import re
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


class PercentileRule(unittest.TestCase):
    def test_ten_samples_beyond(self):
        cases = {10000: 0.999, 9999: 0.99, 1000: 0.99, 999: 0.95,
                 200: 0.95, 199: 0.9, 100: 0.9, 99: 0.75, 40: 0.75,
                 39: 0.5, 20: 0.5, 19: None, 1: None}
        for n, q in cases.items():
            self.assertEqual(run.tail_level(n), q, "n=%d" % n)

    def test_interpolation(self):
        v = list(range(1, 101))  # 1..100
        self.assertEqual(run.percentile(v, 0.5), 50.5)
        self.assertAlmostEqual(run.percentile(v, 0.9), 90.1)
        self.assertEqual(run.percentile([7.0], 0.99), 7.0)
        self.assertEqual(run.percentile([3, 1, 2], 1.0), 3)

    def test_summary_reports_count_and_tail(self):
        s = run.summarize([float(x) for x in range(1000)])
        self.assertEqual((s["n"], s["tail_q"]), (1000, 0.99))
        self.assertAlmostEqual(s["p50"], 499.5)
        self.assertAlmostEqual(s["tail"], 989.01)


class MetricNames(unittest.TestCase):
    def test_names_and_units(self):
        end_to_end, per_layer = run.load_metrics()
        names = [n for n, _ in end_to_end + per_layer]
        self.assertEqual(len(names), len(set(names)))
        for name, unit in end_to_end + per_layer:
            self.assertRegex(name, NAME)
            self.assertRegex(unit, UNIT)
        self.assertIn(("setup_s", "s"), end_to_end)


class E2eSelftest(unittest.TestCase):
    def test_eco_stream_and_digest(self):
        _, exe, target = run.build()
        work = os.path.join(target, "e2ebench-work")
        os.makedirs(work, exist_ok=True)
        res = run.run_e2e(exe, ["selftest"], work, "selftest")
        self.assertEqual(res["errors"], [])
        for kind in ("move", "orient", "add", "remove", "query"):
            self.assertGreater(res["kinds"].get(kind, 0), 0, kind)


if __name__ == "__main__":
    unittest.main()
