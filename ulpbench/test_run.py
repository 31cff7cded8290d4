#!/usr/bin/env python3
"""Tests of run.py's own arithmetic and of the metric declarations.

Run from the repository root:  python3 ulpbench/test_run.py
"""

import json
import os
import re
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load_benchmark():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        return json.load(f)


class MetricGrammar(unittest.TestCase):
    def test_name_rule(self):
        for ok in ["throughput_rps", "fiber.parks_per_req", "0x", "a-b.c_d"]:
            self.assertRegex(ok, NAME_RE)
        for bad in ["", ".lead", "_lead", "has space", "x" * 65, "slash/no", "ü"]:
            self.assertNotRegex(bad, NAME_RE)

    def test_unit_rule(self):
        for ok in ["ms", "s", "1/s", "count", "%", "MB", "frac", "us"]:
            self.assertRegex(ok, UNIT_RE)
        for bad in ["", "x" * 17, "per req", "µs"]:
            self.assertNotRegex(bad, UNIT_RE)

    def test_declared_metrics_follow_the_grammar(self):
        names = []
        for name, unit, better in run.END_TO_END + run.PER_LAYER:
            self.assertRegex(name, NAME_RE)
            self.assertRegex(unit, UNIT_RE)
            self.assertIn(better, ("higher", "lower"))
            names.append(name)
        self.assertEqual(len(names), len(set(names)), "a metric name is used twice")
        for w in run.WORKLOADS:
            self.assertRegex(w, NAME_RE)
        self.assertFalse(set(names) & set(run.WORKLOADS), "a workload shares a metric's name")

    def test_benchmark_json_matches_run_py(self):
        b = load_benchmark()
        self.assertEqual(
            set(b), {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
        )
        self.assertLessEqual({w["name"] for w in b["workloads"]}, set(run.WORKLOADS))
        self.assertGreaterEqual(len(b["workloads"]), 2)
        for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
            declared = [(m["name"], m["unit"], m["better"]) for m in b[key]]
            self.assertEqual(declared, table, key)
        for m in b["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25, m)
        setup = next(m for m in b["end_to_end"] if m["name"] == "setup_s")
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(setup["bound"], max(m["bound"] for m in b["end_to_end"]))
        for m in b["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for w in b["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])


# A real /proc/<pid>/stat line, with a command name holding spaces and
# parentheses: utime 1500, stime 500.
STAT = ("4242 (a (b) c) S 1 4242 4242 0 -1 4194304 700 0 0 0 "
        "1500 500 0 0 20 0 6 0 12345 100000000 2000 18446744073709551615")


class CpuWindow(unittest.TestCase):
    def test_parse_stat(self):
        self.assertAlmostEqual(run.cpu_seconds(STAT, 100), 20.0)
        self.assertAlmostEqual(run.cpu_seconds(STAT, 1000), 2.0)

    def test_per_request(self):
        # 1.5 s of server CPU over 30000 requests: 50 us each
        self.assertAlmostEqual(run.cpu_per_req_us([(10.0, 11.5)], 30000), 50.0)
        # windows of several server lives add up
        self.assertAlmostEqual(run.cpu_per_req_us([(0.0, 1.0), (5.0, 5.5)], 30000), 50.0)

    def test_rejects_bad_windows(self):
        with self.assertRaises(ValueError):
            run.cpu_per_req_us([(1.0, 2.0)], 0)
        with self.assertRaises(ValueError):
            run.cpu_per_req_us([(0.0, 1.0), (2.0, 1.0)], 10)

    def test_own_process(self):
        s = run.read_cpu_seconds(os.getpid())
        self.assertGreaterEqual(s, 0.0)


class Percentiles(unittest.TestCase):
    def test_support_rule(self):
        def label(n):
            h = run.highest(n)
            return h and h[0]

        self.assertIsNone(label(0))
        self.assertIsNone(label(19))
        self.assertEqual(label(20), "p50")
        self.assertEqual(label(999), "p90")
        self.assertEqual(label(1000), "p99")
        self.assertEqual(label(9999), "p99")
        self.assertEqual(label(10000), "p99.9")
        self.assertEqual(label(999999), "p99.99")
        self.assertEqual(label(1000000), "p99.999")
        self.assertTrue(run.supported(1000, 99, 100))
        self.assertFalse(run.supported(999, 99, 100))

    def test_nearest_rank(self):
        xs = list(range(1, 101))
        self.assertEqual(run.percentile(xs, 1, 2), 50)
        self.assertEqual(run.percentile(xs, 99, 100), 99)
        self.assertEqual(run.percentile(xs, 0, 1), 1)
        self.assertEqual(run.percentile([7], 99, 100), 7)
        with self.assertRaises(ValueError):
            run.percentile([], 1, 2)


class Aggregation(unittest.TestCase):
    def test_lists_take_the_median_over_lives(self):
        values = {n: [3.0, 1.0, 2.0] for n, _, _ in run.END_TO_END}
        values["success_frac"] = 1.0
        m = run.metrics_of(values, run.END_TO_END)
        self.assertEqual(list(m), [n for n, _, _ in run.END_TO_END])
        self.assertEqual(m["success_frac"], {"value": 1.0, "unit": "frac"})
        self.assertEqual(m["setup_s"], {"value": 2.0, "unit": "s"})

    def test_empty_list_reads_zero(self):
        values = {n: [] for n, _, _ in run.END_TO_END}
        self.assertEqual(run.metrics_of(values, run.END_TO_END)["latency_p99_us"]["value"], 0.0)

    def test_p99_only_from_lives_that_support_it(self):
        big = list(range(1, 1001))  # p99 = 990 ns, 10 samples beyond
        small = list(range(1, 999))
        lives = [{"lat_ns": big}, {"lat_ns": small}, {"lat_ns": big}]
        self.assertEqual(run.p99_lives(lives), [0.99, 0.99])

    def test_p99_falls_back_to_pooled_samples(self):
        big = list(range(1, 1001))
        small = list(range(1, 11))
        self.assertEqual(run.latency_p99([{"lat_ns": big}, {"lat_ns": small}]),
                         (0.99, "median of lives"))
        self.assertEqual(run.latency_p99([{"lat_ns": small}] * 100)[1], "pooled")
        self.assertEqual(run.latency_p99([{"lat_ns": small}]), (None, "unsupported"))

    def test_throughput_is_the_median_life(self):
        lives = [{"client": {"w_completed": n, "window_s": 0.5}} for n in (100, 10, 50)]
        self.assertAlmostEqual(run.throughput(lives), 100.0)


if __name__ == "__main__":
    unittest.main()
