#!/usr/bin/env python3
"""Tests of the benchmark itself.

Run from the repository root (builds the driver on first use):

    python3 perfbench/test_perfbench.py

Each test invokes run.py exactly as the benchmark contract does, with a
one-second measuring window (the driver still makes a warm-up run and
three repeats), and parses its last two stdout lines: the provenance
report and the result object.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SIM_METRICS = ("sim_time_us", "sim_energy_uj", "sim_p50_us", "sim_p99_us",
               "sim_goodput_mqps")

_runs = {}


def bench(workload, seed, trace, force_fail=False, fresh=False):
    """(report, result) of one run.py invocation; cached unless fresh."""
    key = (workload, seed, trace, force_fail)
    if fresh or key not in _runs:
        cmd = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", "1", "--trace", str(trace)]
        if force_fail:
            cmd.append("--force-fail")
        out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                             text=True, check=True).stdout
        lines = out.splitlines()
        _runs[key] = (json.loads(lines[-2])["report"], json.loads(lines[-1]))
    return _runs[key]


def declared(section):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[section]}


class PerfbenchTest(unittest.TestCase):
    def test_same_seed_gives_same_outcome(self):
        report_a, result_a = bench("pagerank-dl16", 3, 0)
        report_b, result_b = bench("pagerank-dl16", 3, 0, fresh=True)
        self.assertTrue(result_a["correct"])
        self.assertTrue(result_b["correct"])
        self.assertEqual(report_a["digest"], report_b["digest"])
        for name in SIM_METRICS:
            self.assertEqual(result_a["metrics"][name],
                             result_b["metrics"][name], name)

    def test_traced_run_matches_untraced(self):
        untraced, _ = bench("pagerank-dl16", 3, 0)
        traced, result = bench("pagerank-dl16", 3, 1)
        # The driver checks every run of the invocation (repeats, the
        # hooked run and the traced run) against the first repeat.
        self.assertTrue(traced["identical"])
        self.assertTrue(result["correct"])
        self.assertEqual(traced["digest"], untraced["digest"])
        self.assertEqual(result["metrics"]["obs.dropped"]["value"], 0)
        self.assertGreater(result["metrics"]["obs.records"]["value"], 0)

    def test_metric_names_match_benchmark_json(self):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            _, result = bench("pagerank-dl16", 3, trace)
            printed = {n: m["unit"] for n, m in result["metrics"].items()}
            self.assertEqual(printed, declared(section), section)

    def test_forced_verification_failure_fails_every_attempt(self):
        for workload in ("pagerank-dl16", "kv-dl8-ber"):
            report, result = bench(workload, 3, 0, force_fail=True)
            self.assertFalse(result["correct"], workload)
            self.assertGreater(result["attempted"], 0, workload)
            self.assertEqual(result["failed"], result["attempted"], workload)
            self.assertEqual(report["failedFrac"], 1, workload)


if __name__ == "__main__":
    unittest.main()
