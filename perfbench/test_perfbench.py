#!/usr/bin/env python3
"""Self-test of the perfbench benchmark on short inputs (--quick).

    python3 perfbench/test_perfbench.py

Builds through run.py like a real run, then checks for every workload that
(1) the traced replay reproduces Harness::Run on every run, (2) every metric
BENCHMARK.json names is printed, with --trace 0 and with --trace 1, and
(3) the deterministic (sim-clock and count) keys are byte-identical across
two invocations with the same seed.
"""

import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["steady_long", "crash_storm", "fuzz_sweep"]
SEED = 3


def run_bench(workload, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "0.5", "--trace", str(trace),
         "--quick"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    return out.returncode, out.stdout.splitlines(), out.stderr


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)
        cls.runs = {}
        for w in WORKLOADS:
            cls.runs[w] = [run_bench(w, 1), run_bench(w, 1), run_bench(w, 0)]

    def test_runs_are_correct(self):
        for w, runs in self.runs.items():
            for rc, lines, err in runs:
                result = json.loads(lines[-1])
                self.assertEqual(rc, 0, "%s: %s" % (w, err[-2000:]))
                self.assertTrue(result["correct"], w)
                self.assertEqual(result["failed"], 0, w)
                self.assertGreaterEqual(result["attempted"], 1, w)

    def test_replay_reproduces_harness_run(self):
        for w, runs in self.runs.items():
            for _, lines, _ in runs:
                m = [re.match(r"replay (\d+)/(\d+) runs reproduce", l)
                     for l in lines]
                m = [x for x in m if x]
                self.assertEqual(len(m), 1, w)
                self.assertEqual(m[0].group(1), m[0].group(2), w)
                self.assertGreater(int(m[0].group(2)), 0, w)

    def test_every_declared_metric_is_printed(self):
        for w, runs in self.runs.items():
            for (rc, lines, _), key in ((runs[0], "per_layer"),
                                        (runs[2], "end_to_end")):
                metrics = json.loads(lines[-1])["metrics"]
                declared = {m["name"]: m["unit"] for m in self.spec[key]}
                self.assertEqual(set(metrics), set(declared), (w, key))
                for name, unit in declared.items():
                    self.assertEqual(metrics[name]["unit"], unit, name)
                    self.assertIsInstance(metrics[name]["value"],
                                          (int, float), name)

    def test_deterministic_keys_identical_across_runs(self):
        for w, runs in self.runs.items():
            det = [[l for l in lines if l.startswith("deterministic ")]
                   for _, lines, _ in runs]
            self.assertEqual(len(det[0]), 1, w)
            self.assertEqual(det[0], det[1], w)
            self.assertEqual(det[0], det[2], w)


if __name__ == "__main__":
    unittest.main()
