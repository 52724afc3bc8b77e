"""Short-mode test of the benchmark driver.

Run from the repository root:

    python3 perfbench/tests/test_short.py

Builds the driver, runs every workload once untraced on the default
seed (so its recorded output digest is checked) and once traced on
the held-out seed, each in --short mode (one set-up, the fewest
passes that still compare two), and checks that every metric
BENCHMARK.json names is reported with its unit, that operations were
attempted and none failed, and that the deterministic counts of
every pass are identical.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402  (perfbench/run.py)

# A count each workload must report as nonzero, proving its layers ran.
EXERCISED = {
    "analyze": ["ace.instrs", "ace.segments", "sweep.calls"],
    "explore": ["arena.segments", "sweep.calls", "attr.calls"],
    "campaign": ["trials.count", "stratify.strata"],
}


class ShortModeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)
        with open(os.path.join(BENCH, "digests.json")) as f:
            seeds = json.load(f)
        run.build()
        cls.runs = {}
        cls.logs = {}
        for workload in run.WORKLOADS:
            for trace in (0, 1):
                seed = seeds["held_out_seed" if trace else "default_seed"]
                out = subprocess.run(
                    [sys.executable, os.path.join(BENCH, "run.py"),
                     "--workload", workload, "--seed", str(seed),
                     "--seconds", "1", "--trace", str(trace), "--short"],
                    cwd=ROOT, capture_output=True, text=True, check=True)
                lines = out.stdout.strip().splitlines()
                cls.runs[workload, trace] = (json.loads(lines[-2]),
                                             json.loads(lines[-1]))
                cls.logs[workload, trace] = out.stderr[-2000:]

    def test_every_metric_reported_with_unit(self):
        for (workload, trace), (_, result) in self.runs.items():
            listed = self.spec["per_layer" if trace else "end_to_end"]
            metrics = result["metrics"]
            self.assertEqual(sorted(metrics),
                             sorted(m["name"] for m in listed),
                             (workload, trace))
            for m in listed:
                self.assertEqual(metrics[m["name"]]["unit"], m["unit"],
                                 (workload, m["name"]))
                if trace == 0:
                    self.assertGreater(metrics[m["name"]]["value"], 0,
                                       (workload, m["name"]))

    def test_ops_attempted_and_none_failed(self):
        for key, (_, result) in self.runs.items():
            self.assertGreater(result["attempted"], 0, key)
            self.assertEqual(result["failed"], 0, (key, self.logs[key]))
            self.assertTrue(result["correct"], key)
            if key[1] == 1:
                self.assertEqual(
                    result["metrics"]["ops_failed_frac"]["value"], 0, key)

    def test_layers_exercised(self):
        for (workload, trace), (_, result) in self.runs.items():
            if trace:
                for name in EXERCISED[workload]:
                    self.assertGreater(result["metrics"][name]["value"], 0,
                                       (workload, name))

    def test_counts_repeat_across_passes(self):
        for key, (short, _) in self.runs.items():
            passes = short["short_pass_counts"]
            self.assertGreaterEqual(len(passes), 2, key)
            for counts in passes[1:]:
                self.assertEqual(counts, passes[0], key)


if __name__ == "__main__":
    unittest.main()
