"""Smoke-mode self-tests of the benchmark.

    python3 perfbench/selftest.py

Runs every workload at tiny sizes (``--smoke``) and asserts that every
metric named in ``BENCHMARK.json`` is emitted with its unit, that the
per-layer counts are identical across two runs, and that the traced
run's trajectory fingerprint equals the untraced one (the run itself
gates on that; the test reads it back from the result file).
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload, trace, seed=3):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed",
         str(seed), "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads(
        (ROOT / ".perfbench_out" / "results" / f"{workload}-seed{seed}-trace{trace}.json")
        .read_text())
    return proc.returncode, last, record


class SmokeTest(unittest.TestCase):
    def assert_metrics(self, metrics, spec):
        self.assertEqual(set(metrics), {m["name"] for m in spec})
        for m in spec:
            self.assertEqual(metrics[m["name"]]["unit"], m["unit"], m["name"])
            self.assertIsInstance(metrics[m["name"]]["value"], (int, float), m["name"])

    def test_end_to_end_metrics_are_emitted_with_units(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                code, last, _ = bench(w, 0)
                self.assertEqual(code, 0)
                self.assertTrue(last["correct"])
                self.assert_metrics(last["metrics"], SPEC["end_to_end"])

    def test_counts_repeat_and_tracing_keeps_the_trajectory(self):
        count_names = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]
        for w in WORKLOADS:
            with self.subTest(workload=w):
                runs = [bench(w, 1) for _ in range(2)]
                for code, last, record in runs:
                    self.assertEqual(code, 0, record["problems"])
                    self.assertTrue(last["correct"], record["problems"])
                    self.assert_metrics(last["metrics"], SPEC["per_layer"])
                    # one digest across the untraced and the traced worker
                    digests = {it["digest"] for it in record["iterations"]}
                    self.assertEqual(len(digests), 1)
                first, second = (r[1]["metrics"] for r in runs)
                for name in count_names:
                    self.assertEqual(first[name]["value"], second[name]["value"], name)
                if w == "fill":
                    self.assertEqual(first["solver.root_find.calls"]["value"], 0)
                    self.assertEqual(first["solver.candidates_per_step"]["value"], 1.0)


if __name__ == "__main__":
    unittest.main()
