#!/usr/bin/env python3
"""Self-tests of the UnSNAP benchmark (perfbench/).

    python3 perfbench/tests/test_perfbench.py        # from the repo root

Checks that every workload reports exactly the metrics BENCHMARK.json names,
with their units, in both modes; that the count metrics repeat exactly
between two runs of one seed; and that the correctness gate trips on a
perturbed reference. Runs take a few seconds each (about 3 minutes in all);
the first one builds the benchmark binary.
"""

import json
import os
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SOLVES = [w for w in WORKLOADS if w != "serve_mixed"]
SCRATCH = ROOT / ".bench_build" / "perfbench" / "tests"

_runs = {}


def run(workload, trace, seed=7, seconds=1, reference=None, cache=True):
    """Run the benchmark; returns (result object, stdout lines)."""
    key = (workload, trace, seed, seconds, reference)
    if cache and key in _runs:
        return _runs[key]
    command = [sys.executable, str(ROOT / "perfbench" / "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    if reference is not None:
        command += ["--reference", str(reference)]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    if proc.returncode != 0:
        raise AssertionError(f"{command} exited {proc.returncode}:\n"
                             f"{proc.stdout}\n{proc.stderr[-3000:]}")
    lines = proc.stdout.strip().splitlines()
    result = (json.loads(lines[-1]), lines)
    if cache:
        _runs[key] = result
    return result


class MetricsTest(unittest.TestCase):
    def check_metrics(self, trace, declared):
        for workload in WORKLOADS:
            with self.subTest(workload=workload, trace=trace):
                result, lines = run(workload, trace)
                self.assertEqual(set(result),
                                 {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"], "\n".join(lines))
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], 0)
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                self.assertEqual(got, declared)
                for name, metric in result["metrics"].items():
                    self.assertIsInstance(metric["value"], (int, float), name)
                    # The human report names every metric with its unit.
                    self.assertTrue(any(line.split()[:1] == [name] and
                                        line.endswith(" " + metric["unit"])
                                        for line in lines), name)

    def test_end_to_end_metrics(self):
        declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        self.check_metrics(0, declared)
        for workload in WORKLOADS:
            result, _ = run(workload, 0)
            for name, metric in result["metrics"].items():
                self.assertGreater(metric["value"], 0, f"{workload} {name}")

    def test_per_layer_metrics(self):
        declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        self.check_metrics(1, declared)


class RepeatTest(unittest.TestCase):
    def test_counts_repeat_exactly(self):
        for workload in SOLVES:
            with self.subTest(workload=workload):
                first, _ = run(workload, 0)
                second, _ = run(workload, 0, cache=False)
                self.assertEqual(first["metrics"]["sweeps"]["value"],
                                 second["metrics"]["sweeps"]["value"])
        for workload, name in [("diffusive_gmres", "accel.krylov_iters"),
                               ("keff_criticality", "xs.outers")]:
            with self.subTest(workload=workload, metric=name):
                first, _ = run(workload, 1)
                second, _ = run(workload, 1, cache=False)
                self.assertGreater(first["metrics"][name]["value"], 0)
                self.assertEqual(first["metrics"][name]["value"],
                                 second["metrics"][name]["value"])


class GateTest(unittest.TestCase):
    def test_gate_trips_on_perturbed_reference(self):
        reference = json.loads(
            (ROOT / "perfbench" / "reference.json").read_text())
        entry = reference["workloads"]["diffusive_gmres"]
        # 1e-6 relative: twice the gate's 5e-7 flux tolerance.
        entry["group_averages"][0] *= 1 + 1e-6
        SCRATCH.mkdir(parents=True, exist_ok=True)
        path = SCRATCH / "perturbed_reference.json"
        path.write_text(json.dumps(reference))
        result, lines = run("diffusive_gmres", 0, reference=path.relative_to(ROOT))
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertTrue(any(line.startswith("# gate:") for line in lines))

        # The recorded reference passes the same run.
        result, _ = run("diffusive_gmres", 0)
        self.assertTrue(result["correct"])


if __name__ == "__main__":
    os.chdir(ROOT)
    unittest.main()
