#!/usr/bin/env python3
"""Self-checks of the wall-clock benchmark, on its short mode.

Run from the root of a socs source tree (builds the benchmark on first use):

    python3 perfbench/test_perfbench.py

Checks that same-seed runs repeat the seed-determined counts exactly and a
different seed changes them, that untraced and traced runs print exactly
the metrics BENCHMARK.json names with zero failed statements, and that no
run leaves a data directory or a process behind.
"""
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED_COUNTS = ("core.read_bytes", "core.write_bytes", "core.splits",
               "storage.segments_recompressed")


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, seed, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", "1", "--trace",
           str(trace), "--short"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900)
    if proc.returncode != 0:
        raise AssertionError("%s exited %d:\n%s" % (" ".join(cmd),
                                                     proc.returncode,
                                                     proc.stderr[-4000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def metric_values(result):
    return {k: v["value"] for k, v in result["metrics"].items()}


class PerfbenchTest(unittest.TestCase):
    def check_result(self, result, names):
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(set(result["metrics"]), set(names))

    def test_untraced_prints_every_end_to_end_metric(self):
        names = [m["name"] for m in spec()["end_to_end"]]
        for w in spec()["workloads"]:
            result = run(w["name"], 1, 0)
            self.check_result(result, names)
            for name, value in metric_values(result).items():
                self.assertGreater(value, 0, "%s on %s" % (name, w["name"]))

    def test_seed_fixes_the_counts(self):
        names = [m["name"] for m in spec()["per_layer"]]
        for w in spec()["workloads"]:
            a = run(w["name"], 5, 1)
            b = run(w["name"], 5, 1)
            c = run(w["name"], 6, 1)
            for r in (a, b, c):
                self.check_result(r, names)
            va, vb, vc = (metric_values(r) for r in (a, b, c))
            for k in SEED_COUNTS:
                self.assertEqual(va[k], vb[k], "%s on %s" % (k, w["name"]))
            self.assertNotEqual([va[k] for k in SEED_COUNTS],
                                [vc[k] for k in SEED_COUNTS], w["name"])

    def test_runs_leave_nothing_behind(self):
        durable = [w["name"] for w in spec()["workloads"]
                   if "durable" in w["name"]]
        for name in durable:
            run(name, 2, 0)
            run(name, 2, 1)
        out = os.path.join(ROOT, ".bench_out")
        left = [d for d in os.listdir(out) if d.startswith("data-")]
        self.assertEqual(left, [])
        ps = subprocess.run(["pgrep", "-x", "socs_perfbench"],
                            stdout=subprocess.PIPE, text=True)
        self.assertEqual(ps.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main(verbosity=2)
