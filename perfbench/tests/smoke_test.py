#!/usr/bin/env python3
"""Smoke test of the benchmark: a short run of every workload, untraced
and traced, whose output must name exactly the metrics BENCHMARK.json
declares; and a run from a directory without the sources, which must
fail without printing a result.

    python3 perfbench/tests/smoke_test.py
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN = os.path.join(ROOT, "perfbench", "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run(workload, trace, cwd_root=ROOT):
    p = subprocess.run([sys.executable, os.path.join(cwd_root, "perfbench", "run.py"),
                        "--workload", workload, "--seed", "3", "--seconds", "1",
                        "--trace", str(trace)],
                       cwd=cwd_root, capture_output=True, text=True, timeout=300)
    return p


class SmokeTest(unittest.TestCase):
    def check(self, trace, declared):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"], trace=trace):
                p = run(w["name"], trace)
                self.assertEqual(p.returncode, 0, p.stderr[-3000:])
                result = json.loads(p.stdout.strip().splitlines()[-1])
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], 0)
                self.assertEqual(list(result["metrics"]), [m["name"] for m in declared])
                for m in declared:
                    got = result["metrics"][m["name"]]
                    self.assertEqual(got["unit"], m["unit"])
                    self.assertIsInstance(got["value"], (int, float))

    def test_end_to_end_names(self):
        self.check(0, SPEC["end_to_end"])
        for w in SPEC["workloads"]:
            p = run(w["name"], 0)
            metrics = json.loads(p.stdout.strip().splitlines()[-1])["metrics"]
            for m in SPEC["end_to_end"]:
                self.assertGreater(metrics[m["name"]]["value"], 0, (w["name"], m["name"]))

    def test_per_layer_names(self):
        self.check(1, SPEC["per_layer"])

    def test_fails_without_sources(self):
        bare = os.path.join(ROOT, ".bench_out", "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(bare, "perfbench"))
        try:
            p = run(SPEC["workloads"][0]["name"], 0, cwd_root=bare)
            self.assertNotEqual(p.returncode, 0)
            self.assertEqual(p.stdout.strip(), "")
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
