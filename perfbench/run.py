#!/usr/bin/env python3
"""Repository benchmark entry point.

Builds the benchmark (perfbench/CMakeLists.txt, which compiles ../src)
and runs one workload, printing the result as one JSON object on the
last line of stdout:

    python3 perfbench/run.py --workload udp_closed --seed 1 --seconds 20 --trace 0

Other modes:

    python3 perfbench/run.py --all [--seed N] [--seconds S] [--trace 0|1]
        every workload in turn, then one table per workload; exits
        nonzero if any self-check failed
    python3 perfbench/run.py --selftest
        the benchmark's own unit tests and a smoke run of every workload

Runs from any directory: paths are taken relative to this file. Build
products go to .bench_build/ and span logs of traced runs to .bench_out/,
both under the repository root.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "mrp_perfbench")
UNIT = os.path.join(BUILD, "perfbench_unit")


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "common", "env.h")):
        fail("repository sources (src/) not found next to perfbench/; nothing to build")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            fail("build failed: " + " ".join(cmd))


def run_one(workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, parsed result or None)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0", "--out-dir", os.path.join(ROOT, ".bench_out")]
    p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                       timeout=175)
    lines = [l for l in p.stdout.splitlines() if l.strip()]
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return p.returncode, result


def print_table(workload, result):
    print(f"\n== {workload}  correct={result['correct']} attempted={result['attempted']} "
          f"failed={result['failed']}")
    for name, m in result["metrics"].items():
        print(f"  {name:38s} {m['value']:16.4f} {m['unit']}")


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--all", action="store_true")
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    build()
    spec = benchmark_spec()
    seconds = args.seconds if args.seconds else spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]

    if args.selftest:
        if not os.path.isfile(UNIT):
            fail("unit tests were not built (GTest missing?)", 1)
        r = subprocess.run([UNIT])
        r2 = subprocess.run([sys.executable, os.path.join(HERE, "tests", "smoke_test.py")])
        sys.exit(0 if r.returncode == 0 and r2.returncode == 0 else 1)

    if args.all:
        ok = True
        results = {}
        for w in names:
            code, result = run_one(w, args.seed, seconds, args.trace)
            if result is None or code != 0 or not result.get("correct"):
                ok = False
            results[w] = result
        for w in names:
            if results[w] is None:
                print(f"\n== {w}  NO RESULT")
            else:
                print_table(w, results[w])
        sys.exit(0 if ok else 1)

    if args.workload not in names:
        fail(f"unknown workload {args.workload!r}; choose one of {', '.join(names)}")
    code, result = run_one(args.workload, args.seed, seconds, args.trace)
    if result is None:
        fail(f"workload {args.workload} produced no result (exit {code})", code or 1)
    print(json.dumps(result))
    sys.exit(code)


if __name__ == "__main__":
    main()
