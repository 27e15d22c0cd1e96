#!/usr/bin/env python3
"""Smoke test of the benchmark itself, on a small slice of the dataset.

Usage (from the repository root):

    python3 perfbench/smoke_test.py

Runs perfbench/run.py at --scale 0.05 for one second per run and checks:
  1. every workload prints every metric BENCHMARK.json names, with its unit
     (end-to-end metrics untraced, per-layer metrics traced), answers are
     correct and the traced run's invariants hold;
  2. a deliberately perturbed reference answer is caught as a mismatch:
     the run reports correct=false and exits non-zero;
  3. another seed changes the queries (their fingerprint) but not the
     metric names.
Exits 0 when every check passes.
"""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCALE = "0.05"
SECONDS = "1"

failures = []


def check(cond, message):
    print(("ok   " if cond else "FAIL ") + message, flush=True)
    if not cond:
        failures.append(message)


def run(workload, seed, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", SECONDS, "--trace",
           str(trace), "--scale", SCALE] + list(extra)
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if done.returncode != 0 and "--perturb-reference" not in extra:
        sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    match = re.search(r'"queries_fingerprint":"([0-9a-f]+)"', done.stdout)
    return done.returncode, result, match.group(1) if match else None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = {0: spec["end_to_end"], 1: spec["per_layer"]}

    for workload in (w["name"] for w in spec["workloads"]):
        names = {}
        for trace in (0, 1):
            code, result, _ = run(workload, 1, trace)
            tag = f"{workload} trace={trace}"
            check(code == 0 and result is not None, f"{tag}: exits 0 with a result")
            if result is None:
                continue
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{tag}: result has exactly the contract keys")
            check(result["correct"] is True and result["failed"] == 0
                  and result["attempted"] >= 1,
                  f"{tag}: every answer correct, none failed")
            metrics = result["metrics"]
            check(sorted(metrics) == sorted(m["name"] for m in wanted[trace]),
                  f"{tag}: prints exactly the declared metrics")
            for m in wanted[trace]:
                got = metrics.get(m["name"], {})
                check(got.get("unit") == m["unit"]
                      and isinstance(got.get("value"), (int, float)),
                      f"{tag}: {m['name']} printed in {m['unit']}")
            names[trace] = sorted(metrics)

        code, result, _ = run(workload, 1, 0, "--perturb-reference")
        check(code != 0 and result is not None and result["correct"] is False
              and result["failed"] >= 1,
              f"{workload}: a perturbed reference answer is caught")

        code1, result1, fp1 = run(workload, 1, 0)
        code2, result2, fp2 = run(workload, 2, 0)
        check(code1 == 0 and code2 == 0 and fp1 and fp2 and fp1 != fp2,
              f"{workload}: seed 2 runs other queries than seed 1")
        check(result1 is not None and result2 is not None
              and sorted(result1["metrics"]) == sorted(result2["metrics"])
              == names.get(0),
              f"{workload}: seed 2 prints the same metric names")

    print(f"{len(failures)} failed check(s)" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
