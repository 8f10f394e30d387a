#!/usr/bin/env python3
"""Self-test of the benchmark's tracing: bindings and exact counts.

    python3 perfbench/selfcheck.py

Runs `run.py --trace 1` twice per workload with one fixed seed and
fails unless both runs report correct outputs and every count (unit
"count", plus every exact count in the run record) is identical
between the two.  A traced run reports incorrect outputs when a
binding of a wrapped function is left unwrapped or a target no longer
exists, so a refactor cannot silently drop a layer.

Exits 0 when everything holds, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

SEED = 1


def traced_counts(workload):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=600, check=True)
    lines = proc.stdout.strip().splitlines()
    record = json.loads(lines[-2])["record"]
    result = json.loads(lines[-1])
    counts = {k: m["value"] for k, m in result["metrics"].items()
              if m["unit"] == "count"}
    counts.update(record["exact_counts"])
    return result["correct"], record["unwrapped_bindings"], counts


def main():
    ok = True
    for workload in sorted(workloads.WORKLOADS):
        first_ok, unwrapped, first = traced_counts(workload)
        second_ok, _, second = traced_counts(workload)
        diff = {k: (first.get(k), second.get(k))
                for k in sorted(set(first) | set(second))
                if first.get(k) != second.get(k)}
        if diff or not (first_ok and second_ok):
            ok = False
            print(f"FAIL {workload}: correct={first_ok},{second_ok} "
                  f"unwrapped {unwrapped} count differences {diff}")
        else:
            print(f"ok   {workload}: every binding wrapped, {len(first)} "
                  f"counts identical over two traced runs")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
