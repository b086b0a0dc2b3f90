#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload, traced and untraced, at a
tiny size. Checks that each run exits 0, that its last stdout line is
the result object, that the result is correct, and that it carries
exactly the metrics BENCHMARK.json names for that mode, each with its
declared unit.

Run from the root of a checkout:  python3 perfbench/smoke_test.py
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Runnable, and checked here, but not in BENCHMARK.json (see README.md).
EXTRA_WORKLOADS = ["figs_ci"]


def check_run(workload, trace, expected):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace), "--smoke"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          timeout=900, check=False)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}\n{proc.stderr[-2000:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("attempted", 0) < 1:
        problems.append(f"{where}: correct={result.get('correct')} "
                        f"attempted={result.get('attempted')}")
    metrics = result.get("metrics", {})
    if sorted(metrics) != sorted(expected):
        problems.append(f"{where}: metrics {sorted(metrics)} "
                        f"!= {sorted(expected)}")
    for name, unit in expected.items():
        got = metrics.get(name, {})
        if got.get("unit") != unit or not isinstance(
                got.get("value"), (int, float)):
            problems.append(f"{where}: {name} printed as {got}")
        if not any(line.startswith("metric ") and line.split()[1] == name
                   and line.split()[-1] == unit for line in lines):
            problems.append(f"{where}: no '{name} ... {unit}' line")
    return problems


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems = []
    for workload in [w["name"] for w in spec["workloads"]] + EXTRA_WORKLOADS:
        problems += check_run(workload, 0, end_to_end)
        problems += check_run(workload, 1, per_layer)
    for p in problems:
        print("FAIL", p)
    print("smoke test:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
