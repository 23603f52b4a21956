#!/usr/bin/env python3
"""Smoke check of the benchmark at minimal size.

    python3 perfbench/smoke.py

Runs every workload of ``BENCHMARK.json`` once per mode (``--trace 0``
and ``--trace 1``) for one second and checks the result line: exactly
the keys ``correct``, ``attempted``, ``failed``, ``metrics``; a clean
run; and every metric the mode names, with its unit.  Then checks that
a copy holding only ``BENCHMARK.json`` and ``perfbench/`` (no program
to measure) exits nonzero without printing a result.  Exits 0 when
every check passes, 1 otherwise.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300, check=False,
    )


def check(workload: str, trace: int, spec: dict) -> list[str]:
    completed = run(ROOT, workload, trace)
    where = f"{workload} --trace {trace}"
    if completed.returncode != 0:
        return [f"{where}: exit {completed.returncode}: "
                f"{completed.stderr.strip()[-500:]}"]
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0:
        problems.append(f"{where}: correct={result['correct']} "
                        f"failed={result['failed']}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append(f"{where}: attempted={result['attempted']!r}")
    wanted = spec["per_layer" if trace else "end_to_end"]
    expected = {entry["name"]: entry["unit"] for entry in wanted}
    if set(result["metrics"]) != set(expected):
        problems.append(f"{where}: metric names differ from BENCHMARK.json")
    for name, unit in expected.items():
        metric = result["metrics"].get(name, {})
        if metric.get("unit") != unit:
            problems.append(f"{where}: {name} unit {metric.get('unit')!r}")
        if not isinstance(metric.get("value"), (int, float)):
            problems.append(f"{where}: {name} has no numeric value")
        elif not trace and metric["value"] <= 0:
            problems.append(f"{where}: {name} is {metric['value']}")
    return problems


def check_without_program(spec: dict) -> list[str]:
    bare = HERE / "out" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in HERE.glob("*.py"):
        shutil.copy(path, bare / "perfbench")
    try:
        completed = run(bare, spec["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare)
    if completed.returncode == 0 or '"metrics"' in completed.stdout:
        return ["without src/: the benchmark did not fail cleanly"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = check_without_program(spec)
    for workload in spec["workloads"]:
        for trace in (0, 1):
            found = check(workload["name"], trace, spec)
            print(f"{workload['name']:<16} trace={trace} "
                  f"{'ok' if not found else 'FAIL'}", flush=True)
            problems += found
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
