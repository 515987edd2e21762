"""Smoke test of the benchmark on a tiny job list.

    python3 bench/smoke.py

Runs every workload for a handful of jobs, untraced and traced, and checks
that the last line of each run is a result with exactly the metrics
BENCHMARK.json names; then checks that a directory holding only
BENCHMARK.json and bench/ makes the benchmark fail without a result.
Exits 0 when every check holds. Takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
JOBS = 6


def run(root: Path, workload: str, trace: int, max_jobs: int = JOBS) -> subprocess.CompletedProcess:
    cmd = [*SPEC["command"], "--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace)]
    if max_jobs:
        cmd += ["--max-jobs", str(max_jobs)]
    cmd[0] = sys.executable
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=170)


def check_result(proc, names: set[str], label: str) -> list[str]:
    if proc.returncode != 0:
        return [f"{label}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")
    if result["attempted"] != JOBS or not 0 <= result["failed"] <= JOBS:
        problems.append(f"{label}: attempted {result['attempted']}, failed {result['failed']}")
    if result["correct"] is not True:
        problems.append(f"{label}: a check mismatched")
    if set(result["metrics"]) != names:
        problems.append(f"{label}: metrics differ from BENCHMARK.json: {sorted(set(result['metrics']) ^ names)}")
    for name, metric in result["metrics"].items():
        if not isinstance(metric["value"], (int, float)) or not metric["unit"]:
            problems.append(f"{label}: metric {name} is {metric}")
    return problems


def main() -> int:
    problems = []
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    for workload in (w["name"] for w in SPEC["workloads"]):
        problems += check_result(run(ROOT, workload, 0), end_to_end, f"{workload} untraced")
        problems += check_result(run(ROOT, workload, 1), per_layer, f"{workload} traced")

    bare = ROOT / ".bench_work" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, SPEC["workloads"][0]["name"], 0, max_jobs=0)
        last = proc.stdout.strip().splitlines()[-1:] or [""]
        if proc.returncode == 0 or last[0].startswith("{"):
            problems.append("bare directory: the benchmark did not fail without a result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for line in problems:
        print("FAIL", line)
    print("smoke test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
