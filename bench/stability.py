"""Steadiness and held-out-seed check of the end-to-end metrics.

    python3 bench/stability.py --seeds 1-10 --heldout 101-105 [--workload NAME ...]

For each workload, runs the benchmark once per seed and prints, per
end-to-end metric, the median and the spread (distance between the first and
third quartile as a share of the median). A spread must stay below a third
of the metric's bound in BENCHMARK.json (setup_s is exempt). With --heldout,
the workload is also run on those seeds, and each held-out median must not be
worse than the main median by more than the bound. Exits 1 if a check fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_seeds(workload: str, seeds: list[int]) -> dict[str, list[float]]:
    values: dict[str, list[float]] = {}
    for seed in seeds:
        cmd = [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", str(seed),
               "--seconds", str(SPEC["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
        if proc.returncode != 0:
            raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"  {workload} seed {seed}: " + " ".join(
            f"{name}={m['value']:.5g}" for name, m in result["metrics"].items()), flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    return values


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(new: float, old: float, better: str) -> float:
    """How much worse new is than old, as a share of old (negative if better)."""
    return (old - new) / old if better == "higher" else (new - old) / old


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--heldout", type=seed_range, default=None)
    parser.add_argument("--workload", action="append", default=None)
    args = parser.parse_args()
    ok = True
    for workload in args.workload or [w["name"] for w in SPEC["workloads"]]:
        main_values = run_seeds(workload, args.seeds)
        held = run_seeds(workload, args.heldout) if args.heldout else None
        for metric in SPEC["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = main_values[name]
            med, sp = statistics.median(values), spread(values)
            steady = name == "setup_s" or sp < bound / 3
            line = f"{workload:15s} {name:12s} median {med:<12.6g} spread {sp:6.2%} (bound {bound:.0%})"
            if held is not None:
                change = worse_by(statistics.median(held[name]), med, metric["better"])
                held_ok = change <= bound
                line += f"  held-out worse by {change:6.2%} {'ok' if held_ok else 'OUT OF BOUND'}"
                ok = ok and held_ok
            print(line + ("" if steady else "  UNSTEADY"), flush=True)
            ok = ok and steady
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
