"""Benchmark of blhecke user jobs: one named workload per run.

    python3 bench/run.py --workload kato-sweep --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. The job loop runs in a fresh interpreter
(bench/worker.py), so the program's process-global caches start empty in
every run. --seconds sets the length of the job list (whole rounds of about
the workload's round_s each at the seed commit), so the same seed and length
give the same jobs. With --trace 0 the last line of standard output is a
JSON object with the end-to-end metrics; with --trace 1 the run makes an
untraced pass and a traced pass, each over the job list of half the length,
and reports the per-layer metrics and the tracing overhead. See
bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_PROBES = 4  # fresh interpreters that only set up, before and again after the job run
# The speed probe's mean time, undisturbed, on the reference machine (a 2-vCPU
# Intel Xeon KVM guest, Python 3.11). Times are reported at that speed.
REFERENCE_PROBE_S = 0.010
RUN_LIMIT_S = 170  # a worker still running this long after the start is killed and the run fails
STOP_AFTER_S = 110  # the job loops of one run start no new round after this many seconds in all
START = time.monotonic()


def run_worker(args, *extra, share=1.0) -> dict:
    """Run the worker over `share` of the job list that --seconds sets."""
    cmd = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds * share),
        "--stop-after", str(STOP_AFTER_S * share), "--workdir", str(args.workdir), *extra,
    ]
    left = RUN_LIMIT_S - (time.monotonic() - START)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, timeout=max(left, 1), text=True)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"run did not finish within {RUN_LIMIT_S} s")
    if proc.returncode != 0:
        raise SystemExit(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quantile_ms(latencies: list[float], k: int) -> float:
    """The k-th decile in milliseconds."""
    return statistics.quantiles(latencies, n=10)[k - 1] * 1000


def speed_scale(probe_s: list[float]) -> float:
    """Factor that takes a time measured alongside these probe times to the
    reference speed: below 1 while the shared machine runs slow."""
    return REFERENCE_PROBE_S / statistics.fmean(probe_s)


def job_stats(run: dict, scale: float) -> dict:
    jobs = run["jobs"]
    ok = [j for j in jobs if j[2] is None]
    # a failed job counts at the deadline, so turning failures into answers can only lower these
    latencies = [j[1] * scale if j[2] is None else run["deadline_s"] for j in jobs]
    return {
        "attempted": len(jobs),
        "ok": len(ok),
        "failed": len(jobs) - len(ok),
        "jobs_per_s": len(ok) / (sum(j[1] for j in jobs) * scale),
        "p50_ms": quantile_ms(latencies, 5),
        "p90_ms": quantile_ms(latencies, 9),
    }


def report_failures(run: dict, label: str) -> None:
    failed = [j for j in run["jobs"] if j[2] is not None]
    by_class = Counter(j[2] for j in failed)
    summary = ", ".join(f"{c} {n}" for c, n in sorted(by_class.items())) or "none"
    print(f"{label}: {len(failed)} of {len(run['jobs'])} jobs failed ({summary})")
    for job_id, seconds, error, _ in failed:
        print(f"  FAILED {job_id}: {error} after {seconds * 1000:.1f} ms")
    for job_id, detail in run["mismatches"]:
        print(f"  MISMATCH {job_id}: {detail}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--max-jobs", type=int, default=0, help="stop after this many jobs (smoke test)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "blhecke" / "__init__.py").is_file():
        print(f"no blhecke sources under {ROOT / 'src'}; run from a checkout of the repository", file=sys.stderr)
        return 2

    args.workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}"
    args.workdir.mkdir(parents=True, exist_ok=True)
    try:
        return measure(args)
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)


def setup_times(args) -> list[tuple[float, float]]:
    """(wall-clock, reference-speed) set-up times of fresh interpreters."""
    out = []
    for _ in range(SETUP_PROBES):
        probe = run_worker(args, "--setup-only")
        out.append((probe["setup_s"], probe["setup_s"] * speed_scale(probe["probe_s"])))
    return out


def measure(args) -> int:
    extra = ["--max-jobs", str(args.max_jobs)] if args.max_jobs else []
    if args.trace == 0:
        # set-up runs on both sides of the job run, so one slow spell moves few of them
        setups = setup_times(args)
        run = run_worker(args, *extra)
        setups += setup_times(args)
    else:
        run = run_worker(args, *extra, share=0.5)
    scale = speed_scale(run["probe_s"])
    stats, wall = job_stats(run, scale), job_stats(run, 1.0)
    report_failures(run, f"{args.workload} seed {args.seed}")
    print(f"{stats['attempted']} jobs in {run['rounds']} rounds (planned {run['planned_rounds']}), "
          f"{sum(j[1] for j in run['jobs']):.1f} s in jobs, failed_share "
          f"{stats['failed'] / stats['attempted']:.4f}, deadline {run['deadline_s']} s")
    print(f"speed scale {scale:.4f} from {len(run['probe_s'])} probes; wall-clock values: "
          f"jobs_per_s {wall['jobs_per_s']:.5g}, job_p50_ms {wall['p50_ms']:.5g}, job_p90_ms {wall['p90_ms']:.5g}"
          + (f", setup_s {statistics.median(s for s, _ in setups):.5g}" if args.trace == 0 else ""))
    if run["cut"]:
        print(f"the machine was too slow: the job loop stopped after {run['rounds']} rounds")
    correct = not run["mismatches"]

    if args.trace == 0:
        metrics = {
            "jobs_per_s": (stats["jobs_per_s"], "1/s"),
            "job_p50_ms": (stats["p50_ms"], "ms"),
            "job_p90_ms": (stats["p90_ms"], "ms"),
            "ok_share": (stats["ok"] / stats["attempted"], "share"),
            "setup_s": (statistics.median(s for _, s in setups), "s"),
            "peak_rss_mb": (run["peak_rss_mb"], "MB"),
        }
        attempted, failed = stats["attempted"], stats["failed"]
    else:
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        trace_path = out_dir / f"trace-{args.workload}-seed{args.seed}.jsonl"
        traced = run_worker(args, "--trace-out", str(trace_path), *extra, share=0.5)
        traced_scale = speed_scale(traced["probe_s"])
        traced_stats = job_stats(traced, traced_scale)
        report_failures(traced, "traced pass")
        correct = correct and not traced["mismatches"]
        metrics = {
            name: (value * traced_scale if unit == "s" else value, unit)
            for name, (value, unit) in traced["layers"].items()
        }
        metrics["trace.jobs_per_s"] = (traced_stats["jobs_per_s"], "1/s")
        metrics["trace.overhead_share"] = (1 - traced_stats["jobs_per_s"] / stats["jobs_per_s"], "share")
        metrics["trace.spans"] = (traced["spans"], "count")
        attempted, failed = traced_stats["attempted"], traced_stats["failed"]
        print(f"spans written to {trace_path.relative_to(ROOT)}")

    width = max(len(name) for name in metrics)
    for name, (value, unit) in metrics.items():
        print(f"{name:<{width}}  {value:>14.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
