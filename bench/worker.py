"""One workload run in a fresh interpreter: set up, then a closed loop of jobs.

Started by run.py, never imported. A single client runs the jobs one after
another; each job has a deadline in seconds, enforced here by a timer signal
that abandons it, and hecke-products also a deadline in work (a term
budget). The worker runs --seconds over the workload's round_s whole rounds,
and more if they hold fewer than MIN_JOBS jobs, so the job list depends on
the seed and --seconds only. It starts no new round after --stop-after
seconds, so that a run on a very slow machine still ends in time. Between
jobs, every PROBE_EVERY_S, it times the speed probe. It prints one JSON
object with the set-up time, peak memory, the probe times and one record per
job: [job id, seconds, error class or null, round].
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import signal
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_JOBS = 100  # so that p90 has at least ten jobs beyond it
PROBE_EVERY_S = 0.5  # the speed probe runs between jobs this often
PROBES_AFTER_SETUP = 5  # and this many times right after set-up


class JobDeadline(BaseException):
    """Raised by the timer inside a job that ran past its deadline. A
    BaseException, so that no `except Exception` in the program swallows it."""


def _on_alarm(signum, frame):
    raise JobDeadline()


def speed_probe() -> float:
    """Seconds a fixed piece of pure-Python work takes now: small integer
    matrix products, tuple-keyed dict inserts, Fraction arithmetic and a sort,
    the kinds of operation the program spends its time in. It calls no
    program code and keeps no state, so its time follows only the speed the
    shared machine gives this process."""
    t0 = time.perf_counter()
    m = ((1, 2, 0, -1), (0, 1, 3, 2), (-2, 0, 1, 1), (1, -1, 0, 2))
    table = {}
    acc = m
    for k in range(300):
        acc = tuple(tuple(sum(acc[i][t] * m[t][j] for t in range(4)) % 1009 - 504 for j in range(4)) for i in range(4))
        table.setdefault(acc, len(table))
        v = [Fraction(acc[i][i], k + 1 + i) for i in range(4)]
        table[tuple(v)] = sum(a * b for a, b in zip(v, v[1:]))
    sorted(table.values())
    return time.perf_counter() - t0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--stop-after", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace-out", default=None, help="trace the run and write its spans here")
    parser.add_argument("--max-jobs", type=int, default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import blhecke  # noqa: F401  (the import is part of set-up)

    from workloads import WORKLOADS, CheckMismatch, JobError, WorkDeadline

    workload = WORKLOADS[args.workload](Path(args.workdir))
    workload.setup()
    setup_s = time.perf_counter() - start
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "probe_s": [speed_probe() for _ in range(PROBES_AFTER_SETUP)]}))
        return 0

    budget = workload.budget
    if budget is not None:
        budget.install()
    tracer = None
    execute = workload.execute
    if args.trace_out:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
        execute = tracer.span("job", execute)

    signal.signal(signal.SIGALRM, _on_alarm)
    rng = random.Random(args.seed)
    planned = max(1, round(args.seconds / workload.round_s))
    records = []
    mismatches = []
    probe_s = [speed_probe() for _ in range(PROBES_AFTER_SETUP)]
    loop_start = time.perf_counter()
    next_probe = loop_start + PROBE_EVERY_S
    rounds = 0
    cut = False
    while rounds < planned or (len(records) < MIN_JOBS and not args.max_jobs):
        if time.perf_counter() - loop_start > args.stop_after:
            cut = True
            break
        for job in workload.round(rng, rounds):
            if tracer is not None:
                tracer.job = job.id
            if budget is not None:
                budget.used = 0
            error = None
            output = None
            t0 = time.perf_counter()
            try:
                signal.setitimer(signal.ITIMER_REAL, workload.deadline_s)
                try:
                    output = execute(job)
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
            except JobDeadline:
                error = "deadline"
            except WorkDeadline:
                error = "work-deadline"
            except JobError as exc:
                error = str(exc)
            except Exception as exc:  # the program raised: a failed job, not a crashed benchmark
                error = type(exc).__name__
            seconds = time.perf_counter() - t0
            if error is None:
                try:
                    workload.check(job, output)
                except CheckMismatch as exc:
                    error = "check-mismatch"
                    mismatches.append([job.id, str(exc)])
            records.append([job.id, seconds, error, rounds])
            if time.perf_counter() >= next_probe:
                probe_s.append(speed_probe())
                next_probe = time.perf_counter() + PROBE_EVERY_S
            if args.max_jobs and len(records) >= args.max_jobs:
                break
        rounds += 1
        if args.max_jobs and len(records) >= args.max_jobs:
            break

    result = {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "deadline_s": workload.deadline_s,
        "rounds": rounds,
        "probe_s": probe_s,
        "planned_rounds": planned,
        "cut": cut,
        "jobs": records,
        "mismatches": mismatches,
    }
    if tracer is not None:
        tracing_metrics = tracing.layer_metrics(tracer)
        tracer.unpatch()
        tracer.write(args.trace_out)
        result["layers"] = tracing_metrics
        result["spans"] = tracer.next_id
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
