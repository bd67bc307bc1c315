"""Runs one workload in a fresh process; run.py starts it and reads its last line.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/worker.py --workload NAME --seed N --setup-only

The first prints a JSON summary of the rounds it ran. The second stops after
importing l1rec and building the workload's inputs and prints when it got
there, as time.monotonic(), which run.py compares with the time it started
the process.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402  (needs src on the path)
from checks import CheckFailed  # noqa: E402
from l1rec.catalog import resolve_function  # noqa: E402


def run_rounds(ops, seconds: float, tracer=None) -> dict:
    """Run whole rounds of ops for about `seconds` of timed work.

    A round starts only if, at the median round time so far, it ends within
    `seconds`; the first round always runs. An operation that raises counts
    as failed. Every returned output is checked after its timed call; checks
    are not timed.
    """
    rounds, durations = [], []
    failures, wrong = {}, {}
    attempted = failed = 0
    while not rounds or sum(rounds) + statistics.median(rounds) <= seconds:
        round_time = 0.0
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.op = i
            attempted += 1
            start = time.perf_counter()
            try:
                out = op.run()
            except Exception as exc:  # a library failure is a result, not a crash
                out = None
                failed += 1
                failures.setdefault(op.label, f"{type(exc).__name__}: {exc}")
            elapsed = time.perf_counter() - start
            round_time += elapsed
            durations.append(elapsed)
            if tracer is not None:
                tracer.op = None
            if out is not None:
                try:
                    op.check(out)
                except CheckFailed as exc:
                    wrong.setdefault(op.label, str(exc))
        rounds.append(round_time)
    return {
        "rounds": rounds,
        "durations": durations,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "wrong": wrong,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOAD_OPS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    ops = workloads.build(args.workload, args.seed, tracer.make if tracer else resolve_function)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    if tracer is not None:
        tracer.install()
    try:
        result = run_rounds(ops, args.seconds, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    result.update(
        ready=ready,
        labels=[op.label for op in ops],
        wall_s=statistics.median(result["rounds"]),
        op_p50_s=statistics.median(result["durations"]),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    if tracer is not None:
        result["layers"] = tracer.metrics(len(result["rounds"]))
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.json")
        with open(path, "w") as fh:
            json.dump({"labels": result["labels"], "spans": tracer.spans}, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
