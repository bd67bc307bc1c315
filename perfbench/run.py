"""Benchmark of the l1rec best-L1 pipeline.

    python3 perfbench/run.py --workload {newton,recover,certify}
                             --seed N --seconds S --trace {0,1}

Run from the root of a checkout. The workload runs in a fresh process with
BLAS pinned to one thread, repeating whole rounds of its operations for about
S seconds of timed work, and checks every answer (see checks.py). Set-up time
is sampled six times, each in a fresh process that imports l1rec and builds
the inputs, timed from its start: five probes that stop there, and the
process that goes on to run the workload; setup_s is their median. The last
line of standard output is one JSON object: correct, attempted, failed, and
the metrics, which are the end-to-end ones (setup_s, wall_s, op_s.p50,
peak_rss_mb) with --trace 0 and the per-layer ones (see tracing.py) with
--trace 1. Raw results are written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(HERE, "out")
WORKLOADS = ("newton", "recover", "certify")
SETUP_PROBES_BEFORE, SETUP_PROBES_AFTER = 2, 3
DEADLINE_S = 170.0  # the whole run, probes included, must end within this


def worker_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def start_worker(args: list[str], deadline: float):
    """(start time, parsed last stdout line) of one worker process."""
    started = time.monotonic()
    timeout = deadline - started
    if timeout <= 0:
        raise SystemExit("run.py: out of time before the workload could run")
    proc = subprocess.run(
        [sys.executable, WORKER, *args],
        env=worker_env(),
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"run.py: worker exited with code {proc.returncode}")
    return started, json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="l1rec pipeline benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not os.path.isfile(os.path.join(ROOT, "src", "l1rec", "__init__.py")):
        print(f"run.py: no l1rec sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    # set-up samples are spread before and after the run so that one slow
    # spell of the machine does not set them all
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    setups = []

    def probe():
        started, ready = start_worker(common + ["--setup-only"], deadline)
        setups.append(ready["ready"] - started)

    for _ in range(SETUP_PROBES_BEFORE):
        probe()
    started, res = start_worker(common + ["--seconds", str(args.seconds), "--trace", str(args.trace)], deadline)
    setups.append(res["ready"] - started)
    for _ in range(SETUP_PROBES_AFTER):
        probe()

    res["setup_samples"] = setups
    os.makedirs(OUT_DIR, exist_ok=True)
    raw = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(raw, "w") as fh:
        json.dump(res, fh, indent=1)

    for label, message in res["failures"].items():
        print(f"failed: {label}: {message}")
    for label, message in res["wrong"].items():
        print(f"WRONG: {label}: {message}")
    print(
        f"{args.workload}: {len(res['rounds'])} rounds of {len(res['labels'])} operations, "
        f"wall_s {res['wall_s']:.4f} (this run, traced={args.trace})"
    )
    if args.trace:
        metrics = res["layers"]
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": res["wall_s"], "unit": "s"},
            "op_s.p50": {"value": res["op_p50_s"], "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    for name, m in metrics.items():
        print(f"  {name:28s} {m['value']:.6g} {m['unit']}")
    summary = {
        "correct": not res["wrong"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
