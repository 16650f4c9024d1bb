#!/usr/bin/env python3
"""Pipeline benchmark of the mfeit CLI: simulate, init-guess, coverage, reconstruct.

    python3 bench/run.py --workload recon-n65 --seed 0 --seconds 15 --trace 0

Each workload runs in a fresh worker process (``worker.py``) with its thread
settings in the environment before numpy is imported.  With ``--trace 0`` the
result carries the end-to-end metrics, with ``--trace 1`` the per-layer
metrics.  The last line of standard output is the JSON result; the line
before it holds the machine record, per-pass details and output sentinels.
See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

from spans import PER_LAYER

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: n: reconstruction grid; iters: Landweber steps per reconstruct;
#: threads: MFEIT_THREADS; blas: OpenBLAS threads, None keeps the library default.
WORKLOADS = {
    "recon-n65": {"n": 65, "iters": 8, "threads": 1, "blas": 1},
    "recon-n65-t2": {"n": 65, "iters": 2, "threads": 2, "blas": None},
}
#: Worker processes whose set-up time is measured; setup_s is their median.
SETUP_SAMPLES = 5
#: A worker that runs longer than this is killed and the run fails.
WORKER_TIMEOUT_S = 170.0

E2E_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "simulate_s": "s",
    "init_guess_s": "s",
    "coverage_s": "s",
    "reconstruct_s": "s",
    "iter_per_s": "1/s",
    "peak_rss_mb": "MiB",
}


def worker_env(spec: dict) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["MFEIT_THREADS"] = str(spec["threads"])
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        if spec["blas"] is None:
            env.pop(var, None)
        else:
            env[var] = str(spec["blas"])
    return env


def run_worker(args, extra: list[str]) -> dict:
    """Start one worker, wait for it, and return its JSON result."""
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if args.n:
        cmd += ["--n", str(args.n)]
    if args.iters:
        cmd += ["--iters", str(args.iters)]
    cmd += extra + ["--t0", repr(time.monotonic())]
    proc = subprocess.run(
        cmd, env=worker_env(WORKLOADS[args.workload]), cwd=ROOT,
        stdout=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="mfeit pipeline benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--n", type=int, default=None, help="override the workload's grid size (quick checks)")
    parser.add_argument("--iters", type=int, default=None, help="override the workload's iteration count (quick checks)")
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so subprocess.run kills and reaps the worker.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(ROOT, "src", "mfeit", "cli.py")):
        print(f"error: no mfeit sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    try:
        setups = [] if args.trace else [
            run_worker(args, ["--setup-only"])["setup_s"] for _ in range(SETUP_SAMPLES - 1)
        ]
        result = run_worker(args, [])
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {args.workload} seed {args.seed}: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        units = {name: unit for name, unit, _ in PER_LAYER}
    else:
        setups.append(result["setup_s"])
        result["metrics"]["setup_s"] = statistics.median(setups)
        units = E2E_UNITS
    detail = {k: result[k] for k in ("machine", "passes", "sentinels", "samples")}
    detail.update(workload=args.workload, seed=args.seed, trace=args.trace, spec=WORKLOADS[args.workload])
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
