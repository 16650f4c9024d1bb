"""One benchmark workload in one process: set-up, timed passes, output checks.

``run.py`` starts this file with the workload's thread settings already in
the environment, so they hold before numpy is imported.  A pass runs the
four CLI commands in-process through ``mfeit.cli.main``:

    simulate -> init-guess --data -> coverage -> reconstruct --data

Outputs of each pass are checked after it, outside the timed section.  The
last line of standard output is this process's JSON result for ``run.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import numpy as np
import scipy

from mfeit import cli
from mfeit.admissible import AdmissibleParams
from mfeit.config import RunConfig, write_config
from mfeit.mesh import build_grid
from mfeit.phantom import Inclusion, PhantomSpec, make_phantom

from run import ROOT, WORKLOADS
from spans import PER_LAYER, Tracer, command_counts, expected_counts, pass_metrics, percentile

C0 = 0.2
N_FREQ = 9
COMMANDS = ("simulate", "init-guess", "coverage", "reconstruct")
#: Commands run again after each untraced pass's pipeline, and how often in all.
SHORT_COMMANDS = ("init-guess", "coverage")
SHORT_REPEATS = 4

#: Seed 0: the two-bump phantom of configs/default.cfg.
DEFAULT_INCLUSIONS = (
    Inclusion(0.45, 0.5, 0.15, 0.8, -0.3),
    Inclusion(0.65, 0.6, 0.12, -0.4, 0.6),
)
#: Drawn phantoms are validated on this grid.  Every grid a workload builds
#: (n - 1 a power of two up to 256, refined by 2) is a node subset of it, so
#: pointwise bounds that hold here hold on every grid the run uses.
REFERENCE_N = 257
#: Extra distance kept between an inclusion's rim and the interior margin c0.
RIM_GAP = 0.02


class CheckError(Exception):
    """An output of a CLI command failed a correctness check."""


def seeded_phantom(seed: int, params: AdmissibleParams) -> PhantomSpec:
    """Two radial bumps from the default phantom's family, drawn from ``seed``.

    Radius in [0.10, 0.16], rim more than c0 + RIM_GAP from the edge,
    |dsigma| in [0.3, 0.8] and |deps| in [0.3, 0.6] with random signs; draws
    that ``make_phantom`` rejects are redrawn.
    """
    if seed == 0:
        return PhantomSpec(inclusions=list(DEFAULT_INCLUSIONS))
    rng = np.random.default_rng(seed)
    grid = build_grid(REFERENCE_N, C0)
    while True:
        inclusions = []
        for _ in range(2):
            radius = float(rng.uniform(0.10, 0.16))
            lo, hi = C0 + radius + RIM_GAP, 1.0 - C0 - radius - RIM_GAP
            cx, cy = (float(v) for v in rng.uniform(lo, hi, 2))
            dsigma = float(rng.choice((-1.0, 1.0)) * rng.uniform(0.3, 0.8))
            deps = float(rng.choice((-1.0, 1.0)) * rng.uniform(0.3, 0.6))
            inclusions.append(Inclusion(cx, cy, radius, dsigma, deps))
        spec = PhantomSpec(inclusions=inclusions)
        try:
            make_phantom(spec, grid, params)
        except ValueError:
            continue
        return spec


# ---------------------------------------------------------------- checks


def read_f64(base: str, n: int, complex_field: bool = False) -> np.ndarray:
    raw = np.fromfile(base + ".f64", dtype="<f8")
    planes = 2 if complex_field else 1
    if raw.size != planes * n * n:
        raise CheckError(f"{base}.f64 holds {raw.size} values, expected {planes * n * n}")
    if not np.all(np.isfinite(raw)):
        raise CheckError(f"{base}.f64 holds non-finite values")
    if complex_field:
        return raw[: n * n].reshape(n, n) + 1j * raw[n * n :].reshape(n, n)
    return raw.reshape(n, n)


def rel_err(out: str, which: str, truth, mask) -> float:
    """Relative interior L2 error of the (sigma, eps) pair ``<which>`` against the phantom."""
    n = mask.shape[0]
    sigma = read_f64(os.path.join(out, f"sigma_{which}"), n)
    eps = read_f64(os.path.join(out, f"eps_{which}"), n)
    num = np.sum((sigma - truth.sigma)[mask] ** 2) + np.sum((eps - truth.eps)[mask] ** 2)
    den = np.sum(truth.sigma[mask] ** 2) + np.sum(truth.eps[mask] ** 2)
    return float(np.sqrt(num / den))


def check_simulate(out: str, n: int) -> None:
    """Every frequency's potentials are finite and equal the coordinate traces on the boundary."""
    xs = np.linspace(0.0, 1.0, n)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    ring = np.zeros((n, n), dtype=bool)
    ring[0, :] = ring[-1, :] = ring[:, 0] = ring[:, -1] = True
    dataset = os.path.join(out, "dataset")
    if not os.path.isfile(os.path.join(dataset, "manifest.cfg")):
        raise CheckError("dataset manifest missing")
    for k in range(N_FREQ):
        for c, coord in ((1, X), (2, Y)):
            u = read_f64(os.path.join(dataset, f"u_{k:03d}_c{c}"), n, complex_field=True)
            if not np.array_equal(u[ring], coord[ring].astype(complex)):
                raise CheckError(f"u_{k:03d}_c{c}: boundary values differ from the coordinate trace")


def check_coverage(out: str, stdout: str, n: int) -> None:
    lam = [float(line.split("=", 1)[1]) for line in stdout.splitlines() if line.startswith("lambda =")]
    if len(lam) != 1 or not (math.isfinite(lam[0]) and lam[0] > 0.0):
        raise CheckError(f"coverage lambda not a positive number: {lam}")
    read_f64(os.path.join(out, "coverage_m"), n)


def check_reconstruct(out: str, iters: int, truth, mask) -> tuple[float, float, float]:
    """Trajectory rows and monotone J, finite fields, error below the initial guess's.

    Returns (J_final, rel_err of the final field, rel_err of the initial guess).
    """
    with open(os.path.join(out, "trajectory.csv"), newline="", encoding="utf-8") as fh:
        js = np.array([float(row["J"]) for row in csv.DictReader(fh)])
    if js.size != iters:
        raise CheckError(f"trajectory.csv has {js.size} rows, expected {iters}")
    if not np.all(np.isfinite(js)):
        raise CheckError("trajectory.csv holds non-finite J")
    if not np.all(np.diff(js) <= js[:-1] * 1e-9):
        raise CheckError("J increases along the trajectory")
    err_init = rel_err(out, "init", truth, mask)
    err_final = rel_err(out, "final", truth, mask)
    if not err_final < err_init:
        raise CheckError(f"final error {err_final:.4e} not below initial-guess error {err_init:.4e}")
    return float(js[-1]), err_final, err_init


# ---------------------------------------------------------------- passes


class Pipeline:
    """Inputs and accumulated results of one workload process."""

    def __init__(self, workdir: str, cfg_path: str, n: int, iters: int, truth, label: str):
        self.workdir = workdir
        self.cfg_path = cfg_path
        self.n = n
        self.iters = iters
        self.truth = truth
        self.mask = build_grid(n, C0).interior_mask
        self.label = label
        self.attempted = 0
        self.failed = 0
        self.passes = 0
        self.pending: list[tuple] = []
        self.sentinels: dict[str, float] = {}

    def run_command(self, command: str, out: str, dataset: str, tracer: Tracer | None) -> float:
        """Run one CLI command in-process and queue its outcome for ``check``; return its seconds."""
        argv = [command, "--config", self.cfg_path, "--out", out]
        if command in ("init-guess", "reconstruct"):
            argv += ["--data", dataset]
        if tracer is not None:
            tracer.command = command
        stdout, stderr = io.StringIO(), io.StringIO()
        t = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                rc = cli.main(argv)
        except Exception:
            rc = traceback.format_exc()
        seconds = time.perf_counter() - t
        if tracer is not None:
            tracer.command = None
        self.pending.append((command, out, rc, stdout.getvalue(), stderr.getvalue()))
        return seconds

    def one_pass(self, tracer: Tracer | None = None, repeats: int = 1) -> dict:
        """Run the pipeline once, then the short commands ``repeats - 1`` more times.

        The repeats give init-guess and coverage, which take well under a
        second, enough samples for a steady median; they are outside
        ``wall``.  Outputs are checked after all commands of the pass ran.
        Returns per-command lists of seconds, the pipeline's wall time and
        its start and end.
        """
        out = os.path.join(self.workdir, f"pass{self.passes}")
        self.passes += 1
        dataset = os.path.join(out, "simulate", "dataset")
        times = {c: [] for c in COMMANDS}
        t_pass = time.perf_counter()
        for command in COMMANDS:
            times[command].append(self.run_command(command, os.path.join(out, command), dataset, tracer))
        times["t_start"], times["t_end"] = t_pass, time.perf_counter()
        times["wall"] = times["t_end"] - t_pass
        times["iter_per_s"] = self.iters / times["reconstruct"][0]
        for r in range(1, repeats):
            for command in SHORT_COMMANDS:
                times[command].append(self.run_command(command, os.path.join(out, f"{command}-{r}"), dataset, tracer))
        self.check()
        shutil.rmtree(out, ignore_errors=True)
        return times

    def check(self) -> None:
        """Check every command run since the last check; each failure is printed and counted."""
        for command, out, rc, stdout, stderr in self.pending:
            self.attempted += 1
            try:
                if rc != 0:
                    raise CheckError(f"exit {rc!r}: {stderr.strip()[-2000:]}")
                if command == "simulate":
                    check_simulate(out, self.n)
                elif command == "init-guess":
                    rel_err(out, "init", self.truth, self.mask)
                elif command == "coverage":
                    check_coverage(out, stdout, self.n)
                else:
                    j_final, err, err_init = check_reconstruct(out, self.iters, self.truth, self.mask)
                    self.sentinels.update(J_final=j_final, rel_err=err, rel_err_init=err_init)
            except (CheckError, OSError, ValueError, KeyError) as exc:
                self.failed += 1
                print(f"CHECK FAILED [{self.label} pass {self.passes} {command}]: {exc}", file=sys.stderr)
        self.pending = []


# ---------------------------------------------------------------- reporting


def machine_record() -> dict:
    def blas(config) -> str:
        try:
            return str(config(mode="dicts")["Build Dependencies"]["blas"]["version"])
        except (KeyError, TypeError):
            return "unknown"

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = proc.stdout.strip() or commit
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": blas(np.show_config),
        "openblas_scipy": blas(scipy.show_config),
        "threads": {
            var: os.environ.get(var, "default") for var in ("MFEIT_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
        },
        "commit": commit,
    }


def e2e_metrics(samples: list[dict], peak_rss_mb: float) -> dict[str, float]:
    """Medians over every pass, and every repeat, of the end-to-end metrics."""

    def med(key):
        values = [s[key] for s in samples]
        return statistics.median(v for vs in values for v in (vs if isinstance(vs, list) else [vs]))

    return {
        "wall_s": med("wall"),
        "simulate_s": med("simulate"),
        "init_guess_s": med("init-guess"),
        "coverage_s": med("coverage"),
        "reconstruct_s": med("reconstruct"),
        "iter_per_s": med("iter_per_s"),
        "peak_rss_mb": peak_rss_mb,
    }


def layer_metrics(traced: list[dict], untraced: list[dict], layers: list[dict], tracer: Tracer) -> dict:
    """Per-layer metrics: medians over traced passes; step percentiles over all their steps."""
    missing = tracer.missing_spans()
    steps = [d for m in layers for d in m["landweber.step.durations"]]
    out = {}
    for name, _unit, sources in PER_LAYER:
        if missing.intersection(sources):
            continue
        if name == "landweber.step.p50_s":
            out[name] = percentile(steps, 0.5) if steps else None
        elif name == "landweber.step.p90_s":
            out[name] = percentile(steps, 0.9) if steps else None
        elif name == "trace.overhead_s":
            out[name] = statistics.median(t["wall"] for t in traced) - statistics.median(t["wall"] for t in untraced)
        elif name in layers[0]:
            out[name] = statistics.median(m[name] for m in layers)
    return {k: v for k, v in out.items() if v is not None}


def check_counts(tracer: Tracer, iters: int, label: str) -> None:
    """Compare per-command factorization and triangular-solve counts with the formulas."""
    observed = command_counts(tracer)
    for command, expected in expected_counts(N_FREQ, iters).items():
        got = observed.get(command, (0, 0))
        status = "ok" if got == expected else "MISMATCH"
        print(
            f"trace counts [{label} {command}]: factor={got[0]} lu_solve={got[1]} "
            f"formula factor={expected[0]} lu_solve={expected[1]} {status}",
            file=sys.stderr,
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True, help="time.monotonic() when the parent started this process")
    parser.add_argument("--n", type=int, default=None)
    parser.add_argument("--iters", type=int, default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    spec = WORKLOADS[args.workload]
    n = args.n or spec["n"]
    iters = args.iters or spec["iters"]
    label = f"{args.workload} seed {args.seed}"
    workdir = os.path.join(ROOT, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        params = AdmissibleParams()
        phantom = seeded_phantom(args.seed, params)
        cfg = RunConfig(n=n, c0=C0, n_freq=N_FREQ, phantom=phantom, max_iters=iters, stop_tol=0.0, output_dir=workdir)
        cfg_path = os.path.join(workdir, "run.cfg")
        write_config(cfg, cfg_path)
        truth = make_phantom(phantom, build_grid(n, C0), params)
        setup_s = time.monotonic() - args.t0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0

        run = Pipeline(workdir, cfg_path, n, iters, truth, label)
        start = time.perf_counter()
        untraced_until = start + (args.seconds / 2 if args.trace else args.seconds)
        untraced = [run.one_pass(repeats=SHORT_REPEATS)]
        # After one pass, so the figure does not grow with the number of passes
        # a run holds (allocator fragmentation raises it slowly).
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        while time.perf_counter() < untraced_until:
            untraced.append(run.one_pass(repeats=SHORT_REPEATS))

        if args.trace:
            tracer = Tracer()
            for target in tracer.install():
                print(f"trace: target {target} not found; its metrics are missing", file=sys.stderr)
            traced, layers = [], []
            try:
                while not traced or time.perf_counter() < start + args.seconds:
                    tracer.clear()
                    times = run.one_pass(tracer)
                    traced.append(times)
                    layers.append(pass_metrics(tracer, times["t_start"], times["t_end"]))
                check_counts(tracer, iters, label)
            finally:
                tracer.uninstall()
            metrics = layer_metrics(traced, untraced, layers, tracer)
            for key in ("J_final", "rel_err"):
                if key in run.sentinels:
                    metrics[key] = run.sentinels[key]
        else:
            metrics = e2e_metrics(untraced, peak_rss_mb) if run.failed == 0 else {}
        print(json.dumps({
            "attempted": run.attempted,
            "failed": run.failed,
            "metrics": metrics,
            "setup_s": setup_s,
            "machine": machine_record(),
            "passes": run.passes,
            "sentinels": run.sentinels,
            "samples": [{k: v for k, v in t.items() if not k.startswith("t_")} for t in untraced],
        }))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
