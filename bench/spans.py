"""In-memory span tracing of the mfeit layers, installed from outside the package.

``install`` replaces the public functions of each layer module with wrappers
that record one span per call: name, start, end, parent and the CLI command
that was running.  Names are patched where they are looked up, so a function
imported into several modules is wrapped in each of them.  Sparse LU work is
wrapped at the scipy boundary: ``splu`` records a ``pde.factor`` span and
returns a proxy that counts triangular solves.

Spans stay in memory; ``pass_metrics`` turns one pass's spans into the
per-layer metrics.  Every ``<layer>.<op>.s`` metric is self time (span
duration minus the part of it covered by child spans), except the landweber
step and step-size metrics, which are whole-call durations.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import math
import os
import sys
import threading
from collections import Counter, defaultdict
from time import perf_counter
from typing import NamedTuple


def _size(path: str) -> int:
    return os.path.getsize(path) if os.path.isfile(path) else 0


def _field_bytes(base, *args, **kwargs) -> int:
    return _size(base + ".f64") + _size(base + ".meta")


def _file_bytes(path, *args, **kwargs) -> int:
    return _size(path)


def _dir_bytes(directory, *args, **kwargs) -> int:
    return sum(_size(os.path.join(directory, name)) for name in os.listdir(directory))


#: (module, attribute, span name, bytes of the files the call touched or None).
TARGETS = (
    ("scipy.sparse.linalg", "splu", "pde.factor", None),
    ("mfeit.pde", "assemble", "pde.assemble", None),
    ("mfeit.pde", "solve_dirichlet", "pde.solve", None),
    ("mfeit.objective", "forward_states", "objective.forward_states", None),
    ("mfeit.objective", "gradient_from_states", "objective.gradient", None),
    ("mfeit.objective", "gauss_newton_apply", "objective.gauss_newton", None),
    ("mfeit.landweber", "step", "landweber.step", None),
    ("mfeit.landweber", "estimate_step_size", "landweber.step_size", None),
    ("mfeit.admissible", "project_T", "admissible.project", None),
    ("mfeit.initguess", "compute_gammas", "initguess.gammas", None),
    ("mfeit.initguess", "pinv2x2", "initguess.pinv", None),
    ("mfeit.initguess", "solve_poisson", "initguess.poisson", None),
    ("mfeit.properbc", "coverage_lambda", "properbc.coverage", None),
    ("mfeit.phantom", "synthesize_data", "phantom.synthesize", None),
    ("mfeit.fieldio", "write_field", "fieldio.write", _field_bytes),
    ("mfeit.fieldio", "write_field_csv", "fieldio.write", _file_bytes),
    ("mfeit.fieldio", "write_dataset", "fieldio.write", _dir_bytes),
    ("mfeit.fieldio", "write_trajectory_csv", "fieldio.write", _file_bytes),
    ("mfeit.fieldio", "read_field", "fieldio.read", _field_bytes),
    ("mfeit.fieldio", "read_dataset", "fieldio.read", _dir_bytes),
)

#: Per-layer metrics in report order: name, unit, spans it is computed from.
PER_LAYER = (
    ("pde.assemble.count", "count", ("pde.assemble",)),
    ("pde.assemble.s", "s", ("pde.assemble",)),
    ("pde.factor.count", "count", ("pde.factor",)),
    ("pde.factor.s", "s", ("pde.factor",)),
    ("pde.factor.nnz", "count", ("pde.factor",)),
    ("pde.factor.bytes", "B-computed", ("pde.factor",)),
    ("pde.solve.count", "count", ("pde.solve",)),
    ("pde.solve.s", "s", ("pde.solve",)),
    ("pde.solve.fail", "count", ("pde.solve",)),
    ("pde.lu_solve.count", "count", ("pde.factor",)),
    ("pde.lu_solve.per_solve", "ratio", ("pde.factor", "pde.solve")),
    ("objective.forward_states.count", "count", ("objective.forward_states",)),
    ("objective.forward_states.s", "s", ("objective.forward_states",)),
    ("objective.gradient.count", "count", ("objective.gradient",)),
    ("objective.gradient.s", "s", ("objective.gradient",)),
    ("objective.gauss_newton.count", "count", ("objective.gauss_newton",)),
    ("objective.gauss_newton.s", "s", ("objective.gauss_newton",)),
    ("landweber.step.count", "count", ("landweber.step",)),
    ("landweber.step.p50_s", "s", ("landweber.step",)),
    ("landweber.step.p90_s", "s", ("landweber.step",)),
    ("landweber.step_size.s", "s", ("landweber.step_size",)),
    ("admissible.project.count", "count", ("admissible.project",)),
    ("admissible.project.s", "s", ("admissible.project",)),
    ("initguess.gammas.s", "s", ("initguess.gammas",)),
    ("initguess.pinv.s", "s", ("initguess.pinv",)),
    ("initguess.poisson.count", "count", ("initguess.poisson",)),
    ("initguess.poisson.s", "s", ("initguess.poisson",)),
    ("properbc.coverage.count", "count", ("properbc.coverage",)),
    ("properbc.coverage.s", "s", ("properbc.coverage",)),
    ("phantom.synthesize.s", "s", ("phantom.synthesize",)),
    ("fieldio.write.s", "s", ("fieldio.write",)),
    ("fieldio.write.bytes", "B", ("fieldio.write",)),
    ("fieldio.read.s", "s", ("fieldio.read",)),
    ("fieldio.read.bytes", "B", ("fieldio.read",)),
    ("trace.overhead_s", "s", ()),
    ("trace.unattributed_s", "s", ()),
    # Output sentinels of reconstruct, taken from its files rather than spans.
    ("J_final", "1", ()),
    ("rel_err", "ratio", ()),
)

#: Bytes per stored LU entry (complex128); ``pde.factor.bytes`` is computed, not measured.
LU_ENTRY_BYTES = 16


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    command: str | None


class CountingLU:
    """Proxy of a SuperLU object that counts ``solve`` calls."""

    def __init__(self, lu, tracer: "Tracer"):
        self._lu = lu
        self._tracer = tracer

    def solve(self, *args, **kwargs):
        self._tracer.count("pde.lu_solve")
        return self._lu.solve(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._lu, name)


class Tracer:
    """Span and counter store for one traced process.

    Spans opened on a pool thread with nothing open on that thread take the
    main thread's innermost open span as parent, which is the call that
    submitted the work.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.command: str | None = None
        self.missing: list[str] = []
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._open_names: dict[int, str] = {}
        self._main_stack = self._stack()
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def count(self, key: str, n: int = 1) -> None:
        with self._lock:
            self.counts[(key, self.command)] += n

    def clear(self) -> None:
        self.spans = []
        self.counts = Counter()

    def wrap(self, name: str, fn, nbytes=None):
        factor = name == "pde.factor"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            elif stack is not self._main_stack and self._main_stack:
                parent = self._main_stack[-1]
            else:
                parent = None
            sid = next(self._ids)
            self._open_names[sid] = name
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.count(name + ".fail")
                raise
            finally:
                end = perf_counter()
                stack.pop()
                del self._open_names[sid]
                self.spans.append(Span(sid, name, start, end, parent, self.command))
            if factor:
                # SuperLU's stored entries of L and U; building L and U to count
                # their nonzeros would copy both factors inside the timed layers.
                self.count("pde.factor.nnz", result.nnz)
                return CountingLU(result, self)
            if nbytes is not None and self._open_names.get(parent) != name:
                self.count(name + ".bytes", nbytes(*args, **kwargs))
            return result

        return traced

    def install(self) -> list[str]:
        """Wrap every target that exists; return the targets that do not."""
        for module_name, attr, name, nbytes in TARGETS:
            try:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}.{attr}")
                continue
            wrapper = self.wrap(name, original, nbytes)
            homes = [module] + [
                m for key, m in sorted(sys.modules.items())
                if (key == "mfeit" or key.startswith("mfeit.")) and m is not module
            ]
            for home in homes:
                for key, value in list(vars(home).items()):
                    if value is original:
                        setattr(home, key, wrapper)
                        self._patched.append((home, key, original))
        return self.missing

    def uninstall(self) -> None:
        for home, key, original in reversed(self._patched):
            setattr(home, key, original)
        self._patched = []

    def missing_spans(self) -> set[str]:
        by_target = {f"{m}.{a}": name for m, a, name, _ in TARGETS}
        return {by_target[t] for t in self.missing}


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the time its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {s.id: (s.end - s.start) - covered_length(children[s.id], s.start, s.end) for s in spans}


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the ceil(q * n)-th smallest value, 0 < q <= 1."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"percentile rank {q} outside (0, 1]")
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def pass_metrics(tracer: Tracer, t_start: float, t_end: float) -> dict:
    """Per-layer metrics of one pass from the tracer's spans and counters.

    ``landweber.step.durations`` carries the raw step times so percentiles
    can be taken over all traced passes together.
    """
    spans = tracer.spans
    own = self_times(spans)
    count = Counter(s.name for s in spans)
    self_s = defaultdict(float)
    for s in spans:
        self_s[s.name] += own[s.id]
    total = Counter()
    for (key, _command), n in tracer.counts.items():
        total[key] += n

    m = {}
    for name in {t[2] for t in TARGETS}:
        m[f"{name}.count"] = float(count[name])
        m[f"{name}.s"] = self_s[name]
    nfactor = count["pde.factor"]
    m["pde.factor.nnz"] = total["pde.factor.nnz"] / nfactor if nfactor else 0.0
    m["pde.factor.bytes"] = m["pde.factor.nnz"] * LU_ENTRY_BYTES
    m["pde.solve.fail"] = float(total["pde.solve.fail"])
    m["pde.lu_solve.count"] = float(total["pde.lu_solve"])
    m["pde.lu_solve.per_solve"] = total["pde.lu_solve"] / count["pde.solve"] if count["pde.solve"] else 0.0
    m["landweber.step.durations"] = [s.end - s.start for s in spans if s.name == "landweber.step"]
    m["landweber.step_size.s"] = sum(s.end - s.start for s in spans if s.name == "landweber.step_size")
    m["fieldio.write.bytes"] = float(total["fieldio.write.bytes"])
    m["fieldio.read.bytes"] = float(total["fieldio.read.bytes"])
    top = [(s.start, s.end) for s in spans if s.parent is None]
    m["trace.unattributed_s"] = (t_end - t_start) - covered_length(top, t_start, t_end)
    return m


def command_counts(tracer: Tracer) -> dict[str, tuple[int, int]]:
    """Command -> (factorizations, triangular solves) recorded in the tracer."""
    factors = Counter(s.command for s in tracer.spans if s.name == "pde.factor")
    solves = Counter()
    for (key, command), n in tracer.counts.items():
        if key == "pde.lu_solve":
            solves[command] += n
    return {c: (factors[c], solves[c]) for c in set(factors) | set(solves)}


def expected_counts(n_freq: int, iters: int) -> dict[str, tuple[int, int]]:
    """Factorizations and triangular solves per command at this commit.

    Each ``solve_dirichlet`` does one solve plus one refinement sweep (two
    triangular solves).  ``reconstruct`` factors once per frequency for the
    initial guess, the coverage check, the step-size estimate and each step;
    its 8 power iterations do 4 solves per frequency each.
    """
    return {
        "simulate": (n_freq, 4 * n_freq),
        "init-guess": (n_freq, 2 * n_freq),
        "coverage": (n_freq, 4 * n_freq),
        "reconstruct": (n_freq * (iters + 3), 74 * n_freq + 8 * n_freq * iters),
    }
