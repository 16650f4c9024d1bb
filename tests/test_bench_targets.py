"""The pipeline benchmark's contract with the package: names it traces and fields it reads.

``bench/spans.py`` replaces each ``(module, attribute)`` of its ``TARGETS``
with a timing wrapper and only reports a missing one, which silently empties
the per-layer metric; a target bound at import time (a default argument or
a captured reference) escapes the wrapper in the same silent way.
``bench/worker.py`` reads the phantom's fields by name.  These tests turn a
renamed, deleted or early-bound target, or a changed phantom return type,
into one failure instead of a broken benchmark pass.
"""

import importlib
import importlib.util
import os

import numpy as np
import pytest

import mfeit.landweber as lw
from mfeit import RunConfig, pde
from mfeit.admissible import AdmissibleParams
from mfeit.landweber import LandweberConfig
from mfeit.mesh import build_grid
from mfeit.pde import constant_field
from mfeit.phantom import Inclusion, PhantomSpec, make_phantom, synthesize_data
from mfeit.properbc import canonical_phi

from helpers import ONE_BUMP

SPANS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench", "spans.py")


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_every_span_target_resolves():
    spans = _load_spans()
    missing = [
        f"{module}.{attr}"
        for module, attr, _, _ in spans.TARGETS
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []


@pytest.mark.xfail(
    strict=True,
    reason="bench/spans.py still wraps scipy.sparse.linalg.splu, which mfeit.pde no longer calls; "
    "ROADMAP item 1 retargets pde.factor at mfeit.pde.factor",
)
def test_factor_target_records_a_span():
    # A resolvable target that the package never calls reads 0 instead of failing.
    tracer = _load_spans().Tracer()
    tracer.install()
    try:
        grid = build_grid(17, 0.2)
        pde.solve_dirichlet(pde.assemble(grid, constant_field(grid, 1.0, 1.0), 1.0), canonical_phi(grid))
    finally:
        tracer.uninstall()
    assert "pde.factor" in {s.name for s in tracer.spans}


def test_make_phantom_exposes_sigma_and_eps():
    # The benchmark reads the phantom's ``.sigma`` / ``.eps``; the package
    # takes ``np.stack`` of the same result as its (2, n, n) field.
    spec = PhantomSpec(inclusions=[Inclusion(0.5, 0.5, 0.15, 0.5, -0.3)])
    result = make_phantom(spec, build_grid(17, 0.2), AdmissibleParams())
    field = np.stack(result)
    assert field.shape == (2, 17, 17)
    assert np.array_equal(result.sigma, field[0])
    assert np.array_equal(result.eps, field[1])


def test_run_calls_the_landweber_targets_by_name(monkeypatch):
    # the step-size estimate and each step must go through the module
    # attributes at call time, or ``landweber.step_size`` / ``landweber.step`` read empty
    cfg = RunConfig(n=17, c0=0.2, n_freq=3, refinement=1, phantom=ONE_BUMP)
    data = synthesize_data(cfg)
    calls = {"estimate_step_size": 0, "step": 0}
    for name in calls:
        real = getattr(lw, name)

        def counting(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(lw, name, counting)
    x0 = constant_field(data.grid, 1.0, 1.0)
    lw.run(x0, data, cfg.admissible, LandweberConfig(mu=None, max_iters=2, stop_tol=0.0))
    assert calls == {"estimate_step_size": 1, "step": 2}
