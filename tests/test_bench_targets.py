"""The pipeline benchmark's contract with the package: names it traces and fields it reads.

``bench/spans.py`` replaces each ``(module, attribute)`` of its ``TARGETS``
with a timing wrapper and only reports a missing one, which silently empties
the per-layer metric; ``bench/worker.py`` reads the phantom's fields by
name.  These tests turn a renamed or deleted target, or a changed phantom
return type, into one failure instead of a broken benchmark pass.
"""

import importlib
import importlib.util
import os

import numpy as np

from mfeit.mesh import build_grid
from mfeit.phantom import Inclusion, PhantomSpec, make_phantom

SPANS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench", "spans.py")


def test_every_span_target_resolves():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        f"{module}.{attr}"
        for module, attr, _, _ in spans.TARGETS
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []


def test_make_phantom_exposes_sigma_and_eps():
    # The benchmark reads the phantom's ``.sigma`` / ``.eps``; the package
    # takes ``np.stack`` of the same result as its (2, n, n) field.
    result = make_phantom(PhantomSpec(inclusions=[Inclusion(0.5, 0.5, 0.15, 0.5, -0.3)]), build_grid(17, 0.2))
    field = np.stack(result)
    assert field.shape == (2, 17, 17)
    assert np.array_equal(result.sigma, field[0])
    assert np.array_equal(result.eps, field[1])
