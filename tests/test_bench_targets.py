"""The pipeline benchmark traces package functions by name; every name must exist.

``bench/spans.py`` replaces each ``(module, attribute)`` of its ``TARGETS``
with a timing wrapper and only reports a missing one, which silently empties
the per-layer metric.  This test turns a renamed or deleted target into a
failure.
"""

import importlib
import importlib.util
import os

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
