"""Tests of the benchmark's own code at tiny size (n=17, 2 iterations).

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

from mfeit.admissible import AdmissibleParams  # noqa: E402
from mfeit.config import parse_config  # noqa: E402
from mfeit.mesh import build_grid, refine_grid  # noqa: E402
from mfeit.phantom import make_phantom  # noqa: E402

import spans  # noqa: E402
import worker  # noqa: E402
from run import E2E_UNITS, WORKLOADS  # noqa: E402
from spans import Span, Tracer, covered_length, pass_metrics, percentile, self_times  # noqa: E402


def test_covered_length_merges_overlaps_and_clips():
    assert covered_length([(1, 4), (3, 6), (8, 12)], 0, 10) == 7
    assert covered_length([], 0, 10) == 0
    assert covered_length([(2, 3), (2, 3)], 0, 10) == 1


def test_self_time_on_a_span_tree():
    tree = [
        Span(0, "root", 0.0, 10.0, None, None),
        Span(1, "a", 1.0, 4.0, 0, None),
        Span(2, "b", 3.0, 6.0, 0, None),  # overlaps a, as pool threads do
        Span(3, "c", 8.0, 10.0, 0, None),
        Span(4, "leaf", 2.0, 3.0, 1, None),
    ]
    own = self_times(tree)
    assert own == {0: 3.0, 1: 2.0, 2: 3.0, 3: 2.0, 4: 1.0}


def test_pass_metrics_sums_self_time_and_finds_unattributed_time():
    tracer = Tracer()
    tracer.spans = [
        Span(0, "objective.forward_states", 1.0, 5.0, None, "reconstruct"),
        Span(1, "pde.assemble", 1.0, 2.0, 0, "reconstruct"),
        Span(2, "pde.solve", 2.0, 4.0, 0, "reconstruct"),
        Span(3, "pde.factor", 2.0, 3.0, 2, "reconstruct"),
        Span(4, "landweber.step", 6.0, 9.0, None, "reconstruct"),
    ]
    tracer.counts[("pde.lu_solve", "reconstruct")] = 4
    tracer.counts[("pde.factor.nnz", "reconstruct")] = 100
    m = pass_metrics(tracer, 0.0, 10.0)
    assert m["objective.forward_states.s"] == 1.0
    assert m["pde.solve.s"] == 1.0 and m["pde.factor.s"] == 1.0
    assert m["pde.factor.bytes"] == 100 * spans.LU_ENTRY_BYTES
    assert m["pde.lu_solve.per_solve"] == 4.0
    assert m["landweber.step.durations"] == [3.0]
    assert m["trace.unattributed_s"] == 3.0


def test_percentile_is_nearest_rank():
    values = [float(v) for v in range(10, 0, -1)]
    assert percentile(values, 0.5) == 5.0
    assert percentile(values, 0.9) == 9.0
    assert percentile(values, 1.0) == 10.0
    assert percentile([7.0], 0.9) == 7.0
    with pytest.raises(ValueError):
        percentile([], 0.5)


def test_missing_target_is_reported_not_fatal(monkeypatch):
    monkeypatch.setattr(spans, "TARGETS", spans.TARGETS + (("mfeit.pde", "no_such_function", "pde.gone", None),))
    tracer = Tracer()
    try:
        assert tracer.install() == ["mfeit.pde.no_such_function"]
        assert tracer.missing_spans() == {"pde.gone"}
    finally:
        tracer.uninstall()
    import mfeit.pde
    assert not hasattr(mfeit.pde.assemble, "__wrapped__")


def test_seed_zero_is_the_default_phantom():
    default = parse_config(os.path.join(ROOT, "configs", "default.cfg")).phantom
    assert worker.seeded_phantom(0, AdmissibleParams()).inclusions == default.inclusions


@pytest.mark.parametrize("seed", range(1, 21))
def test_seeded_phantoms_are_admissible_and_reproducible(seed):
    params = AdmissibleParams()
    spec = worker.seeded_phantom(seed, params)
    assert spec == worker.seeded_phantom(seed, params)
    assert len(spec.inclusions) == 2
    for n in (17, 65, 129):
        coarse = build_grid(n, worker.C0)
        for grid in (coarse, refine_grid(coarse, 2)):
            make_phantom(spec, grid, params)


def _bench_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_benchmark_json_matches_the_code():
    cfg = _bench_json()
    assert [w["name"] for w in cfg["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in cfg["end_to_end"]} == E2E_UNITS
    assert [(m["name"], m["unit"]) for m in cfg["per_layer"]] == [(n, u) for n, u, _ in spans.PER_LAYER]


def _run(args, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "bench", "run.py")] + args
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_run(workload, trace):
    proc = _run(["--workload", workload, "--seed", "3", "--seconds", "0.1",
                 "--trace", str(trace), "--n", "17", "--iters", "2"])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 4
    listed = _bench_json()["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in listed)
    if trace:
        assert "MISMATCH" not in proc.stderr
        assert sum(line.endswith(" ok") for line in proc.stderr.splitlines()) == 4
        m = result["metrics"]
        assert m["pde.factor.count"]["value"] == 9 * 3 + 9 * (2 + 3)
        assert m["pde.lu_solve.count"]["value"] == 36 + 18 + 36 + 666 + 72 * 2


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(["--workload", "recon-n65", "--seed", "0", "--seconds", "1", "--trace", "0"], cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
