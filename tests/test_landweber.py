import dataclasses
import math
import warnings
import weakref

import numpy as np
import pytest

from mfeit import RunConfig, PhantomSpec
from mfeit.admissible import project_T
from mfeit.landweber import (
    GenericProblem,
    LandweberConfig,
    admittivity_problem,
    estimate_step_size,
    generic_run,
    run,
    step,
)
from mfeit.initguess import initial_guess
from mfeit.mesh import l2_norm_sq
from mfeit.objective import (
    directional_derivative,
    forward_states,
    gauss_newton_apply,
    random_smooth_pair,
)
from mfeit.pde import SolverError, constant_field
from mfeit.phantom import make_phantom, synthesize_data

from helpers import (
    ONE_BUMP,
    adjoint_mismatch,
    find_mu_safe,
    linear_oracle,
    pair_distance,
    rel_interior_err,
)


def pde_step(x, data, params, mu, truth=None):
    """One ``step`` of the admittivity problem from the field ``x``."""
    return step(admittivity_problem(data, params), x, mu, truth)


@pytest.fixture(scope="module")
def constant_data():
    cfg = RunConfig(n=17, c0=0.2, n_freq=3, refinement=1, phantom=PhantomSpec())
    return synthesize_data(cfg), cfg


@pytest.fixture(scope="module")
def bump_setup(data33_single):
    data, cfg = data33_single
    truth = np.stack(make_phantom(ONE_BUMP, data.grid, cfg.admissible))
    x0 = initial_guess(data, cfg.admissible)
    return data, cfg, truth, x0


@pytest.fixture(scope="module")
def bump17_states():
    """Forward states at the projected initial guess of a one-bump n=17 dataset."""
    cfg = RunConfig(n=17, c0=0.2, n_freq=5, refinement=1, phantom=ONE_BUMP)
    data = synthesize_data(cfg)
    x0 = project_T(data.grid, initial_guess(data, cfg.admissible), cfg.admissible)
    return data.grid, forward_states(x0, data)


def power_estimate(grid, states, steps=8):
    """Rayleigh quotient after ``steps`` power steps from the estimate's seed-0 direction."""
    d = random_smooth_pair(grid, np.random.default_rng(0))
    d = d / math.sqrt(l2_norm_sq(grid, d[0]) + l2_norm_sq(grid, d[1]))
    lam = 0.0
    for _ in range(steps):
        nd = gauss_newton_apply(grid, states, d)
        lam = directional_derivative(grid, nd, d)
        d = nd / math.sqrt(l2_norm_sq(grid, nd[0]) + l2_norm_sq(grid, nd[1]))
    return lam


def test_config_invariants():
    with pytest.raises(ValueError):
        LandweberConfig(mu=-1.0)
    with pytest.raises(ValueError):
        LandweberConfig(max_iters=0)
    with pytest.raises(ValueError):
        LandweberConfig(stop_tol=-1e-3)


@pytest.mark.parametrize("field, value", [("mu", math.nan), ("mu", math.inf), ("stop_tol", math.nan),
                                          ("stop_tol", math.inf)])
def test_config_rejects_non_finite(field, value):
    with pytest.raises(ValueError, match="must be finite"):
        LandweberConfig(**{field: value})


@pytest.mark.parametrize("value", [2.5, math.nan, "3"])
def test_config_rejects_non_integer_max_iters(value):
    # a float count passed construction and failed later in range()
    with pytest.raises(ValueError, match="max_iters must be an integer"):
        LandweberConfig(max_iters=value)


def test_step_size_estimate_between_power_and_largest_eigenvalue(bump17_states):
    grid, states = bump17_states
    # the normal operator as a dense matrix on the interior nodes of both components
    nodes = np.flatnonzero(grid.interior_mask)
    columns = []
    for comp in range(2):
        for node in nodes:
            e = np.zeros((2,) + grid.shape)
            e[comp].flat[node] = 1.0
            columns.append(gauss_newton_apply(grid, states, e).reshape(2, -1)[:, nodes].ravel())
    normal = np.array(columns).T
    assert np.allclose(normal, normal.T, rtol=0.0, atol=1e-9 * np.abs(normal).max())
    lam_max = np.linalg.eigvalsh(0.5 * (normal + normal.T))[-1]
    lam = 0.9 / estimate_step_size(grid, states)
    assert power_estimate(grid, states) <= lam <= (1.0 + 1e-10) * lam_max


def test_step_size_estimate_stops_at_invariant_subspace(bump17_states, monkeypatch, caplog):
    import mfeit.landweber as lw

    grid, states = bump17_states
    modes = np.zeros((2, 2) + grid.shape)
    for comp in range(2):
        modes[comp, comp][grid.interior_mask] = 1.0
        modes[comp] /= math.sqrt(directional_derivative(grid, modes[comp], modes[comp]))
    calls = []

    def rank_two(grid_, states_, d):
        calls.append(1)
        return sum(lam * directional_derivative(grid, d, m) * m for lam, m in zip((2.0, 0.5), modes))

    monkeypatch.setattr(lw, "gauss_newton_apply", rank_two)
    with warnings.catch_warnings(), np.errstate(all="raise"), caplog.at_level("INFO", logger=lw.__name__):
        warnings.simplefilter("error")
        mu = estimate_step_size(grid, states)
    # the start direction and the two modes span an invariant space: three steps, exact L
    assert len(calls) == 3
    assert mu == pytest.approx(0.9 / 2.0, rel=1e-12)
    assert "after 3 normal-operator applications" in caplog.text


@pytest.mark.parametrize("value", [0.0, math.nan])
def test_step_size_estimate_failure_raises(bump17_states, monkeypatch, value):
    import mfeit.landweber as lw

    grid, states = bump17_states
    monkeypatch.setattr(lw, "gauss_newton_apply", lambda g, s, d: np.full_like(d, value))
    with pytest.raises(SolverError, match="norm estimate"):
        estimate_step_size(grid, states)


def test_step_fixed_point_at_consistent_background(constant_data):
    data, cfg = constant_data
    x = constant_field(data.grid, 1.0, 1.0)
    x1, rec = pde_step(x, data, cfg.admissible, 1.0)
    assert pair_distance(data.grid, x1, x) <= 1e-9
    assert rec.J <= 1e-18
    assert rec.grad_norm <= 1e-12


def test_step_mu_zero_returns_projection(bump_setup):
    data, cfg, _, x0 = bump_setup
    wild = constant_field(data.grid, 1.0, 1.0)
    wild[0] += 0.5  # constant offset violates the support constraint
    x1, rec = pde_step(wild, data, cfg.admissible, 1e-300)
    projected = project_T(data.grid, wild, cfg.admissible)
    assert pair_distance(data.grid, x1, projected) < 1e-250
    assert rec.proj_dev == pytest.approx(pair_distance(data.grid, projected, wild), rel=1e-12)


def test_step_descends_from_background(bump_setup):
    data, cfg, _, _ = bump_setup
    x0 = constant_field(data.grid, 1.0, 1.0)
    mu = estimate_step_size(data.grid, forward_states(project_T(data.grid, x0, cfg.admissible), data))
    safe = find_mu_safe(x0, data, cfg.admissible, mu_start=mu)
    lcfg = LandweberConfig(mu=safe, max_iters=2, stop_tol=0.0)
    _, recs = run(x0, data, cfg.admissible, lcfg)
    assert recs[1].J < recs[0].J


def test_step_deterministic(bump_setup):
    data, cfg, truth, x0 = bump_setup
    a1, r1 = pde_step(x0, data, cfg.admissible, 1.0, truth=truth)
    a2, r2 = pde_step(x0, data, cfg.admissible, 1.0, truth=truth)
    assert np.array_equal(a1, a2)
    assert r1 == r2


def test_run_terminates_quickly_on_constant_data(constant_data):
    data, cfg = constant_data
    x0 = constant_field(data.grid, 1.0, 1.0)
    lcfg = LandweberConfig(mu=1.0, max_iters=50)
    _, recs = run(x0, data, cfg.admissible, lcfg)
    assert len(recs) <= 11


def test_run_monotone_at_frozen_safe_step(bump_setup):
    # mu_safe found by doubling on this configuration (violation at 2.8) and
    # frozen at 1.4 for a 15-iteration window
    data, cfg, _, x0 = bump_setup
    lcfg = LandweberConfig(mu=1.4, max_iters=15, stop_tol=0.0)
    _, recs = run(x0, data, cfg.admissible, lcfg)
    js = np.array([r.J for r in recs])
    assert np.all(np.diff(js) <= js[:-1] * 1e-9)


def test_run_reduces_error_from_initial_guess(bump_setup):
    data, cfg, truth, x0 = bump_setup
    lcfg = LandweberConfig(mu=None, max_iters=60, stop_tol=0.0)
    final, recs = run(x0, data, cfg.admissible, lcfg, truth=truth)
    assert rel_interior_err(data.grid, final, truth) <= 0.5 * rel_interior_err(data.grid, x0, truth)
    assert len(recs) == 60
    assert recs[0].n == 1 and recs[-1].n == 60
    assert np.isfinite([r.err_to_truth for r in recs]).all()


def test_trajectory_records_projection_deviation(bump_setup):
    data, cfg, _, x0 = bump_setup
    lcfg = LandweberConfig(mu=1.0, max_iters=3, stop_tol=0.0)
    _, recs = run(x0, data, cfg.admissible, lcfg)
    assert all(r.proj_dev >= 0.0 for r in recs)
    # an infeasible start shows up as a much larger recorded deviation than
    # the already-projected initial guess does
    far = constant_field(data.grid, 1.0, 1.0)
    far[0] += 1.0
    _, recs_far = run(far, data, cfg.admissible, lcfg)
    assert recs_far[0].proj_dev > 100 * recs[0].proj_dev


def test_run_solver_failure_keeps_partial_trajectory(bump_setup, monkeypatch):
    import mfeit.landweber as lw
    from mfeit.pde import SolverError

    data, cfg, _, x0 = bump_setup
    calls = {"n": 0}
    real = lw.forward_states

    def flaky(a, d):
        calls["n"] += 1
        if calls["n"] >= 3:
            raise SolverError("injected breakdown")
        return real(a, d)

    monkeypatch.setattr(lw, "forward_states", flaky)
    lcfg = LandweberConfig(mu=1.0, max_iters=10, stop_tol=0.0)
    with pytest.raises(SolverError) as excinfo:
        run(x0, data, cfg.admissible, lcfg)
    assert len(excinfo.value.trajectory) == 2
    assert excinfo.value.iteration == 3


class TestGenericEngine:
    def test_linear_oracle_converges(self):
        problem, x_star, mu, _ = linear_oracle()
        cfg = LandweberConfig(mu=mu, max_iters=10_000, stop_tol=0.0)
        xf, recs = generic_run(problem, np.zeros(5), cfg, truth=x_star)
        assert np.linalg.norm(xf - x_star) < 1e-6
        assert len(recs) <= 10_000

    def test_linear_oracle_monotone_error(self):
        problem, x_star, mu, _ = linear_oracle()
        cfg = LandweberConfig(mu=mu, max_iters=2000, stop_tol=0.0)
        _, recs = generic_run(problem, np.zeros(5), cfg, truth=x_star)
        errs = np.array([r.err_to_truth for r in recs])
        slack = 2.0 ** (-np.arange(1, len(errs), dtype=float))
        assert np.all(errs[1:] ** 2 <= errs[:-1] ** 2 + slack + 1e-12)

    def test_box_projection_same_limit(self):
        problem, x_star, mu, _ = linear_oracle()
        boxed = GenericProblem(
            residuals=problem.residuals,
            adjoint_step=problem.adjoint_step,
            misfit=problem.misfit,
            project=lambda x: np.clip(x, -10.0, 10.0),
        )
        cfg = LandweberConfig(mu=mu, max_iters=10_000, stop_tol=0.0)
        xf, _ = generic_run(boxed, np.zeros(5), cfg)
        assert np.linalg.norm(xf - x_star) < 1e-6

    def test_zero_residual_start_is_fixed(self):
        rng = np.random.default_rng(1)
        mats = [rng.standard_normal((5, 5)) for _ in range(3)]
        x0 = rng.standard_normal(5)
        bs = [a @ x0 for a in mats]
        problem = GenericProblem(
            residuals=lambda x: [a @ x - b for a, b in zip(mats, bs)],
            adjoint_step=lambda res: sum(a.T @ r for a, r in zip(mats, res)),
            misfit=lambda res: 0.5 * sum(float(r @ r) for r in res),
        )
        mu = 0.9 / sum(np.linalg.norm(a, 2) ** 2 for a in mats)
        xf, recs = generic_run(problem, x0, LandweberConfig(mu=mu, max_iters=5, stop_tol=0.0))
        assert np.array_equal(xf, x0)
        assert recs[0].J == 0.0
        # the stop is strict: a step of exactly zero does not end a stop_tol = 0 run
        assert len(recs) == 5 and recs[-1].step_norm == 0.0

    def test_diverging_run_raises_with_partial_trajectory(self):
        # x_k = (1 - mu) x_{k-1} + mu b: the first iterate is 1e100, the second
        # about -1e200, whose squared norm overflows
        b = np.ones(5)
        problem = GenericProblem(
            residuals=lambda x: [x - b],
            adjoint_step=lambda res: res[0],
            misfit=lambda res: 0.5 * float(res[0] @ res[0]),
        )
        with pytest.raises(SolverError, match="diverged") as excinfo:
            generic_run(problem, np.zeros(5), LandweberConfig(mu=1e100, max_iters=5, stop_tol=0.5), truth=b)
        assert excinfo.value.iteration == 2
        (rec,) = excinfo.value.trajectory
        assert rec.step_norm == pytest.approx(math.sqrt(5) * 1e100) and math.isfinite(rec.err_to_truth)

    @pytest.mark.parametrize("mu, raises", [(3.0, True), (2.0, False)])
    def test_misfit_above_the_first_raises(self, mu, raises):
        # x_k - b = (1 - mu)(x_{k-1} - b): J grows fourfold per step at mu = 3
        # and stays at its first value at mu = 2, which does not exceed it
        b = np.ones(5)
        problem = GenericProblem(
            residuals=lambda x: [x - b],
            adjoint_step=lambda res: res[0],
            misfit=lambda res: 0.5 * float(res[0] @ res[0]),
        )
        cfg = LandweberConfig(mu=mu, max_iters=5, stop_tol=0.0)
        if not raises:
            _, recs = generic_run(problem, np.zeros(5), cfg)
            assert [r.J for r in recs] == [2.5] * 5
            return
        with pytest.raises(SolverError, match="exceeds the first step's") as excinfo:
            generic_run(problem, np.zeros(5), cfg)
        assert excinfo.value.iteration == 2
        assert [r.J for r in excinfo.value.trajectory] == [2.5, 10.0]

    @pytest.mark.parametrize("stop_tol", [0.0, 1e-3, 1e-8])
    def test_stops_after_first_small_step(self, stop_tol):
        problem, x_star, mu, _ = linear_oracle()
        max_iters = 1000
        lcfg = LandweberConfig(mu=mu, max_iters=max_iters, stop_tol=stop_tol)
        _, recs = generic_run(problem, np.zeros(5), lcfg, truth=x_star)
        # replay the steps: record k holds |x_k - x_{k-1}|, compared with stop_tol |x_k|
        def norm(v):
            return math.sqrt(problem.inner_x(v, v))

        x, first_small = np.zeros(5), None
        for k, rec in enumerate(recs, start=1):
            x_prev, (x, replayed) = x, step(problem, x, mu, x_star)
            replayed.n = k
            assert rec == replayed
            assert rec.step_norm == norm(x - x_prev)
            if first_small is None and rec.step_norm < stop_tol * norm(x):
                first_small = k
        if stop_tol == 0.0:
            assert first_small is None and len(recs) == max_iters
        else:
            assert first_small == len(recs) < max_iters

    def test_automatic_step_size_matches_explicit_mu(self):
        problem, x_star, mu, _ = linear_oracle()
        auto = dataclasses.replace(problem, step_size=lambda res: mu)
        x_auto, r_auto = generic_run(auto, np.zeros(5), LandweberConfig(mu=None, max_iters=50, stop_tol=0.0),
                                     truth=x_star)
        x_mu, r_mu = generic_run(problem, np.zeros(5), LandweberConfig(mu=mu, max_iters=50, stop_tol=0.0),
                                 truth=x_star)
        assert np.array_equal(x_auto, x_mu)
        assert r_auto == r_mu

    def test_automatic_step_size_reuses_then_drops_start_residuals(self):
        problem, _, mu, _ = linear_oracle()
        first: list[weakref.ref] = []
        start_alive: list[bool] = []

        def residuals(x):
            if first:
                start_alive.append(first[0]() is not None)
            res = problem.residuals(x)
            if not first:
                first.append(weakref.ref(res[0]))
            return res

        projections = []

        def project(x):
            projections.append(1)
            return x

        counted = dataclasses.replace(problem, residuals=residuals, project=project, step_size=lambda res: mu)
        generic_run(counted, np.zeros(5), LandweberConfig(mu=None, max_iters=4, stop_tol=0.0))
        # one evaluation per step: the start residuals serve step 1 and are freed after it
        assert len(first) + len(start_alive) == 4
        assert start_alive == [False, False, False]
        # the start is projected once for the step size and step 1, then steps 2-4 and the result
        assert len(projections) == 5

    def test_automatic_step_size_needs_a_rule(self):
        problem, _, _, _ = linear_oracle()
        with pytest.raises(ValueError, match="step_size"):
            generic_run(problem, np.zeros(5), LandweberConfig(mu=None, max_iters=1))

    def test_adjoint_consistency_probe(self):
        problem, _, _, derivative = linear_oracle()
        rng = np.random.default_rng(10)
        h = rng.standard_normal(5)
        ys = [rng.standard_normal(5) for _ in range(3)]
        assert adjoint_mismatch(problem, derivative, np.zeros(5), h, ys) < 1e-12
