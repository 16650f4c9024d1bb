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
from mfeit.objective import forward_states
from mfeit.pde import constant_field
from mfeit.phantom import make_phantom, synthesize_data

from helpers import (
    ONE_BUMP,
    adjoint_mismatch,
    find_mu_safe,
    linear_oracle,
    pair_distance,
    rel_interior_err,
)


def pde_step(x, data, lcfg, truth=None):
    """One ``step`` of the admittivity problem from the field ``x``."""
    return step(admittivity_problem(data, lcfg.admissible), x, lcfg.mu, truth)


@pytest.fixture(scope="module")
def constant_data():
    cfg = RunConfig(n=17, c0=0.2, n_freq=3, refinement=1, phantom=PhantomSpec())
    return synthesize_data(cfg.phantom, cfg), cfg


@pytest.fixture(scope="module")
def bump_setup(data33_single):
    data, cfg = data33_single
    truth = np.stack(make_phantom(ONE_BUMP, data.grid, cfg.admissible))
    x0 = initial_guess(data, cfg.admissible)
    return data, cfg, truth, x0


def test_config_invariants():
    with pytest.raises(ValueError):
        LandweberConfig(mu=-1.0)
    with pytest.raises(ValueError):
        LandweberConfig(max_iters=0)
    with pytest.raises(ValueError):
        LandweberConfig(stop_tol=-1e-3)


def test_step_fixed_point_at_consistent_background(constant_data):
    data, cfg = constant_data
    x = constant_field(data.grid, 1.0, 1.0)
    lcfg = LandweberConfig(admissible=cfg.admissible, mu=1.0)
    x1, rec = pde_step(x, data, lcfg)
    assert pair_distance(data.grid, x1, x) <= 1e-9
    assert rec.J <= 1e-18
    assert rec.grad_norm <= 1e-12


def test_step_mu_zero_returns_projection(bump_setup):
    data, cfg, _, x0 = bump_setup
    wild = constant_field(data.grid, 1.0, 1.0)
    wild[0] += 0.5  # constant offset violates the support constraint
    lcfg = LandweberConfig(admissible=cfg.admissible, mu=1e-300)
    x1, rec = pde_step(wild, data, lcfg)
    projected = project_T(data.grid, wild, cfg.admissible)
    assert pair_distance(data.grid, x1, projected) < 1e-250
    assert rec.proj_dev == pytest.approx(pair_distance(data.grid, projected, wild), rel=1e-12)


def test_step_descends_from_background(bump_setup):
    data, cfg, _, _ = bump_setup
    x0 = constant_field(data.grid, 1.0, 1.0)
    mu = estimate_step_size(data.grid, forward_states(project_T(data.grid, x0, cfg.admissible), data))
    safe = find_mu_safe(x0, data, LandweberConfig(admissible=cfg.admissible), mu_start=mu)
    lcfg = LandweberConfig(admissible=cfg.admissible, mu=safe, max_iters=2, stop_tol=0.0)
    _, recs = run(x0, data, lcfg)
    assert recs[1].J < recs[0].J


def test_step_deterministic(bump_setup):
    data, cfg, truth, x0 = bump_setup
    lcfg = LandweberConfig(admissible=cfg.admissible, mu=1.0)
    a1, r1 = pde_step(x0, data, lcfg, truth=truth)
    a2, r2 = pde_step(x0, data, lcfg, truth=truth)
    assert np.array_equal(a1, a2)
    assert r1 == r2


def test_run_terminates_quickly_on_constant_data(constant_data):
    data, cfg = constant_data
    x0 = constant_field(data.grid, 1.0, 1.0)
    lcfg = LandweberConfig(admissible=cfg.admissible, mu=1.0, max_iters=50)
    _, recs = run(x0, data, lcfg)
    assert len(recs) <= 11


def test_run_monotone_at_frozen_safe_step(bump_setup):
    # mu_safe found by doubling on this configuration (violation at 2.8) and
    # frozen at 1.4 for a 15-iteration window
    data, cfg, _, x0 = bump_setup
    lcfg = LandweberConfig(admissible=cfg.admissible, mu=1.4, max_iters=15, stop_tol=0.0)
    _, recs = run(x0, data, lcfg)
    js = np.array([r.J for r in recs])
    assert np.all(np.diff(js) <= js[:-1] * 1e-9)


def test_run_reduces_error_from_initial_guess(bump_setup):
    data, cfg, truth, x0 = bump_setup
    lcfg = LandweberConfig(admissible=cfg.admissible, mu=None, max_iters=60, stop_tol=0.0)
    final, recs = run(x0, data, lcfg, truth=truth)
    assert rel_interior_err(data.grid, final, truth) <= 0.5 * rel_interior_err(data.grid, x0, truth)
    assert len(recs) == 60
    assert recs[0].n == 1 and recs[-1].n == 60
    assert np.isfinite([r.err_to_truth for r in recs]).all()


def test_trajectory_records_projection_deviation(bump_setup):
    data, cfg, _, x0 = bump_setup
    lcfg = LandweberConfig(admissible=cfg.admissible, mu=1.0, max_iters=3, stop_tol=0.0)
    _, recs = run(x0, data, lcfg)
    assert all(r.proj_dev >= 0.0 for r in recs)
    # an infeasible start shows up as a much larger recorded deviation than
    # the already-projected initial guess does
    far = constant_field(data.grid, 1.0, 1.0)
    far[0] += 1.0
    _, recs_far = run(far, data, lcfg)
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
    lcfg = LandweberConfig(admissible=cfg.admissible, mu=1.0, max_iters=10, stop_tol=0.0)
    with pytest.raises(SolverError) as excinfo:
        run(x0, data, lcfg)
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
            weights=problem.weights,
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
        weights = np.ones(3)
        problem = GenericProblem(
            residuals=lambda x: [a @ x - b for a, b in zip(mats, bs)],
            adjoint_step=lambda res: sum(a.T @ r for a, r in zip(mats, res)),
            weights=weights,
        )
        mu = 0.9 / sum(np.linalg.norm(a, 2) ** 2 for a in mats)
        xf, recs = generic_run(problem, x0, LandweberConfig(mu=mu, max_iters=5, stop_tol=0.0))
        assert np.array_equal(xf, x0)
        assert recs[0].J == 0.0

    def test_adjoint_consistency_probe(self):
        problem, _, _, derivative = linear_oracle()
        rng = np.random.default_rng(10)
        h = rng.standard_normal(5)
        ys = [rng.standard_normal(5) for _ in range(3)]
        assert adjoint_mismatch(problem, derivative, np.zeros(5), h, ys) < 1e-12
