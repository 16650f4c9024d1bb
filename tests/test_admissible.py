import numpy as np
import pytest
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mfeit.admissible import (
    CLAMP_SLACK,
    AdmissibleParams,
    clamp_perturbation,
    is_member,
    project_T,
)
from mfeit.mesh import build_grid, l2_norm_sq, h1_norm_sq
from mfeit.pde import constant_field

from helpers import wide_smooth_field


@pytest.fixture(scope="module")
def grid():
    return build_grid(33, 0.2)


@pytest.fixture(scope="module")
def params():
    return AdmissibleParams()


def test_params_invariants_enforced():
    with pytest.raises(ValueError):
        AdmissibleParams(c1=2.0)  # c1 > sigma0
    with pytest.raises(ValueError):
        AdmissibleParams(c4=-1.0)
    with pytest.raises(ValueError, match="clamp slack"):
        # ordered bounds, but too close to keep CLAMP_SLACK inside both
        AdmissibleParams(c1=0.5, sigma0=0.5005, eps0=0.5005, c2=0.501)


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("name", ["sigma0", "eps0", "c1", "c2", "c4"])
def test_params_reject_non_finite(name, value):
    # a NaN c4 would switch the H1 cap off; an infinite c2 the upper bound
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        AdmissibleParams(**{name: value})


def test_background_is_member(grid, params):
    report = is_member(grid, constant_field(grid, params.sigma0, params.eps0), params)
    assert report.in_set
    assert report.violations == []


def test_bound_violation_reported_with_node(grid, params):
    a = constant_field(grid, params.sigma0, params.eps0)
    a[0, 16, 16] = params.c2 + 0.1
    report = is_member(grid, a, params)
    assert not report.in_set
    assert report.violations[0] == "sigma_bounds"


def test_support_violation_outside_interior(grid, params):
    a = constant_field(grid, params.sigma0, params.eps0)
    a[0, 1, 1] += 0.2  # inside the domain but outside the interior region
    assert not grid.interior_mask[1, 1]
    report = is_member(grid, a, params)
    assert not report.in_set
    assert "sigma_support" in report.violations


def test_h1_cap_violation(grid, params):
    rng = np.random.default_rng(0)
    eta = wide_smooth_field(grid, rng)
    eta *= 3.0 * params.c4 / np.sqrt(h1_norm_sq(grid, eta))
    # keep values inside the pointwise bounds while blowing up the H1 norm
    eta = np.clip(eta, params.c1 - params.sigma0 + 0.01, params.c2 - params.sigma0 - 0.01)
    a = np.stack((params.sigma0 + eta, np.full(grid.shape, params.eps0)))
    if np.sqrt(h1_norm_sq(grid, eta)) > params.c4:
        report = is_member(grid, a, params)
        assert "sigma_h1" in report.violations


def test_project_identity_on_background(grid, params):
    a = constant_field(grid, params.sigma0, params.eps0)
    out = project_T(grid, a, params)
    assert np.array_equal(out[0], a[0])
    assert np.array_equal(out[1], a[1])


def test_project_clamps_plateau(grid, params):
    a = constant_field(grid, params.sigma0, params.eps0)
    plateau = (np.abs(grid.X - 0.5) < 0.1) & (np.abs(grid.Y - 0.5) < 0.1)
    a[0][plateau] = params.c2 + 1.0
    out = project_T(grid, a, params)
    assert np.max(out[0][plateau]) <= params.c2 - CLAMP_SLACK + 1e-12


def test_project_output_always_member(grid, params):
    rng = np.random.default_rng(42)
    for _ in range(10):
        sigma = params.sigma0 + 4.0 * rng.standard_normal(grid.shape)
        eps = params.eps0 + 4.0 * rng.standard_normal(grid.shape)
        out = project_T(grid, np.stack((sigma, eps)), params)
        assert is_member(grid, out, params).in_set


def test_project_handles_non_finite(grid, params):
    a = constant_field(grid, params.sigma0, params.eps0)
    a[0, 10, 10] = np.nan
    a[1, 12, 12] = np.inf
    out = project_T(grid, a, params)
    assert np.all(np.isfinite(out[0])) and np.all(np.isfinite(out[1]))
    assert is_member(grid, out, params).in_set


# Every entry is drawn (no repeated fill value), so that neighboring nodes
# can hold huge values of the same sign; such inputs once overflowed the
# smoother.  Shrinking is skipped: at this size it takes minutes.
@settings(
    max_examples=100,
    deadline=None,
    database=None,
    derandomize=True,
    phases=[Phase.generate],
    suppress_health_check=[HealthCheck.data_too_large, HealthCheck.large_base_example, HealthCheck.too_slow],
)
@given(x=arrays(np.float64, (2, 17, 17), elements=st.floats(allow_nan=True, allow_infinity=True), fill=st.nothing()))
def test_project_output_member_for_arbitrary_input(x):
    # Any float input, NaN and +-inf included, projects into the admissible set.
    grid = build_grid(17, 0.2)
    params = AdmissibleParams()
    out = project_T(grid, x, params)
    assert np.all(np.isfinite(out))
    assert is_member(grid, out, params).in_set


def test_project_huge_finite_values_stay_finite():
    # Neighbor sums of values near the float maximum overflow to +-inf in the
    # smoother; a second pass would then add +inf and -inf into NaN.
    grid = build_grid(17, 0.2)
    params = AdmissibleParams()
    big = np.finfo(float).max
    x = constant_field(grid, params.sigma0, params.eps0)
    x[:, 6:11, 7:10] = 0.0
    x[:, (7, 9), 6] = big
    x[:, (7, 9), 10] = -big
    x[:, 7:10, 8] = big
    x[:, 7:10, 9] = -big
    out = project_T(grid, x, params)
    assert np.all(np.isfinite(out))
    assert is_member(grid, out, params).in_set


def test_nan_node_is_not_member(grid, params):
    a = constant_field(grid, params.sigma0, params.eps0)
    a[1, 16, 16] = np.nan
    report = is_member(grid, a, params)
    assert not report.in_set
    assert report.violations[0] == "eps_bounds"


def test_project_support_and_boundary_exact(grid, params):
    rng = np.random.default_rng(3)
    a = np.stack(
        (params.sigma0 + rng.standard_normal(grid.shape), params.eps0 + rng.standard_normal(grid.shape))
    )
    out = project_T(grid, a, params)
    outside = ~grid.interior_mask
    assert np.all(out[0][outside] == params.sigma0)
    assert np.all(out[1][outside] == params.eps0)
    assert np.all(out[0][grid.boundary_mask] == params.sigma0)


def test_near_idempotence_regression():
    # measured on the n=65 grid with smooth wide-bump fields; frozen bound 1e-2
    g = build_grid(65, 0.2)
    p = AdmissibleParams()
    rng = np.random.default_rng(42)
    for _ in range(5):
        a = np.stack((p.sigma0 + 0.8 * wide_smooth_field(g, rng), p.eps0 + 0.8 * wide_smooth_field(g, rng)))
        t1 = project_T(g, a, p)
        t2 = project_T(g, t1, p)
        num = np.sqrt(l2_norm_sq(g, t2[0] - t1[0]) + l2_norm_sq(g, t2[1] - t1[1]))
        den = np.sqrt(l2_norm_sq(g, t1[0] - p.sigma0) + l2_norm_sq(g, t1[1] - p.eps0))
        assert num <= 1e-2 * den


def test_clamp_nonexpansive_against_in_bound_fields(grid, params):
    lo = params.c1 - params.sigma0 + CLAMP_SLACK
    hi = params.c2 - params.sigma0 - CLAMP_SLACK
    rng = np.random.default_rng(7)
    for _ in range(100):
        x = 6.0 * rng.standard_normal(grid.shape)
        y = rng.uniform(lo, hi, size=grid.shape)  # already inside the bounds
        cx = clamp_perturbation(x, params, params.sigma0)
        assert np.all(np.abs(cx - y) <= np.abs(x - y) + 1e-15)
