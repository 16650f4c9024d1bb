import numpy as np
import pytest

from mfeit import pde
from mfeit.mesh import build_grid
from mfeit.objective import FrequencyGrid
from mfeit.pde import assemble, constant_field, solve_dirichlet
from mfeit.admissible import AdmissibleParams
from mfeit.phantom import make_phantom
from mfeit.properbc import canonical_phi, coverage_lambda, det_gradient_map

from helpers import TWO_BUMPS, reference_coverage


@pytest.fixture(scope="module")
def grid():
    return build_grid(17, 0.2)


def test_canonical_phi_corner_values(grid):
    phi = canonical_phi(grid)
    flat_xy = list(zip(grid.X.reshape(-1)[grid.boundary_index], grid.Y.reshape(-1)[grid.boundary_index]))
    k00 = flat_xy.index((0.0, 0.0))
    k10 = flat_xy.index((1.0, 0.0))
    assert phi[0][k00] == 0.0
    assert phi[0][k10] == 1.0


def test_constant_forward_has_identity_gradient(grid):
    u = solve_dirichlet(assemble(grid, constant_field(grid, 1.0, 1.0), 1.7), canonical_phi(grid))
    det = det_gradient_map(grid, u)
    assert np.max(np.abs(det - 1.0)) < 1e-10


def test_det_examples(grid):
    x = grid.X.astype(complex)
    y = grid.Y.astype(complex)
    assert np.allclose(det_gradient_map(grid, np.stack((x, y))), 1.0, atol=1e-12)
    assert np.allclose(det_gradient_map(grid, np.stack((x, x))), 0.0, atol=1e-12)
    assert np.allclose(det_gradient_map(grid, np.stack((x + 1j * y, y))), 1.0, atol=1e-12)


def test_coverage_constant_medium(grid):
    freqs = FrequencyGrid.uniform(1.0, 2.0, 5)
    cov = coverage_lambda(grid, constant_field(grid, 1.0, 1.0), freqs, canonical_phi(grid))
    assert np.max(np.abs(cov.m - 1.0)) < 1e-9
    assert cov.lam == pytest.approx(1.0, abs=1e-10)


def test_coverage_single_frequency_weight(grid):
    freqs = FrequencyGrid.uniform(1.0, 2.5, 1)
    cov = coverage_lambda(grid, constant_field(grid, 1.0, 1.0), freqs, canonical_phi(grid))
    assert cov.lam == pytest.approx(1.5, abs=1e-9)


def test_coverage_bump_phantom_regression():
    # frozen from the first validated run at n=65, 9 frequencies on (1, 2)
    g = build_grid(65, 0.2)
    phantom = np.stack(make_phantom(TWO_BUMPS, g, AdmissibleParams()))
    cov = coverage_lambda(g, phantom, FrequencyGrid.uniform(1.0, 2.0, 9), canonical_phi(g))
    assert cov.lam > 0.0
    assert cov.lam == pytest.approx(0.7588, rel=0.2)


def test_lambda_invariant_under_trace_swap(grid):
    g33 = build_grid(33, 0.2)
    phantom = np.stack(make_phantom(TWO_BUMPS, g33, AdmissibleParams()))
    freqs = FrequencyGrid.uniform(1.0, 2.0, 3)
    phi = canonical_phi(g33)
    cov = coverage_lambda(g33, phantom, freqs, phi)
    cov_swapped = coverage_lambda(g33, phantom, freqs, phi[::-1])
    assert cov.lam == pytest.approx(cov_swapped.lam, rel=1e-12)


def test_lambda_scales_with_interval_length(grid):
    a = constant_field(grid, 1.0, 1.0)
    phi = canonical_phi(grid)
    lam1 = coverage_lambda(grid, a, FrequencyGrid.uniform(1.0, 2.0, 5), phi).lam
    lam3 = coverage_lambda(grid, a, FrequencyGrid.uniform(1.0, 4.0, 5), phi).lam
    assert lam3 == pytest.approx(3.0 * lam1, rel=1e-9)


def test_lambda_stable_under_tiny_coefficient_perturbation():
    g = build_grid(33, 0.2)
    phantom = make_phantom(TWO_BUMPS, g, AdmissibleParams())
    freqs = FrequencyGrid.uniform(1.0, 2.0, 3)
    phi = canonical_phi(g)
    lam = coverage_lambda(g, np.stack(phantom), freqs, phi).lam
    wiggled = np.stack((phantom.sigma + 1e-8, phantom.eps - 1e-8))
    lam_w = coverage_lambda(g, wiggled, freqs, phi).lam
    assert abs(lam - lam_w) < 1e-5


def _assert_matches_per_frequency_loop(g, phantom, freqs, phi):
    cov = coverage_lambda(g, phantom, freqs, phi)
    m_ref, lam_ref = reference_coverage(g, phantom, freqs, phi)
    assert np.max(np.abs(cov.m - m_ref)) <= 1e-10 * np.max(np.abs(m_ref))
    assert abs(cov.lam - lam_ref) <= 1e-10 * abs(lam_ref)


def test_coverage_matches_per_frequency_loop():
    g = build_grid(33, 0.2)
    phantom = np.stack(make_phantom(TWO_BUMPS, g, AdmissibleParams()))
    _assert_matches_per_frequency_loop(g, phantom, FrequencyGrid.uniform(1.0, 2.0, 9), canonical_phi(g))


def test_coverage_fallback_matches_per_frequency_loop(monkeypatch):
    # After one Krylov step only the mid-band frequency, the sweep's shift,
    # passes; the other 8 fall back to solve_dirichlet on the pool.
    monkeypatch.setattr(pde, "SWEEP_STEPS", 1)
    monkeypatch.setenv("MFEIT_THREADS", "2")
    made = []
    factor = pde.factor
    monkeypatch.setattr(pde, "factor", lambda *a, **k: made.append(1) or factor(*a, **k))
    g = build_grid(33, 0.2)
    phantom = np.stack(make_phantom(TWO_BUMPS, g, AdmissibleParams()))
    _assert_matches_per_frequency_loop(g, phantom, FrequencyGrid.uniform(1.0, 2.0, 9), canonical_phi(g))
    assert len(made) == 1 + 8 + 9  # sweep, fallbacks, then the oracle's own loop
