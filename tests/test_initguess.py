import cmath

import numpy as np
import pytest

from mfeit import RunConfig, PhantomSpec
from mfeit.admissible import is_member
from mfeit.initguess import (
    average_exp_gamma,
    compute_gammas,
    extract_sigma_eps,
    fold_imag,
    gamma_rhs,
    initial_guess,
    pinv2x2,
)
from mfeit.mesh import build_grid, div, grad
from mfeit.pde import constant_field
from mfeit.phantom import make_phantom, synthesize_data

from helpers import TWO_BUMPS, rel_interior_err, solve_gamma


@pytest.fixture(scope="module")
def constant_data33():
    cfg = RunConfig(n=33, c0=0.2, n_freq=5, refinement=1, phantom=PhantomSpec())
    return synthesize_data(cfg.phantom, cfg), cfg


class TestPinv:
    def test_identity(self):
        eye = np.eye(2, dtype=complex)
        assert np.allclose(pinv2x2(eye), eye, atol=1e-14)

    def test_rank_one_projector(self):
        m = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
        assert np.allclose(pinv2x2(m), m, atol=1e-14)

    def test_zero_matrix(self):
        z = np.zeros((2, 2), dtype=complex)
        assert np.array_equal(pinv2x2(z), z)

    def test_penrose_identities_random(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            p = pinv2x2(m)
            assert np.max(np.abs(p @ m - np.eye(2))) < 1e-12  # invertible case
            assert np.max(np.abs(m @ p @ m - m)) < 1e-12
            assert np.max(np.abs(p @ m @ p - p)) < 1e-12
            assert np.max(np.abs((m @ p).conj().T - m @ p)) < 1e-12
            assert np.max(np.abs((p @ m).conj().T - p @ m)) < 1e-12

    def test_rejects_bad_tol(self):
        with pytest.raises(ValueError):
            pinv2x2(np.eye(2), tol=0.0)


class TestGammaRhs:
    def test_zero_for_constant_medium_data(self):
        g = build_grid(17, 0.2)
        u = np.stack((g.X.astype(complex), g.Y.astype(complex)))
        assert np.max(np.abs(gamma_rhs(g, u))) < 1e-12

    def test_matches_independent_nodal_evaluation(self):
        # second implementation path on raw arrays, node by node
        g = build_grid(17, 0.2)
        u = np.stack(((g.X**2 + 0.3j * g.Y).astype(complex), (g.Y + 0.1 * g.X * g.Y).astype(complex)))
        lib = gamma_rhs(g, u)

        g1 = grad(g, u[0])
        g2 = grad(g, u[1])
        s1 = div(g, g1)
        s2 = div(g, g2)
        w = np.zeros(g.shape + (2,), dtype=complex)
        for i in range(g.n):
            for j in range(g.n):
                a = np.array([[g1[i, j, 0], g1[i, j, 1]], [g2[i, j, 0], g2[i, j, 1]]])
                s = np.array([s1[i, j], s2[i, j]])
                w[i, j] = -np.linalg.pinv(np.conj(a) @ a.T, rcond=1e-8) @ np.conj(a) @ s
        manual = div(g, w)
        assert np.max(np.abs(lib - manual)) < 1e-10

    def test_invariant_under_complex_scaling(self):
        g = build_grid(17, 0.2)
        u = np.stack(((g.X**2 + 0.3j * g.Y).astype(complex), (g.Y + 0.1 * g.X * g.Y).astype(complex)))
        base = gamma_rhs(g, u)
        for c in (2.0, 1j):
            scaled = c * u
            assert np.max(np.abs(gamma_rhs(g, scaled) - base)) < 1e-10


class TestSolveGamma:
    def test_constant_data_gives_constant_log(self, constant_data33):
        data, _ = constant_data33
        omega = float(data.freqs.nodes[0])
        gamma = solve_gamma(data.grid, data.potentials[0], omega, 1.0, 1.0)
        assert np.max(np.abs(gamma - cmath.log(1 + 1j * omega))) < 1e-10

    def test_boundary_value_closed_form(self):
        g = build_grid(17, 0.2)
        u = np.stack((g.X.astype(complex), g.Y.astype(complex)))
        gamma = solve_gamma(g, u, 0.5, 1.0, 1.0)
        val = gamma.reshape(-1)[g.boundary_index][0]
        assert val.real == pytest.approx(0.11157, abs=1e-5)
        assert val.imag == pytest.approx(0.46365, abs=1e-5)

    def test_branch_fold_and_report(self):
        gamma = np.array([[1.0 + 0.4j, 1.0 - 0.3j, 0.5 + 4.0j]])
        folded, violations = fold_imag(gamma)
        assert np.all(folded.imag >= 0.0) and np.all(folded.imag < np.pi)
        assert folded[0, 0] == 1.0 + 0.4j  # in-band values untouched
        assert folded[0, 2].imag == pytest.approx(4.0 - np.pi)  # reduced modulo pi
        assert violations == 1  # -0.3 folds to pi-0.3 >= pi/2

    def test_exp_gamma_closer_than_background_on_bumps(self):
        cfg = RunConfig(n=33, c0=0.2, n_freq=3, refinement=2, phantom=TWO_BUMPS)
        data = synthesize_data(TWO_BUMPS, cfg)
        grid = data.grid
        truth = make_phantom(TWO_BUMPS, grid, cfg.admissible)
        k = 1
        omega = float(data.freqs.nodes[k])
        gamma = solve_gamma(grid, data.potentials[k], omega, 1.0, 1.0)
        target = truth.sigma + 1j * omega * truth.eps
        mask = grid.interior_mask
        err_gamma = np.sqrt(np.sum(np.abs(np.exp(gamma) - target)[mask] ** 2))
        err_bg = np.sqrt(np.sum(np.abs((1.0 + 1j * omega) - target)[mask] ** 2))
        assert err_gamma < err_bg


class TestInitialGuess:
    def test_exact_on_constant_data(self, constant_data33):
        data, cfg = constant_data33
        guess = initial_guess(data, cfg.admissible)
        assert np.max(np.abs(guess[0] - 1.0)) < 1e-10
        assert np.max(np.abs(guess[1] - 1.0)) < 1e-10

    def test_single_frequency_eps_exact_for_constant_medium(self):
        cfg = RunConfig(n=17, c0=0.2, omega_lo=1.0, omega_hi=2.0, n_freq=1,
                        refinement=1, phantom=PhantomSpec())
        data = synthesize_data(cfg.phantom, cfg)
        guess = initial_guess(data, cfg.admissible)
        assert np.max(np.abs(guess[1] - 1.0)) < 1e-10

    def test_closer_than_background_on_bumps(self, data33, truth33):
        data, cfg = data33
        guess = initial_guess(data, cfg.admissible)
        bg = constant_field(data.grid, 1.0, 1.0)
        assert rel_interior_err(data.grid, guess, truth33) < rel_interior_err(data.grid, bg, truth33)

    def test_output_in_admissible_set(self, data33):
        data, cfg = data33
        guess = initial_guess(data, cfg.admissible)
        assert is_member(data.grid, guess, cfg.admissible).in_set

    def test_branch_invariant_on_clean_data(self, data33):
        data, _ = data33
        gf = compute_gammas(data, 1.0, 1.0)
        assert gf.fold_violations == [0] * data.freqs.nodes.size
        for gamma in gf.gammas:
            assert np.all(gamma.imag >= 0.0) and np.all(gamma.imag < 0.5 * np.pi)

    def test_eps_scales_inversely_with_band_midpoint(self):
        # frequency-independent averaged admittivity: eps extraction ~ 1/omega_mid
        m = np.full((4, 4), 2.0 + 0.9j)
        s1, e1 = extract_sigma_eps(m, 1.5)
        s2, e2 = extract_sigma_eps(m, 3.0)
        assert np.allclose(s1, s2)
        assert np.allclose(e1, 2.0 * e2)

    def test_per_frequency_variant_also_exact_on_constants(self, constant_data33):
        data, cfg = constant_data33
        guess = initial_guess(data, cfg.admissible, per_frequency_eps=True)
        assert np.max(np.abs(guess[0] - 1.0)) < 1e-10
        assert np.max(np.abs(guess[1] - 1.0)) < 1e-10

    def test_average_matches_quadrature(self, constant_data33):
        data, _ = constant_data33
        gf = compute_gammas(data, 1.0, 1.0)
        m = average_exp_gamma(data, gf)
        omega_mid = data.freqs.omega_mid
        assert np.max(np.abs(m - (1.0 + 1j * omega_mid))) < 1e-10
