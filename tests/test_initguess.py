import cmath
import logging

import numpy as np
import pytest
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mfeit import RunConfig, PhantomSpec
from mfeit.admissible import AdmissibleParams, is_member
from mfeit.initguess import (
    compute_gammas,
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
    return synthesize_data(cfg), cfg


def _constant_medium_guess(omega_lo, omega_hi):
    """Initial guess from the data of a constant medium off the unit background, on one band."""
    params = AdmissibleParams(sigma0=2.0, eps0=0.5)
    cfg = RunConfig(n=17, c0=0.2, omega_lo=omega_lo, omega_hi=omega_hi, n_freq=4, refinement=1,
                    admissible=params, phantom=PhantomSpec())
    return initial_guess(synthesize_data(cfg), params), params


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

    @pytest.mark.parametrize("tol", [-1e-8, float("nan")])
    def test_rejects_negative_or_nan_tol(self, tol):
        # NaN passes a "tol <= 0" check and would treat every matrix as rank one
        with pytest.raises(ValueError, match="tolerance"):
            pinv2x2(np.eye(2), tol=tol)

    def test_rank_one_stack_matches_numpy(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((200, 2)) + 1j * rng.standard_normal((200, 2))
        y = rng.standard_normal((200, 2)) + 1j * rng.standard_normal((200, 2))
        m = x[:, :, None] * np.conj(y[:, None, :])  # x y^H
        ref = np.linalg.pinv(m, rcond=1e-8)
        rel = np.max(np.abs(pinv2x2(m) - ref), axis=(-2, -1)) / np.max(np.abs(ref), axis=(-2, -1))
        assert np.max(rel) < 1e-14

    def test_mixed_stack_in_one_call(self):
        rng = np.random.default_rng(6)
        full = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        x = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        rank_one = np.outer(x, np.conj(x[::-1]))
        near = np.diag([1.0, 1e-9])  # below the cutoff: inverted on its range only
        m = np.stack([full, rank_one, np.zeros((2, 2)), near, 3.0 * full, np.zeros((2, 2))]).reshape(2, 3, 2, 2)
        p = pinv2x2(m)
        assert p.shape == m.shape
        for got, mat in zip(p.reshape(-1, 2, 2), m.reshape(-1, 2, 2)):
            ref = np.linalg.pinv(mat, rcond=1e-8)
            assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))
        assert np.array_equal(p[0, 2], np.zeros((2, 2))) and np.array_equal(p[1, 2], np.zeros((2, 2)))

    def test_tol_at_least_one_gives_zero(self):
        rng = np.random.default_rng(7)
        m = rng.standard_normal((4, 2, 2)) + 1j * rng.standard_normal((4, 2, 2))
        for tol in (1.0, 2.5):
            assert np.array_equal(pinv2x2(m, tol), np.zeros_like(m))
            assert np.array_equal(pinv2x2(np.eye(2), tol), np.zeros((2, 2)))


# Entries are zero or of magnitude in [1e-100, 1e100], so that every
# pseudo-inverse is representable; within that range any finite stack goes.
_ENTRIES = st.just(0j) | st.complex_numbers(
    min_magnitude=1e-100, max_magnitude=1e100, allow_nan=False, allow_infinity=False
)
_STACKS = arrays(np.complex128, st.tuples(st.integers(1, 5), st.just(2), st.just(2)), elements=_ENTRIES, fill=st.nothing())


@settings(
    max_examples=200,
    deadline=None,
    database=None,
    derandomize=True,
    phases=[Phase.generate],
    suppress_health_check=[HealthCheck.too_slow],
)
@given(m=_STACKS)
def test_pinv_penrose_identities_for_arbitrary_stacks(m):
    # The four Penrose identities, each relative to the scale it carries: m p m = m
    # relative to |m|, p m p = p relative to |p|, and m p, p m Hermitian.  At the
    # default cutoff 1e-8 a full-rank inverse is exact to about eps * cond <= eps / 1e-8
    # and a truncated one drops a singular value of at most 1e-8 |m|.
    p = pinv2x2(m)
    assert np.all(np.isfinite(p))
    for mat, inv in zip(m, p):
        scale_m = np.max(np.abs(mat))
        if scale_m == 0.0:
            assert np.array_equal(inv, np.zeros((2, 2)))
            continue
        scale_p = np.max(np.abs(inv))
        mp_, pm = mat @ inv, inv @ mat
        assert np.max(np.abs(mp_ @ mat - mat)) <= 1e-6 * scale_m
        assert np.max(np.abs(pm @ inv - inv)) <= 1e-6 * scale_p
        assert np.max(np.abs(mp_.conj().T - mp_)) <= 1e-6
        assert np.max(np.abs(pm.conj().T - pm)) <= 1e-6


class TestGammaRhs:
    def test_zero_for_constant_medium_data(self):
        g = build_grid(17, 0.2)
        u = np.stack((g.X.astype(complex), g.Y.astype(complex)))
        assert np.max(np.abs(gamma_rhs(g, u))) < 1e-12

    def test_matches_independent_nodal_evaluation(self):
        # second implementation path on raw arrays, node by node: w = -pinv(A^T) s
        # with the cutoff sqrt(1e-8) on A's singular values.  The former reference,
        # -pinv(conj(A) A^T, rcond=1e-8) conj(A) s, is the same vector but squares
        # the condition number: at node (0, 1) (cond 581) it lies 1.1e-8 from a
        # 50-digit mpmath evaluation, while pinv(A^T) lies 3.0e-13 from it.
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
                w[i, j] = -np.linalg.pinv(a.T, rcond=1e-4) @ s
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
        assert np.all(np.abs(folded.imag) <= 0.5 * np.pi)
        assert folded[0, 0] == 1.0 + 0.4j  # values in (-pi/2, pi/2) untouched
        assert folded[0, 1] == 1.0 - 0.3j
        assert folded[0, 2].imag == pytest.approx(4.0 - np.pi)  # to the nearest branch
        assert violations == 1  # -0.3 is kept, and counted: below [0, pi/2)

    def test_exp_gamma_closer_than_background_on_bumps(self):
        cfg = RunConfig(n=33, c0=0.2, n_freq=3, refinement=2, phantom=TWO_BUMPS)
        data = synthesize_data(cfg)
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
        data = synthesize_data(cfg)
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

    def test_branch_invariant_on_clean_data(self, data33, caplog):
        data, _ = data33
        with caplog.at_level(logging.WARNING, logger="mfeit.initguess"):
            gammas = compute_gammas(data, 1.0, 1.0)
        assert not caplog.records
        assert len(gammas) == data.freqs.nodes.size
        for gamma in gammas:
            assert np.all(gamma.imag >= 0.0) and np.all(gamma.imag < 0.5 * np.pi)

    def test_eps_scales_inversely_with_band_midpoint(self):
        # exp(gamma) = sigma0 + i omega eps0 averages to sigma0 + i omega_mid eps0, so
        # eps0 comes back only if the imaginary part is divided by each band's midpoint
        for band in ((1.0, 2.0), (2.0, 4.0)):
            guess, params = _constant_medium_guess(*band)
            assert np.max(np.abs(guess[1] - params.eps0)) < 1e-10

    def test_average_matches_quadrature(self):
        # the weighted band average of sigma0 + i omega eps0 is exact for the trapezoid
        # rule, and its real part is sigma0 only if it is divided by the band length
        for band in ((1.0, 2.0), (2.0, 4.0)):
            guess, params = _constant_medium_guess(*band)
            assert np.max(np.abs(guess[0] - params.sigma0)) < 1e-10

    def test_band_from_zero_keeps_the_branch(self, caplog):
        # at omega = 0 the log-admittivity is real up to rounding; the fold must
        # keep a rounding-level negative imaginary part rather than add pi to it
        cfg = RunConfig(n=17, c0=0.2, omega_lo=0.0, omega_hi=2.0, n_freq=3, refinement=1, phantom=PhantomSpec())
        data = synthesize_data(cfg)
        with caplog.at_level(logging.WARNING, logger="mfeit.initguess"):
            guess = initial_guess(data, cfg.admissible)
        assert not caplog.records
        assert np.max(np.abs(guess[0] - 1.0)) < 1e-12
        assert np.max(np.abs(guess[1] - 1.0)) < 1e-12
