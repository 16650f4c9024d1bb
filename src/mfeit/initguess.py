"""Initial admittivity guess from the data alone.

For each measured frequency the log-admittivity satisfies a Poisson
equation whose right-hand side is computable from the measured potential
pair (its gradient matrix and the row-wise divergence of that matrix,
combined through a pseudo-inverse).  Exponentials of the per-frequency
solutions are averaged over the band; the real part is the conductivity
guess and the imaginary part, divided by the band midpoint, the
permittivity guess.  The result is projected into the admissible set
before use.
"""

from __future__ import annotations

import cmath
import logging
from dataclasses import dataclass

import numpy as np

from .admissible import AdmissibleParams, project_T
from .mesh import Grid, div, grad
from .objective import Dataset, map_frequencies
from .pde import solve_poisson

logger = logging.getLogger(__name__)

DEFAULT_PINV_TOL = 1e-8


def pinv2x2(m: np.ndarray, tol: float = DEFAULT_PINV_TOL) -> np.ndarray:
    """Moore-Penrose pseudo-inverse of (stacked) complex 2x2 matrices.

    Singular values below ``tol`` times the largest one of each matrix are
    treated as zero, so rank-deficient gradient matrices invert to the
    inverse on their range and a zero matrix maps to zero.
    """
    if tol <= 0.0:
        raise ValueError("pseudo-inverse tolerance must be positive")
    m = np.asarray(m, dtype=complex)
    u, s, vh = np.linalg.svd(m)
    cutoff = tol * np.max(s, axis=-1, keepdims=True)
    s_inv = np.where(s > cutoff, 1.0 / np.where(s > 0.0, s, 1.0), 0.0)
    return np.einsum("...ji,...j,...kj->...ik", np.conj(vh), s_inv, np.conj(u))


def gamma_rhs(grid: Grid, u: np.ndarray, tol: float = DEFAULT_PINV_TOL) -> np.ndarray:
    """Right-hand side of the log-admittivity Poisson equation.

    Per node: A has rows grad(u[0]), grad(u[1]) of the measured pair u,
    shape (2, n, n); s is the row-wise divergence
    of A; the nodal vector is ``-(conj(A) A^T)^+ conj(A) s`` and the field
    value is the divergence of that vector field.
    """
    g1 = grad(grid, u[0])
    g2 = grad(grid, u[1])
    a = np.stack([g1, g2], axis=-2)  # (n, n, row, col)
    s = np.stack([div(grid, g1), div(grid, g2)], axis=-1)
    b = np.einsum("...ij,...kj->...ik", np.conj(a), a)  # conj(A) @ A^T
    w = -np.einsum("...ij,...jk,...k->...i", pinv2x2(b, tol), np.conj(a), s)
    return div(grid, w)


def fold_imag(gamma: np.ndarray) -> tuple[np.ndarray, int]:
    """Reduce the imaginary part modulo pi into [0, pi).

    Values landing in [pi/2, pi) are counted and reported by the caller;
    they indicate a branch the construction cannot justify, and are kept
    rather than folded further.
    """
    im = np.mod(gamma.imag, np.pi)
    violations = int(np.count_nonzero(im >= 0.5 * np.pi))
    return gamma.real + 1j * im, violations


def _log_bc(grid: Grid, omega: float, sigma0: float, eps0: float) -> np.ndarray:
    """Boundary values of the log-admittivity: the background's logarithm."""
    return np.full(len(grid.boundary_index), cmath.log(sigma0 + 1j * omega * eps0), dtype=complex)


def _warn_branch(violations: int, omega: float) -> None:
    if violations:
        logger.warning(
            "log-admittivity branch: %d nodes with imaginary part >= pi/2 at omega=%g",
            violations,
            omega,
        )


@dataclass
class GammaField:
    """Per-frequency log-admittivity solutions with branch diagnostics."""

    omegas: np.ndarray
    gammas: list[np.ndarray]
    fold_violations: list[int]


def compute_gammas(data: Dataset, sigma0: float, eps0: float, tol: float = DEFAULT_PINV_TOL) -> GammaField:
    """Log-admittivity at every frequency: one Poisson factorization, one column per frequency."""
    grid = data.grid
    omegas = [float(w) for w in data.freqs.nodes]
    rhs = map_frequencies(lambda u: gamma_rhs(grid, u, tol), data.potentials)
    bc = np.stack([_log_bc(grid, w, sigma0, eps0) for w in omegas])
    solved = solve_poisson(grid, np.stack(rhs), bc)
    gammas, violations = [], []
    for omega, column in zip(omegas, solved):
        gamma, v = fold_imag(column)
        _warn_branch(v, omega)
        gammas.append(gamma)
        violations.append(v)
    return GammaField(omegas=data.freqs.nodes.copy(), gammas=gammas, fold_violations=violations)


def average_exp_gamma(data: Dataset, gf: GammaField) -> np.ndarray:
    """Band average of exp(gamma): weighted quadrature over the frequency nodes."""
    length = data.freqs.omega_hi - data.freqs.omega_lo
    m = np.zeros(data.grid.shape, dtype=complex)
    for w, gamma in zip(data.freqs.weights, gf.gammas):
        m += float(w) * np.exp(gamma)
    return m / length


def extract_sigma_eps(m: np.ndarray, omega_mid: float) -> tuple[np.ndarray, np.ndarray]:
    """Split the averaged complex admittivity into (sigma, eps) at the band midpoint."""
    return m.real.copy(), m.imag / omega_mid


def initial_guess(
    data: Dataset,
    params: AdmissibleParams,
    tol: float = DEFAULT_PINV_TOL,
    per_frequency_eps: bool = False,
) -> np.ndarray:
    """Construct and project the initial admittivity guess, shape (2, n, n), from a dataset.

    With ``per_frequency_eps`` the permittivity is extracted as
    ``imag(exp(gamma))/omega`` per frequency before averaging instead of
    dividing the averaged value by the band midpoint; the default keeps the
    midpoint division.
    """
    grid = data.grid
    gf = compute_gammas(data, params.sigma0, params.eps0, tol)
    if per_frequency_eps:
        length = data.freqs.omega_hi - data.freqs.omega_lo
        sigma = np.zeros(grid.shape)
        eps = np.zeros(grid.shape)
        for w, omega, gamma in zip(data.freqs.weights, data.freqs.nodes, gf.gammas):
            e = np.exp(gamma)
            sigma += float(w) * e.real
            eps += float(w) * e.imag / float(omega)
        sigma /= length
        eps /= length
    else:
        m = average_exp_gamma(data, gf)
        sigma, eps = extract_sigma_eps(m, data.freqs.omega_mid)
    return project_T(grid, np.stack((sigma, eps)), params)
