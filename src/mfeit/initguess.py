"""Initial admittivity guess from the data alone.

For each measured frequency the log-admittivity satisfies a Poisson
equation whose right-hand side is computable from the measured potential
pair: with A its 2x2 gradient matrix and s the row-wise divergence of A,
the right-hand side is the divergence of ``w = -pinv(A^T) s``.  The
pseudo-inverse drops singular values of A at or below ``sqrt(PINV_TOL)``
times the largest, which is the cutoff ``PINV_TOL`` on the singular values
of ``conj(A) A^T``.  The coverage gate keeps A away from singular, so the
cutoff is a constant, not a setting.  Exponentials of the per-frequency
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
from .objective import Dataset
from .pde import map_frequencies, solve_poisson

logger = logging.getLogger(__name__)

#: Cutoff on the singular values of ``conj(A) A^T`` in the pseudo-inverse of ``gamma_rhs``.
PINV_TOL = 1e-8


def pinv2x2(m: np.ndarray, tol: float = PINV_TOL) -> np.ndarray:
    """Moore-Penrose pseudo-inverse of (stacked) complex 2x2 matrices, in closed form.

    Singular values at or below ``tol`` times the largest one of each matrix
    are treated as zero, as ``np.linalg.pinv(m, rcond=tol)`` does.  With
    ``s1**2`` the larger eigenvalue of the Gram matrix ``m^H m`` and
    ``|det m| = s1 s2``, a matrix is full rank when ``|det m| > tol s1**2``
    and inverts to ``adj(m) / det m``.  A rank-one matrix inverts to
    ``v (m v)^H / (s1**2 |v|**2)``, with ``v`` a top eigenvector of the Gram
    matrix.  A zero matrix, and every matrix once ``tol >= 1``, maps to zero.
    ``gamma_rhs`` applies it to ``A^T`` with ``tol = sqrt(PINV_TOL)``.
    """
    if not tol > 0.0:
        raise ValueError("pseudo-inverse tolerance must be positive")
    m = np.asarray(m, dtype=complex)
    if tol >= 1.0:
        return np.zeros_like(m)
    a, b, c, d = (m[..., i, j] for i, j in ((0, 0), (0, 1), (1, 0), (1, 1)))
    # scale each matrix by a power of two (exact) so that no product below overflows
    _, e = np.frexp(np.maximum.reduce([np.abs(x) for z in (a, b, c, d) for x in (z.real, z.imag)]))
    a, b, c, d = (np.ldexp(z.real, -e) + 1j * np.ldexp(z.imag, -e) for z in (a, b, c, d))
    p = a.real**2 + a.imag**2 + c.real**2 + c.imag**2
    r = b.real**2 + b.imag**2 + d.real**2 + d.imag**2
    q = np.conj(a) * b + np.conj(c) * d  # Gram matrix [[p, q], [conj(q), r]]
    half = 0.5 * (p - r)
    h = np.hypot(half, np.abs(q))
    s1 = 0.5 * (p + r) + h
    det = a * d - b * c
    full = np.abs(det) > tol * s1
    # top eigenvector of the Gram matrix, from the row whose entries do not cancel
    first = half >= 0.0
    v0 = np.where(first, half + h, q)
    v1 = np.where(first, np.conj(q), h - half)
    vv = v0.real**2 + v0.imag**2 + v1.real**2 + v1.imag**2
    mv0 = np.conj(a * v0 + b * v1)
    mv1 = np.conj(c * v0 + d * v1)
    # a zero matrix divides by infinity: zero, and no warning
    inv = np.ldexp(1.0, -e) / np.where(full, det, np.where(vv > 0.0, s1 * vv, np.inf))
    adj = np.stack((d, -b, -c, a), axis=-1)
    outer = np.stack((v0 * mv0, v0 * mv1, v1 * mv0, v1 * mv1), axis=-1)
    return (np.where(full[..., None], adj, outer) * inv[..., None]).reshape(m.shape)


def gamma_rhs(grid: Grid, u: np.ndarray) -> np.ndarray:
    """Right-hand side of the log-admittivity Poisson equation.

    Per node: A has rows grad(u[0]), grad(u[1]) of the measured pair u,
    shape (2, n, n); s is the row-wise divergence of A; the nodal vector
    is ``w = -pinv(A^T) s`` and the field value is the divergence of that
    vector field.  ``pinv(A^T) = (conj(A) A^T)^+ conj(A)``, and the cutoff
    ``sqrt(PINV_TOL)`` on the singular values of ``A^T`` is the cutoff
    ``PINV_TOL`` on those of ``conj(A) A^T``; forming that product would
    square the condition number.
    """
    g1 = grad(grid, u[0])
    g2 = grad(grid, u[1])
    at = np.stack([g1, g2], axis=-1)  # (n, n, col, row): A^T
    s = np.stack([div(grid, g1), div(grid, g2)], axis=-1)
    w = -np.sum(pinv2x2(at, np.sqrt(PINV_TOL)) * s[..., None, :], axis=-1)
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

    gammas: list[np.ndarray]
    fold_violations: list[int]


def compute_gammas(data: Dataset, sigma0: float, eps0: float) -> GammaField:
    """Log-admittivity at every frequency: one Poisson factorization, one column per frequency."""
    grid = data.grid
    omegas = [float(w) for w in data.freqs.nodes]
    rhs = map_frequencies(lambda u: gamma_rhs(grid, u), data.potentials)
    bc = np.stack([_log_bc(grid, w, sigma0, eps0) for w in omegas])
    solved = solve_poisson(grid, np.stack(rhs), bc)
    gammas, violations = [], []
    for omega, column in zip(omegas, solved):
        gamma, v = fold_imag(column)
        _warn_branch(v, omega)
        gammas.append(gamma)
        violations.append(v)
    return GammaField(gammas=gammas, fold_violations=violations)


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


def initial_guess(data: Dataset, params: AdmissibleParams) -> np.ndarray:
    """Construct and project the initial admittivity guess, shape (2, n, n), from a dataset."""
    gf = compute_gammas(data, params.sigma0, params.eps0)
    sigma, eps = extract_sigma_eps(average_exp_gamma(data, gf), data.freqs.omega_mid)
    return project_T(data.grid, np.stack((sigma, eps)), params)
