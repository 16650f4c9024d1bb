"""Initial admittivity guess from the data alone, in four steps.

1. For each measured frequency the log-admittivity gamma solves a Poisson
   equation whose boundary values are the logarithm of the background
   admittivity and whose right-hand side is computable from the measured
   potential pair: with A its 2x2 gradient matrix and s the row-wise
   divergence of A, it is the divergence of ``w = -pinv(A^T) s``.  The
   pseudo-inverse drops singular values of A at or below
   ``sqrt(PINV_TOL)`` times the largest, which is the cutoff ``PINV_TOL``
   on the singular values of ``conj(A) A^T``.  The coverage gate keeps A
   away from singular, so the cutoff is a constant, not a setting.  All
   frequencies share one Poisson solve (``compute_gammas``).
2. Each solution's imaginary part is folded to its nearest branch
   (``fold_imag``).
3. ``exp(gamma)`` is averaged over the band by the frequency quadrature.
4. The average's real part is the conductivity guess and its imaginary
   part, divided by the band midpoint, the permittivity guess
   (``initial_guess``), which is projected into the admissible set before
   use.
"""

from __future__ import annotations

import cmath
import logging

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
    """Fold the imaginary part to its nearest branch, into [-pi/2, pi/2].

    Values in (-pi/2, pi/2) come back bit for bit.  A positive admittivity
    has its argument in [0, pi/2), so the nodes whose folded part lies below
    -1e-12 or at or above pi/2 are counted and returned: they indicate a
    branch the construction cannot justify, and are kept rather than folded
    further.  The slack admits the rounding-level values of omega = 0.
    """
    im = gamma.imag - np.pi * np.round(gamma.imag / np.pi)
    violations = int(np.count_nonzero((im < -1e-12) | (im >= 0.5 * np.pi)))
    return gamma.real + 1j * im, violations


def compute_gammas(data: Dataset, sigma0: float, eps0: float) -> list[np.ndarray]:
    """Branch-folded log-admittivity at every frequency: one Poisson solve, one column per frequency.

    The boundary values are the logarithm of the background admittivity.
    Nodes that ``fold_imag`` counts are logged as a warning per frequency.
    """
    grid = data.grid
    omegas = [float(w) for w in data.freqs.nodes]
    rhs = map_frequencies(lambda u: gamma_rhs(grid, u), data.potentials)
    nb = len(grid.boundary_index)
    bc = np.stack([np.full(nb, cmath.log(sigma0 + 1j * w * eps0), dtype=complex) for w in omegas])
    gammas = []
    for omega, column in zip(omegas, solve_poisson(grid, np.stack(rhs), bc)):
        gamma, violations = fold_imag(column)
        if violations:
            logger.warning("log-admittivity branch: %d nodes outside [0, pi/2) at omega=%g", violations, omega)
        gammas.append(gamma)
    return gammas


def initial_guess(data: Dataset, params: AdmissibleParams) -> np.ndarray:
    """Construct and project the initial admittivity guess, shape (2, n, n), from a dataset.

    ``exp(gamma)`` is averaged over the band by the frequency grid's
    quadrature; its real part is sigma and its imaginary part, divided by
    the band midpoint, eps.
    """
    freqs = data.freqs
    m = np.zeros(data.grid.shape, dtype=complex)
    for w, gamma in zip(freqs.weights, compute_gammas(data, params.sigma0, params.eps0)):
        m += float(w) * np.exp(gamma)
    m /= freqs.omega_hi - freqs.omega_lo
    return project_T(data.grid, np.stack((m.real, m.imag / freqs.omega_mid)), params)
