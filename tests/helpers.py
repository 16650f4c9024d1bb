"""Shared oracles and builders for the test suite.

The derivative routes, norms and solvers here are independent of the code
paths they check, so they live with the tests rather than in the package.
"""

from __future__ import annotations

import math
from typing import Any

import numpy as np
import scipy.sparse as sp

from mfeit import PhantomSpec, Inclusion
from mfeit.initguess import DEFAULT_PINV_TOL, _log_bc, _warn_branch, fold_imag, gamma_rhs
from mfeit.landweber import GenericProblem, LandweberConfig, run
from mfeit.mesh import Grid, face_diff_x, face_diff_y, h1_norm_sq, l2_norm_sq, laplacian
from mfeit.objective import Dataset, FrequencyGrid, bump_profile, dF, forward_states
from mfeit.pde import SolverError, assemble, solve_dirichlet, solve_poisson


TWO_BUMPS = PhantomSpec(
    inclusions=[
        Inclusion(0.45, 0.5, 0.15, 0.8, -0.3),
        Inclusion(0.65, 0.6, 0.12, -0.4, 0.6),
    ]
)

ONE_BUMP = PhantomSpec(inclusions=[Inclusion(0.5, 0.5, 0.15, 0.5, 0.3)])


def rel_interior_err(grid: Grid, a: np.ndarray, truth: np.ndarray) -> float:
    """Relative L2 error of (sigma, eps) fields over the interior region."""
    m = grid.interior_mask
    num = np.sqrt(np.sum((a[0] - truth[0])[m] ** 2) + np.sum((a[1] - truth[1])[m] ** 2))
    den = np.sqrt(np.sum(truth[0][m] ** 2) + np.sum(truth[1][m] ** 2))
    return float(num / den)


def wide_smooth_field(grid: Grid, rng: np.random.Generator) -> np.ndarray:
    """Random field from wide bumps kept clear of the cutoff transition band."""
    f = np.zeros(grid.shape)
    for _ in range(3):
        radius = rng.uniform(0.14, 0.20)
        lo = grid.c0 + radius + 0.08
        cx, cy = rng.uniform(lo, 1.0 - lo), rng.uniform(lo, 1.0 - lo)
        amp = rng.uniform(0.3, 1.0) * rng.choice([-1.0, 1.0])
        f += amp * bump_profile(((grid.X - cx) ** 2 + (grid.Y - cy) ** 2) / radius**2)
    return f


def linear_oracle(seed: int = 321, n_mats: int = 3, dim: int = 5):
    """Dense linear least-squares instance with its normal-equation solution.

    Returns (problem, x_star, mu, derivative) with mu = 0.9 / sum of squared
    spectral norms and ``derivative(x, h)`` the per-node derivatives for
    ``adjoint_mismatch``; the system is consistent (b = A x_true), so x_star
    equals the generating point up to round-off.
    """
    rng = np.random.default_rng(seed)
    mats = [rng.standard_normal((dim, dim)) for _ in range(n_mats)]
    x_true = rng.standard_normal(dim)
    bs = [a @ x_true for a in mats]
    weights = np.ones(n_mats)

    problem = GenericProblem(
        residuals=lambda x: [a @ x - b for a, b in zip(mats, bs)],
        adjoint_step=lambda res: sum(
            w * (a.T @ r) for w, a, r in zip(weights, mats, res)
        ),
        weights=weights,
    )
    normal = sum(w * a.T @ a for w, a in zip(weights, mats))
    rhs = sum(w * a.T @ b for w, a, b in zip(weights, mats, bs))
    x_star = np.linalg.solve(normal, rhs)
    mu = 0.9 / sum(np.linalg.norm(a, 2) ** 2 for a in mats)
    return problem, x_star, mu, lambda x, h: [a @ h for a in mats]


def assemble_matrix(grid: Grid, a: np.ndarray, omega: float) -> sp.csc_matrix:
    """Full n^2 x n^2 matrix of ``assemble``, built independently through COO.

    Interior rows hold the face couplings and their negated row sum on the
    diagonal; boundary rows are identity rows.  This is the reference the
    pattern-filled interior block and boundary coupling are compared with.
    """
    n = grid.n
    h2 = grid.h * grid.h
    coeff = a[0] + 1j * omega * a[1]

    # Face coefficients between node (i,j) and its +x / +y neighbors.
    cfx = 0.5 * (coeff[:-1, :] + coeff[1:, :])  # (n-1, n)
    cfy = 0.5 * (coeff[:, :-1] + coeff[:, 1:])  # (n, n-1)

    idx = np.arange(n * n).reshape(n, n)
    inner = ~grid.boundary_mask

    rows, cols, vals = [], [], []

    def couple(face_c, rc, cc):
        mask = inner[rc]
        rows.append(idx[rc][mask])
        cols.append(idx[cc][mask])
        vals.append(face_c[mask] / h2)

    # +x neighbor: face between (i,j) and (i+1,j) viewed from row (i,j)
    couple(cfx, (slice(0, n - 1), slice(None)), (slice(1, n), slice(None)))
    # -x neighbor
    couple(cfx, (slice(1, n), slice(None)), (slice(0, n - 1), slice(None)))
    # +y neighbor
    couple(cfy, (slice(None), slice(0, n - 1)), (slice(None), slice(1, n)))
    # -y neighbor
    couple(cfy, (slice(None), slice(1, n)), (slice(None), slice(0, n - 1)))

    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    vals = np.concatenate(vals)

    mat = sp.coo_matrix((vals, (rows, cols)), shape=(n * n, n * n)).tocsr()
    # Diagonal: negative sum of the off-diagonal couplings (conservation),
    # then identity rows on the boundary ring.
    diag = -np.asarray(mat.sum(axis=1)).reshape(-1)
    diag[grid.boundary_index] = 1.0
    mat = mat + sp.diags(diag)
    return mat.tocsc()


def h1_inner(grid: Grid, a: np.ndarray, b: np.ndarray) -> complex:
    """Discrete H1 inner product ``<a, b>`` (conjugate-linear in b)."""
    h2 = grid.h * grid.h
    acc = np.sum(a * np.conj(b))
    acc += np.sum(face_diff_x(grid, a) * np.conj(face_diff_x(grid, b)))
    acc += np.sum(face_diff_y(grid, a) * np.conj(face_diff_y(grid, b)))
    return complex(h2 * acc)


def index_of(freqs: FrequencyGrid, omega: float) -> int:
    """Position of ``omega`` among the quadrature nodes; KeyError if it is none of them."""
    hits = np.flatnonzero(np.isclose(freqs.nodes, omega, rtol=1e-12, atol=1e-12))
    if hits.size == 0:
        raise KeyError(f"frequency {omega} is not a quadrature node")
    return int(hits[0])


def pair_distance(grid: Grid, a: np.ndarray, b: np.ndarray) -> float:
    """L2 distance between two admittivity fields over both components."""
    return math.sqrt(l2_norm_sq(grid, a[0] - b[0]) + l2_norm_sq(grid, a[1] - b[1]))


def find_mu_safe(
    x0: np.ndarray,
    data: Dataset,
    cfg: LandweberConfig,
    mu_start: float,
    n_check: int = 5,
    max_doublings: int = 12,
) -> float:
    """Largest tested step size whose first ``n_check`` misfit values are non-increasing.

    Doubles from ``mu_start`` until a violation appears and returns the last
    safe value.
    """
    mu = mu_start
    safe = None
    for _ in range(max_doublings):
        trial = LandweberConfig(
            admissible=cfg.admissible, mu=mu, max_iters=n_check, stop_tol=0.0, log_every=0
        )
        _, recs = run(x0, data, trial)
        js = [r.J for r in recs]
        if all(b <= a * (1.0 + 1e-12) for a, b in zip(js, js[1:])):
            safe = mu
            mu *= 2.0
        else:
            break
    if safe is None:
        raise SolverError(f"no monotone step size found at or above {mu_start:.3e}")
    return safe


def adjoint_mismatch(p: GenericProblem, derivative, x, h, ys: list[Any]) -> float:
    """|sum_w Re<DF(h), y> - <h, adjoint_step(ys)>_X| for consistency probes.

    ``derivative(x, h)`` returns the derivative of every residual at ``x``
    in direction ``h``.
    """
    lhs = sum(float(w) * float(np.real(np.vdot(y, d))) for w, d, y in zip(p.weights, derivative(x, h), ys))
    rhs = p.inner_x(h, p.adjoint_step(ys))
    return abs(lhs - rhs)


def residual_F(a: np.ndarray, omega: float, data: Dataset) -> np.ndarray:
    """Forward solve at one frequency minus the stored measurement."""
    k = index_of(data.freqs, omega)
    return solve_dirichlet(assemble(data.grid, a, omega), data.boundary_data(k)) - data.potentials[k]


def pairing_dF_route(a: np.ndarray, data: Dataset, d: np.ndarray) -> float:
    """Directional derivative via the linearized map: sum_w Re<dF(d), F>_H1.

    Independent code path from ``gradient_DJ`` (no adjoint solve); used to
    cross-check the two derivative representations against each other.
    """
    grid = data.grid
    acc = 0.0
    for s in forward_states(a, data):
        v = dF(s.op, d, s.u)
        acc += s.weight * (
            h1_inner(grid, v[0], s.f_res[0]).real + h1_inner(grid, v[1], s.f_res[1]).real
        )
    return acc


def h2_proxy_norm_sq(grid: Grid, f: np.ndarray) -> float:
    """Squared H2 proxy: H1 energy plus the interior 5-point Laplacian energy."""
    lap = laplacian(grid, f)
    return h1_norm_sq(grid, f) + grid.h * grid.h * float(np.sum(np.abs(lap) ** 2))


def solve_gamma(
    grid: Grid,
    u_omega: np.ndarray,
    omega: float,
    sigma0: float,
    eps0: float,
    tol: float = DEFAULT_PINV_TOL,
) -> np.ndarray:
    """Log-admittivity field at one frequency from the measured pair."""
    gamma = solve_poisson(grid, gamma_rhs(grid, u_omega, tol), _log_bc(grid, omega, sigma0, eps0))
    gamma, violations = fold_imag(gamma)
    _warn_branch(violations, omega)
    return gamma
