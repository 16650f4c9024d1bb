"""Shared oracles and builders for the test suite.

The derivative routes, norms and solvers here are independent of the code
paths they check, so they live with the tests rather than in the package.
"""

from __future__ import annotations

import cmath
import math
from pathlib import Path
from typing import Any

import numpy as np
import scipy.sparse as sp

from mfeit import PhantomSpec, Inclusion
from mfeit.initguess import fold_imag, gamma_rhs
from mfeit.admissible import AdmissibleParams
from mfeit.landweber import GenericProblem, LandweberConfig, run
from mfeit.mesh import Grid, face_diff_x, face_diff_y, h1_norm_sq, l2_norm_sq, laplacian
from mfeit.objective import Dataset, FrequencyGrid, bump_profile, dF, forward_states
from mfeit.pde import (
    SOLVE_RTOL,
    EllipticOperator,
    SolverError,
    assemble,
    operator_pattern,
    solve_dirichlet,
    solve_poisson,
)
from mfeit.properbc import det_gradient_map


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
    spectral norms and ``derivative(x, h)`` the weighted per-node derivatives
    for ``adjoint_mismatch``; the system is consistent (b = A x_true), so x_star
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
        misfit=lambda res: 0.5 * sum(float(w) * float(r @ r) for w, r in zip(weights, res)),
    )
    normal = sum(w * a.T @ a for w, a in zip(weights, mats))
    rhs = sum(w * a.T @ b for w, a, b in zip(weights, mats, bs))
    x_star = np.linalg.solve(normal, rhs)
    mu = 0.9 / sum(np.linalg.norm(a, 2) ** 2 for a in mats)
    return problem, x_star, mu, lambda x, h: [w * (a @ h) for w, a in zip(weights, mats)]


class CountingLU:
    """Factor proxy that counts triangular solves and can spoil the first one.

    With ``perturb`` > 0 the first solve's result is perturbed entrywise by
    that relative amount, as a factor with a poor backward error would be.
    ``layouts`` records, per solve, the right-hand side's shape, dtype and
    whether it is Fortran-contiguous.
    """

    def __init__(self, lu, perturb=0.0):
        self.lu = lu
        self.perturb = perturb
        self.solves = 0
        self.layouts = []

    def solve(self, rhs):
        self.solves += 1
        self.layouts.append((rhs.shape, rhs.dtype, rhs.flags.f_contiguous))
        x = self.lu.solve(rhs)
        if self.solves == 1 and self.perturb:
            x = x * (1.0 + self.perturb * np.random.default_rng(0).standard_normal(x.shape))
        return x


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


def block_matrix(op: EllipticOperator) -> sp.csc_matrix:
    """The interior block ``A_II`` of ``op`` as a scipy CSC matrix."""
    pat = operator_pattern(op.grid.n)
    m = pat.inner.size
    return sp.csc_matrix((op.block_data, pat.block_indices, pat.block_indptr), shape=(m, m))


def coupling_matrix(op: EllipticOperator) -> sp.csr_matrix:
    """The boundary coupling ``A_IB`` of ``op`` as a scipy CSR matrix."""
    pat = operator_pattern(op.grid.n)
    return sp.csr_matrix(
        (op.coupling_data, pat.coupling_indices, pat.coupling_indptr),
        shape=(pat.inner.size, op.grid.boundary_index.size),
    )


def reference_solve_dirichlet(op: EllipticOperator, bc: np.ndarray, src: np.ndarray | None = None) -> np.ndarray:
    """``solve_dirichlet`` as it was written before its layout work: the bit-identity oracle.

    It gathers and scatters the interior through ``operator_pattern(n).inner``,
    hands SuperLU C-ordered columns and takes column norms with
    ``np.linalg.norm``.  Same gate, same sweeps, same result bits.
    """
    grid = op.grid
    inner = operator_pattern(grid.n).inner
    bc = np.asarray(bc, dtype=complex)
    lead = bc.shape[:-1]
    if src is None:
        b = np.zeros(lead + (inner.size,), dtype=complex)
    else:
        b = np.asarray(src, dtype=complex).reshape(lead + (grid.num_nodes,))[..., inner]
    if not (np.all(np.isfinite(b)) and np.all(np.isfinite(bc))):
        raise ValueError("non-finite right-hand side")
    bc_cols = np.ascontiguousarray(bc.T)
    b = np.ascontiguousarray(b.T)

    lu = op.factorization()
    norm_bc = np.linalg.norm(bc_cols, axis=0)
    norm_b = np.hypot(np.linalg.norm(b, axis=0), norm_bc)
    c = b - coupling_matrix(op) @ bc_cols
    x = lu.solve(c)
    for sweep in range(3):
        if sweep:
            x += lu.solve(r)
        r = c - block_matrix(op) @ x
        scale = op.norm * np.hypot(np.linalg.norm(x, axis=0), norm_bc) + norm_b
        residual = float(np.max(np.linalg.norm(r, axis=0) / np.maximum(scale, 1e-300)))
        if np.isfinite(residual) and residual <= SOLVE_RTOL:
            out = np.empty(lead + (grid.num_nodes,), dtype=complex)
            out[..., inner] = x.T
            out[..., grid.boundary_index] = bc
            return out.reshape(lead + grid.shape)
    raise SolverError(f"linear solve residual {residual:.3e} exceeds tolerance {SOLVE_RTOL:.1e}")


def reference_coverage(grid: Grid, x: np.ndarray, freqs: FrequencyGrid, phi: np.ndarray) -> tuple[np.ndarray, float]:
    """``coverage_lambda`` as a per-frequency loop: one fresh factorization per frequency.

    Returns the quadrature map ``m`` and its interior minimum, summed with the
    weights in frequency order as ``coverage_lambda`` sums them.
    """
    m = np.zeros(grid.shape)
    for w, omega in zip(freqs.weights, freqs.nodes):
        m += float(w) * det_gradient_map(grid, solve_dirichlet(assemble(grid, x, float(omega)), phi))
    return m, float(np.min(m[grid.interior_mask]))


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
    params: AdmissibleParams,
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
        trial = LandweberConfig(mu=mu, max_iters=n_check, stop_tol=0.0)
        try:
            _, recs = run(x0, data, params, trial)
        except SolverError:  # J rose above the first step's: a violation
            break
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
    """|sum Re<w DF(h), y> - <h, adjoint_step(ys)>_X| for consistency probes.

    ``derivative(x, h)`` returns the derivative of every residual at ``x``
    in direction ``h``, times its quadrature weight w.
    """
    lhs = sum(float(np.real(np.vdot(y, d))) for d, y in zip(derivative(x, h), ys))
    rhs = p.inner_x(h, p.adjoint_step(ys))
    return abs(lhs - rhs)


def residual_F(a: np.ndarray, omega: float, data: Dataset) -> np.ndarray:
    """Forward solve at one frequency minus the stored measurement."""
    k = index_of(data.freqs, omega)
    return solve_dirichlet(assemble(data.grid, a, omega), data.boundary_data()) - data.potentials[k]


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
) -> np.ndarray:
    """Branch-folded log-admittivity at one frequency from the measured pair.

    The per-frequency reference for ``initguess.compute_gammas``: its own
    Poisson solve, with the background's logarithm as boundary values.
    """
    bc = np.full(len(grid.boundary_index), cmath.log(sigma0 + 1j * omega * eps0), dtype=complex)
    return fold_imag(solve_poisson(grid, gamma_rhs(grid, u_omega), bc))[0]


def write_field_csv_per_node(path: str, values: np.ndarray, grid: Grid) -> None:
    """Node-by-node CSV export: the reference for ``fieldio.write_field_csv``'s bytes."""

    def fmt(value) -> str:
        return repr(value) if isinstance(value, float) else str(value)

    values = np.asarray(values)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("i,j,x,y,value\n")
        for i in range(grid.n):
            for j in range(grid.n):
                x, y = grid.xs[i], grid.xs[j]
                fh.write(f"{i},{j},{fmt(float(x))},{fmt(float(y))},{fmt(float(values[i, j]))}\n")


def tree_bytes(root) -> dict[str, bytes]:
    """Every file under ``root``: its path relative to ``root`` (POSIX form) mapped to its bytes."""
    root = Path(root)
    return {f.relative_to(root).as_posix(): f.read_bytes() for f in sorted(root.rglob("*")) if f.is_file()}


def differing_paths(a: dict[str, bytes], b: dict[str, bytes]) -> list[str]:
    """The paths of two ``tree_bytes`` trees whose files differ or exist in only one, sorted."""
    return sorted(p for p in a.keys() | b.keys() if a.get(p) != b.get(p))
