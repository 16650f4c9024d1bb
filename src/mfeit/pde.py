"""Complex variable-coefficient elliptic Dirichlet solves on the grid.

Everything here discretizes ``div((sigma + i*omega*eps) * grad(u))`` with a
conservative 5-point scheme: the coefficient on each cell face is the
arithmetic mean of the two adjacent nodal values, and boundary nodes carry
identity rows in the full system.

The full system is never built.  Its sparsity depends only on the grid
size, so ``operator_pattern`` computes it once per n, and ``assemble``
only gathers the face couplings into two matrices: the interior block
``A_II`` (Dirichlet rows and columns removed) and the boundary coupling
``A_IB`` (interior rows, boundary columns).  The block is factored with
SuperLU under a minimum-degree ordering of ``A^T + A``, which roughly
halves the fill of factoring the full system.  One factorization per
(coefficient, frequency) pair is cached on the operator and shared by every
right-hand side, including the adjoint problem, whose matrix is the same
because the operator is complex-symmetric rather than Hermitian.
``solve_dirichlet`` takes one or several columns at once, stacked on the
leading axis, and works on the interior unknowns only: the boundary values
enter once, through ``A_IB``.  Every column must meet the ``SOLVE_RTOL``
backward-error gate of the full system, whose norms include the boundary
values.

A pair of quantities is a plain array with the component on the leading
axis.  The admittivity field is one of shape (2, n, n), sigma then eps,
passed together with its ``Grid``.  Traces have shape (2, nb) and
potentials, residuals and adjoint states shape (2, n, n), one per
boundary-trace component, so a forward, adjoint or linearized solve passes
its pair straight to ``solve_dirichlet`` as one 2-column right-hand side.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .mesh import Grid, laplacian

#: Relative residual accepted from a linear solve.
SOLVE_RTOL = 1e-10


class SolverError(RuntimeError):
    """Linear solve failed or exceeded the residual tolerance."""

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


def constant_field(grid: Grid, sigma0: float, eps0: float) -> np.ndarray:
    """Spatially constant admittivity, shape (2, n, n)."""
    return np.stack((np.full(grid.shape, float(sigma0)), np.full(grid.shape, float(eps0))))


@dataclass(frozen=True, eq=False)
class OperatorPattern:
    """Sparsity of the assembled operator on an n x n grid, shared by every fill.

    ``inner`` lists the interior unknowns (flat indices, increasing) and
    ``face[p]`` the four faces of interior row p in column order (-x, -y,
    +y, +x), indexing the x faces followed by the y faces, both flattened.
    The CSC structure of the interior block ``A_II`` and the CSR structure
    of the boundary coupling ``A_IB`` (columns in ``grid.boundary_index``
    order) come with ``*_take`` gather maps into the flattened value table
    of shape (m, 5) whose columns are (-x, -y, diagonal, +y, +x).  Because
    ``A_II`` is complex-symmetric, column p of the block holds exactly the
    values of row p.
    """

    inner: np.ndarray
    face: np.ndarray
    block_indptr: np.ndarray
    block_indices: np.ndarray
    block_take: np.ndarray
    coupling_indptr: np.ndarray
    coupling_indices: np.ndarray
    coupling_take: np.ndarray


@functools.lru_cache(maxsize=None)
def operator_pattern(n: int) -> OperatorPattern:
    """The cached ``OperatorPattern`` of the n x n grid (arrays are read-only)."""
    i, j = (v.reshape(-1) for v in np.meshgrid(np.arange(1, n - 1), np.arange(1, n - 1), indexing="ij"))
    inner = i * n + j
    yface = (n - 1) * n + i * (n - 1) + j
    face = np.stack([inner - n, yface - 1, yface, inner], axis=-1)
    nodes = np.stack([inner - n, inner - 1, inner, inner + 1, inner + n], axis=-1)

    # Column of each node in A_II (interior nodes) and in A_IB (the ring).
    position = np.full(n * n, -1)
    position[inner] = np.arange(inner.size)
    ring = position < 0
    bpos = np.full(n * n, -1)
    bpos[ring] = np.arange(np.count_nonzero(ring))
    interior = position[nodes] >= 0

    def structure(mask, columns):
        indptr = np.concatenate(([0], np.cumsum(mask.sum(axis=1))))
        return indptr, columns[nodes[mask]], np.flatnonzero(mask)

    arrays = (inner, face) + structure(interior, position) + structure(~interior, bpos)
    arrays = tuple(np.ascontiguousarray(a, dtype=np.int32) for a in arrays)
    for a in arrays:
        a.setflags(write=False)
    return OperatorPattern(*arrays)


@dataclass
class EllipticOperator:
    """Interior block ``A_II`` (CSC) and boundary coupling ``A_IB`` (CSR) of one operator.

    The boundary rows of the full system are identity rows, so the interior
    unknowns satisfy ``A_II x_I = b_I - A_IB bc``.  ``norm`` is the infinity
    norm of the full system, ``max(1, interior row sums of |A|)``.  The LU
    factorization of the block is computed on first use and cached.
    """

    grid: Grid
    omega: float
    block: sp.csc_matrix
    coupling: sp.csr_matrix
    norm: float
    _lu: object = field(default=None, repr=False)

    def factorization(self):
        """SuperLU factors of the interior block, ordered by minimum degree on A^T + A."""
        if self._lu is None:
            try:
                self._lu = spla.splu(self.block, permc_spec="MMD_AT_PLUS_A")
            except RuntimeError as exc:  # singular or breakdown
                raise SolverError(f"sparse factorization failed: {exc}") from exc
        return self._lu


def assemble(grid: Grid, x: np.ndarray, omega: float) -> EllipticOperator:
    """Assemble ``div((sigma + i*omega*eps) grad(.))`` with Dirichlet rows.

    ``x`` is the admittivity field, shape (2, n, n), with ``x[0]`` = sigma
    and ``x[1]`` = eps; any other shape is rejected.  Face coefficients are
    arithmetic means of the adjacent nodal values and the diagonal is the
    negated sum of the four couplings, so interior row sums vanish and the
    interior block is complex-symmetric.  Values are gathered into the
    cached pattern of the grid; no full-size matrix is built.  Nonpositive
    sigma or eps anywhere is rejected: the forward model is only elliptic
    for strictly positive material parameters.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (2,) + grid.shape:
        raise ValueError(f"admittivity field has shape {x.shape}, expected {(2,) + grid.shape}")
    if np.any(x[0] <= 0.0):
        raise ValueError("conductivity must be strictly positive everywhere")
    if np.any(x[1] <= 0.0):
        raise ValueError("permittivity must be strictly positive everywhere")
    pat = operator_pattern(grid.n)
    h2 = grid.h * grid.h
    coeff = x[0] + 1j * omega * x[1]

    # Face coefficients between node (i,j) and its +x / +y neighbors.
    cfx = 0.5 * (coeff[:-1, :] + coeff[1:, :])  # (n-1, n)
    cfy = 0.5 * (coeff[:, :-1] + coeff[:, 1:])  # (n, n-1)
    e = np.concatenate((cfx.reshape(-1), cfy.reshape(-1)))[pat.face] / h2

    m = pat.inner.size
    table = np.empty((m, 5), dtype=complex)
    table[:, :2] = e[:, :2]
    table[:, 3:] = e[:, 2:]
    # This summation order reproduces, bit for bit, the row sums of the
    # reference COO assembly (see tests/helpers.py).
    table[:, 2] = -(((e[:, 1] + e[:, 2]) + e[:, 3]) + e[:, 0])
    values = table.reshape(-1)
    block = sp.csc_matrix((values[pat.block_take], pat.block_indices, pat.block_indptr), shape=(m, m))
    coupling = sp.csr_matrix(
        (values[pat.coupling_take], pat.coupling_indices, pat.coupling_indptr),
        shape=(m, grid.boundary_index.size),
    )
    norm = max(1.0, float(np.max(np.abs(table).sum(axis=1))))
    return EllipticOperator(grid, omega, block, coupling, norm)


def apply_div_coeff_grad(grid: Grid, coeff: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Matrix-free application of the interior stencil of ``assemble``.

    Returns ``div(coeff * grad(f))`` at non-boundary nodes (zero on the
    boundary ring) for an arbitrary, possibly sign-indefinite coefficient.
    ``f`` is one nodal field (n, n) or a stack of them (m, n, n).  Bitwise
    consistent with the assembled matrix rows; linearizations of the
    forward map rely on that exact agreement.
    """
    h2 = grid.h * grid.h
    cfx = 0.5 * (coeff[:-1, :] + coeff[1:, :])
    cfy = 0.5 * (coeff[:, :-1] + coeff[:, 1:])
    flux_x = cfx * (f[..., 1:, :] - f[..., :-1, :])  # (..., n-1, n)
    flux_y = cfy * (f[..., :, 1:] - f[..., :, :-1])  # (..., n, n-1)
    out = np.zeros(f.shape, dtype=np.result_type(coeff, f))
    out[..., 1:-1, :] = flux_x[..., 1:, :] - flux_x[..., :-1, :]
    out[..., :, 1:-1] += flux_y[..., :, 1:] - flux_y[..., :, :-1]
    out /= h2
    out[..., grid.boundary_mask] = 0.0
    return out


def solve_dirichlet(
    op: EllipticOperator, bc: np.ndarray, src: np.ndarray | None = None
) -> np.ndarray:
    """Solve the Dirichlet problem with boundary values ``bc`` and source ``src``.

    ``bc`` is indexed like ``grid.boundary_index``, either one column of
    shape (nb,) or m columns on the leading axis, shape (m, nb); ``src`` is
    a nodal field of shape (n, n) or (m, n, n) whose values on the boundary
    ring are ignored.  The result has shape (n, n) or (m, n, n)
    accordingly.  It reproduces ``bc`` exactly and, column by column,
    satisfies the full system with normwise relative residual
    ``|Ax-b| / (|A| |x| + |b|)`` below SOLVE_RTOL, where ``|x|`` and ``|b|``
    include the boundary values.  Only the interior unknowns are solved
    for: the boundary values enter once, through ``c = b_I - A_IB bc``, and
    each refinement sweep corrects ``x_I`` by the factored solve of
    ``c - A_II x_I``.  One refinement sweep always runs and a second runs if
    some column misses the tolerance, before a SolverError reports the
    worst column's residual.
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
    # The sparse products and SuperLU take the columns on the trailing axis;
    # contiguous copies keep the summation order of the column norms fixed.
    bc_cols = np.ascontiguousarray(bc.T)
    b = np.ascontiguousarray(b.T)

    lu = op.factorization()
    norm_bc = np.linalg.norm(bc_cols, axis=0)
    norm_b = np.hypot(np.linalg.norm(b, axis=0), norm_bc)
    c = b - op.coupling @ bc_cols
    x = lu.solve(c)
    r = c - op.block @ x
    # One iterative-refinement sweep is always applied: it is cheap next to
    # the factorization and pushes the solution error to O(cond * machine),
    # which several scale-invariance contracts downstream rely on.
    for _ in range(2):
        x += lu.solve(r)
        r = c - op.block @ x
        scale = op.norm * np.hypot(np.linalg.norm(x, axis=0), norm_bc) + norm_b
        residual = float(np.max(np.linalg.norm(r, axis=0) / np.maximum(scale, 1e-300)))
        if np.isfinite(residual) and residual <= SOLVE_RTOL:
            out = np.empty(lead + (grid.num_nodes,), dtype=complex)
            out[..., inner] = x.T
            out[..., grid.boundary_index] = bc
            return out.reshape(lead + grid.shape)
    raise SolverError(
        f"linear solve residual {residual:.3e} exceeds tolerance {SOLVE_RTOL:.1e}",
        residual=residual,
    )


def adjoint_rhs(grid: Grid, f: np.ndarray) -> np.ndarray:
    """Right-hand side ``conj(f) - lap5(conj(f))`` of the adjoint problem.

    With the face-difference H1 energy this is, at interior nodes, the exact
    algebraic adjoint representation of the H1 pairing against a residual f
    that vanishes on the boundary ring.  ``f`` may stack several residuals
    on leading axes.
    """
    fc = np.conj(f)
    return fc - laplacian(grid, fc)


def solve_adjoint(op: EllipticOperator, f_res: np.ndarray) -> np.ndarray:
    """Adjoint solve sharing the forward factorization (same complex-symmetric matrix).

    ``f_res`` is the residual pair, shape (2, n, n), and must vanish on the
    boundary ring.
    """
    grid = op.grid
    bmax = float(np.max(np.abs(grid.trace(f_res))))
    if bmax > 1e-12:
        raise ValueError(
            f"residual has boundary magnitude {bmax:.3e}; "
            "data and reconstruction grids are inconsistent"
        )
    zero = np.zeros((len(f_res), len(grid.boundary_index)))
    return solve_dirichlet(op, zero, adjoint_rhs(grid, f_res))


def solve_poisson(grid: Grid, rhs: np.ndarray, bc: np.ndarray) -> np.ndarray:
    """Dirichlet Poisson solve: unit coefficient, zero frequency.

    Takes one or several columns like ``solve_dirichlet``; all columns share
    one factorization.
    """
    op = assemble(grid, constant_field(grid, 1.0, 1.0), 0.0)
    return solve_dirichlet(op, bc, rhs)
