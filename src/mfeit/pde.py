"""Complex variable-coefficient elliptic Dirichlet solves on the grid.

Everything here discretizes ``div((sigma + i*omega*eps) * grad(u))`` with a
conservative 5-point scheme: the coefficient on each cell face is the
arithmetic mean of the two adjacent nodal values, and boundary nodes carry
identity rows in the assembled matrix.

Solves factor only the interior block (Dirichlet rows and columns removed)
with SuperLU under a minimum-degree ordering of ``A^T + A``, which roughly
halves the fill of factoring the full system.  One factorization per
(coefficient, frequency) pair is cached on the operator and shared by every
right-hand side, including the adjoint problem, whose matrix is the same
because the assembled operator is complex-symmetric rather than Hermitian.
``solve_dirichlet`` takes one or several columns at once; the two trace
components of a forward, adjoint or linearized solve go through it as one
2-column right-hand side.  Every column must meet the ``SOLVE_RTOL``
backward-error gate against the full assembled matrix.
"""

from __future__ import annotations

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


@dataclass
class AdmittivityField:
    """Nodal conductivity/permittivity pair on a grid.

    ``sigma`` and ``eps`` are real (n, n) arrays.  The composite coefficient
    at frequency omega is ``sigma + 1j*omega*eps``.
    """

    grid: Grid
    sigma: np.ndarray
    eps: np.ndarray

    def __post_init__(self):
        n = self.grid.n
        self.sigma = np.asarray(self.sigma, dtype=float)
        self.eps = np.asarray(self.eps, dtype=float)
        if self.sigma.shape != (n, n) or self.eps.shape != (n, n):
            raise ValueError("sigma/eps shape does not match the grid")

    def admittivity(self, omega: float) -> np.ndarray:
        return self.sigma + 1j * omega * self.eps


def constant_field(grid: Grid, sigma0: float, eps0: float) -> AdmittivityField:
    """Spatially constant admittivity."""
    return AdmittivityField(
        grid, np.full(grid.shape, float(sigma0)), np.full(grid.shape, float(eps0))
    )


@dataclass
class BoundaryData:
    """Dirichlet trace pair (phi1, phi2) indexed like ``grid.boundary_index``."""

    phi1: np.ndarray
    phi2: np.ndarray

    def __post_init__(self):
        self.phi1 = np.asarray(self.phi1)
        self.phi2 = np.asarray(self.phi2)
        if self.phi1.shape != self.phi2.shape or self.phi1.ndim != 1:
            raise ValueError("boundary traces must be 1-d arrays of equal length")

    @property
    def components(self) -> tuple[np.ndarray, np.ndarray]:
        return (self.phi1, self.phi2)


@dataclass
class PotentialPair:
    """Two complex nodal potentials, one per boundary-trace component."""

    u1: np.ndarray
    u2: np.ndarray

    @property
    def components(self) -> tuple[np.ndarray, np.ndarray]:
        return (self.u1, self.u2)

    @classmethod
    def from_columns(cls, x: np.ndarray) -> "PotentialPair":
        """Split a 2-column solution of shape (n, n, 2) into contiguous components."""
        u1, u2 = np.moveaxis(x, -1, 0).copy()
        return cls(u1, u2)


@dataclass
class EllipticOperator:
    """Assembled sparse operator with a lazily cached interior-block LU factorization."""

    grid: Grid
    omega: float
    matrix: sp.csc_matrix
    _lu: object = field(default=None, repr=False)
    _norm: float = field(default=0.0, repr=False)

    @property
    def unknowns(self) -> np.ndarray:
        """Flat indices of the non-boundary nodes, the unknowns of the factored block."""
        return np.flatnonzero(~self.grid.boundary_mask.reshape(-1))

    def factorization(self):
        """SuperLU factors of the interior block, ordered by minimum degree on A^T + A."""
        if self._lu is None:
            inner = self.unknowns
            block = self.matrix[:, inner][inner, :].tocsc()
            try:
                self._lu = spla.splu(block, permc_spec="MMD_AT_PLUS_A")
            except RuntimeError as exc:  # singular or breakdown
                raise SolverError(f"sparse factorization failed: {exc}") from exc
        return self._lu

    def norm_inf(self) -> float:
        if self._norm == 0.0:
            self._norm = float(np.max(np.abs(self.matrix).sum(axis=1)))
        return self._norm


def assemble(a: AdmittivityField, omega: float) -> EllipticOperator:
    """Assemble ``div((sigma + i*omega*eps) grad(.))`` with Dirichlet rows.

    Face coefficients are arithmetic means of the adjacent nodal values, so
    interior row sums vanish and the interior block is complex-symmetric.
    Nonpositive sigma or eps anywhere is rejected: the forward model is only
    elliptic for strictly positive material parameters.
    """
    if np.any(a.sigma <= 0.0):
        raise ValueError("conductivity must be strictly positive everywhere")
    if np.any(a.eps <= 0.0):
        raise ValueError("permittivity must be strictly positive everywhere")
    grid = a.grid
    n = grid.n
    h2 = grid.h * grid.h
    coeff = a.admittivity(omega)

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
    return EllipticOperator(grid=grid, omega=omega, matrix=mat.tocsc())


def apply_div_coeff_grad(grid: Grid, coeff: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Matrix-free application of the interior stencil of ``assemble``.

    Returns ``div(coeff * grad(f))`` at non-boundary nodes (zero on the
    boundary ring) for an arbitrary, possibly sign-indefinite coefficient.
    Bitwise consistent with the assembled matrix rows; linearizations of
    the forward map rely on that exact agreement.
    """
    h2 = grid.h * grid.h
    cfx = 0.5 * (coeff[:-1, :] + coeff[1:, :])
    cfy = 0.5 * (coeff[:, :-1] + coeff[:, 1:])
    flux_x = cfx * (f[1:, :] - f[:-1, :])  # (n-1, n)
    flux_y = cfy * (f[:, 1:] - f[:, :-1])  # (n, n-1)
    out = np.zeros(grid.shape, dtype=np.result_type(coeff, f))
    out[1:-1, :] = flux_x[1:, :] - flux_x[:-1, :]
    out[:, 1:-1] += flux_y[:, 1:] - flux_y[:, :-1]
    out /= h2
    out[grid.boundary_mask] = 0.0
    return out


def solve_dirichlet(
    op: EllipticOperator, bc: np.ndarray, src: np.ndarray | None = None
) -> np.ndarray:
    """Solve the assembled system with boundary values ``bc`` and source ``src``.

    ``bc`` is indexed like ``grid.boundary_index``, either one column of
    shape (nb,) or m columns of shape (nb, m); ``src`` is a nodal field of
    shape (n, n) or (n, n, m) whose values on the boundary ring are ignored.
    The result has shape (n, n) or (n, n, m) accordingly.  It reproduces
    ``bc`` exactly and, column by column, satisfies the full assembled
    system with normwise relative residual ``|Ax-b| / (|A| |x| + |b|)``
    below SOLVE_RTOL.  Only the interior unknowns are factored; the
    boundary values enter through the residual against ``op.matrix``.  One
    refinement sweep always runs and a second runs if some column misses
    the tolerance, before a SolverError reports the worst column's residual.
    """
    grid = op.grid
    bc = np.asarray(bc, dtype=complex)
    b = np.zeros((grid.num_nodes,) + bc.shape[1:], dtype=complex)
    if src is not None:
        b[:] = np.asarray(src, dtype=complex).reshape(b.shape)
    b[grid.boundary_index] = bc
    if not np.all(np.isfinite(b)):
        raise ValueError("non-finite right-hand side")

    lu = op.factorization()
    inner = op.unknowns
    norm_b = np.linalg.norm(b, axis=0)

    def backward_error(x, r):
        scale = op.norm_inf() * np.linalg.norm(x, axis=0) + norm_b
        return float(np.max(np.linalg.norm(r, axis=0) / np.maximum(scale, 1e-300)))

    def sweep(x):
        # Boundary rows of the residual vanish exactly (identity rows), so
        # only interior values are corrected and the boundary stays exact.
        r = b - op.matrix @ x
        x[inner] += lu.solve(r[inner])

    x = np.zeros_like(b)
    x[grid.boundary_index] = bc
    sweep(x)
    # One iterative-refinement sweep is always applied: it is cheap next to
    # the factorization and pushes the solution error to O(cond * machine),
    # which several scale-invariance contracts downstream rely on.
    sweep(x)
    residual = backward_error(x, b - op.matrix @ x)
    if not np.isfinite(residual) or residual > SOLVE_RTOL:
        sweep(x)
        residual = backward_error(x, b - op.matrix @ x)
        if not np.isfinite(residual) or residual > SOLVE_RTOL:
            raise SolverError(
                f"linear solve residual {residual:.3e} exceeds tolerance {SOLVE_RTOL:.1e}",
                residual=residual,
            )
    return x.reshape(grid.shape + bc.shape[1:])


def solve_forward(op: EllipticOperator, phi: BoundaryData) -> PotentialPair:
    """Homogeneous-interior forward solve for both trace components."""
    return PotentialPair.from_columns(solve_dirichlet(op, np.stack(phi.components, axis=-1)))


def adjoint_rhs(grid: Grid, f: np.ndarray) -> np.ndarray:
    """Right-hand side ``conj(f) - lap5(conj(f))`` of the adjoint problem.

    With the face-difference H1 energy this is, at interior nodes, the exact
    algebraic adjoint representation of the H1 pairing against a residual f
    that vanishes on the boundary ring.
    """
    fc = np.conj(f)
    return fc - laplacian(grid, fc)


def solve_adjoint(op: EllipticOperator, f_res: PotentialPair) -> PotentialPair:
    """Adjoint solve sharing the forward factorization (same complex-symmetric matrix).

    ``f_res`` must vanish on the boundary ring.
    """
    grid = op.grid
    for comp in f_res.components:
        bmax = float(np.max(np.abs(grid.trace(comp)))) if grid.boundary_index.size else 0.0
        if bmax > 1e-12:
            raise ValueError(
                f"residual has boundary magnitude {bmax:.3e}; "
                "data and reconstruction grids are inconsistent"
            )
    zero = np.zeros((len(grid.boundary_index), 2))
    src = np.stack([adjoint_rhs(grid, comp) for comp in f_res.components], axis=-1)
    return PotentialPair.from_columns(solve_dirichlet(op, zero, src))


def solve_poisson(grid: Grid, rhs: np.ndarray, bc: np.ndarray) -> np.ndarray:
    """Dirichlet Poisson solve: unit coefficient, zero frequency.

    Takes one or several columns like ``solve_dirichlet``; all columns share
    one factorization.
    """
    op = assemble(constant_field(grid, 1.0, 1.0), 0.0)
    return solve_dirichlet(op, bc, rhs)
