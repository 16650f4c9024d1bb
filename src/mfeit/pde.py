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
values.  The gate is checked on the first triangular solve, and a
refinement sweep (at most two) runs only when some column misses it, so a
call normally costs one triangular solve: 9 for ``simulate`` and for
``coverage``, 1 for ``init-guess`` and 154 + 18 N for an N-iteration
``reconstruct`` with the automatic step size and 9 frequencies.  Around
that solve a call does one ``A_II`` product and little else: the interior
unknowns are the slice ``[1:-1, 1:-1]`` of each field, so they move in and
out without an index gather; the columns are held as the rows of a
C-ordered array, which is the Fortran-ordered layout SuperLU works in;
each sparse product takes one contiguous column; and the gate's column
norms are sums of squares over a float view.

A pair of quantities is a plain array with the component on the leading
axis.  The admittivity field is one of shape (2, n, n), sigma then eps,
passed together with its ``Grid``.  Traces have shape (2, nb) and
potentials, residuals and adjoint states shape (2, n, n), one per
boundary-trace component, so a forward, adjoint or linearized solve passes
its pair straight to ``solve_dirichlet`` as one 2-column right-hand side.

``map_frequencies`` is the one frequency pool.  With ``MFEIT_THREADS`` =
T > 1, item i of a per-frequency loop runs on the (i mod T)-th of T
single-thread workers that live for the process; with T = 1 the items run
inline.  Every loaded OpenBLAS is held at one thread while a loop runs, so
pool threads and BLAS threads do not oversubscribe the cores and results
are bit-identical for every T.  The pool lives here because it shares one
rule with the factorization: a SuperLU factor is destroyed on the thread
that made it.  scipy returns a factor's memory only on that thread, so a
factor made on a worker and dropped on the main thread would leak;
``EllipticOperator.factorization`` hands each factor a worker makes back
to that worker when its operator dies.
"""
from __future__ import annotations

import ctypes
import functools
import os
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .mesh import Grid, laplacian

#: Relative residual accepted from a linear solve.
SOLVE_RTOL = 1e-10

#: Environment variable selecting the thread count of ``map_frequencies``.
THREADS_ENV = "MFEIT_THREADS"

#: (getter, setter) names of the OpenBLAS thread count, one pair per build.
_BLAS_SYMBOLS = (
    ("openblas_get_num_threads", "openblas_set_num_threads"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
)

#: ``executor`` is set on each pool worker thread to the executor that owns it.
_worker = threading.local()


class SolverError(RuntimeError):
    """Linear solve failed or exceeded the residual tolerance."""

    #: Landweber iteration during which the solve failed, set by the loop.
    iteration: int | None = None

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
    _lu: list = field(default_factory=list, repr=False)

    def factorization(self):
        """SuperLU factors of the interior block, ordered by minimum degree on A^T + A.

        A factor made on a ``map_frequencies`` worker is destroyed on that
        worker when the operator is, whichever thread drops the operator.
        """
        if not self._lu:
            try:
                self._lu.append(spla.splu(self.block, permc_spec="MMD_AT_PLUS_A"))
            except RuntimeError as exc:  # singular or breakdown
                raise SolverError(f"sparse factorization failed at omega={self.omega:g}: {exc}") from exc
            owner = getattr(_worker, "executor", None)
            if owner is not None:
                weakref.finalize(self, _release, owner, self._lu).atexit = False
        return self._lu[0]


def _release(owner: ThreadPoolExecutor, holder: list) -> None:
    """Empty ``holder`` on the thread of the single-thread executor ``owner``.

    On that thread it is emptied at once: a release queued behind the
    worker's remaining tasks would keep the factor alive until they finish.
    """
    if getattr(_worker, "executor", None) is owner:
        holder.clear()
        return
    try:
        owner.submit(holder.clear)
    except RuntimeError:  # interpreter shutdown: the worker takes no more work
        pass


@functools.lru_cache(maxsize=None)
def _workers(count: int) -> tuple[ThreadPoolExecutor, ...]:
    """``count`` single-thread executors, created once per thread count."""
    workers = tuple(ThreadPoolExecutor(max_workers=1, thread_name_prefix="mfeit-freq") for _ in range(count))
    for w in workers:
        w.submit(setattr, _worker, "executor", w).result()
    return workers


@functools.lru_cache(maxsize=None)
def blas_thread_controls() -> tuple:
    """(getter, setter) of the thread count of every OpenBLAS loaded in the process.

    The libraries are the OpenBLAS builds listed in ``/proc/self/maps``,
    looked up on the first call; where that file or the symbols are
    missing, the result is empty.
    """
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.rsplit("/", 1)[-1]})
    except OSError:
        return ()
    controls, seen = [], set()
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _BLAS_SYMBOLS:
            get = getattr(lib, get_name, None)
            set_ = getattr(lib, set_name, None)
            if get is None or set_ is None:
                continue
            address = ctypes.cast(set_, ctypes.c_void_p).value
            if address in seen:
                continue
            seen.add(address)
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            controls.append((get, set_))
    return tuple(controls)


def map_frequencies(fn, items) -> list:
    """Apply ``fn`` to each per-frequency item; results come back in input order.

    The thread count is read from ``MFEIT_THREADS`` (default 1) and must be
    a positive integer; anything else raises a ValueError naming the
    variable.  With one thread, or when called from a pool worker, the
    items run inline on the calling thread.  With T threads item i runs on
    the (i mod T)-th of T single-thread workers, which live for the
    process; each factorization a task makes is destroyed on its worker
    (see ``EllipticOperator.factorization``).  Either way every loaded
    OpenBLAS is held at one thread for the call and restored afterwards,
    so the pool does not oversubscribe the cores and results do not depend
    on the thread count.  Every task finishes before the first failure, in
    input order, is raised.
    """
    raw = os.environ.get(THREADS_ENV, "1")
    try:
        nthreads = int(raw)
    except ValueError:
        nthreads = 0
    if nthreads < 1:
        raise ValueError(f"{THREADS_ENV} must be a positive integer, got {raw!r}")
    items = list(items)
    controls = blas_thread_controls()
    found = [get() for get, _ in controls]
    for _, set_ in controls:
        set_(1)
    try:
        # On a worker, a call runs inline: waiting on its own worker would deadlock.
        if nthreads == 1 or len(items) <= 1 or hasattr(_worker, "executor"):
            return [fn(x) for x in items]
        workers = _workers(nthreads)
        futures = [workers[i % nthreads].submit(fn, x) for i, x in enumerate(items)]
        wait(futures)
        return [f.result() for f in futures]
    finally:
        for (_, set_), count in zip(controls, found):
            set_(count)


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


def _row_norms(a: np.ndarray) -> np.ndarray:
    """2-norms of the rows of a complex (m, k) array.

    Summed over the float view of each row, real and imaginary parts
    interleaved: a third of the cost of ``np.linalg.norm``, which forms
    ``|a|**2`` first.  A C-ordered ``a`` is read in place.
    """
    v = np.ascontiguousarray(a).view(float)
    return np.sqrt(np.einsum("ij,ij->i", v, v))


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
    for: the boundary values enter once, through ``c = b_I - A_IB bc``.
    The first triangular solve is accepted when every column meets the
    tolerance, as it does for any LU with a small backward error.  Only on
    a miss does a refinement sweep correct ``x_I`` by the factored solve of
    ``c - A_II x_I``; after two sweeps that still miss, a SolverError
    reports the worst column's residual.

    A call costs little more than its triangular solve and one ``A_II``
    product: the interior moves in and out by slicing, the columns reach
    SuperLU in its own Fortran layout, the sparse products take one
    contiguous column at a time, and the norms are sums of squares.  At
    n=65 with 2 columns (2-core VM, one thread) a call takes about 1.4 ms,
    of which 0.95 ms is the triangular solve and 0.2 ms the ``A_II``
    product.
    """
    grid = op.grid
    n = grid.n
    bc = np.asarray(bc, dtype=complex)
    lead = bc.shape[:-1]
    bc_rows = bc.reshape(-1, bc.shape[-1])
    m = len(bc_rows)
    # Row k of b is the interior of source k, sliced in row-major order (the
    # order of ``operator_pattern(n).inner``).  A C-ordered (m, ni) array is
    # a Fortran-ordered (ni, m) one transposed: SuperLU's layout.
    if src is None:
        b = np.zeros((m, (n - 2) ** 2), dtype=complex)
    else:
        b = np.empty((m, n - 2, n - 2), dtype=complex)
        b[...] = np.asarray(src).reshape((m,) + grid.shape)[:, 1:-1, 1:-1]
        b = b.reshape(m, -1)
    norm_bc = _row_norms(bc_rows)
    norm_b = np.hypot(_row_norms(b), norm_bc)
    # A non-finite entry makes its column's norm non-finite, and so can an
    # overflow of finite ones: only then are the entries themselves checked.
    if not np.all(np.isfinite(norm_b)) and not (np.all(np.isfinite(b)) and np.all(np.isfinite(bc))):
        raise ValueError("non-finite right-hand side")

    lu = op.factorization()
    # The sparse products go column by column: each column is contiguous, so
    # scipy neither copies nor reorders it, and the result equals the
    # multi-column product bit for bit.
    c = b
    for ck, bck in zip(c, bc_rows):
        ck -= op.coupling @ bck
    x = lu.solve(c.T).T
    r = np.empty_like(c)
    # The first solve, then at most two refinement sweeps on a miss.
    for sweep in range(3):
        if sweep:
            x += lu.solve(r.T).T
        for ck, xk, rk in zip(c, x, r):
            np.subtract(ck, op.block @ xk, out=rk)
        scale = op.norm * np.hypot(_row_norms(x), norm_bc) + norm_b
        residual = float(np.max(_row_norms(r) / np.maximum(scale, 1e-300)))
        if np.isfinite(residual) and residual <= SOLVE_RTOL:
            out = np.empty(lead + grid.shape, dtype=complex)
            out[..., 1:-1, 1:-1] = x.reshape(lead + (n - 2, n - 2))
            out.reshape(lead + (grid.num_nodes,))[..., grid.boundary_index] = bc
            return out
    raise SolverError(
        f"linear solve residual {residual:.3e} exceeds tolerance {SOLVE_RTOL:.1e} at omega={op.omega:g}",
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
