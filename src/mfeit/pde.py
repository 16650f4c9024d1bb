"""Complex variable-coefficient elliptic Dirichlet solves on the grid.

Everything here discretizes ``div((sigma + i*omega*eps) * grad(u))`` with a
conservative 5-point scheme: the coefficient on each cell face is the
arithmetic mean of the two adjacent nodal values, and boundary nodes carry
identity rows in the full system.

The full system is never built.  Its sparsity depends only on the grid
size, so ``operator_pattern`` computes it once per n, and ``assemble``
only gathers the face couplings into the values of two matrices: the
interior block ``A_II`` (Dirichlet rows and columns removed) and the
boundary coupling ``A_IB`` (interior rows, boundary columns).  The block
is factored with SuperLU under a minimum-degree ordering of ``A^T + A``,
which roughly halves the fill of factoring the full system.  One
factorization per (coefficient, frequency) pair is cached on the operator
and shared by every right-hand side, including the adjoint problem, whose
matrix is the same because the operator is complex-symmetric rather than
Hermitian.
``solve_dirichlet`` takes one or several columns at once, stacked on the
leading axis, and works on the interior unknowns only: the boundary values
enter once, through ``A_IB``.  Every column must meet the ``SOLVE_RTOL``
backward-error gate of the full system, whose norms include the boundary
values.  The gate is checked on the first triangular solve, and a
refinement sweep (at most two) runs only when some column misses it, so a
call normally costs one triangular solve: 72 + 18 N for an N-iteration
``reconstruct`` with the automatic step size and 9 frequencies, besides
the shifted sweep of its coverage gate.  Around
that solve a call does one ``A_II`` product and little else: the interior
unknowns are the slice ``[1:-1, 1:-1]`` of each field, so they move in and
out without an index gather; the columns are held as the rows of a
C-ordered array, which is the Fortran-ordered layout SuperLU works in;
each sparse product takes one contiguous column; and the gate's column
norms are sums of squares over a float view.

``solve_frequencies`` solves one field at many frequencies, as data
synthesis and the coverage constant do, with a single factorization: the
operators are the pencil ``A_s + i w A_e``, so one block Krylov space of
``A(tau)^-1 A_e`` at the mid-band shift tau serves every frequency.  Each
state it returns passes a backward-error gate 1e4 times tighter than
SOLVE_RTOL on the system of ``assemble`` at its own frequency, or else
comes from ``solve_dirichlet``.  For the 9 frequencies of ``simulate`` on the 129 x 129 grid that is 1
factorization, one 4-column and 10 two-column triangular solves, against
9 factorizations and 9 two-column solves: 94 ms against 310 ms (2-core
VM, one thread), and 0.45 s against 1.77 s on the 257 x 257 grid.
``coverage`` on the 65 x 65 grid makes 1 factorization and 11 triangular
solves, and an N-iteration ``reconstruct`` 9 N + 1 factorizations.

``solve_poisson``, the unit-coefficient problem of the initial guess,
makes none: the discrete sine transform diagonalizes its interior block,
so ``init-guess`` factors nothing.  The transform sits in the operator's
factor slot, and the solve runs through ``solve_dirichlet``'s gate and
refinement like every other.

scipy supplies compiled code only: SuperLU, the engine of
``scipy.sparse.linalg.splu``, called by ``factor``, and the sparse
matrix-vector kernels of ``scipy.sparse``, called by ``OperatorPattern``.
``_scipy_extension`` loads both from their files, so importing this module
imports none of ``scipy.sparse``, ``scipy.sparse.linalg`` or
``scipy.linalg``, whose Python layers took about 0.27 s and 29 MiB at
every start of a CLI command (medians of 9 process starts, 2-core VM).
The calls are the ones ``splu`` and the matrices' ``@`` make, so results
keep their bits.  The dense products of the shifted sweep are numpy
``matmul`` calls on numpy's OpenBLAS.

A pair of quantities is a plain array with the component on the leading
axis.  The admittivity field is one of shape (2, n, n), sigma then eps,
passed together with its ``Grid``.  Traces have shape (2, nb) and
potentials, residuals and adjoint states shape (2, n, n), one per
boundary-trace component, so a forward, adjoint or linearized solve passes
its pair straight to ``solve_dirichlet`` as one 2-column right-hand side.

``map_frequencies`` is the one frequency pool.  With ``MFEIT_THREADS`` =
T > 1, item i of a per-frequency loop of N items runs on the (i mod W)-th
of W = min(T, N) single-thread workers that live for the process; with
T = 1 the items run inline.  Every loaded OpenBLAS is held at one thread
while a loop runs, so pool threads and BLAS threads do not oversubscribe
the cores and results are bit-identical for every T.  The pool lives here
because it shares one rule with the factorization: a SuperLU factor is
destroyed on the thread that made it.  scipy returns a factor's memory
only on that thread, so a factor made on a worker and dropped on the main
thread would leak; ``EllipticOperator.factorization`` hands each factor a
worker makes back to that worker when its operator dies.
"""
from __future__ import annotations

import contextlib
import ctypes
import functools
import importlib.machinery
import importlib.util
import os
import sys
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field

import numpy as np

from .mesh import Grid

#: Relative residual accepted from a linear solve.
SOLVE_RTOL = 1e-10

#: Backward error a ``solve_frequencies`` state must reach on its own system.
SWEEP_RTOL = 1e-14

#: Block Krylov steps after which ``solve_frequencies`` hands the frequencies
#: still missing SWEEP_RTOL to ``solve_dirichlet``.
SWEEP_STEPS = 24

#: A new Krylov direction is dropped when what is left of it after
#: orthogonalization is below this fraction of its block's largest column.
DEFLATION_TOL = 1e-14

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
#: The frequency pool's single-thread executors, in start order; ``_workers`` grows it.
_pool: list[ThreadPoolExecutor] = []
_pool_lock = threading.Lock()


def _scipy_extension(name: str):
    """The compiled module ``scipy.<name>``, loaded from its file inside the installed scipy.

    No scipy package ``__init__`` runs, so the Python layers of
    ``scipy.sparse`` and ``scipy.linalg`` are never imported.  The module is
    registered under its dotted name, so a later ``import scipy.sparse`` in
    the same process takes this module object and does not initialise the
    extension again; one already imported is taken as it is.  A missing
    file raises an ImportError naming the installed scipy version.
    """
    dotted = "scipy." + name
    if dotted in sys.modules:
        return sys.modules[dotted]
    spec = importlib.util.find_spec("scipy")
    if spec is None:
        raise ImportError(f"mfeit needs scipy's compiled module {dotted}, and scipy is not installed")
    base = os.path.join(spec.submodule_search_locations[0], *name.split("."))
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        if os.path.isfile(base + suffix):
            loader = importlib.machinery.ExtensionFileLoader(dotted, base + suffix)
            module = importlib.util.module_from_spec(importlib.util.spec_from_loader(dotted, loader))
            loader.exec_module(module)
            sys.modules[dotted] = module
            return module
    from importlib.metadata import version

    raise ImportError(f"mfeit needs the compiled module {dotted}, which scipy {version('scipy')} does not have")


#: SuperLU (``scipy.sparse.linalg.splu``'s engine) and scipy's sparse kernels.
_superlu = _scipy_extension("sparse.linalg._dsolve._superlu")
_sparsetools = _scipy_extension("sparse._sparsetools")


class SolverError(RuntimeError):
    """A linear solve failed or missed the residual tolerance, or the iteration diverged.

    The message states the cause, a solve's residual included.
    """

    #: Landweber iteration during which the failure occurred, set by the loop.
    iteration: int | None = None


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

    ``block_product`` and ``coupling_product`` multiply by a matrix of this
    pattern given its values.  They call scipy's compiled ``csc_matvec`` and
    ``csr_matvec``, which add the product into a zeroed output as scipy's
    own ``A @ x`` does, so both match it bit for bit.  (A product gathered
    from the value table with numpy was 1.5e-11 off for a complex table,
    and six times slower once made exact with real arithmetic.)
    """

    inner: np.ndarray
    face: np.ndarray
    block_indptr: np.ndarray
    block_indices: np.ndarray
    block_take: np.ndarray
    coupling_indptr: np.ndarray
    coupling_indices: np.ndarray
    coupling_take: np.ndarray

    def block_product(self, data: np.ndarray, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        """``out = A_II x`` for the CSC values ``data`` of an interior block; returns ``out``."""
        out.fill(0)
        _sparsetools.csc_matvec(len(out), len(x), self.block_indptr, self.block_indices, data, x, out)
        return out

    def coupling_product(self, data: np.ndarray, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        """``out = A_IB x`` for the CSR values ``data`` of a boundary coupling; returns ``out``."""
        out.fill(0)
        _sparsetools.csr_matvec(len(out), len(x), self.coupling_indptr, self.coupling_indices, data, x, out)
        return out


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
    """Interior block ``A_II`` and boundary coupling ``A_IB`` of one operator.

    ``block_data`` holds the CSC values of ``A_II`` and ``coupling_data``
    the CSR values of ``A_IB``, in the pattern of
    ``operator_pattern(grid.n)``; the (m, 5) value table they are gathered
    from is dropped after assembly.  The boundary rows of the full system
    are identity rows, so the interior unknowns satisfy ``A_II x_I = b_I -
    A_IB bc``.  ``norm`` is the infinity norm of the full system, ``max(1,
    interior row sums of |A|)``.  The LU factorization of the block is
    computed on first use and cached.
    """

    grid: Grid
    omega: float
    block_data: np.ndarray
    coupling_data: np.ndarray
    norm: float
    _lu: list = field(default_factory=list, repr=False)

    def factorization(self):
        """``factor`` of the interior block, looked up when first needed.

        A factor made on a ``map_frequencies`` worker is destroyed on that
        worker when the operator is, whichever thread drops the operator.
        """
        if not self._lu:
            pat = operator_pattern(self.grid.n)
            try:
                self._lu.append(factor(self.block_data, pat.block_indices, pat.block_indptr))
            except RuntimeError as exc:  # singular or breakdown
                raise SolverError(f"sparse factorization failed at omega={self.omega:g}: {exc}") from exc
            owner = getattr(_worker, "executor", None)
            if owner is not None:
                weakref.finalize(self, _release, owner, self._lu).atexit = False
        return self._lu[0]


def factor(data: np.ndarray, indices: np.ndarray, indptr: np.ndarray):
    """SuperLU factors of the square CSC matrix ``(data, indices, indptr)``, ordered by minimum degree on A^T + A.

    The call is the one ``scipy.sparse.linalg.splu(A, permc_spec=
    "MMD_AT_PLUS_A")`` makes, so the factors are the same to the bit; the
    result is scipy's ``SuperLU`` object, whose ``solve`` takes (N, k)
    columns.  ``indices`` and ``indptr`` are int32 and the row indices of
    each column increase.  A singular matrix raises RuntimeError.
    """
    options = dict(DiagPivotThresh=None, ColPerm="MMD_AT_PLUS_A", PanelSize=None, Relax=None)
    return _superlu.gstrf(
        len(indptr) - 1, len(data), data, indices, indptr, csc_construct_func=None, ilu=False, options=options
    )


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


def _workers(count: int) -> list[ThreadPoolExecutor]:
    """The first ``count`` single-thread executors of the pool, starting those it lacks."""
    with _pool_lock:
        while len(_pool) < count:
            w = ThreadPoolExecutor(max_workers=1, thread_name_prefix="mfeit-freq")
            w.submit(setattr, _worker, "executor", w).result()
            _pool.append(w)
        return _pool[:count]


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


@contextlib.contextmanager
def blas_one_thread():
    """Hold every loaded OpenBLAS at one thread for the body; restore the counts after."""
    controls = blas_thread_controls()
    found = [get() for get, _ in controls]
    for _, set_ in controls:
        set_(1)
    try:
        yield
    finally:
        for (_, set_), count in zip(controls, found):
            set_(count)


def map_frequencies(fn, items) -> list:
    """Apply ``fn`` to each per-frequency item; results come back in input order.

    The thread count is read from ``MFEIT_THREADS`` (default 1) and must be
    a positive integer; anything else raises a ValueError naming the
    variable.  With one thread, or when called from a pool worker, the
    items run inline on the calling thread.  With T threads and N items,
    item i runs on the (i mod W)-th of W = min(T, N) single-thread workers:
    the first W of one pool that lives for the process and starts a worker
    only when a loop first needs it.  Each factorization a task makes is
    destroyed on its worker (see ``EllipticOperator.factorization``).
    Either way every loaded OpenBLAS is held at one thread for the call
    (``blas_one_thread``), so the pool does not oversubscribe the cores and
    results do not depend on the thread count.  Every task finishes before
    the first failure, in input order, is raised.
    """
    raw = os.environ.get(THREADS_ENV, "1")
    try:
        nthreads = int(raw)
    except ValueError:
        nthreads = 0
    if nthreads < 1:
        raise ValueError(f"{THREADS_ENV} must be a positive integer, got {raw!r}")
    items = list(items)
    with blas_one_thread():
        # On a worker, a call runs inline: waiting on its own worker would deadlock.
        if nthreads == 1 or len(items) <= 1 or hasattr(_worker, "executor"):
            return [fn(x) for x in items]
        workers = _workers(min(nthreads, len(items)))
        futures = [workers[i % len(workers)].submit(fn, x) for i, x in enumerate(items)]
        wait(futures)
        return [f.result() for f in futures]


def assemble(grid: Grid, x: np.ndarray, omega: float) -> EllipticOperator:
    """Assemble ``div((sigma + i*omega*eps) grad(.))`` with Dirichlet rows.

    ``x`` is the admittivity field, shape (2, n, n), with ``x[0]`` = sigma
    and ``x[1]`` = eps; any other shape is rejected.  Face coefficients are
    arithmetic means of the adjacent nodal values and the diagonal is the
    negated sum of the four couplings, so interior row sums vanish and the
    interior block is complex-symmetric.  Values are gathered into the
    cached pattern of the grid; no full-size matrix is built.  A sigma or
    eps that is nonpositive or non-finite (NaN included) anywhere is
    rejected: the forward model is only elliptic for finite, strictly
    positive material parameters.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (2,) + grid.shape:
        raise ValueError(f"admittivity field has shape {x.shape}, expected {(2,) + grid.shape}")
    for name, values in (("conductivity", x[0]), ("permittivity", x[1])):
        if not np.all((values > 0.0) & (values < np.inf)):
            raise ValueError(f"{name} must be finite and strictly positive everywhere")
    table, block_data, coupling_data = _gather(grid, x[0] + 1j * omega * x[1])
    norm = max(1.0, float(np.max(np.abs(table).sum(axis=1))))
    return EllipticOperator(grid, omega, block_data, coupling_data, norm)


def _face_means(coeff: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Face coefficients between node (i, j) and its +x / +y neighbors, shapes (n-1, n) and (n, n-1).

    Each is the arithmetic mean of the two adjacent nodal values.
    """
    return 0.5 * (coeff[:-1, :] + coeff[1:, :]), 0.5 * (coeff[:, :-1] + coeff[:, 1:])


def _gather(grid: Grid, coeff: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Value table and the values of the interior block and boundary coupling of ``div(coeff grad(.))``.

    ``coeff`` is one nodal field (n, n), real or complex; the values take
    its dtype.  The table has shape (m, 5), see ``OperatorPattern``.
    """
    pat = operator_pattern(grid.n)
    h2 = grid.h * grid.h
    cfx, cfy = _face_means(coeff)
    e = np.concatenate((cfx.reshape(-1), cfy.reshape(-1)))[pat.face] / h2

    m = pat.inner.size
    table = np.empty((m, 5), dtype=e.dtype)
    table[:, :2] = e[:, :2]
    table[:, 3:] = e[:, 2:]
    # This summation order reproduces, bit for bit, the row sums of the
    # reference COO assembly (see tests/helpers.py).
    table[:, 2] = -(((e[:, 1] + e[:, 2]) + e[:, 3]) + e[:, 0])
    values = table.reshape(-1)
    return table, values[pat.block_take], values[pat.coupling_take]


def apply_div_coeff_grad(grid: Grid, coeff: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Matrix-free application of the interior stencil of ``assemble``.

    Returns ``div(coeff * grad(f))`` at non-boundary nodes (zero on the
    boundary ring) for an arbitrary, possibly sign-indefinite coefficient.
    ``f`` is one nodal field (n, n) or a stack of them (m, n, n).  Bitwise
    consistent with the assembled matrix rows; linearizations of the
    forward map rely on that exact agreement.
    """
    h2 = grid.h * grid.h
    cfx, cfy = _face_means(coeff)
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


def _backward_error(op: EllipticOperator, c, x, r, norm_bc, norm_b) -> float:
    """Largest normwise backward error of the rows of ``x`` on the full system of ``op``.

    ``x`` holds interior unknowns and ``c = b_I - A_IB bc`` their right-hand
    sides, one per row; the residual ``c - A_II x`` is written to ``r``.
    The measure is ``|Ax-b| / (|A| |x| + |b|)``, whose norms include the
    boundary values: ``norm_bc`` and ``norm_b`` are the row norms of ``bc``
    and of the full right-hand side.
    """
    pat = operator_pattern(op.grid.n)
    for ck, xk, rk in zip(c, x, r):
        np.subtract(ck, pat.block_product(op.block_data, xk, rk), out=rk)
    scale = op.norm * np.hypot(_row_norms(x), norm_bc) + norm_b
    return float(np.max(_row_norms(r) / np.maximum(scale, 1e-300)))


def _field(grid: Grid, x: np.ndarray, bc: np.ndarray) -> np.ndarray:
    """Nodal fields with interior unknowns ``x`` (one per row) and boundary values ``bc``."""
    lead = bc.shape[:-1]
    out = np.empty(lead + grid.shape, dtype=complex)
    out[..., 1:-1, 1:-1] = x.reshape(lead + (grid.n - 2, grid.n - 2))
    out.reshape(lead + (grid.num_nodes,))[..., grid.boundary_index] = bc
    return out


def _interior_rhs(op: EllipticOperator, bc, src) -> tuple:
    """Interior right-hand sides ``(bc, c, norm_bc, norm_b)`` of Dirichlet problems of ``op``.

    ``bc`` and ``src`` are taken as ``solve_dirichlet`` takes them.
    ``c = b_I - A_IB bc`` holds one row per column; ``norm_bc`` and
    ``norm_b`` are the row norms of the boundary values and of the full
    right-hand side, for ``_backward_error``.  A non-finite right-hand side
    raises a ValueError.
    """
    grid = op.grid
    n = grid.n
    bc = np.asarray(bc, dtype=complex)
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
    pat = operator_pattern(n)
    product = np.empty(b.shape[1], dtype=complex)
    for bk, bck in zip(b, bc_rows):
        bk -= pat.coupling_product(op.coupling_data, bck, product)
    return bc, b, norm_bc, norm_b


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
    SuperLU (``factor``) in its own Fortran layout, the sparse products
    run in scipy's compiled kernels on one contiguous column at a time,
    and the norms are sums of squares.  At
    n=65 with 2 columns (2-core VM, one thread) a call takes about 1.4 ms,
    of which 0.95 ms is the triangular solve and 0.2 ms the ``A_II``
    product.
    """
    bc, c, norm_bc, norm_b = _interior_rhs(op, bc, src)
    lu = op.factorization()
    x = lu.solve(c.T).T
    r = np.empty_like(c)
    # The first solve, then at most two refinement sweeps on a miss.
    for sweep in range(3):
        if sweep:
            x += lu.solve(r.T).T
        residual = _backward_error(op, c, x, r, norm_bc, norm_b)
        if np.isfinite(residual) and residual <= SOLVE_RTOL:
            return _field(op.grid, x, bc)
    raise SolverError(f"linear solve residual {residual:.3e} exceeds tolerance {SOLVE_RTOL:.1e} at omega={op.omega:g}")


def solve_frequencies(grid: Grid, x: np.ndarray, omegas, bc: np.ndarray, finish=None) -> list:
    """Dirichlet states of the field ``x`` at every frequency of ``omegas``, without source.

    ``bc`` holds m boundary columns, shape (m, nb), shared by every
    frequency.  Item k of the result is ``finish(u_k)`` (``u_k`` itself by
    default), where ``u_k`` of shape (m, n, n) solves the system of
    ``assemble(grid, x, omegas[k])``: ``finish`` lets a caller keep less
    than the whole state while the others are still being solved, as
    ``properbc.coverage_lambda`` keeps only each state's determinant map.

    The operators form the pencil ``A(w) = A_s + i w A_e`` with real
    ``A_s``, ``A_e``, and so do the right-hand sides ``c(w) = c_s + i w
    c_e``.  One factorization of ``P = A(tau)`` at the mid-band shift tau
    therefore serves every frequency: ``P^-1 A(w) = I + i (w - tau) M``
    with ``M = P^-1 A_e``, and ``P^-1 c(w)`` lies in the span of the 2m
    columns ``P^-1 [c_s, c_e]``, so one block Krylov space of ``M`` started
    there holds an approximation for every w (a shifted Krylov method).
    Each step adds one block: a triangular solve of the last block's
    width, two passes of block Gram-Schmidt, and the orthonormalization of
    the new rows, which drops those that depend on the others (see
    DEFLATION_TOL).  Each frequency's state then minimizes the
    preconditioned residual over the space, a small least-squares problem.
    Once its residual there is small, the state is formed and accepted
    only when its backward error on the system of ``assemble(grid, x,
    w)``, measured as ``solve_dirichlet`` measures it, is at most
    SWEEP_RTOL, far inside SOLVE_RTOL.  A frequency that misses after
    SWEEP_STEPS steps falls back to ``solve_dirichlet``, after the sweep's
    factor and basis are gone.

    The sweep runs on the calling thread with every OpenBLAS held at one
    thread, and its factor is made and dropped there; the fallbacks go
    through ``map_frequencies``.  The shift and the steps do not depend on
    ``MFEIT_THREADS``, so neither do the results.  For the two-bump
    phantom at 9 frequencies in [1, 2], every frequency passes after 10
    steps on the 65 x 65, 129 x 129 and 257 x 257 grids, and the states lie
    within 8e-13 of fresh factored ones, relative to their largest entry.
    Past the first, 4-column solve the steps are 2 columns wide: the phantom
    is constant next to the boundary, so ``c_e`` is a multiple of ``c_s``
    and drops out.
    """
    finish = finish or (lambda u: u)
    omegas = [float(w) for w in omegas]
    bc = np.asarray(bc, dtype=complex)
    if bc.ndim != 2:
        raise ValueError(f"boundary values have shape {bc.shape}, expected (m, nb)")
    if not omegas:
        return []
    with blas_one_thread():
        states = _shifted_sweep(grid, np.asarray(x, dtype=float), omegas, bc, finish)
    missed = [k for k in range(len(omegas)) if k not in states]
    fresh = map_frequencies(lambda w: finish(solve_dirichlet(assemble(grid, x, w), bc)), [omegas[k] for k in missed])
    states.update(zip(missed, fresh))
    return [states[k] for k in range(len(omegas))]


def _shifted_sweep(grid: Grid, x: np.ndarray, omegas: list, bc: np.ndarray, finish) -> dict:
    """The Krylov part of ``solve_frequencies``: the accepted states by frequency index.

    Vectors are the rows of C-ordered arrays, SuperLU's layout; the basis
    is a list of blocks of orthonormal rows, and ``hess`` holds the block
    Hessenberg matrix of ``M V_j = sum_i V_i hess[i, j]``.
    """
    tau = 0.5 * (min(omegas) + max(omegas))
    lu = assemble(grid, x, tau).factorization()  # the operator itself is not kept
    pat = operator_pattern(grid.n)
    _, _, c_sigma = _gather(grid, x[0])
    _, a_eps, c_eps = _gather(grid, x[1] + 0j)
    m = len(bc)
    norm_bc = _row_norms(bc)
    c = np.empty((2 * m, (grid.n - 2) ** 2), dtype=complex)
    for k, row in enumerate(bc):
        np.negative(pat.coupling_product(c_sigma, row, c[k]), out=c[k])
        np.negative(pat.coupling_product(c_eps, row, c[m + k]), out=c[m + k])
    _, first, start = _orthonormalize(lu.solve(c.T).T, [])
    if not len(first):  # c = 0, as for all-zero boundary data: every state is zero
        zero = _field(grid, np.zeros((m, c.shape[1]), dtype=complex), bc)
        return {k: finish(zero.copy()) for k in range(len(omegas))}
    basis, offsets = [first], [0]
    size = len(first)
    hess = np.zeros(((SWEEP_STEPS + 1) * 2 * m, SWEEP_STEPS * 2 * m), dtype=complex)
    states = {}
    pending = list(range(len(omegas)))
    for _ in range(SWEEP_STEPS):
        if not pending:
            break
        v = basis[-1]
        z = np.empty_like(v)
        for vk, zk in zip(v, z):
            pat.block_product(a_eps, vk, zk)
        coeffs, new, tail = _orthonormalize(lu.solve(z.T).T, basis)
        cols = slice(size - len(v), size)
        for o, h in zip(offsets, coeffs):
            hess[o:o + len(h), cols] = h
        hess[size:size + len(new), cols] = tail
        inner = size  # the states combine the blocks before the new one
        if len(new):
            basis.append(new)
            offsets.append(size)
            size += len(new)
        # Least squares per frequency: (E + s H) y = g, E = [I; 0], s = i(w - tau).
        ready = []
        for k in pending:
            w = omegas[k]
            lhs = np.eye(size, inner) + 1j * (w - tau) * hess[:size, :inner]
            rhs = np.zeros((size, m), dtype=complex)
            rhs[:len(first)] = start[:, :m] + 1j * w * start[:, m:]
            y = np.linalg.lstsq(lhs, rhs, rcond=None)[0]
            # |rho| / |x| bounds the gate's measure from above when P and A(w)
            # have like norms; it ran 2 to 230 times above it in trials, so
            # the gate is tried from 10 SWEEP_RTOL on.
            rho = _row_norms((lhs @ y - rhs).T) / np.hypot(_row_norms(y.T), norm_bc)
            if np.max(rho) <= 10 * SWEEP_RTOL:
                ready.append((k, y))
        if ready:
            # The ready states in one pass over the basis.
            ys = np.concatenate([y for _, y in ready], axis=1)
            xs = np.zeros((ys.shape[1], c.shape[1]), dtype=complex)
            for o, block in zip(offsets, basis):
                if o < inner:
                    xs += ys[o:o + len(block)].T @ block
            for j, (k, _) in enumerate(ready):
                xk = xs[j * m:(j + 1) * m]
                op = assemble(grid, x, omegas[k])
                _, ck, _, norm_b = _interior_rhs(op, bc, None)
                if _backward_error(op, ck, xk, np.empty_like(ck), norm_bc, norm_b) <= SWEEP_RTOL:
                    states[k] = finish(_field(grid, xk, bc))
                    pending.remove(k)
        if not len(new):
            break  # the space is invariant: it cannot grow
    return states


def _orthonormalize(w: np.ndarray, basis: list) -> tuple[list, np.ndarray, np.ndarray]:
    """Orthonormalize the rows of ``w`` against the blocks of ``basis`` and among themselves.

    Two passes of block Gram-Schmidt against the basis, each product a
    numpy ``matmul`` (``V^H w`` as the conjugate of ``conj(w) V^T``, which
    copies only the new rows, and ``w -= V h``), then two passes of
    Gram-Schmidt of each row against the new rows kept before it.  With
    two rows or more on each side the products give the bits of BLAS
    ``zgemm``; a one-row block takes numpy's matrix-vector route, which
    may round differently.  A row is dropped when
    what is left of it is below DEFLATION_TOL times the largest row of the
    original ``w``: it depends on the others, as the shared column of
    ``c_s`` and ``c_e`` does.  Returns the coefficients on each basis
    block, the new block of orthonormal rows and its coefficients, so that
    ``w`` equals ``sum(h.T @ V) + tail.T @ new`` up to the dropped rows'
    remainders.  ``w`` is overwritten when it is C-ordered.
    """
    w = np.ascontiguousarray(w)
    scale = float(np.max(_row_norms(w)))
    coeffs = [np.zeros((len(v), len(w)), dtype=complex) for v in basis]
    for _ in range(2):
        for v, h in zip(basis, coeffs):
            step = np.conj(w.conj() @ v.T).T  # V^H w
            w -= step.T @ v
            h += step
    kept, tail = [], np.zeros((len(w), len(w)), dtype=complex)
    for j, wj in enumerate(w):
        for _ in range(2):
            for k, q in enumerate(kept):
                t = np.vdot(q, wj)
                wj -= t * q
                tail[k, j] += t
        size = np.sqrt(np.vdot(wj, wj).real)
        if size > DEFLATION_TOL * scale:
            wj /= size
            tail[len(kept), j] = size
            kept.append(wj)
    return coeffs, np.array(kept).reshape(len(kept), w.shape[1]), tail[:len(kept)]


def solve_poisson(grid: Grid, rhs: np.ndarray, bc: np.ndarray) -> np.ndarray:
    """Dirichlet Poisson solve: unit coefficient, zero frequency, by sine transform.

    Takes one or several columns like ``solve_dirichlet`` and solves the
    same system, that of ``assemble(grid, constant_field(grid, 1, 1), 0)``,
    through ``solve_dirichlet`` itself: the same SOLVE_RTOL gate, the same
    refinement sweeps on a miss, the same SolverError and ValueError.  No
    factorization is made: the operator's factor is a ``_SineSolver``.
    """
    op = assemble(grid, constant_field(grid, 1.0, 1.0), 0.0)
    op._lu.append(_SineSolver(_poisson_eigenvalues(op)))
    return solve_dirichlet(op, bc, rhs)


class _SineSolver:
    """Inverse of a constant operator's interior block, with SuperLU's ``solve``.

    The block is ``d I + e (T x I + I x T)`` with T the path graph's
    adjacency, so the orthonormal 2-D DST-I ``S`` (``S = S^-1``)
    diagonalizes it exactly and ``x_I = S (S c / lam)`` with the
    eigenvalues ``eig`` of ``_poisson_eigenvalues`` (the fast Poisson solver
    of Buzbee, Golub & Nielson, SIAM J. Numer. Anal. 7, 1970), applied to
    the real and imaginary parts by real FFTs.  ``solve`` takes the (ni, k)
    columns that SuperLU takes.  Nine columns at n=65 take 4-6 ms against
    12-19 ms for a factorization and solve, and 14-22 ms against 78-110 ms
    at n=129 (medians of two rounds, 2-core VM, one thread).
    """

    def __init__(self, eig: np.ndarray):
        self.eig = eig

    def solve(self, b: np.ndarray) -> np.ndarray:
        return _sine_solve(b.T, self.eig).T


def _poisson_eigenvalues(op: EllipticOperator) -> np.ndarray:
    """Eigenvalues of the interior block of the constant operator ``op``, shape (n-2, n-2).

    Entry (j, k) belongs to the sine mode ``sin(j i th) sin(k l th)``, th =
    pi / (n-1).  The diagonal d and the coupling e are the first two values
    of the block's first column, so the rounding of ``1/h**2`` is the
    block's own.  The eigenvalue
    ``d + 2e (cos(j th) + cos(k th))`` is formed as ``(d + 4e) - 4e
    (sin^2(j th/2) + sin^2(k th/2))``: ``d + 4e`` is exact, and the smallest
    eigenvalues do not lose digits to cancellation.
    """
    d = op.block_data[0].real
    e = op.block_data[1].real  # the +y coupling; every coupling is e
    side = op.grid.n - 2
    s = 4.0 * e * np.sin(0.5 * np.pi * np.arange(1, side + 1) / (side + 1)) ** 2
    return (d + 4.0 * e) - (s[:, None] + s[None, :])


def _sine_solve(c: np.ndarray, eig: np.ndarray) -> np.ndarray:
    """``S (S c / eig)`` for each row of the complex (k, m*m) array ``c``, S the orthonormal 2-D DST-I.

    ``eig`` has shape (m, m).  The real and imaginary parts of the m x m
    planes are transformed together, one axis per pass: ``numpy.fft.rfft``
    of ``(0, v_1, ..., v_m)`` zero-padded to length N = 2(m+1) has ``-sum_j
    v_j sin(pi j l / (m+1))`` as the imaginary part of entry l, which is
    ``-sqrt(N/4)`` times the orthonormal transform.  Each pass reads the
    last axis and writes it back swapped with the one before, so two passes
    transform a plane and restore its order; the four scale factors
    multiply to ``(N/4)**2``, which is folded into ``eig``.  The
    planes go one at a time through two small buffers made once per call:
    at n=65, fresh arrays for all planes at every pass cost more in page
    faults than the transforms themselves.
    (``scipy.fft`` has a DST but costs about 90 ms to import.)
    """
    k, m = len(c), len(eig)
    size = 2 * (m + 1)
    scaled = eig * (size / 4) ** 2
    padded = np.zeros((2, m, m + 1))
    spectrum = np.empty((2, m, size // 2 + 1), dtype=complex)
    x = np.empty_like(c)
    for ck, xk in zip(c.reshape(k, m, m), x.reshape(k, m, m)):
        padded[0, :, 1:] = ck.real
        padded[1, :, 1:] = ck.imag
        for step in range(4):
            np.fft.rfft(padded, n=size, out=spectrum)
            v = spectrum.imag[..., 1:-1].swapaxes(-1, -2)
            if step == 1:
                v /= scaled
            if step < 3:
                padded[..., 1:] = v
        xk.real = v[0]
        xk.imag = v[1]
    return x
