"""Uniform grid on the unit square and the discrete differential operators.

Fields are plain numpy arrays of shape (n, n).  The index convention is
``f[i, j]`` for the node at ``(x, y) = (i*h, j*h)``, so the x coordinate
varies along axis 0 and y along axis 1.  Row-major flattening
(``k = i*n + j``) defines the canonical node order used for sparse
operators, boundary indexing, and file output.

Vector fields carry their two components in a trailing axis of length 2:
``v[..., 0]`` is the x component, ``v[..., 1]`` the y component.  A pair
of scalar fields (two potentials, or a (sigma, eps) admittivity field,
gradient or direction) is instead a stack of shape (2, n, n); ``Grid.trace``, ``laplacian`` and
``restrict_injection`` read the last two axes and accept such stacks.

Two families of difference operators live here:

* ``grad``/``div``/``laplacian`` -- nodal operators (central differences
  inside, second-order one-sided at the boundary for first derivatives,
  5-point stencil for the Laplacian).
* face differences (``face_diff_x``/``face_diff_y``) -- first differences
  on the edges between adjacent nodes.  The discrete H1 gradient energy is
  built from these, which makes ``I - lap5`` the exact algebraic adjoint
  representation of the H1 inner product (see ``h1_norm_sq``).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True, eq=False)
class Grid:
    """n x n node grid over the closed unit square with interior margin c0.

    Attributes
    ----------
    n : int
        Nodes per side.
    c0 : float
        Margin of the interior region: ``interior_mask`` is True exactly on
        nodes with ``min(x, 1-x, y, 1-y) > c0``.
    h : float
        Node spacing, ``1/(n-1)``.
    interior_mask : ndarray of bool, shape (n, n)
        Marks the interior region where reconstructed perturbations live.
    boundary_mask : ndarray of bool, shape (n, n)
        Marks the outermost node ring (the Dirichlet nodes).
    boundary_index : ndarray of int
        Flat (row-major) indices of the boundary ring in increasing order.
    """

    n: int
    c0: float
    h: float
    interior_mask: np.ndarray
    boundary_mask: np.ndarray
    boundary_index: np.ndarray
    xs: np.ndarray = field(repr=False)
    X: np.ndarray = field(repr=False)
    Y: np.ndarray = field(repr=False)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n, self.n)

    @property
    def num_nodes(self) -> int:
        return self.n * self.n

    def trace(self, f: np.ndarray) -> np.ndarray:
        """Values of a nodal field on the boundary ring, in boundary order.

        Reads the last two axes, so a stack of fields (m, n, n) gives a
        stack of traces (m, nb).
        """
        return np.reshape(f, np.shape(f)[:-2] + (-1,))[..., self.boundary_index]

    def boundary_distance(self) -> np.ndarray:
        """Distance of every node to the boundary of the unit square."""
        return np.minimum.reduce([self.X, 1.0 - self.X, self.Y, 1.0 - self.Y])


def require_int(name: str, value, minimum: int) -> None:
    """Raise ``ValueError`` naming ``name`` unless ``value`` is an integer of at least ``minimum``.

    A ``bool`` is rejected, although Python counts it as an integer.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise ValueError(f"{name} must be an integer of at least {minimum}, got {value!r}")


def build_grid(n: int, c0: float) -> Grid:
    """Construct the uniform grid.

    Rejects an ``n`` that is not an integer of at least 9 (difference
    stencils degenerate), ``c0`` outside ``(0, 0.5)`` (empty or
    meaningless interior region), and an ``(n, c0)`` whose interior region
    holds no node.
    """
    require_int("grid size n", n, 9)
    if not (0.0 < c0 < 0.5):
        raise ValueError(f"interior margin must satisfy 0 < c0 < 0.5, got c0={c0}")
    h = 1.0 / (n - 1)
    xs = np.linspace(0.0, 1.0, n)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    dist = np.minimum.reduce([X, 1.0 - X, Y, 1.0 - Y])
    interior = dist > c0
    if not interior.any():
        raise ValueError(f"no node of the n={n} grid lies in the interior region of margin c0={c0}")
    boundary = np.zeros((n, n), dtype=bool)
    boundary[0, :] = boundary[-1, :] = True
    boundary[:, 0] = boundary[:, -1] = True
    bindex = np.flatnonzero(boundary.reshape(-1))
    return Grid(
        n=n,
        c0=c0,
        h=h,
        interior_mask=interior,
        boundary_mask=boundary,
        boundary_index=bindex,
        xs=xs,
        X=X,
        Y=Y,
    )


def refine_grid(grid: Grid, factor: int) -> Grid:
    """Grid with spacing ``h/factor`` whose nodes contain the original ones."""
    if factor < 1:
        raise ValueError(f"refinement factor must be >= 1, got {factor}")
    return build_grid(factor * (grid.n - 1) + 1, grid.c0)


def restrict_injection(fine: np.ndarray, factor: int) -> np.ndarray:
    """Restrict a fine-grid field to the coarse grid by node injection.

    Requires the fine grid to be a ``factor``-refinement of the coarse one
    so that coarse nodes coincide with every ``factor``-th fine node.  Reads
    the last two axes.
    """
    return fine[..., ::factor, ::factor].copy()


def _d_axis(f: np.ndarray, h: float, axis: int) -> np.ndarray:
    """First derivative along one axis: central inside, one-sided 2nd order at the ends."""
    f = np.moveaxis(f, axis, 0)
    out = np.empty_like(f)
    out[1:-1] = (f[2:] - f[:-2]) / (2.0 * h)
    out[0] = (-3.0 * f[0] + 4.0 * f[1] - f[2]) / (2.0 * h)
    out[-1] = (3.0 * f[-1] - 4.0 * f[-2] + f[-3]) / (2.0 * h)
    return np.moveaxis(out, 0, axis)


def grad(grid: Grid, f: np.ndarray) -> np.ndarray:
    """Nodal gradient of a scalar field, shape (n, n, 2)."""
    return np.stack([_d_axis(f, grid.h, 0), _d_axis(f, grid.h, 1)], axis=-1)


def div(grid: Grid, v: np.ndarray) -> np.ndarray:
    """Nodal divergence of a vector field (mirror stencils of ``grad``)."""
    return _d_axis(v[..., 0], grid.h, 0) + _d_axis(v[..., 1], grid.h, 1)


def laplacian(grid: Grid, f: np.ndarray) -> np.ndarray:
    """5-point Laplacian on interior nodes; the boundary ring is zero-filled.

    Only interior values are meaningful; callers that need boundary
    derivatives must compose ``div(grad(.))`` instead.  Reads the last two
    axes.
    """
    out = np.zeros_like(f)
    h2 = grid.h * grid.h
    out[..., 1:-1, 1:-1] = (
        f[..., 2:, 1:-1] + f[..., :-2, 1:-1] + f[..., 1:-1, 2:] + f[..., 1:-1, :-2]
        - 4.0 * f[..., 1:-1, 1:-1]
    ) / h2
    return out


def face_diff_x(grid: Grid, f: np.ndarray) -> np.ndarray:
    """Differences across x-faces, shape (n-1, n): ``(f[i+1,j]-f[i,j])/h``."""
    return (f[1:, :] - f[:-1, :]) / grid.h


def face_diff_y(grid: Grid, f: np.ndarray) -> np.ndarray:
    """Differences across y-faces, shape (n, n-1)."""
    return (f[:, 1:] - f[:, :-1]) / grid.h


def l2_norm_sq(grid: Grid, f: np.ndarray) -> float:
    """Squared discrete L2 norm with h^2 cell weight."""
    return grid.h * grid.h * float(np.sum(np.abs(f) ** 2))


def h1_norm_sq(grid: Grid, f: np.ndarray) -> float:
    """Squared discrete H1 norm: L2 part plus face-difference gradient energy.

    With this definition the Gram matrix is ``h^2 (I + E^T E)`` for the
    face-difference matrix E, and ``E^T E`` restricted to interior nodes is
    exactly the negated 5-point Laplacian with zero boundary values.
    """
    h2 = grid.h * grid.h
    gx = face_diff_x(grid, f)
    gy = face_diff_y(grid, f)
    return h2 * float(
        np.sum(np.abs(f) ** 2) + np.sum(np.abs(gx) ** 2) + np.sum(np.abs(gy) ** 2)
    )
