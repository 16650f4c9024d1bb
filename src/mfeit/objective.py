"""Discrepancy functional, linearized forward map, and adjoint-state gradient.

The misfit is a frequency quadrature of squared discrete H1 residual norms.
Both derivative routes implemented here are *exact* derivatives of that
discrete functional:

* ``dF`` applies the assembly stencil of the coefficient perturbation to
  the forward state and solves with the unperturbed operator, which is the
  algebraic linearization of the discrete forward map.
* ``gradient_DJ`` solves the adjoint problem (same factorization, since the
  operator is complex-symmetric) and accumulates the gradient density from
  face-gradient products of state and adjoint, which is the algebraic
  transpose of the same linearization.

Consequently the H1 pairing of ``dF`` against the residual and the nodal
pairing of a direction against ``gradient_DJ`` agree to solver precision,
and both match finite differences of the misfit up to Taylor truncation.

Misfit, gradient and normal operator share one factorization per frequency
through the ``ForwardState`` list; the gradient and the normal operator
share the face-density reduction ``reduce_densities``.

Every pair is a plain array with its component on the leading axis:
potentials, residuals and linearized states (one per trace component) have
shape (2, n, n), and so do admittivity fields, gradient densities and
perturbation directions, whose components are (sigma, eps).
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .mesh import Grid, h1_norm_sq
from .pde import (
    EllipticOperator,
    apply_div_coeff_grad,
    assemble,
    solve_adjoint,
    solve_dirichlet,
)

#: Environment variable selecting the thread count of per-frequency loops.
THREADS_ENV = "MFEIT_THREADS"


def map_frequencies(fn, items):
    """Apply ``fn`` over frequency items, optionally threaded.

    The thread count is read from ``MFEIT_THREADS`` (default 1) and must be
    a positive integer; anything else raises a ValueError naming the
    variable.  Results are collected in input order, so reductions
    downstream run in a fixed deterministic order regardless of the thread
    count.
    """
    raw = os.environ.get(THREADS_ENV, "1")
    try:
        nthreads = int(raw)
    except ValueError:
        nthreads = 0
    if nthreads < 1:
        raise ValueError(f"{THREADS_ENV} must be a positive integer, got {raw!r}")
    items = list(items)
    if nthreads == 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=nthreads) as pool:
        return list(pool.map(fn, items))


@dataclass
class FrequencyGrid:
    """Quadrature nodes and weights on the frequency interval.

    Weights are positive and sum to ``omega_hi - omega_lo``; the default
    constructor ``uniform`` uses the trapezoid rule (a single node gets the
    full interval length as its weight).
    """

    omega_lo: float
    omega_hi: float
    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        self.nodes = np.asarray(self.nodes, dtype=float)
        self.weights = np.asarray(self.weights, dtype=float)
        if not self.omega_lo < self.omega_hi:
            raise ValueError("frequency interval must satisfy omega_lo < omega_hi")
        if self.nodes.ndim != 1 or self.nodes.size == 0:
            raise ValueError("frequency grid needs at least one node")
        if self.weights.shape != self.nodes.shape:
            raise ValueError(f"{self.nodes.size} frequency nodes but {self.weights.size} weights")
        if np.any(np.diff(self.nodes) <= 0.0):
            raise ValueError("frequency nodes must be strictly increasing")
        if self.nodes[0] < self.omega_lo - 1e-12 or self.nodes[-1] > self.omega_hi + 1e-12:
            raise ValueError("frequency nodes must lie inside the interval")
        if np.any(self.weights <= 0.0):
            raise ValueError("quadrature weights must be positive")
        length = self.omega_hi - self.omega_lo
        if abs(float(self.weights.sum()) - length) > 1e-10 * max(length, 1.0):
            raise ValueError("quadrature weights must sum to the interval length")

    @classmethod
    def uniform(cls, omega_lo: float, omega_hi: float, count: int) -> "FrequencyGrid":
        if count < 1:
            raise ValueError("need at least one frequency node")
        length = omega_hi - omega_lo
        if count == 1:
            nodes = np.array([0.5 * (omega_lo + omega_hi)])
            weights = np.array([length])
        else:
            nodes = np.linspace(omega_lo, omega_hi, count)
            weights = np.full(count, length / (count - 1))
            weights[0] *= 0.5
            weights[-1] *= 0.5
        return cls(omega_lo, omega_hi, nodes, weights)

    @property
    def omega_mid(self) -> float:
        return 0.5 * (self.omega_lo + self.omega_hi)


@dataclass
class Dataset:
    """Measured internal potentials, one (2, n, n) pair per frequency node.

    The stored potentials equal the driving boundary traces exactly on the
    boundary ring, so the traces are recovered from the data itself.
    """

    grid: Grid
    freqs: FrequencyGrid
    potentials: list[np.ndarray]
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if len(self.potentials) != self.freqs.nodes.size:
            raise ValueError("need exactly one potential pair per frequency node")

    def boundary_data(self, k: int = 0) -> np.ndarray:
        """The driving traces of frequency ``k``, shape (2, nb)."""
        return self.grid.trace(self.potentials[k])


def residual_norm_sq(grid: Grid, f_res: np.ndarray) -> float:
    """Squared discrete H1 norm of a residual pair, summed per component."""
    return h1_norm_sq(grid, f_res[0]) + h1_norm_sq(grid, f_res[1])


@dataclass
class ForwardState:
    """Per-frequency operator, state, and residual reused across gradient pieces."""

    weight: float
    op: EllipticOperator
    u: np.ndarray
    f_res: np.ndarray


def forward_states(x: np.ndarray, data: Dataset) -> list[ForwardState]:
    """Assemble, factorize, and solve once per frequency node at the field ``x``."""

    def one(k: int) -> ForwardState:
        omega = float(data.freqs.nodes[k])
        op = assemble(data.grid, x, omega)
        u = solve_dirichlet(op, data.boundary_data(k))
        return ForwardState(float(data.freqs.weights[k]), op, u, u - data.potentials[k])

    return map_frequencies(one, range(data.freqs.nodes.size))


def misfit_J(x: np.ndarray, data: Dataset) -> float:
    """Frequency-weighted half sum of squared H1 residual norms at the field ``x``."""
    return 0.5 * sum(s.weight * residual_norm_sq(data.grid, s.f_res) for s in forward_states(x, data))


def dF(op: EllipticOperator, d: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Linearized forward map at ``op``'s frequency from the state pair ``u``.

    ``d`` is the (sigma, eps) direction, shape (2, n, n).
    """
    delta = d[0] + 1j * op.omega * d[1]
    zero = np.zeros((len(u), len(op.grid.boundary_index)))
    return solve_dirichlet(op, zero, -apply_div_coeff_grad(op.grid, delta, u))


def face_density(grid: Grid, u: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Nodal density of face-gradient products, summed over both components.

    Each face contributes the product of the face differences of state and
    adjoint, split evenly between its two endpoint nodes.  This is the
    algebraic transpose of the face-averaged coefficient assembly, i.e. the
    exact discrete counterpart of the gradient contraction of state and
    adjoint gradients.
    """
    h = grid.h
    out = np.zeros(grid.shape, dtype=complex)
    for uc, pc in zip(u, p):
        sx = ((uc[1:, :] - uc[:-1, :]) / h) * ((pc[1:, :] - pc[:-1, :]) / h)
        sy = ((uc[:, 1:] - uc[:, :-1]) / h) * ((pc[:, 1:] - pc[:, :-1]) / h)
        out[:-1, :] += 0.5 * sx
        out[1:, :] += 0.5 * sx
        out[:, :-1] += 0.5 * sy
        out[:, 1:] += 0.5 * sy
    return out


def reduce_densities(grid: Grid, states: list[ForwardState], adjoint_of) -> np.ndarray:
    """Quadrature of the face densities of each state with its adjoint ``adjoint_of(s)``.

    Returns the (sigma, eps) densities, shape (2, n, n): the real part
    feeds ``sigma``, ``-omega`` times the imaginary part ``eps`` (the
    expansion of the complex coefficient perturbation); both are truncated
    to the interior region where perturbations live.
    """
    densities = map_frequencies(lambda s: face_density(grid, s.u, adjoint_of(s)), states)
    g = np.zeros((2,) + grid.shape)
    for s, dens in zip(states, densities):
        g[0] += s.weight * dens.real
        g[1] += -s.weight * s.op.omega * dens.imag
    g[:, ~grid.interior_mask] = 0.0
    return g


def gradient_from_states(states: list[ForwardState]) -> np.ndarray:
    """Adjoint-state (sigma, eps) gradient densities of the misfit from its forward states."""
    return reduce_densities(states[0].op.grid, states, lambda s: solve_adjoint(s.op, s.f_res))


def gradient_DJ(x: np.ndarray, data: Dataset) -> np.ndarray:
    """Adjoint-state (sigma, eps) gradient densities of the misfit at the field ``x``."""
    return gradient_from_states(forward_states(x, data))


def directional_derivative(grid: Grid, g: np.ndarray, d: np.ndarray) -> float:
    """Pairing of gradient densities with a perturbation direction (L2 weights)."""
    return grid.h * grid.h * float(np.sum(d[0] * g[0]) + np.sum(d[1] * g[1]))


def gauss_newton_apply(grid: Grid, states: list[ForwardState], d: np.ndarray) -> np.ndarray:
    """Apply the frequency-summed normal operator (derivative composed with
    its adjoint) to a direction; used for step-size estimation."""
    return reduce_densities(grid, states, lambda s: solve_adjoint(s.op, dF(s.op, d, s.u)))


def bump_profile(rho_sq: np.ndarray) -> np.ndarray:
    """Radial profile (1 - rho^2)^2 on rho < 1, zero outside (H2-regular)."""
    return np.where(rho_sq < 1.0, (1.0 - rho_sq) ** 2, 0.0)


def random_smooth_pair(
    grid: Grid, rng: np.random.Generator, n_bumps: int = 3, margin: float = 0.02
) -> np.ndarray:
    """Random smooth (sigma, eps) direction, shape (2, n, n).

    Supported strictly inside the interior region and built from a few
    compactly supported radial bumps with randomized centers, radii, and
    signs.  The geometry depends only on the random draw, not on the grid,
    so the same seed produces the same continuum direction across
    resolutions.
    """
    fields = np.zeros((2,) + grid.shape)
    for f in fields:
        for _ in range(n_bumps):
            radius = rng.uniform(0.08, 0.18)
            lo = grid.c0 + radius + margin
            cx = rng.uniform(lo, 1.0 - lo)
            cy = rng.uniform(lo, 1.0 - lo)
            amp = rng.uniform(0.3, 1.0) * rng.choice([-1.0, 1.0])
            rho_sq = ((grid.X - cx) ** 2 + (grid.Y - cy) ** 2) / radius**2
            f += amp * bump_profile(rho_sq)
    return fields
