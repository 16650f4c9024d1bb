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

from dataclasses import dataclass, field

import numpy as np

from .mesh import Grid, face_diff_x, face_diff_y, h1_norm_sq, laplacian, require_int
from .pde import EllipticOperator, apply_div_coeff_grad, assemble, solve_dirichlet


@dataclass
class FrequencyGrid:
    """Quadrature nodes and weights on the frequency interval.

    The interval satisfies ``0 <= omega_lo < omega_hi``: the initial guess
    divides by its midpoint and folds the log-admittivity to its nearest
    branch, whose imaginary part lies in [0, pi/2) at nonnegative
    frequencies (at ``omega = 0``, up to rounding).  Weights are positive
    and sum to ``omega_hi - omega_lo``; the default constructor ``uniform``
    uses the trapezoid rule (a single node gets the full interval length as
    its weight).
    """

    omega_lo: float
    omega_hi: float
    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        self.nodes = np.asarray(self.nodes, dtype=float)
        self.weights = np.asarray(self.weights, dtype=float)
        # NaN passes every comparison below, so non-finite values are named first.
        for name, values in (("omega_lo", self.omega_lo), ("omega_hi", self.omega_hi),
                             ("frequency nodes", self.nodes), ("quadrature weights", self.weights)):
            if not np.all(np.isfinite(values)):
                raise ValueError(f"{name} must be finite")
        if not 0.0 <= self.omega_lo < self.omega_hi:
            raise ValueError("frequency interval must satisfy 0 <= omega_lo < omega_hi")
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
        require_int("frequency count", count, 1)
        length = omega_hi - omega_lo
        if count == 1:
            nodes = np.array([0.5 * (omega_lo + omega_hi)])
            weights = np.array([length])
        else:
            # non-finite bounds are rejected by the constructor, not warned about here
            with np.errstate(invalid="ignore"):
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

    One trace pair drives every frequency, and the stored potentials equal
    it exactly on the boundary ring, so the traces are recovered from the
    data itself.  Every producer keeps this: ``synthesize_data`` drives all
    frequencies with one trace, ``add_noise`` leaves the ring exact, and
    ``read_dataset`` rejects a frequency whose ring differs from frequency 0's.
    """

    grid: Grid
    freqs: FrequencyGrid
    potentials: list[np.ndarray]
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if len(self.potentials) != self.freqs.nodes.size:
            raise ValueError("need exactly one potential pair per frequency node")

    def boundary_data(self) -> np.ndarray:
        """The driving traces of every frequency, shape (2, nb)."""
        return self.grid.trace(self.potentials[0])


def residual_norm_sq(grid: Grid, f_res: np.ndarray) -> float:
    """Squared discrete H1 norm of a residual pair, summed per component."""
    return h1_norm_sq(grid, f_res[0]) + h1_norm_sq(grid, f_res[1])


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


@dataclass
class ForwardState:
    """Per-frequency operator, state, and residual reused across gradient pieces."""

    weight: float
    op: EllipticOperator
    u: np.ndarray
    f_res: np.ndarray


def forward_states(x: np.ndarray, data: Dataset) -> list[ForwardState]:
    """Assemble, factorize, and solve once per frequency node at the field ``x``."""
    phi = data.boundary_data()

    def one(k: int) -> ForwardState:
        omega = float(data.freqs.nodes[k])
        op = assemble(data.grid, x, omega)
        u = solve_dirichlet(op, phi)
        return ForwardState(float(data.freqs.weights[k]), op, u, u - data.potentials[k])

    return [one(k) for k in range(data.freqs.nodes.size)]


def misfit_from_states(states: list[ForwardState]) -> float:
    """Frequency-weighted half sum of the squared H1 norms of the states' residuals."""
    grid = states[0].op.grid
    return 0.5 * sum(s.weight * residual_norm_sq(grid, s.f_res) for s in states)


def misfit_J(x: np.ndarray, data: Dataset) -> float:
    """The misfit at the field ``x``."""
    return misfit_from_states(forward_states(x, data))


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
    out = np.zeros(grid.shape, dtype=complex)
    for uc, pc in zip(u, p):
        sx = face_diff_x(grid, uc) * face_diff_x(grid, pc)
        sy = face_diff_y(grid, uc) * face_diff_y(grid, pc)
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
    densities = [face_density(grid, s.u, adjoint_of(s)) for s in states]
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


def random_smooth_pair(grid: Grid, rng: np.random.Generator) -> np.ndarray:
    """Random smooth (sigma, eps) direction, shape (2, n, n).

    Supported strictly inside the interior region (each rim at least 0.02
    inside it) and built from three compactly supported radial bumps per
    component with randomized centers, radii, and signs.  The geometry
    depends only on the random draw, not on the grid, so the same seed
    produces the same continuum direction across resolutions.
    """
    fields = np.zeros((2,) + grid.shape)
    for f in fields:
        for _ in range(3):
            radius = rng.uniform(0.08, 0.18)
            lo = grid.c0 + radius + 0.02
            cx = rng.uniform(lo, 1.0 - lo)
            cy = rng.uniform(lo, 1.0 - lo)
            amp = rng.uniform(0.3, 1.0) * rng.choice([-1.0, 1.0])
            rho_sq = ((grid.X - cx) ** 2 + (grid.Y - cy) ** 2) / radius**2
            f += amp * bump_profile(rho_sq)
    return fields
