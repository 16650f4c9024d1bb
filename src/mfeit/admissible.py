"""Constraint set for admittivity perturbations and the approximate projection.

The feasible fields are a constant background plus perturbations that are
supported in the interior region, bounded pointwise, and capped in discrete
H1 norm.  The exact metric projection onto that set is not available in
closed form; ``project_T`` composes cheap monotone steps (smooth cutoff,
averaging smoother, clamp, norm rescale) whose output is guaranteed to be a
member of the set.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .mesh import Grid, h1_norm_sq

logger = logging.getLogger(__name__)

#: Blending weight of one averaging pass (0 = identity, 1 = full 4-neighbor mean).
SMOOTH_WEIGHT = 0.05

#: Perturbations are clipped to this magnitude before smoothing, so that the
#: sum of four neighbors cannot overflow.
MAX_PERTURBATION = np.finfo(float).max / 8


@dataclass
class AdmissibleParams:
    """Background constants and constraint parameters.

    ``smooth_width`` is the cutoff transition width in units of the grid
    spacing; ``smooth_passes`` the number of averaging-smoother sweeps;
    ``delta`` the slack kept between clamped values and the open bounds.
    """

    sigma0: float = 1.0
    eps0: float = 1.0
    c1: float = 0.1
    c2: float = 10.0
    c4: float = 10.0
    delta: float = 1e-3
    smooth_width: float = 2.0
    smooth_passes: int = 2

    def __post_init__(self):
        if not (0.0 < self.c1 < self.sigma0 < self.c2):
            raise ValueError("bounds must satisfy 0 < c1 < sigma0 < c2")
        if not (self.c1 < self.eps0 < self.c2):
            raise ValueError("bounds must satisfy c1 < eps0 < c2")
        if self.c4 <= 0.0:
            raise ValueError("H1 cap c4 must be positive")
        if not (self.delta > 0.0 and self.c1 + self.delta < self.c2 - self.delta):
            raise ValueError("clamp slack delta too large for the bounds")
        if self.smooth_width <= 0.0 or self.smooth_passes < 0:
            raise ValueError("invalid smoothing parameters")


@dataclass
class Violation:
    constraint: str
    node: tuple[int, int]
    magnitude: float


@dataclass
class MembershipReport:
    in_set: bool
    violations: list[Violation] = field(default_factory=list)


def is_member(grid: Grid, x: np.ndarray, p: AdmissibleParams, tol: float = 1e-12) -> MembershipReport:
    """Check pointwise bounds, background support, and the H1 cap of ``x``, shape (2, n, n).

    All failures are collected into the report rather than raised; each
    failed constraint contributes one entry carrying its worst node.  A NaN
    node violates the bounds by an infinite amount.
    """
    violations: list[Violation] = []

    def worst(mask_excess: np.ndarray, name: str):
        k = int(np.argmax(mask_excess))
        mag = float(mask_excess.reshape(-1)[k])
        if mag > 0.0:
            violations.append(Violation(name, (k // grid.n, k % grid.n), mag))

    for name, values, bg in zip(("sigma", "eps"), x, (p.sigma0, p.eps0)):
        excess = np.where(np.isnan(values), np.inf, np.maximum(p.c1 - values, values - p.c2))
        worst(np.maximum(excess, 0.0), f"{name}_bounds")

        outside = ~grid.interior_mask
        dev = np.abs(values - bg) * outside
        if np.max(dev) > tol:
            worst(dev, f"{name}_support")

        nrm = np.sqrt(h1_norm_sq(grid, values - bg))
        if nrm > p.c4 * (1.0 + tol):
            violations.append(Violation(f"{name}_h1", (0, 0), float(nrm - p.c4)))

    return MembershipReport(in_set=not violations, violations=violations)


def _smooth_cutoff(grid: Grid, width_cells: float) -> np.ndarray:
    """C1 ramp from 0 on/outside the interior margin to 1 inside it."""
    w = max(width_cells * grid.h, 1e-12)
    t = np.clip((grid.boundary_distance() - grid.c0) / w, 0.0, 1.0)
    return t * t * (3.0 - 2.0 * t)


def _smooth_pass(eta: np.ndarray) -> np.ndarray:
    padded = np.pad(eta, 1)
    avg = 0.25 * (
        padded[2:, 1:-1] + padded[:-2, 1:-1] + padded[1:-1, 2:] + padded[1:-1, :-2]
    )
    return (1.0 - SMOOTH_WEIGHT) * eta + SMOOTH_WEIGHT * avg


def clamp_perturbation(eta: np.ndarray, p: AdmissibleParams, background: float) -> np.ndarray:
    """Clamp a perturbation into the slack-shrunk pointwise bounds."""
    return np.clip(eta, p.c1 - background + p.delta, p.c2 - background - p.delta)


def project_T(grid: Grid, x: np.ndarray, p: AdmissibleParams) -> np.ndarray:
    """Approximate projection of ``x``, shape (2, n, n), onto the admissible set.

    Steps: subtract the background, apply a smooth cutoff that vanishes
    outside the interior region, run the averaging smoother, truncate the
    support exactly, clamp pointwise, and rescale if the H1 cap is
    exceeded.  The output always passes ``is_member``.  Non-finite input
    values are replaced by the background (and logged) so that a failed
    solve cannot silently poison the iteration state.
    """
    chi = _smooth_cutoff(grid, p.smooth_width)

    out = []
    for values, bg in zip(x, (p.sigma0, p.eps0)):
        eta = values - bg
        bad = ~np.isfinite(eta)
        if np.any(bad):
            logger.warning("projection replaced %d non-finite nodes by background", int(bad.sum()))
            eta = np.where(bad, 0.0, eta)
        eta = np.clip(eta, -MAX_PERTURBATION, MAX_PERTURBATION) * chi
        for _ in range(p.smooth_passes):
            eta = _smooth_pass(eta)
        eta[~grid.interior_mask] = 0.0
        eta = clamp_perturbation(eta, p, bg)
        nrm = np.sqrt(h1_norm_sq(grid, eta))
        if nrm > p.c4:
            eta *= (p.c4 / nrm) * (1.0 - 1e-9)
        out.append(bg + eta)

    return np.stack(out)
