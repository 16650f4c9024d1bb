"""Constraint set for admittivity perturbations and the approximate projection.

The feasible fields are a constant background plus perturbations that are
supported in the interior region, bounded pointwise, and capped in discrete
H1 norm.  The exact metric projection onto that set is not available in
closed form; ``project_T`` composes cheap monotone steps (smooth cutoff,
averaging smoother, clamp, norm rescale) whose output is guaranteed to be a
member of the set.  Their numerics are the module constants
``CUTOFF_WIDTH``, ``SMOOTH_PASSES``, ``SMOOTH_WEIGHT`` and ``CLAMP_SLACK``;
``AdmissibleParams`` holds only the set itself.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .mesh import Grid, h1_norm_sq

logger = logging.getLogger(__name__)

#: Width of the cutoff's transition, in grid spacings.
CUTOFF_WIDTH = 2.0

#: Averaging-smoother sweeps per projection.
SMOOTH_PASSES = 2

#: Blending weight of one averaging pass (0 = identity, 1 = full 4-neighbor mean).
SMOOTH_WEIGHT = 0.05

#: Slack kept between clamped values and the open bounds ``c1``, ``c2``.
CLAMP_SLACK = 1e-3

#: Perturbations are clipped to this magnitude before smoothing, so that the
#: sum of four neighbors cannot overflow.
MAX_PERTURBATION = np.finfo(float).max / 8


@dataclass
class AdmissibleParams:
    """The constraint set: backgrounds ``sigma0``, ``eps0``, open pointwise
    bounds ``c1 < c2`` and the H1 cap ``c4``, all finite.  The projection's
    numerics are module constants (``CLAMP_SLACK``, ``CUTOFF_WIDTH``,
    ``SMOOTH_PASSES``, ``SMOOTH_WEIGHT``), not fields.
    """

    sigma0: float = 1.0
    eps0: float = 1.0
    c1: float = 0.1
    c2: float = 10.0
    c4: float = 10.0

    def __post_init__(self):
        for name, value in vars(self).items():
            if not np.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if not (0.0 < self.c1 < self.sigma0 < self.c2):
            raise ValueError("bounds must satisfy 0 < c1 < sigma0 < c2")
        if not (self.c1 < self.eps0 < self.c2):
            raise ValueError("bounds must satisfy c1 < eps0 < c2")
        if not self.c4 > 0.0:
            raise ValueError("H1 cap c4 must be positive")
        if not self.c1 + CLAMP_SLACK < self.c2 - CLAMP_SLACK:
            raise ValueError(f"bounds c1, c2 leave no room for the clamp slack {CLAMP_SLACK}")


@dataclass
class MembershipReport:
    in_set: bool
    violations: list[str] = field(default_factory=list)


def is_member(grid: Grid, x: np.ndarray, p: AdmissibleParams) -> MembershipReport:
    """Check pointwise bounds, background support, and the H1 cap of ``x``, shape (2, n, n).

    All failures are collected into the report rather than raised:
    ``violations`` names each failed constraint once (``sigma_bounds``,
    ``sigma_support``, ``sigma_h1``, then the same for eps, in that
    order).  A NaN node violates the bounds.  The support and the cap are
    checked with a slack of 1e-12 (absolute and relative).
    """
    tol = 1e-12
    violations: list[str] = []
    for name, values, bg in zip(("sigma", "eps"), x, (p.sigma0, p.eps0)):
        if np.any(np.isnan(values) | (values < p.c1) | (values > p.c2)):
            violations.append(f"{name}_bounds")
        if np.max(np.abs(values - bg) * ~grid.interior_mask) > tol:
            violations.append(f"{name}_support")
        if np.sqrt(h1_norm_sq(grid, values - bg)) > p.c4 * (1.0 + tol):
            violations.append(f"{name}_h1")
    return MembershipReport(in_set=not violations, violations=violations)


def _smooth_cutoff(grid: Grid) -> np.ndarray:
    """C1 ramp from 0 on/outside the interior margin to 1 inside it."""
    t = np.clip((grid.boundary_distance() - grid.c0) / (CUTOFF_WIDTH * grid.h), 0.0, 1.0)
    return t * t * (3.0 - 2.0 * t)


def _smooth_pass(eta: np.ndarray) -> np.ndarray:
    padded = np.pad(eta, 1)
    avg = 0.25 * (
        padded[2:, 1:-1] + padded[:-2, 1:-1] + padded[1:-1, 2:] + padded[1:-1, :-2]
    )
    return (1.0 - SMOOTH_WEIGHT) * eta + SMOOTH_WEIGHT * avg


def clamp_perturbation(eta: np.ndarray, p: AdmissibleParams, background: float) -> np.ndarray:
    """Clamp a perturbation into the slack-shrunk pointwise bounds."""
    return np.clip(eta, p.c1 - background + CLAMP_SLACK, p.c2 - background - CLAMP_SLACK)


def project_T(grid: Grid, x: np.ndarray, p: AdmissibleParams) -> np.ndarray:
    """Approximate projection of ``x``, shape (2, n, n), onto the admissible set.

    Steps: subtract the background, apply a smooth cutoff that vanishes
    outside the interior region, run the averaging smoother, truncate the
    support exactly, clamp pointwise, and rescale if the H1 cap is
    exceeded.  The output always passes ``is_member``.  Non-finite input
    values are replaced by the background (and logged) so that a failed
    solve cannot silently poison the iteration state.
    """
    chi = _smooth_cutoff(grid)

    out = []
    for values, bg in zip(x, (p.sigma0, p.eps0)):
        eta = values - bg
        bad = ~np.isfinite(eta)
        if np.any(bad):
            logger.warning("projection replaced %d non-finite nodes by background", int(bad.sum()))
            eta = np.where(bad, 0.0, eta)
        eta = np.clip(eta, -MAX_PERTURBATION, MAX_PERTURBATION) * chi
        for _ in range(SMOOTH_PASSES):
            eta = _smooth_pass(eta)
        eta[~grid.interior_mask] = 0.0
        eta = clamp_perturbation(eta, p, bg)
        nrm = np.sqrt(h1_norm_sq(grid, eta))
        if nrm > p.c4:
            eta *= (p.c4 / nrm) * (1.0 - 1e-9)
        out.append(bg + eta)

    return np.stack(out)
