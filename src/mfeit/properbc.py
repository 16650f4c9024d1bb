"""Boundary data choice and frequency-integrated invertibility diagnostics.

The reconstruction needs driving traces whose induced potential pair has an
invertible 2x2 gradient matrix over the interior region, jointly across the
frequency band.  The coordinate traces (x, y) are used: for constant media
they give exactly the identity gradient everywhere, and the diagnostics
below quantify how far a given medium strays from that ideal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import Grid, grad
from .pde import assemble, solve_dirichlet
from .objective import FrequencyGrid, map_frequencies

#: Coverage constants below this make the problem effectively non-invertible.
DEFAULT_LAMBDA_MIN = 1e-6


@dataclass
class CoverageMap:
    """Frequency quadrature of |det grad(u)| with its interior minimum."""

    m: np.ndarray
    lam: float
    per_frequency: list[np.ndarray]
    freqs: FrequencyGrid


def canonical_phi(grid: Grid) -> np.ndarray:
    """Coordinate traces phi = (x, y) on the boundary ring, shape (2, nb)."""
    return grid.trace(np.stack((grid.X, grid.Y)))


def det_gradient_map(grid: Grid, u: np.ndarray) -> np.ndarray:
    """Nodal |det M| where M has rows grad(u[0]) and grad(u[1]) (complex det, then modulus)."""
    g1 = grad(grid, u[0])
    g2 = grad(grid, u[1])
    det = g1[..., 0] * g2[..., 1] - g1[..., 1] * g2[..., 0]
    return np.abs(det)


def coverage_lambda(grid: Grid, x: np.ndarray, freqs: FrequencyGrid, phi: np.ndarray) -> CoverageMap:
    """Quadrature of the per-frequency determinant maps of the field ``x`` and its interior minimum.

    Solver failures at any frequency propagate; no node of the quadrature is
    silently skipped.
    """
    def one(k: int) -> np.ndarray:
        omega = float(freqs.nodes[k])
        u = solve_dirichlet(assemble(grid, x, omega), phi)
        return det_gradient_map(grid, u)

    per_freq = map_frequencies(one, range(freqs.nodes.size))
    m = np.zeros(grid.shape)
    for w, dmap in zip(freqs.weights, per_freq):
        m += float(w) * dmap
    lam = float(np.min(m[grid.interior_mask]))
    return CoverageMap(m=m, lam=lam, per_frequency=per_freq, freqs=freqs)
