"""Phantom construction, synthetic data generation, and noise injection.

Data synthesis avoids the inverse crime by evaluating the phantom and
solving the forward problems on a refined grid, then restricting to the
reconstruction grid by node injection (the refined grid contains every
coarse node, so no interpolation enters the data path).  Refinement factor
1 is allowed but flagged in the dataset metadata.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .admissible import AdmissibleParams, is_member
from .mesh import Grid, refine_grid, restrict_injection
from .objective import Dataset, bump_profile
from .pde import assemble, solve_dirichlet
from .properbc import canonical_phi

if TYPE_CHECKING:  # pragma: no cover
    from .config import RunConfig


@dataclass
class Inclusion:
    """One radial bump: center, radius, and (sigma, eps) amplitudes.

    The profile is (1 - (r/radius)^2)^2, so the amplitude pair is attained
    exactly at the center and the perturbation vanishes to second order at
    the rim.
    """

    cx: float
    cy: float
    radius: float
    dsigma: float
    deps: float


class PhantomField(NamedTuple):
    """The phantom's (sigma, eps) nodal fields, each of shape (n, n).

    Everywhere else in the package an admittivity field is one (2, n, n)
    array; ``np.stack(make_phantom(...))`` gives it.  This named pair exists
    only for readers that take ``.sigma`` / ``.eps`` off ``make_phantom``.
    """

    sigma: np.ndarray
    eps: np.ndarray


@dataclass
class PhantomSpec:
    sigma0: float = 1.0
    eps0: float = 1.0
    inclusions: list[Inclusion] = field(default_factory=list)


def make_phantom(
    spec: PhantomSpec, grid: Grid, params: AdmissibleParams | None = None
) -> PhantomField:
    """Evaluate the phantom on the grid nodes and validate admissibility.

    Inclusions with a nonpositive or non-finite radius, whose support
    reaches outside the interior region, or whose amplitudes push the
    fields past the pointwise bounds, are rejected with a ValueError.
    """
    if params is None:
        params = AdmissibleParams(sigma0=spec.sigma0, eps0=spec.eps0)
    sigma = np.full(grid.shape, float(spec.sigma0))
    eps = np.full(grid.shape, float(spec.eps0))
    for inc in spec.inclusions:
        if not (math.isfinite(inc.radius) and inc.radius > 0.0):
            raise ValueError(f"inclusion at ({inc.cx}, {inc.cy}) has radius {inc.radius}, not a positive number")
        margin = min(inc.cx, 1.0 - inc.cx, inc.cy, 1.0 - inc.cy) - inc.radius
        if margin <= grid.c0:
            raise ValueError(
                f"inclusion at ({inc.cx}, {inc.cy}) with radius {inc.radius} "
                f"is not strictly inside the interior region (margin c0={grid.c0})"
            )
        rho_sq = ((grid.X - inc.cx) ** 2 + (grid.Y - inc.cy) ** 2) / inc.radius**2
        profile = bump_profile(rho_sq)
        sigma += inc.dsigma * profile
        eps += inc.deps * profile
    report = is_member(grid, np.stack((sigma, eps)), params)
    if not report.in_set:
        names = ", ".join(v.constraint for v in report.violations)
        raise ValueError(f"phantom violates the admissible set: {names}")
    return PhantomField(sigma, eps)


def synthesize_data(spec: PhantomSpec, cfg: RunConfig) -> Dataset:
    """Forward-solve the phantom per frequency on a refined grid and restrict.

    The returned dataset lives on the reconstruction grid; its boundary
    values equal the driving traces exactly because the refined boundary
    nodes coincide with the coarse ones.
    """
    coarse = cfg.build_grid()
    factor = cfg.refinement
    fine = refine_grid(coarse, factor)
    x_fine = np.stack(make_phantom(spec, fine, cfg.admissible))
    phi_fine = canonical_phi(fine)
    freqs = cfg.frequency_grid()

    potentials = [
        restrict_injection(solve_dirichlet(assemble(fine, x_fine, float(omega)), phi_fine), factor)
        for omega in freqs.nodes
    ]

    metadata = {
        "phantom": phantom_id(spec),
        "noise_level": 0.0,
        "noise_seed": cfg.noise_seed,
        "generation_n": fine.n,
        "refinement": factor,
        "inverse_crime": int(factor == 1),
    }
    return Dataset(grid=coarse, freqs=freqs, potentials=potentials, metadata=metadata)


def phantom_id(spec: PhantomSpec) -> str:
    parts = [f"bg({spec.sigma0:g},{spec.eps0:g})"]
    parts += [
        f"bump({i.cx:g},{i.cy:g},{i.radius:g},{i.dsigma:g},{i.deps:g})"
        for i in spec.inclusions
    ]
    return "+".join(parts)


def add_noise(data: Dataset, level: float, seed: int) -> Dataset:
    """Additive complex Gaussian noise on non-boundary nodes.

    Per frequency and component the complex standard deviation is ``level``
    times the RMS of the clean values over the noised nodes, so the noise
    draw scales linearly with the level under a fixed seed.  Boundary nodes
    stay exact.
    """
    if level < 0.0:
        raise ValueError("noise level must be nonnegative")
    grid = data.grid
    rng = np.random.default_rng(seed)
    mask = ~grid.boundary_mask
    noisy = []
    for pair in data.potentials:
        out = pair.copy()
        for u, o in zip(pair, out):
            z = (rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)) / np.sqrt(2.0)
            if level > 0.0:
                rms = float(np.sqrt(np.mean(np.abs(u[mask]) ** 2)))
                o[mask] = o[mask] + level * rms * z[mask]
        noisy.append(out)
    metadata = dict(data.metadata)
    metadata["noise_level"] = level
    metadata["noise_seed"] = seed
    return Dataset(grid=grid, freqs=data.freqs, potentials=noisy, metadata=metadata)
