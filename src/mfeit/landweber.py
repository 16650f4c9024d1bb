"""Projected Landweber iteration: one loop over an abstract residual problem.

``generic_run`` is the only loop and ``step`` the only iteration.  A step
projects the incoming iterate, evaluates the residuals and the adjoint
direction at the projected point, and takes a raw gradient step; the
projection of the new iterate happens at the start of the *next* step, so
raw iterates may transiently leave the admissible set.  The deviation
introduced by the projection is recorded at every step.

The loop sees only a ``GenericProblem`` (residual evaluation, adjoint
direction, projection, inner product and residual norm).  ``run`` is the
reconstruction entry point: it resolves the automatic step size and runs
the loop on ``admittivity_problem``, the multi-frequency misfit posed on
admittivity fields, arrays of shape (2, n, n) holding sigma then eps.  The
same loop is validated against a dense linear least-squares oracle.
"""

from __future__ import annotations

import dataclasses
import logging
import math
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from .admissible import AdmissibleParams, project_T
from .mesh import Grid, l2_norm_sq
from .objective import (
    Dataset,
    ForwardState,
    directional_derivative,
    forward_states,
    gauss_newton_apply,
    gradient_from_states,
    random_smooth_pair,
    residual_norm_sq,
)
from .pde import SolverError

logger = logging.getLogger(__name__)

#: Length of the relative-decrease plateau window of the stopping rule.
PLATEAU_WINDOW = 10


@dataclass
class LandweberConfig:
    """Iteration controls.

    ``mu=None`` requests the automatic step size (power-iteration estimate
    of the squared derivative norm at the start iterate, with a 0.9 safety
    factor).  ``stop_tol`` bounds the relative misfit decrease over a
    10-iteration window below which the run stops; zero disables that rule
    and the loop runs the full ``max_iters``.  ``discrepancy_floor``
    optionally enables an early stop when the misfit falls below
    ``discrepancy_tau`` times that floor.
    """

    admissible: AdmissibleParams = field(default_factory=AdmissibleParams)
    mu: float | None = None
    max_iters: int = 200
    stop_tol: float = 1e-10
    log_every: int = 10
    discrepancy_floor: float | None = None
    discrepancy_tau: float = 1.1

    def __post_init__(self):
        if self.mu is not None and self.mu <= 0.0:
            raise ValueError("step size mu must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if self.stop_tol < 0.0:
            raise ValueError("stop_tol must be nonnegative")


@dataclass
class IterationRecord:
    n: int
    J: float
    grad_norm: float
    err_to_truth: float
    proj_dev: float


def estimate_step_size(grid: Grid, states: list[ForwardState]) -> float:
    """Step size from a power-iteration estimate of the squared derivative norm.

    ``states`` are the forward states at the (projected) start iterate.
    Iterates the frequency-summed normal operator 8 times on a random
    interior direction (seed 0) and returns ``0.9 / L`` for the Rayleigh
    quotient L at the last iterate.
    """
    d = random_smooth_pair(grid, np.random.default_rng(0))
    d = d / math.sqrt(l2_norm_sq(grid, d[0]) + l2_norm_sq(grid, d[1]))
    lam = 0.0
    for _ in range(8):
        nd = gauss_newton_apply(grid, states, d)
        lam = directional_derivative(grid, nd, d)
        nrm = math.sqrt(l2_norm_sq(grid, nd[0]) + l2_norm_sq(grid, nd[1]))
        if nrm == 0.0:
            break
        d = nd / nrm
    if lam <= 0.0:
        raise SolverError("power iteration failed to produce a positive norm estimate")
    return 0.9 / lam


def _default_inner(a, b) -> float:
    return float(np.real(np.vdot(np.asarray(b), np.asarray(a))))


@dataclass
class GenericProblem:
    """Abstract residual problem driven by the projected iteration.

    ``residuals(x)`` returns one residual per quadrature node,
    ``adjoint_step(residuals)`` the weighted adjoint-direction sum at the
    point the residuals were evaluated at (already including quadrature
    weights), ``project`` the feasibility map, ``inner_x`` the inner
    product of iterates used in the diagnostics and ``norm_sq_y(r)`` the
    squared residual norm of the misfit (by default ``Re<r, r>``).
    """

    residuals: Callable[[Any], list[Any]]
    adjoint_step: Callable[[list[Any]], Any]
    weights: np.ndarray
    project: Callable[[Any], Any] = lambda x: x
    inner_x: Callable[[Any, Any], float] = _default_inner
    norm_sq_y: Callable[[Any], float] = lambda r: _default_inner(r, r)


def admittivity_problem(data: Dataset, params: AdmissibleParams) -> GenericProblem:
    """The multi-frequency misfit as a ``GenericProblem`` on admittivity fields.

    Iterates are arrays of shape (2, n, n), sigma then eps.  The residuals
    are the per-frequency forward states, so the adjoint direction (the
    gradient, in the same (2, n, n) layout) reuses their factorizations;
    their squared norm is the H1 residual norm of the misfit, and
    ``inner_x`` is the L2 inner product over both components.
    """
    grid = data.grid
    return GenericProblem(
        residuals=lambda x: forward_states(x, data),
        adjoint_step=gradient_from_states,
        weights=data.freqs.weights,
        project=lambda x: project_T(grid, x, params),
        inner_x=lambda a, b: sum(grid.h * grid.h * float(np.sum(u * v)) for u, v in zip(a, b)),
        norm_sq_y=lambda s: residual_norm_sq(grid, s.f_res),
    )


def step(p: GenericProblem, x, mu: float, truth=None) -> tuple[Any, IterationRecord]:
    """One projected Landweber step from the raw iterate ``x``.

    Returns the raw next iterate (projection happens at the start of the
    following step) plus the diagnostics record, numbered 0.  Solver
    failures propagate and leave ``x`` untouched.
    """

    def norm_x(v) -> float:
        return math.sqrt(p.inner_x(v, v))

    xp = p.project(x)
    res = p.residuals(xp)
    j_val = 0.5 * sum(float(w) * p.norm_sq_y(r) for w, r in zip(p.weights, res))
    direction = p.adjoint_step(res)
    x_next = xp - mu * direction
    err = norm_x(x_next - truth) if truth is not None else float("nan")
    return x_next, IterationRecord(0, j_val, norm_x(direction), err, norm_x(xp - x))


def _plateau_reached(records: list[IterationRecord], stop_tol: float) -> bool:
    if stop_tol <= 0.0 or len(records) <= PLATEAU_WINDOW:
        return False
    j_old = records[-1 - PLATEAU_WINDOW].J
    j_new = records[-1].J
    if j_old <= 0.0:
        return True
    return (j_old - j_new) < stop_tol * j_old


def generic_run(
    p: GenericProblem,
    x0,
    cfg: LandweberConfig,
    truth=None,
) -> tuple[Any, list[IterationRecord]]:
    """Iterate ``step`` until ``max_iters``, the discrepancy level or a misfit plateau.

    The discrepancy stop applies when ``cfg.discrepancy_floor`` is set, the
    plateau stop over a 10-step window when ``cfg.stop_tol`` is positive.
    Returns the projection of the final iterate together with the full
    trajectory.  On solver failure the partial trajectory is attached to
    the raised error.
    """
    if cfg.mu is None:
        raise ValueError("generic_run requires an explicit step size")
    records: list[IterationRecord] = []
    x = x0
    try:
        for it in range(1, cfg.max_iters + 1):
            x, rec = step(p, x, cfg.mu, truth)
            rec.n = it
            records.append(rec)
            if cfg.log_every and it % cfg.log_every == 0:
                logger.info(
                    "iter %4d  J=%.6e  |g|=%.3e  proj_dev=%.3e", it, rec.J, rec.grad_norm, rec.proj_dev
                )
            if cfg.discrepancy_floor is not None and rec.J <= cfg.discrepancy_tau * cfg.discrepancy_floor:
                logger.info("discrepancy stop at iteration %d", it)
                break
            if _plateau_reached(records, cfg.stop_tol):
                logger.info("misfit plateau stop at iteration %d", it)
                break
    except SolverError as exc:
        exc.trajectory = records
        raise
    return p.project(x), records


def _auto_step_size(p: GenericProblem, x0: np.ndarray, grid: Grid) -> tuple[GenericProblem, float]:
    """``estimate_step_size`` at the projected start iterate, and ``p`` set to reuse its states.

    The returned problem hands the start iterate's forward states to the
    first residual evaluation at that iterate (the first step) and then
    drops them, so their factorizations live no longer than that step.
    """
    start = p.project(x0)
    pending = [p.residuals(start)]
    mu = estimate_step_size(grid, pending[0])

    def residuals(x):
        if pending and np.array_equal(x, start):
            return pending.pop()
        pending.clear()
        return p.residuals(x)

    return dataclasses.replace(p, residuals=residuals), mu


def run(
    x0: np.ndarray,
    data: Dataset,
    cfg: LandweberConfig,
    truth: np.ndarray | None = None,
) -> tuple[np.ndarray, list[IterationRecord]]:
    """Reconstruct from the field ``x0``: ``generic_run`` on ``admittivity_problem``.

    ``x0``, ``truth`` and the returned field have shape (2, n, n).
    ``cfg.mu = None`` is resolved first by ``estimate_step_size``, whose
    forward states at the projected start iterate also serve the first
    step.  Returns the projected final field and the trajectory.
    """
    problem = admittivity_problem(data, cfg.admissible)
    if cfg.mu is None:
        problem, mu = _auto_step_size(problem, x0, data.grid)
        logger.info("auto step size mu=%.4e", mu)
        cfg = dataclasses.replace(cfg, mu=mu)
    return generic_run(problem, x0, cfg, truth=truth)
