"""Projected Landweber iteration: one loop over an abstract residual problem.

``generic_run`` is the only loop and ``step`` the only iteration.  A step
projects the incoming iterate, evaluates the residuals and the adjoint
direction at the projected point, and takes a raw gradient step; the
projection of the new iterate happens at the start of the *next* step, so
raw iterates may transiently leave the admissible set.  The deviation
introduced by the projection and the size of the step are recorded at every
step, and the loop stops on the size of its last step.

The loop sees only a ``GenericProblem`` (residual evaluation, adjoint
direction, misfit, projection, inner product and the automatic step-size
rule).  ``run`` is the reconstruction entry point: the loop on
``admittivity_problem``, the multi-frequency misfit posed on admittivity
fields, arrays of shape (2, n, n) holding sigma then eps.  The same loop is
validated against a dense linear least-squares oracle.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from .admissible import AdmissibleParams, project_T
from .mesh import Grid, require_int
from .objective import (
    Dataset,
    ForwardState,
    directional_derivative,
    forward_states,
    gauss_newton_apply,
    gradient_from_states,
    misfit_from_states,
    random_smooth_pair,
)
from .pde import SolverError

logger = logging.getLogger(__name__)

#: Lanczos steps of the step-size estimate, one normal-operator application each.
LANCZOS_STEPS = 4

#: Relative size of the Lanczos residual below which the Krylov space is invariant.
LANCZOS_BREAKDOWN = 1e-12

#: Iterations between two progress lines of the verbose log.
LOG_EVERY = 10


@dataclass
class LandweberConfig:
    """Iteration controls.

    ``mu=None`` requests the problem's automatic step size
    (``GenericProblem.step_size``; for the reconstruction
    ``estimate_step_size``: a Lanczos estimate of the squared derivative
    norm at the start iterate, with a 0.9 safety factor).  The run stops
    after the first step whose size ``step_norm`` is below ``stop_tol``
    times the norm of the new iterate; the comparison is strict, so zero
    runs the full ``max_iters``.  ``mu`` and ``stop_tol`` must be finite,
    and ``max_iters`` a positive integer.
    """

    mu: float | None = None
    max_iters: int = 200
    stop_tol: float = 3e-8

    def __post_init__(self):
        # NaN passes every comparison below, so non-finite values are named first.
        for name, value in (("step size mu", self.mu), ("stop_tol", self.stop_tol)):
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.mu is not None and self.mu <= 0.0:
            raise ValueError("step size mu must be positive")
        require_int("max_iters", self.max_iters, 1)
        if self.stop_tol < 0.0:
            raise ValueError("stop_tol must be nonnegative")


@dataclass
class IterationRecord:
    n: int
    J: float
    grad_norm: float
    err_to_truth: float
    proj_dev: float
    step_norm: float


def estimate_step_size(grid: Grid, states: list[ForwardState]) -> float:
    """Step size from a Lanczos estimate of the squared derivative norm.

    ``states`` are the forward states at the (projected) start iterate.
    Runs ``LANCZOS_STEPS`` Lanczos steps on the frequency-summed normal
    operator in the L2 pairing of ``directional_derivative``, from a random
    interior direction (seed 0), and reorthogonalizes each new vector twice
    against all kept ones.  L is the largest Ritz value; like a power
    estimate it bounds the largest eigenvalue from below, and it is
    returned as the step size ``0.9 / L``.  A residual below
    ``LANCZOS_BREAKDOWN`` of the operator's output ends the iteration early
    (the Krylov space is invariant, so its Ritz values are eigenvalues).  A
    non-finite or non-positive L raises ``SolverError``.
    """

    def inner(a: np.ndarray, b: np.ndarray) -> float:
        return directional_derivative(grid, a, b)

    q = random_smooth_pair(grid, np.random.default_rng(0))
    basis = [q / math.sqrt(inner(q, q))]
    alpha: list[float] = []
    beta: list[float] = []
    while True:
        w = gauss_newton_apply(grid, states, basis[-1])
        alpha.append(inner(w, basis[-1]))
        if len(alpha) == LANCZOS_STEPS:
            break
        scale = math.sqrt(inner(w, w))
        for _ in range(2):
            for v in basis:
                w = w - inner(w, v) * v
        b = math.sqrt(inner(w, w))
        if not b > LANCZOS_BREAKDOWN * scale:
            break
        beta.append(b)
        basis.append(w / b)
    tri = np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1)
    lam = float("nan")
    if np.all(np.isfinite(tri)):
        lam = float(np.linalg.eigvalsh(tri)[-1])
    logger.info("step-size estimate: Ritz value %.6e after %d normal-operator applications", lam, len(alpha))
    if not (lam > 0.0 and math.isfinite(lam)):
        raise SolverError(f"Lanczos failed to produce a positive norm estimate (got {lam!r})")
    return 0.9 / lam


@dataclass
class GenericProblem:
    """Abstract residual problem driven by the projected iteration.

    ``residuals(x)`` returns one residual per quadrature node,
    ``adjoint_step(residuals)`` the weighted adjoint-direction sum at the
    point the residuals were evaluated at (already including quadrature
    weights), ``misfit(residuals)`` the value of the functional there,
    ``project`` the feasibility map, ``inner_x`` the inner product of
    iterates used in the diagnostics, and ``step_size(residuals)`` the
    automatic step size from the residuals at the projected start iterate
    (``None``: the problem has no such rule, so ``mu`` must be given).
    """

    residuals: Callable[[Any], list[Any]]
    adjoint_step: Callable[[list[Any]], Any]
    misfit: Callable[[list[Any]], float]
    project: Callable[[Any], Any] = lambda x: x
    inner_x: Callable[[Any, Any], float] = lambda a, b: float(np.real(np.vdot(np.asarray(b), np.asarray(a))))
    step_size: Callable[[list[Any]], float] | None = None


def admittivity_problem(data: Dataset, params: AdmissibleParams) -> GenericProblem:
    """The multi-frequency misfit as a ``GenericProblem`` on admittivity fields.

    Iterates are arrays of shape (2, n, n), sigma then eps.  The residuals
    are the per-frequency forward states, so the adjoint direction (the
    gradient, in the same (2, n, n) layout) reuses their factorizations,
    ``inner_x`` is the L2 inner product over both components, and
    ``step_size`` is ``estimate_step_size`` on the start states.
    """
    grid = data.grid
    return GenericProblem(
        residuals=lambda x: forward_states(x, data),
        adjoint_step=gradient_from_states,
        misfit=misfit_from_states,
        project=lambda x: project_T(grid, x, params),
        inner_x=lambda a, b: sum(grid.h * grid.h * float(np.sum(u * v)) for u, v in zip(a, b)),
        step_size=lambda states: estimate_step_size(grid, states),
    )


def _norm(p: GenericProblem, v) -> float:
    return math.sqrt(p.inner_x(v, v))


def _project_and_evaluate(p: GenericProblem, x) -> tuple[Any, list[Any]]:
    xp = p.project(x)
    return xp, p.residuals(xp)


def step(p: GenericProblem, x, mu: float, truth=None, start=None) -> tuple[Any, IterationRecord]:
    """One projected Landweber step from the raw iterate ``x``.

    ``start``, when given, is the pair ``(p.project(x), residuals there)``,
    already evaluated by the caller.  Returns the raw next iterate
    (projection happens at the start of the following step) plus the
    diagnostics record, numbered 0, whose ``step_norm`` is the distance
    from ``x`` to the next iterate.  Solver failures propagate and leave
    ``x`` untouched.  When the next iterate, the direction, the step or
    the error to ``truth`` has no finite norm, the iteration has diverged:
    SolverError is raised, and no overflow warning or non-finite record
    comes first.
    """
    xp, res = start if start is not None else _project_and_evaluate(p, x)
    direction = p.adjoint_step(res)
    with np.errstate(over="ignore", invalid="ignore"):
        x_next = xp - mu * direction
        norms = [_norm(p, v) for v in (x_next, direction, xp - x, x_next - x)]
        err = _norm(p, x_next - truth) if truth is not None else float("nan")
    if not all(math.isfinite(v) for v in norms) or math.isinf(err):  # err is NaN without a truth
        raise SolverError("the iteration diverged: the new iterate or its step has no finite norm; try a smaller mu")
    return x_next, IterationRecord(0, p.misfit(res), norms[1], err, norms[2], norms[3])


def generic_run(
    p: GenericProblem,
    x0,
    cfg: LandweberConfig,
    truth=None,
) -> tuple[Any, list[IterationRecord]]:
    """Iterate ``step`` until ``max_iters`` or a small step.

    ``cfg.mu = None`` is resolved by ``p.step_size`` from the residuals at
    ``p.project(x0)``; the first step reuses that projection and those
    residuals, which are dropped after it.  The run stops after the first
    step whose ``step_norm`` is below ``cfg.stop_tol`` times the norm of
    the new iterate (both in ``p.inner_x``); the rule reads only that
    step, and ``stop_tol = 0`` never fires.  Returns the projection of the
    final iterate together with the full trajectory.  A step whose ``J``
    exceeds the first step's has diverged too: a run that ends worse than
    it began is no answer, so SolverError is raised.  Its advice depends on
    the step: one longer than the step before overshoots, so mu should
    shrink; one shorter means the projection's smoothing outweighs a step
    that small, so mu should grow.  On solver failure
    inside the loop, a diverged iterate included (see ``step``), the
    partial trajectory and the failing iteration are attached to the
    raised error.
    """
    mu = cfg.mu
    start = None
    if mu is None:
        if p.step_size is None:
            raise ValueError("generic_run requires an explicit step size mu or a problem with a step_size rule")
        start = _project_and_evaluate(p, x0)
        mu = p.step_size(start[1])
        logger.info("auto step size mu=%.4e", mu)
    records: list[IterationRecord] = []
    x = x0
    try:
        for it in range(1, cfg.max_iters + 1):
            x, rec = step(p, x, mu, truth, start)
            start = None
            rec.n = it
            records.append(rec)
            if rec.J > records[0].J:
                advice = "try a smaller mu"
                if rec.step_norm <= records[-2].step_norm:
                    advice = ("J rose while the steps shrank: the projection's smoothing outweighs steps this small; "
                              "try a larger mu or mu = auto")
                raise SolverError(
                    f"the iteration diverged: J = {rec.J:.6e} exceeds the first step's {records[0].J:.6e}; {advice}"
                )
            if it % LOG_EVERY == 0:
                logger.info(
                    "iter %4d  J=%.6e  |g|=%.3e  step_norm=%.3e  proj_dev=%.3e",
                    it, rec.J, rec.grad_norm, rec.step_norm, rec.proj_dev,
                )
            x_norm = _norm(p, x)
            if rec.step_norm < cfg.stop_tol * x_norm:
                logger.info("step stop at iteration %d: step_norm/|x| = %.3e", it, rec.step_norm / x_norm)
                break
    except SolverError as exc:
        exc.trajectory = records
        exc.iteration = it
        raise
    return p.project(x), records


def run(
    x0: np.ndarray,
    data: Dataset,
    params: AdmissibleParams,
    cfg: LandweberConfig,
    truth: np.ndarray | None = None,
) -> tuple[np.ndarray, list[IterationRecord]]:
    """Reconstruct from the field ``x0`` in the constraint set ``params``.

    ``generic_run`` on ``admittivity_problem``; ``x0``, ``truth`` and the
    returned projected final field have shape (2, n, n).
    """
    return generic_run(admittivity_problem(data, params), x0, cfg, truth)
