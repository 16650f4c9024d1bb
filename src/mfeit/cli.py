"""Command-line interface.

Subcommands: ``simulate`` (phantom -> dataset), ``init-guess``,
``reconstruct``, ``check-gradient``, ``coverage``.  Every subcommand takes
``--config`` plus optional overrides.  Exit codes: 0 success, 2 validation
or configuration error, 3 solver/numerical failure.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys

import numpy as np

from . import fieldio
from .admissible import project_T
from .config import ConfigError, RunConfig, parse_config
from .initguess import initial_guess
from .landweber import run as landweber_run
from .mesh import l2_norm_sq
from .objective import (
    Dataset,
    directional_derivative,
    gradient_DJ,
    misfit_J,
    random_smooth_pair,
)
from .pde import SolverError, constant_field
from .phantom import add_noise, make_phantom, phantom_id, synthesize_data
from .properbc import canonical_phi, coverage_lambda


def _synthesize(cfg: RunConfig) -> Dataset:
    """The config phantom's dataset, with the configured noise added."""
    data = synthesize_data(cfg.phantom, cfg)
    if cfg.noise_level > 0.0:
        data = add_noise(data, cfg.noise_level, cfg.noise_seed)
    return data


def _load_or_synthesize(cfg: RunConfig, data_dir: str | None) -> Dataset:
    if data_dir is None:
        return _synthesize(cfg)
    data = fieldio.read_dataset(data_dir)
    if data.grid.n != cfg.n or abs(data.grid.c0 - cfg.c0) > 1e-12:
        raise ConfigError(
            f"dataset grid (n={data.grid.n}, c0={data.grid.c0}) "
            f"does not match config (n={cfg.n}, c0={cfg.c0})"
        )
    return data


def _outdir(cfg: RunConfig, args) -> str:
    path = args.out if args.out else cfg.output_dir
    os.makedirs(path, exist_ok=True)
    return path


def cmd_simulate(cfg: RunConfig, args) -> int:
    data = _synthesize(cfg)
    out = _outdir(cfg, args)
    target = os.path.join(out, "dataset")
    fieldio.write_dataset(target, data)
    print(f"wrote dataset ({data.freqs.nodes.size} frequencies, n={data.grid.n}) to {target}")
    return 0


def cmd_init_guess(cfg: RunConfig, args) -> int:
    data = _load_or_synthesize(cfg, args.data)
    guess = initial_guess(data, cfg.admissible, tol=cfg.pinv_tol, per_frequency_eps=cfg.per_frequency_eps)
    out = _outdir(cfg, args)
    fieldio.write_field(os.path.join(out, "sigma_init"), guess[0], data.grid)
    fieldio.write_field(os.path.join(out, "eps_init"), guess[1], data.grid)
    fieldio.write_field_csv(os.path.join(out, "sigma_init.csv"), guess[0], data.grid)
    fieldio.write_field_csv(os.path.join(out, "eps_init.csv"), guess[1], data.grid)
    print(f"wrote initial guess fields to {out}")
    return 0


def _resolve_truth(cfg: RunConfig, data: Dataset) -> np.ndarray | None:
    if str(data.metadata.get("phantom", "")) == phantom_id(cfg.phantom):
        return np.stack(make_phantom(cfg.phantom, data.grid, cfg.admissible))
    return None


def cmd_reconstruct(cfg: RunConfig, args) -> int:
    data = _load_or_synthesize(cfg, args.data)
    grid = data.grid
    if cfg.x0 == "initguess":
        x0 = initial_guess(data, cfg.admissible, tol=cfg.pinv_tol, per_frequency_eps=cfg.per_frequency_eps)
    else:
        x0 = project_T(grid, constant_field(grid, cfg.admissible.sigma0, cfg.admissible.eps0), cfg.admissible)

    cov = coverage_lambda(grid, x0, data.freqs, data.boundary_data())
    print(f"coverage lambda at start iterate: {cov.lam:.6e}")
    if cov.lam < cfg.lambda_min and not cfg.allow_low_coverage:
        print(
            f"error: coverage lambda {cov.lam:.3e} below threshold {cfg.lambda_min:.3e}; "
            "set allow_low_coverage to override",
            file=sys.stderr,
        )
        return 2

    truth = _resolve_truth(cfg, data)
    final, records = landweber_run(x0, data, cfg.landweber_config(), truth=truth)

    out = _outdir(cfg, args)
    fieldio.write_field(os.path.join(out, "sigma_init"), x0[0], grid)
    fieldio.write_field(os.path.join(out, "eps_init"), x0[1], grid)
    fieldio.write_field(os.path.join(out, "sigma_final"), final[0], grid)
    fieldio.write_field(os.path.join(out, "eps_final"), final[1], grid)
    fieldio.write_field_csv(os.path.join(out, "sigma_final.csv"), final[0], grid)
    fieldio.write_field_csv(os.path.join(out, "eps_final.csv"), final[1], grid)
    fieldio.write_trajectory_csv(os.path.join(out, "trajectory.csv"), records)

    last = records[-1]
    print(f"finished after {last.n} iterations: J={last.J:.6e}, |g|={last.grad_norm:.3e}")
    if truth is not None:
        mask = grid.interior_mask
        num = np.sqrt(np.sum((final[0] - truth[0])[mask] ** 2) + np.sum((final[1] - truth[1])[mask] ** 2))
        den = np.sqrt(np.sum(truth[0][mask] ** 2) + np.sum(truth[1][mask] ** 2))
        print(f"relative interior error vs phantom: {num / den:.4f}")
    print(f"wrote reconstruction outputs to {out}")
    return 0


def cmd_check_gradient(cfg: RunConfig, args) -> int:
    data = _load_or_synthesize(cfg, args.data)
    grid = data.grid
    a = project_T(grid, constant_field(grid, cfg.admissible.sigma0, cfg.admissible.eps0), cfg.admissible)
    g = gradient_DJ(a, data)
    rng = np.random.default_rng(cfg.noise_seed)
    t = 1e-5
    worst = 0.0
    for i in range(args.directions):
        d = random_smooth_pair(grid, rng)
        d = d / np.sqrt(l2_norm_sq(grid, d[0]) + l2_norm_sq(grid, d[1]))
        predicted = directional_derivative(grid, g, d)
        fd = (misfit_J(a + t * d, data) - misfit_J(a - t * d, data)) / (2.0 * t)
        rel = abs(predicted - fd) / max(abs(fd), 1e-300)
        worst = max(worst, rel)
        print(f"direction {i}: adjoint={predicted: .12e}  fd={fd: .12e}  rel_err={rel:.3e}")
    print(f"max relative error: {worst:.3e}")
    if worst >= args.tol:
        print(f"error: gradient check failed tolerance {args.tol:g}", file=sys.stderr)
        return 3
    return 0


def cmd_coverage(cfg: RunConfig, args) -> int:
    grid = cfg.build_grid()
    phantom = np.stack(make_phantom(cfg.phantom, grid, cfg.admissible))
    cov = coverage_lambda(grid, phantom, cfg.frequency_grid(), canonical_phi(grid))
    out = _outdir(cfg, args)
    fieldio.write_field(os.path.join(out, "coverage_m"), cov.m, grid)
    fieldio.write_field_csv(os.path.join(out, "coverage_m.csv"), cov.m, grid)
    print(f"lambda = {cov.lam:.12e}")
    print(f"wrote coverage map to {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mfeit",
        description="Multi-frequency micro-EIT simulation and reconstruction",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="enable progress logging")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_data=False):
        p.add_argument("--config", required=True, help="run configuration file")
        p.add_argument("--out", default=None, help="output directory (overrides config)")
        p.add_argument(
            "--data",
            default=None,
            required=needs_data,
            help="dataset directory" + ("" if needs_data else " (synthesized from config if omitted)"),
        )

    common(sub.add_parser("simulate", help="synthesize a dataset from the config phantom"))
    common(sub.add_parser("init-guess", help="compute the data-driven initial guess"), needs_data=True)
    common(sub.add_parser("reconstruct", help="run the projected Landweber reconstruction"))
    p_grad = sub.add_parser("check-gradient", help="compare the adjoint gradient to finite differences")
    common(p_grad)
    p_grad.add_argument("--directions", type=int, default=5, help="number of random probe directions")
    p_grad.add_argument("--tol", type=float, default=1e-4, help="acceptable relative error")
    common(sub.add_parser("coverage", help="coverage diagnostics of the config phantom"))
    return parser


_COMMANDS = {
    "simulate": cmd_simulate,
    "init-guess": cmd_init_guess,
    "reconstruct": cmd_reconstruct,
    "check-gradient": cmd_check_gradient,
    "coverage": cmd_coverage,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        cfg = parse_config(args.config)
        return _COMMANDS[args.command](cfg, args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
