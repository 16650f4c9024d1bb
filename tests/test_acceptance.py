"""Acceptance suite: one test per release criterion, each printing a status line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is fixed here, not configurable.
"""

import os
import time

import numpy as np
import pytest

from mfeit import RunConfig, PhantomSpec
from mfeit.admissible import project_T
from mfeit.cli import main
from mfeit.config import write_config
from mfeit.initguess import initial_guess
from mfeit.landweber import LandweberConfig, generic_run
from mfeit.mesh import build_grid, l2_norm_sq
from mfeit.objective import (
    FrequencyGrid,
    dF,
    directional_derivative,
    forward_states,
    gradient_DJ,
    misfit_J,
    random_smooth_pair,
    residual_norm_sq,
)
from mfeit.pde import assemble, constant_field, solve_dirichlet
from mfeit.phantom import make_phantom, synthesize_data
from mfeit.properbc import canonical_phi, coverage_lambda, det_gradient_map
from mfeit.fieldio import read_field

from helpers import TWO_BUMPS, h2_proxy_norm_sq, linear_oracle, pairing_dF_route, rel_interior_err


def _report(name: str, detail: str) -> None:
    print(f"\nPASS {name}: {detail}")


def test_criterion_1_forward_solver_order():
    t0 = time.perf_counter()
    omega = 1.5
    errs = []
    for n in (17, 33, 65):
        g = build_grid(n, 0.2)
        x, y = g.X, g.Y
        sigma = 1.0 + 0.3 * np.sin(np.pi * x) * np.sin(np.pi * y)
        eps = 1.0 + 0.2 * x * y
        u_star = np.sin(np.pi * x) * np.sin(np.pi * y)
        gx = np.pi * np.cos(np.pi * x) * np.sin(np.pi * y)
        gy = np.pi * np.sin(np.pi * x) * np.cos(np.pi * y)
        c = sigma + 1j * omega * eps
        cx = 0.3 * np.pi * np.cos(np.pi * x) * np.sin(np.pi * y) + 1j * omega * 0.2 * y
        cy = 0.3 * np.pi * np.sin(np.pi * x) * np.cos(np.pi * y) + 1j * omega * 0.2 * x
        src = cx * gx + cy * gy + c * (-2.0 * np.pi**2 * u_star)
        op = assemble(g, np.stack((sigma, eps)), omega)
        u = solve_dirichlet(op, g.trace(u_star).astype(complex), src)
        errs.append(np.sqrt(l2_norm_sq(g, u - u_star)))
    hs = np.array([1 / 16, 1 / 32, 1 / 64])
    order = float(np.polyfit(np.log(hs), np.log(errs), 1)[0])
    elapsed = time.perf_counter() - t0
    assert order >= 1.9
    assert elapsed < 10.0
    _report("criterion 1 (forward order)", f"observed order {order:.3f} in {elapsed:.2f}s")


def test_criterion_2_constant_medium_exactness():
    t0 = time.perf_counter()
    g = build_grid(33, 0.2)
    a = constant_field(g, 1.0, 1.0)
    phi = canonical_phi(g)
    for omega in (0.5, 1.3, 3.7):
        u = solve_dirichlet(assemble(g, a, omega), phi)
        assert max(np.max(np.abs(u[0] - g.X)), np.max(np.abs(u[1] - g.Y))) <= 1e-10
        assert np.max(np.abs(det_gradient_map(g, u) - 1.0)) <= 1e-10
    freqs = FrequencyGrid.uniform(1.0, 2.0, 5)
    cov = coverage_lambda(g, a, freqs, phi)
    assert abs(cov.lam - 1.0) <= 1e-10
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _report("criterion 2 (constant exactness)", f"lambda error {abs(cov.lam - 1.0):.2e} in {elapsed:.2f}s")


@pytest.fixture(scope="module")
def gradient_probes(data33):
    data, cfg = data33
    grid = data.grid
    a = project_T(grid, constant_field(grid, 1.0, 1.0), cfg.admissible)
    g = gradient_DJ(a, data)
    rng = np.random.default_rng(7)
    probes = []
    for _ in range(5):
        d = random_smooth_pair(grid, rng)
        probes.append(d / np.sqrt(l2_norm_sq(grid, d[0]) + l2_norm_sq(grid, d[1])))
    return data, a, g, probes


def test_criterion_3_gradient_vs_finite_differences(gradient_probes):
    t0 = time.perf_counter()
    data, a, g, probes = gradient_probes
    grid = data.grid
    t = 1e-5
    worst = 0.0
    for d in probes:
        predicted = directional_derivative(grid, g, d)
        jp = misfit_J(a + t * d, data)
        jm = misfit_J(a - t * d, data)
        fd = (jp - jm) / (2 * t)
        worst = max(worst, abs(predicted - fd) / abs(fd))
    elapsed = time.perf_counter() - t0
    assert worst < 1e-4
    assert elapsed < 60.0
    _report("criterion 3 (gradient vs FD)", f"max relative error {worst:.2e} in {elapsed:.2f}s")


def test_criterion_4_pairing_identity(gradient_probes):
    data, a, g, probes = gradient_probes
    grid = data.grid
    worst = 0.0
    for d in probes:
        route_adjoint = directional_derivative(grid, g, d)
        route_linearized = pairing_dF_route(a, data, d)
        worst = max(worst, abs(route_adjoint - route_linearized))
    assert worst <= 1e-8
    _report("criterion 4 (pairing identity)", f"max route difference {worst:.2e}")


def test_criterion_5_generic_landweber_oracle():
    t0 = time.perf_counter()
    problem, x_star, mu, _ = linear_oracle()
    cfg = LandweberConfig(mu=mu, max_iters=10_000, stop_tol=0.0)
    xf, recs = generic_run(problem, np.zeros(5), cfg, truth=x_star)
    final_err = float(np.linalg.norm(xf - x_star))
    errs = np.array([r.err_to_truth for r in recs])
    slack = 2.0 ** (-np.arange(1, len(errs), dtype=float))
    monotone = bool(np.all(errs[1:] ** 2 <= errs[:-1] ** 2 + slack + 1e-12))
    elapsed = time.perf_counter() - t0
    assert final_err < 1e-6
    assert len(recs) <= 10_000
    assert monotone
    assert elapsed < 5.0
    _report(
        "criterion 5 (linear oracle)",
        f"error {final_err:.2e} after {len(recs)} iterations, monotone, in {elapsed:.2f}s",
    )


def test_criterion_6_initial_guess(data33, truth33):
    t0 = time.perf_counter()
    cfg_const = RunConfig(n=33, c0=0.2, n_freq=5, refinement=1, phantom=PhantomSpec())
    const_data = synthesize_data(cfg_const.phantom, cfg_const)
    guess_const = initial_guess(const_data, cfg_const.admissible)
    exact_dev = max(np.max(np.abs(guess_const[0] - 1.0)), np.max(np.abs(guess_const[1] - 1.0)))
    assert exact_dev <= 1e-10

    data, cfg = data33
    guess = initial_guess(data, cfg.admissible)
    bg = constant_field(data.grid, 1.0, 1.0)
    err_guess = rel_interior_err(data.grid, guess, truth33)
    err_bg = rel_interior_err(data.grid, bg, truth33)
    elapsed = time.perf_counter() - t0
    assert err_guess < err_bg
    assert elapsed < 30.0
    _report(
        "criterion 6 (initial guess)",
        f"constant deviation {exact_dev:.2e}; bump error {err_guess:.3e} < background {err_bg:.3e} "
        f"in {elapsed:.2f}s",
    )


def _e2e_config(outdir: str) -> RunConfig:
    return RunConfig(
        n=65,
        c0=0.2,
        n_freq=9,
        refinement=2,
        phantom=TWO_BUMPS,
        mu=None,
        max_iters=200,
        stop_tol=0.0,
        x0="initguess",
        output_dir=outdir,
    )


def _run_pipeline(root, tag: str) -> str:
    """simulate + reconstruct into ``root/tag``; returns the output directory."""
    outdir = os.path.join(str(root), tag)
    cfg_path = os.path.join(str(root), f"{tag}.cfg")
    write_config(_e2e_config(outdir), cfg_path)
    assert main(["simulate", "--config", cfg_path]) == 0
    assert main(["reconstruct", "--config", cfg_path, "--data", os.path.join(outdir, "dataset")]) == 0
    return outdir


@pytest.fixture(scope="module")
def e2e_outputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("e2e")
    t0 = time.perf_counter()
    outdir = _run_pipeline(root, "run1")
    return root, outdir, time.perf_counter() - t0


def test_criterion_7_end_to_end_convergence(e2e_outputs):
    _, outdir, elapsed = e2e_outputs
    grid = build_grid(65, 0.2)
    truth = np.stack(make_phantom(TWO_BUMPS, grid))
    sigma_init, _ = read_field(os.path.join(outdir, "sigma_init"))
    eps_init, _ = read_field(os.path.join(outdir, "eps_init"))
    sigma_final, _ = read_field(os.path.join(outdir, "sigma_final"))
    eps_final, _ = read_field(os.path.join(outdir, "eps_final"))
    err0 = rel_interior_err(grid, np.stack((sigma_init, eps_init)), truth)
    err1 = rel_interior_err(grid, np.stack((sigma_final, eps_final)), truth)

    rows = np.genfromtxt(os.path.join(outdir, "trajectory.csv"), delimiter=",", names=True)
    js = np.atleast_1d(rows["J"])
    assert len(js) == 200
    # non-increasing up to round-off wiggle at the misfit floor
    assert np.all(np.diff(js) <= js[:-1] * 1e-9)
    assert err1 <= 0.5 * err0
    assert elapsed < 600.0
    _report(
        "criterion 7 (end-to-end)",
        f"error {err0:.3e} -> {err1:.3e} ({100 * (1 - err1 / err0):.1f}% reduction), "
        f"J non-increasing over 200 iterations, in {elapsed:.1f}s",
    )


def test_criterion_8_empirical_coercivity():
    t0 = time.perf_counter()
    c_emp = {}
    for n in (33, 49):
        cfg = RunConfig(n=n, c0=0.2, n_freq=5, refinement=1, phantom=TWO_BUMPS)
        data = synthesize_data(TWO_BUMPS, cfg)
        grid = data.grid
        a = np.stack(make_phantom(TWO_BUMPS, grid, cfg.admissible))
        states = forward_states(a, data)
        rng = np.random.default_rng(2024)
        values = []
        for _ in range(20):
            d = random_smooth_pair(grid, rng)
            d = d / np.sqrt(h2_proxy_norm_sq(grid, d[0]) + h2_proxy_norm_sq(grid, d[1]))
            acc = 0.0
            for s in states:
                v = dF(s.op, d, s.u)
                acc += s.weight * residual_norm_sq(grid, v)
            values.append(acc)
        c_emp[n] = min(values)
    spread = abs(c_emp[33] - c_emp[49]) / c_emp[33]
    elapsed = time.perf_counter() - t0
    assert c_emp[33] > 0.0 and c_emp[49] > 0.0
    assert c_emp[33] >= 3e-7  # regression floor frozen from the first validated run
    assert spread <= 0.2
    assert elapsed < 300.0
    _report(
        "criterion 8 (coercivity)",
        f"C_emp(33)={c_emp[33]:.3e}, C_emp(49)={c_emp[49]:.3e}, spread {100 * spread:.1f}% "
        f"in {elapsed:.1f}s",
    )


def test_criterion_9_determinism(e2e_outputs):
    root, first, _ = e2e_outputs
    second = _run_pipeline(root, "run2")

    def tree_bytes(base):
        out = {}
        for dirpath, _, files in os.walk(base):
            for name in files:
                full = os.path.join(dirpath, name)
                rel = os.path.relpath(full, base)
                with open(full, "rb") as fh:
                    out[rel] = fh.read()
        return out

    a, b = tree_bytes(first), tree_bytes(second)
    assert set(a) == set(b)
    mismatched = [name for name in a if a[name] != b[name]]
    assert mismatched == []
    _report("criterion 9 (determinism)", f"{len(a)} output files byte-identical across reruns")
