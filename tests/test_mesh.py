import numpy as np
import pytest

from mfeit.mesh import (
    build_grid,
    div,
    grad,
    h1_norm_sq,
    l2_norm_sq,
    laplacian,
    refine_grid,
    restrict_injection,
)
from mfeit.objective import random_smooth_pair


def test_build_grid_interior_mask_definition():
    g = build_grid(9, 0.25)
    expected = np.minimum.reduce([g.X, 1 - g.X, g.Y, 1 - g.Y]) > 0.25
    assert np.array_equal(g.interior_mask, expected)
    assert not g.interior_mask[g.boundary_mask].any()


def test_build_grid_rejects_bad_inputs():
    with pytest.raises(ValueError):
        build_grid(9, 0.6)
    with pytest.raises(ValueError):
        build_grid(8, 0.2)
    with pytest.raises(ValueError):
        build_grid(33, 0.0)


def test_build_grid_rejects_an_empty_interior_region():
    # for even n the nodes nearest the center lie h/2 off it: none is farther than c0 from the edge
    with pytest.raises(ValueError, match="n=10.*c0=0.45"):
        build_grid(10, 0.45)
    assert build_grid(11, 0.45).interior_mask.sum() == 1


def test_boundary_ring_count():
    g = build_grid(33, 0.2)
    assert len(g.boundary_index) == 4 * 33 - 4


def test_refine_and_restrict_roundtrip():
    g = build_grid(17, 0.2)
    fine = refine_grid(g, 2)
    assert fine.n == 33
    f_fine = np.sin(fine.X) * fine.Y
    f_coarse = restrict_injection(f_fine, 2)
    assert np.array_equal(f_coarse, np.sin(g.X) * g.Y)


def test_grad_exact_on_linear_and_constant():
    g = build_grid(17, 0.3)
    gx = grad(g, g.X)
    assert np.allclose(gx[..., 0], 1.0, atol=1e-13)
    assert np.allclose(gx[..., 1], 0.0, atol=1e-13)
    gc = grad(g, np.full(g.shape, 3.7))
    assert np.allclose(gc, 0.0, atol=1e-13)


def test_grad_exact_on_quadratic_everywhere():
    # central and one-sided second-order stencils are both exact on x^2
    g = build_grid(33, 0.2)
    gq = grad(g, g.X**2)
    assert np.max(np.abs(gq[..., 0] - 2 * g.X)) < 1e-12


def test_div_examples():
    g = build_grid(17, 0.2)
    v = np.stack([g.X, g.Y], axis=-1)
    inner = ~g.boundary_mask
    assert np.allclose(div(g, v)[inner], 2.0, atol=1e-12)
    const = np.stack([np.full(g.shape, 1.0), np.full(g.shape, -2.0)], axis=-1)
    assert np.allclose(div(g, const), 0.0, atol=1e-12)
    assert np.allclose(div(g, grad(g, g.X**2 + g.Y**2))[inner], 4.0, atol=1e-11)


def test_laplacian_examples():
    g = build_grid(17, 0.2)
    inner = ~g.boundary_mask
    assert np.allclose(laplacian(g, g.X**2 + g.Y**2)[inner], 4.0, atol=1e-11)
    assert np.allclose(laplacian(g, 2 * g.X - g.Y)[inner], 0.0, atol=1e-11)
    assert np.all(laplacian(g, g.X)[g.boundary_mask] == 0.0)


def test_laplacian_second_order_convergence():
    errs = []
    for n in (33, 65):
        g = build_grid(n, 0.2)
        f = np.sin(np.pi * g.X) * np.sin(np.pi * g.Y)
        lap = laplacian(g, f)
        inner = ~g.boundary_mask
        errs.append(np.max(np.abs(lap[inner] + 2 * np.pi**2 * f[inner])))
    ratio = errs[0] / errs[1]
    assert 3.6 <= ratio <= 4.4


def test_product_rule_exact_for_linear_times_constant():
    g = build_grid(17, 0.2)
    f = 2 * g.X + 3 * g.Y
    v = np.stack([np.full(g.shape, 0.7), np.full(g.shape, -1.2)], axis=-1)
    fv = f[..., None] * v
    inner = ~g.boundary_mask
    residual = div(g, fv) - f * div(g, v) - (grad(g, f) * v).sum(axis=-1)
    assert np.max(np.abs(residual[inner])) < 1e-12


def test_grad_div_adjoint_for_interior_fields():
    # exact summation by parts when supports stay away from the boundary
    g = build_grid(33, 0.2)
    rng = np.random.default_rng(11)
    for _ in range(3):
        f, _ = random_smooth_pair(g, rng)
        vx, vy = random_smooth_pair(g, rng)
        v = np.stack([vx, vy], axis=-1)
        gf = grad(g, f)
        h2 = g.h * g.h
        lhs = h2 * np.sum(gf[..., 0] * vx + gf[..., 1] * vy)
        rhs = h2 * np.sum(f * div(g, v))
        scale = np.sqrt(l2_norm_sq(g, f) * (l2_norm_sq(g, vx) + l2_norm_sq(g, vy)))
        assert abs(lhs + rhs) <= 1e-12 * max(scale, 1.0)


def test_operators_are_linear():
    g = build_grid(17, 0.2)
    rng = np.random.default_rng(4)
    f1 = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
    f2 = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
    al, be = 1.3 - 0.2j, -0.7 + 1.1j
    for op in (lambda f: grad(g, f), lambda f: laplacian(g, f)):
        combo = op(al * f1 + be * f2)
        split = al * op(f1) + be * op(f2)
        assert np.allclose(combo, split, rtol=0, atol=1e-12 * (abs(al) + abs(be)) * 100)


def test_h1_norm_matches_direct_sum():
    g = build_grid(17, 0.2)
    rng = np.random.default_rng(9)
    f = rng.standard_normal(g.shape)
    direct = g.h**2 * (
        np.sum(f**2)
        + np.sum(((f[1:, :] - f[:-1, :]) / g.h) ** 2)
        + np.sum(((f[:, 1:] - f[:, :-1]) / g.h) ** 2)
    )
    assert h1_norm_sq(g, f) == pytest.approx(direct, rel=1e-14)
