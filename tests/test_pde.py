import numpy as np
import pytest

from mfeit.mesh import build_grid, l2_norm_sq
from mfeit.objective import random_smooth_pair
from mfeit.pde import (
    adjoint_rhs,
    apply_div_coeff_grad,
    assemble,
    constant_field,
    operator_pattern,
    solve_adjoint,
    solve_dirichlet,
    solve_poisson,
)
from mfeit.properbc import canonical_phi

from helpers import TWO_BUMPS, assemble_matrix
from mfeit.phantom import make_phantom


@pytest.fixture(scope="module")
def grid17():
    return build_grid(17, 0.2)


@pytest.fixture(scope="module")
def smooth_field33():
    g = build_grid(33, 0.2)
    rng = np.random.default_rng(5)
    return g, 1.0 + 0.3 * random_smooth_pair(g, rng)


def test_assemble_constant_is_scaled_laplacian(grid17):
    g = grid17
    kappa = 2.0 + 1.5 * 1j * 0.75  # sigma0=2, eps0=1.5, omega=0.75
    op = assemble_matrix(g, constant_field(g, 2.0, 1.5), 0.75)
    ref = assemble_matrix(g, constant_field(g, 1.0, 1.0), 0.0)  # unit Laplacian
    inner = np.flatnonzero(~g.boundary_mask.reshape(-1))
    diff = (op[inner] - kappa * ref[inner]).toarray()
    assert np.max(np.abs(diff)) < 1e-12 * abs(kappa) / g.h**2
    # boundary rows stay identity
    bnd = op[g.boundary_index].toarray()
    expected = np.zeros_like(bnd)
    expected[np.arange(len(g.boundary_index)), g.boundary_index] = 1.0
    assert np.array_equal(bnd, expected)


def test_assemble_interior_row_sums_vanish(grid17):
    op = assemble_matrix(grid17, constant_field(grid17, 1.0, 1.0), 1.3)
    sums = np.asarray(op.sum(axis=1)).reshape(-1)
    inner = ~grid17.boundary_mask.reshape(-1)
    assert np.max(np.abs(sums[inner])) < 1e-12 / grid17.h**2
    assert np.allclose(sums[grid17.boundary_index], 1.0)


def test_assemble_interior_block_complex_symmetric(smooth_field33):
    g, a = smooth_field33
    op = assemble_matrix(g, a, 1.7)
    inner = np.flatnonzero(~g.boundary_mask.reshape(-1))
    block = op[np.ix_(inner, inner)]
    asym = (block - block.T).toarray()
    assert np.max(np.abs(asym)) == 0.0
    assert np.max(np.abs(block.imag.toarray())) > 0.0  # genuinely complex, not Hermitian


@pytest.mark.parametrize("n", [17, 33])
@pytest.mark.parametrize("omega", [0.0, 1.7])
def test_pattern_fill_matches_reference_bit_for_bit(n, omega):
    # The diagonal is a floating-point sum of four couplings: only the
    # reference's summation order reproduces its bits.
    g = build_grid(n, 0.2)
    a = 1.0 + 0.3 * random_smooth_pair(g, np.random.default_rng(n))
    op = assemble(g, a, omega)
    inner = operator_pattern(n).inner
    rows = assemble_matrix(g, a, omega)[inner].tocsr()
    for got, ref in ((op.block, rows[:, inner].tocsc()),
                     (op.coupling, rows[:, g.boundary_index].tocsr())):
        ref.sort_indices()
        assert np.array_equal(got.indptr, ref.indptr)
        assert np.array_equal(got.indices, ref.indices)
        assert np.array_equal(got.data.view(np.float64), ref.data.view(np.float64))


def test_assemble_rejects_nonpositive_coefficients(grid17):
    bad = constant_field(grid17, 1.0, 1.0)
    bad[0, 3, 3] = 0.0
    with pytest.raises(ValueError):
        assemble(grid17, bad, 1.0)
    bad2 = constant_field(grid17, 1.0, 1.0)
    bad2[1, 5, 5] = -0.1
    with pytest.raises(ValueError):
        assemble(grid17, bad2, 1.0)


@pytest.mark.parametrize("shape", [(17, 17), (2, 16, 16), (3, 17, 17), (2, 17, 17, 1)])
def test_assemble_rejects_field_of_wrong_shape(grid17, shape):
    with pytest.raises(ValueError, match="shape"):
        assemble(grid17, np.ones(shape), 1.0)


def test_apply_stencil_matches_matrix(smooth_field33):
    g, _ = smooth_field33
    rng = np.random.default_rng(12)
    coeff = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
    f = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
    # matrix route: assemble with a positive field equal to coeff is not possible
    # for indefinite coeff, so compare against the real/imag parts separately
    # using positive shifted fields and linearity of the assembly in the coefficient.
    shift = 5.0 + float(np.max(np.abs(coeff))) * 2
    pos = np.stack((coeff.real + shift, np.full(g.shape, 1.0)))
    base = np.stack((np.full(g.shape, shift), np.full(g.shape, 1.0)))
    lhs = (assemble_matrix(g, pos, 0.0) - assemble_matrix(g, base, 0.0)) @ f.reshape(-1)
    direct = apply_div_coeff_grad(g, coeff.real.astype(complex), f)
    inner = ~g.boundary_mask.reshape(-1)
    assert np.max(np.abs(lhs[inner] - direct.reshape(-1)[inner])) < 1e-9


def test_solve_dirichlet_linear_exact(grid17):
    op = assemble(grid17, constant_field(grid17, 1.0, 2.0), 1.4)
    u = solve_dirichlet(op, grid17.trace(grid17.X).astype(complex))
    assert np.max(np.abs(u - grid17.X)) < 1e-11


def test_solve_dirichlet_zero_data(grid17):
    op = assemble(grid17, constant_field(grid17, 1.0, 1.0), 1.0)
    u = solve_dirichlet(op, np.zeros(len(grid17.boundary_index)))
    assert np.max(np.abs(u)) == 0.0


def test_solve_dirichlet_discrete_manufactured(smooth_field33):
    g, a = smooth_field33
    u_star = (np.sin(np.pi * g.X) * np.sin(np.pi * g.Y)).astype(complex)
    op = assemble(g, a, 1.5)
    src = (assemble_matrix(g, a, 1.5) @ u_star.reshape(-1)).reshape(g.shape)
    u = solve_dirichlet(op, g.trace(u_star), src)
    assert np.max(np.abs(u - u_star)) < 1e-9


def test_solve_forward_constant_gives_coordinates(grid17):
    u = solve_dirichlet(assemble(grid17, constant_field(grid17, 1.0, 1.0), 1.2), canonical_phi(grid17))
    assert np.max(np.abs(u[0] - grid17.X)) < 1e-11
    assert np.max(np.abs(u[1] - grid17.Y)) < 1e-11


def test_solve_forward_bump_keeps_boundary_exact():
    g = build_grid(33, 0.2)
    a = np.stack(make_phantom(TWO_BUMPS, g))
    phi = canonical_phi(g)
    u = solve_dirichlet(assemble(g, a, 1.5), phi)
    assert np.array_equal(g.trace(u[0]), phi[0].astype(complex))
    assert np.array_equal(g.trace(u[1]), phi[1].astype(complex))
    assert np.max(np.abs(u[0] - g.X)) > 1e-4  # the inclusions actually perturb


def test_solve_forward_self_convergence():
    # successive refinements shrink the solution difference by >= 3.5
    omega = 1.5
    sols = {}
    for n in (17, 33, 65):
        g = build_grid(n, 0.2)
        a = np.stack(make_phantom(TWO_BUMPS, g))
        sols[n] = (g, solve_dirichlet(assemble(g, a, omega), canonical_phi(g)))
    def diff(nc, nf):
        gc, uc = sols[nc]
        _, uf = sols[nf]
        d = uc[0] - uf[0][::2, ::2]
        return np.sqrt(l2_norm_sq(gc, d))
    d1 = diff(17, 33)
    d2 = diff(33, 65)
    assert d1 / d2 >= 3.5


def test_solve_adjoint_zero_residual(grid17):
    f = np.stack((np.zeros(grid17.shape, complex), np.zeros(grid17.shape, complex)))
    p = solve_adjoint(assemble(grid17, constant_field(grid17, 1.0, 1.0), 1.1), f)
    assert np.max(np.abs(p[0])) == 0.0 and np.max(np.abs(p[1])) == 0.0


def test_solve_adjoint_dense_lu_oracle(grid17):
    g = grid17
    a = constant_field(g, 1.0, 1.0)
    f1 = (np.sin(np.pi * g.X) * np.sin(np.pi * g.Y)).astype(complex)
    f = np.stack((f1, np.zeros_like(f1)))
    p = solve_adjoint(assemble(g, a, 1.3), f)
    b = adjoint_rhs(g, f1).reshape(-1).astype(complex)
    b[g.boundary_index] = 0.0
    p_dense = np.linalg.solve(assemble_matrix(g, a, 1.3).toarray(), b).reshape(g.shape)
    assert np.max(np.abs(p[0] - p_dense)) < 1e-10


def test_solve_adjoint_rhs_two_path_consistency(grid17):
    # library right-hand side vs an independently written stencil evaluation
    g = grid17
    rng = np.random.default_rng(2)
    f = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
    f[g.boundary_mask] = 0.0
    fc = np.conj(f)
    h2 = g.h * g.h
    manual = np.zeros_like(fc)
    for i in range(1, g.n - 1):
        for j in range(1, g.n - 1):
            lap = (fc[i + 1, j] + fc[i - 1, j] + fc[i, j + 1] + fc[i, j - 1] - 4 * fc[i, j]) / h2
            manual[i, j] = fc[i, j] - lap
    lib = adjoint_rhs(g, f)
    inner = ~g.boundary_mask
    assert np.max(np.abs(lib[inner] - manual[inner])) < 1e-12


def test_solve_adjoint_rejects_nonzero_boundary(grid17):
    f1 = np.ones(grid17.shape, dtype=complex)
    with pytest.raises(ValueError):
        solve_adjoint(assemble(grid17, constant_field(grid17, 1.0, 1.0), 1.0), np.stack((f1, f1)))


def test_solve_poisson_examples(grid17):
    g = grid17
    nb = len(g.boundary_index)
    gamma = solve_poisson(g, np.zeros(g.shape), np.full(nb, 2.5 + 0.5j))
    assert np.max(np.abs(gamma - (2.5 + 0.5j))) < 1e-11
    gamma_x = solve_poisson(g, np.zeros(g.shape), g.trace(g.X).astype(complex))
    assert np.max(np.abs(gamma_x - g.X)) < 1e-11
    quad = g.X**2 + g.Y**2
    gamma_q = solve_poisson(g, np.full(g.shape, 4.0 + 0j), g.trace(quad).astype(complex))
    assert np.max(np.abs(gamma_q - quad)) < 1e-9


def test_superposition_in_bc_and_src(grid17):
    g = grid17
    op = assemble(g, constant_field(g, 1.3, 0.8), 1.1)
    rng = np.random.default_rng(1)
    bc1 = rng.standard_normal(len(g.boundary_index)).astype(complex)
    bc2 = rng.standard_normal(len(g.boundary_index)).astype(complex)
    src1 = rng.standard_normal(g.shape).astype(complex)
    src2 = rng.standard_normal(g.shape).astype(complex)
    u_sum = solve_dirichlet(op, bc1 + 2j * bc2, src1 + 2j * src2)
    u_split = solve_dirichlet(op, bc1, src1) + 2j * solve_dirichlet(op, bc2, src2)
    assert np.max(np.abs(u_sum - u_split)) < 1e-9


def test_constant_coefficient_scale_invariance(grid17):
    phi = canonical_phi(grid17)
    u1 = solve_dirichlet(assemble(grid17, constant_field(grid17, 2.0, 3.0), 1.1), phi)
    u2 = solve_dirichlet(assemble(grid17, constant_field(grid17, 10.0, 15.0), 1.1), phi)
    assert np.max(np.abs(u1[0] - u2[0])) < 1e-12
    assert np.max(np.abs(u1[1] - u2[1])) < 1e-12


def test_complex_symmetric_pairing(smooth_field33):
    g, a = smooth_field33
    op = assemble_matrix(g, a, 1.3)
    rng = np.random.default_rng(7)
    f1, f2 = random_smooth_pair(g, rng)
    f1 = f1 * (1 + 0.5j)
    f2 = f2 * (0.3 - 0.2j)
    af1 = op @ f1.reshape(-1)
    af2 = op @ f2.reshape(-1)
    lhs = np.sum(af1 * f2.reshape(-1))
    rhs = np.sum(f1.reshape(-1) * af2)
    scale = max(abs(lhs), abs(rhs), 1.0)
    assert abs(lhs - rhs) < 1e-12 * scale


@pytest.mark.parametrize("m", [2, 3])
def test_multi_column_solve_matches_column_by_column(smooth_field33, m):
    g, a = smooth_field33
    op = assemble(g, a, 1.5)
    rng = np.random.default_rng(m)
    nb = len(g.boundary_index)
    bc = rng.standard_normal((m, nb)) + 1j * rng.standard_normal((m, nb))
    src = rng.standard_normal((m,) + g.shape) + 1j * rng.standard_normal((m,) + g.shape)
    u = solve_dirichlet(op, bc, src)
    assert u.shape == (m,) + g.shape
    for c in range(m):
        ref = solve_dirichlet(op, bc[c], src[c])
        assert np.max(np.abs(u[c] - ref)) <= 1e-12 * np.max(np.abs(ref))
        assert np.array_equal(g.trace(u[c]), bc[c])


def test_multi_column_solve_reports_worst_residual(grid17, monkeypatch):
    import mfeit.pde as pde

    g = grid17
    op = assemble(g, constant_field(g, 1.0, 1.0), 1.2)
    bc = np.stack([g.trace(g.X), g.trace(g.Y)]).astype(complex)
    monkeypatch.setattr(pde, "SOLVE_RTOL", -1.0)  # negative: not even an exact solve meets it
    with pytest.raises(pde.SolverError) as info:
        solve_dirichlet(op, bc)
    assert np.isfinite(info.value.residual)


def test_factorization_covers_interior_unknowns_only(grid17):
    op = assemble(grid17, constant_field(grid17, 1.0, 1.0), 1.0)
    n = grid17.n
    assert op.factorization().shape == ((n - 2) ** 2, (n - 2) ** 2)
