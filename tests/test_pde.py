import os
import re

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from mfeit import pde
from mfeit.mesh import build_grid, l2_norm_sq
from mfeit.objective import adjoint_rhs, random_smooth_pair, solve_adjoint
from mfeit.pde import (
    SOLVE_RTOL,
    apply_div_coeff_grad,
    assemble,
    blas_thread_controls,
    constant_field,
    operator_pattern,
    solve_dirichlet,
    solve_frequencies,
    solve_poisson,
)
from mfeit.properbc import canonical_phi

from helpers import (
    TWO_BUMPS,
    CountingLU,
    assemble_matrix,
    block_matrix,
    coupling_matrix,
    reference_solve_dirichlet,
)
from mfeit.admissible import AdmissibleParams
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
    for got, ref in ((block_matrix(op), rows[:, inner].tocsc()),
                     (coupling_matrix(op), rows[:, g.boundary_index].tocsr())):
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


@pytest.mark.parametrize("component, name", [(0, "conductivity"), (1, "permittivity")])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_coefficient_is_a_validation_error(grid17, component, name, value):
    # a NaN passes `x <= 0`; it must stop at assembly, not come back from
    # SuperLU as a SolverError
    bad = constant_field(grid17, 1.0, 1.0)
    bad[component, 4, 6] = value
    phi = canonical_phi(grid17)
    with pytest.raises(ValueError, match=name):
        solve_dirichlet(assemble(grid17, bad, 1.0), phi)
    with pytest.raises(ValueError, match=name):
        solve_frequencies(grid17, bad, [1.0, 1.5, 2.0], phi)


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
    a = np.stack(make_phantom(TWO_BUMPS, g, AdmissibleParams()))
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
        a = np.stack(make_phantom(TWO_BUMPS, g, AdmissibleParams()))
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


@pytest.mark.parametrize("n", [9, 10, 33, 50, 65])
@pytest.mark.parametrize("m", [None, 3])
def test_solve_poisson_matches_factored_solve(n, m):
    # the sine transform solves the system assemble builds, with its rounding
    # of 1/h**2 (n - 1 not a power of two) and an odd or even side
    g = build_grid(n, 0.2)
    rng = np.random.default_rng(n)
    lead = () if m is None else (m,)
    nb = len(g.boundary_index)
    src = 100.0 * (rng.standard_normal(lead + g.shape) + 1j * rng.standard_normal(lead + g.shape))
    bc = rng.standard_normal(lead + (nb,)) + 1j * rng.standard_normal(lead + (nb,))
    a = constant_field(g, 1.0, 1.0)
    u = solve_poisson(g, src, bc)
    ref = solve_dirichlet(assemble(g, a, 0.0), bc, src)
    assert u.shape == ref.shape
    assert np.max(np.abs(u - ref)) <= 1e-12 * np.max(np.abs(ref))
    assert np.array_equal(g.trace(u), bc)
    cols = (1,) if m is None else ()
    bound = _full_backward_error(g, a, 0.0, u.reshape(cols + u.shape), bc.reshape(cols + bc.shape),
                                 src.reshape(cols + src.shape))
    assert bound <= SOLVE_RTOL


def test_solve_poisson_keeps_the_solve_contract(grid17, monkeypatch):
    # eigenvalues off by a factor of 2: each refinement sweep only halves the
    # error, so the two sweeps cannot reach SOLVE_RTOL
    g = grid17
    bc = g.trace(g.X).astype(complex)
    eigenvalues = pde._poisson_eigenvalues
    with monkeypatch.context() as patch:
        patch.setattr(pde, "_poisson_eigenvalues", lambda op: eigenvalues(op) * 2.0)
        with pytest.raises(pde.SolverError, match="exceeds tolerance"):
            solve_poisson(g, np.zeros(g.shape), bc)
    src = np.zeros(g.shape, dtype=complex)
    src[8, 8] = np.nan
    with pytest.raises(ValueError, match="non-finite right-hand side"):
        solve_poisson(g, src, bc)


@pytest.mark.parametrize("n", [9, 17, 65, 129])
def test_poisson_coefficients_are_the_value_table_entries(n):
    # the operator keeps only the gathered values; the block's first column
    # starts with the value table's diagonal and a coupling, bit for bit
    g = build_grid(n, 0.2)
    x = constant_field(g, 1.0, 1.0)
    table, _, _ = pde._gather(g, x[0] + 0j * x[1])
    op = assemble(g, x, 0.0)
    assert op.block_data[0] == table[0, 2] and op.block_data[1] == table[0, 0]


def test_solve_poisson_refines_a_missed_solve(grid17, monkeypatch):
    # eigenvalues off by 1e-6 miss the gate on the first solve; one
    # refinement sweep of solve_dirichlet repairs it
    g = grid17
    bc = g.trace(g.X).astype(complex)
    src = np.full(g.shape, 4.0 + 1j)
    eigenvalues = pde._poisson_eigenvalues
    monkeypatch.setattr(pde, "_poisson_eigenvalues", lambda op: eigenvalues(op) * (1.0 + 1e-6))
    solves = []
    solve = pde._SineSolver.solve
    monkeypatch.setattr(pde._SineSolver, "solve", lambda self, b: solves.append(b.shape) or solve(self, b))
    u = solve_poisson(g, src, bc)
    assert len(solves) == 2
    a = constant_field(g, 1.0, 1.0)
    assert _full_backward_error(g, a, 0.0, u[None], bc[None], src[None]) <= SOLVE_RTOL


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
    assert np.isfinite(float(re.search(r"residual (\S+) exceeds", str(info.value)).group(1)))
    assert "omega=1.2" in str(info.value)


def _full_backward_error(g, a, omega, u, bc, src):
    """Worst column's ``|Ax-b| / (|A|_inf |x| + |b|)`` on the full n^2 system."""
    A = assemble_matrix(g, a, omega)
    norm = max(1.0, float(np.max(np.abs(A).sum(axis=1))))
    worst = 0.0
    for uc, bcc, srcc in zip(u, bc, src):
        b = srcc.astype(complex).reshape(-1)
        b[g.boundary_index] = bcc
        x = uc.reshape(-1)
        r = A @ x - b
        worst = max(worst, np.linalg.norm(r) / (norm * np.linalg.norm(x) + np.linalg.norm(b)))
    return worst


def _solve_counted(g, a, m, monkeypatch, perturb=0.0):
    op = assemble(g, a, 1.5)
    lu = CountingLU(op.factorization(), perturb)
    monkeypatch.setattr(op, "factorization", lambda: lu)
    rng = np.random.default_rng(11)
    nb = len(g.boundary_index)
    bc = rng.standard_normal((m, nb)) + 1j * rng.standard_normal((m, nb))
    src = rng.standard_normal((m,) + g.shape) + 1j * rng.standard_normal((m,) + g.shape)
    if m == 1:
        u = solve_dirichlet(op, bc[0], src[0])[None]
    else:
        u = solve_dirichlet(op, bc, src)
    return u, bc, src, lu


@pytest.mark.parametrize("m", [1, 2])
def test_solve_accepts_first_triangular_solve(smooth_field33, m, monkeypatch):
    g, a = smooth_field33
    u, bc, src, lu = _solve_counted(g, a, m, monkeypatch)
    assert lu.solves == 1
    assert _full_backward_error(g, a, 1.5, u, bc, src) <= SOLVE_RTOL


@pytest.mark.parametrize("m", [1, 2])
def test_solve_refines_when_first_solve_misses(smooth_field33, m, monkeypatch):
    g, a = smooth_field33
    clean, *_ = _solve_counted(g, a, m, monkeypatch)
    u, bc, src, lu = _solve_counted(g, a, m, monkeypatch, perturb=1e-6)
    assert lu.solves == 2
    assert _full_backward_error(g, a, 1.5, u, bc, src) <= SOLVE_RTOL
    assert np.max(np.abs(u - clean)) <= 1e-12 * np.max(np.abs(clean))


@pytest.mark.parametrize("perturb", [0.0, 1e-6])
@pytest.mark.parametrize("m", [2, 9])
def test_solve_hands_superlu_its_fortran_layout(smooth_field33, m, perturb, monkeypatch):
    g, a = smooth_field33
    *_, lu = _solve_counted(g, a, m, monkeypatch, perturb=perturb)
    assert lu.solves == (2 if perturb else 1)
    ni = (g.n - 2) ** 2
    assert lu.layouts == [((ni, m), np.dtype(complex), True)] * lu.solves


def test_pattern_inner_is_row_major_interior_slice():
    for n in (5, 17, 33):
        flat = np.arange(n * n).reshape(n, n)[1:-1, 1:-1].reshape(-1)
        assert np.array_equal(operator_pattern(n).inner, flat)


@pytest.mark.parametrize("with_src", [False, True])
@pytest.mark.parametrize("lead", [(), (1,), (2,), (9,)])
@pytest.mark.parametrize("omega", [0.0, 1.7])
@pytest.mark.parametrize("n", [17, 33])
def test_solve_matches_reference_bit_for_bit(n, omega, lead, with_src):
    g = build_grid(n, 0.2)
    a = 1.0 + 0.3 * random_smooth_pair(g, np.random.default_rng(n))
    op = assemble(g, a, omega)
    rng = np.random.default_rng(7)
    nb = len(g.boundary_index)
    bc = rng.standard_normal(lead + (nb,)) + 1j * rng.standard_normal(lead + (nb,))
    src = rng.standard_normal(lead + g.shape) + 1j * rng.standard_normal(lead + g.shape) if with_src else None
    u = solve_dirichlet(op, bc, src)
    ref = reference_solve_dirichlet(op, bc, src)
    assert u.shape == ref.shape == lead + g.shape
    assert np.array_equal(u.view(float), ref.view(float))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_solve_rejects_non_finite_bc_or_interior_src(grid17, bad):
    g = grid17
    op = assemble(g, constant_field(g, 1.0, 1.0), 1.0)
    bc = np.stack([g.trace(g.X), g.trace(g.Y)]).astype(complex)
    src = np.ones((2,) + g.shape, dtype=complex)
    bad_bc = bc.copy()
    bad_bc[1, 3] = bad
    with pytest.raises(ValueError, match="non-finite right-hand side"):
        solve_dirichlet(op, bad_bc, src)
    bad_src = src.copy()
    bad_src[0, 5, 7] = complex(0.0, bad)  # imaginary part only
    with pytest.raises(ValueError, match="non-finite right-hand side"):
        solve_dirichlet(op, bc, bad_src)
    with pytest.raises(ValueError, match="non-finite right-hand side"):
        solve_dirichlet(op, bc[0], bad_src[0])


def test_solve_takes_finite_input_whose_norm_overflows(grid17):
    g = grid17
    op = assemble(g, constant_field(g, 1.0, 1.0), 1.0)
    bc = np.stack([g.trace(g.X), g.trace(g.Y)]).astype(complex) * 1e160
    src = np.full((2,) + g.shape, 3e159 + 1e159j)
    u = solve_dirichlet(op, bc, src)
    with np.errstate(over="ignore"):  # np.linalg.norm squares its input
        ref = reference_solve_dirichlet(op, bc, src)
    assert np.isfinite(u).all()
    assert np.array_equal(u.view(float), ref.view(float))


def test_solve_ignores_non_finite_src_on_boundary_ring(grid17):
    g = grid17
    op = assemble(g, constant_field(g, 1.0, 1.0), 1.0)
    bc = np.stack([g.trace(g.X), g.trace(g.Y)]).astype(complex)
    src = np.ones((2,) + g.shape, dtype=complex)
    dirty = src.copy()
    dirty[0, 0, 4] = np.nan
    dirty[1, -1, -1] = np.inf
    dirty[1, 6, 0] = -np.inf
    assert np.array_equal(solve_dirichlet(op, bc, dirty).view(float), solve_dirichlet(op, bc, src).view(float))


def test_factorization_covers_interior_unknowns_only(grid17):
    op = assemble(grid17, constant_field(grid17, 1.0, 1.0), 1.0)
    n = grid17.n
    assert op.factorization().shape == ((n - 2) ** 2, (n - 2) ** 2)


# ``pde`` calls SuperLU, scipy's sparse kernels and the BLAS without scipy's
# Python layers; these tests pin each call to the public scipy route it
# replaces, bit for bit.


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a).view(np.float64)


@pytest.mark.parametrize("n", [17, 33])
def test_factor_matches_splu(n):
    g = build_grid(n, 0.2)
    op = assemble(g, 1.0 + 0.3 * random_smooth_pair(g, np.random.default_rng(n)), 1.7)
    pat = operator_pattern(n)
    ours = pde.factor(op.block_data, pat.block_indices, pat.block_indptr)
    ref = spla.splu(block_matrix(op), permc_spec="MMD_AT_PLUS_A")
    rng = np.random.default_rng(0)
    c = rng.standard_normal((2, pat.inner.size)) + 1j * rng.standard_normal((2, pat.inner.size))
    assert ours.nnz == ref.nnz
    assert np.array_equal(ours.perm_c, ref.perm_c) and np.array_equal(ours.perm_r, ref.perm_r)
    assert np.array_equal(_bits(ours.solve(c.T)), _bits(ref.solve(c.T)))


@pytest.mark.parametrize("n", [17, 33])
@pytest.mark.parametrize("kind", ["real", "complex", "real-as-complex"])
def test_products_match_scipy_matrices(n, kind):
    g = build_grid(n, 0.2)
    x = 1.0 + 0.3 * random_smooth_pair(g, np.random.default_rng(n))
    coeff = {"real": x[0], "complex": x[0] + 1.7j * x[1], "real-as-complex": x[1] + 0j}[kind]
    _, block_data, coupling_data = pde._gather(g, coeff)
    op = pde.EllipticOperator(g, 1.7, block_data, coupling_data, 1.0)
    pat = operator_pattern(n)
    rng = np.random.default_rng(1)
    m, nb = pat.inner.size, g.boundary_index.size
    v = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    bc = rng.standard_normal(nb) + 1j * rng.standard_normal(nb)
    got = pat.block_product(block_data, v, np.full(m, np.nan + 0j))
    assert np.array_equal(_bits(got), _bits(block_matrix(op) @ v))
    got = pat.coupling_product(coupling_data, bc, np.full(m, np.nan + 0j))
    assert np.array_equal(_bits(got), _bits(coupling_matrix(op) @ bc))


@pytest.mark.parametrize("n", [17, 33])
def test_sweep_products_match_zgemm(n):
    # The basis blocks and the new rows of the shifted sweep are 2 to 4
    # rows long for the 2-column right-hand sides of the package.
    from scipy.linalg.blas import zgemm

    ni = (n - 2) ** 2
    rng = np.random.default_rng(n)

    def rows(k):
        return rng.standard_normal((k, ni)) + 1j * rng.standard_normal((k, ni))

    with pde.blas_one_thread():
        for kv in (2, 3, 4):
            for kw in (2, 4):
                v, w = rows(kv), rows(kw)
                step = np.conj(w.conj() @ v.T).T
                ref = zgemm(1.0, v.T, w.T, trans_a=2)
                assert np.array_equal(_bits(step), _bits(ref))
                got, want = w.copy(), w.copy()
                got -= step.T @ v
                zgemm(-1.0, v.T, ref, beta=1.0, c=want.T, overwrite_c=True)
                assert np.array_equal(_bits(got), _bits(want))
                ys = rows(kv)[:, :2 * kw]
                got = rows(2 * kw)
                want = got.copy()
                got += ys.T @ v
                zgemm(1.0, v.T, ys, beta=1.0, c=want.T, overwrite_c=True)
                assert np.array_equal(_bits(got), _bits(want))


@pytest.mark.parametrize("first", ["mfeit", "scipy"])
def test_scipy_extensions_are_initialised_once(first):
    # ``pde`` loads SuperLU and the sparse kernels from their files; in
    # either import order scipy's own modules must be the same objects.
    import subprocess
    import sys

    import mfeit

    imports = ["import mfeit.pde as pde", "import scipy.sparse.linalg as spla"]
    code = "\n".join(imports if first == "mfeit" else imports[::-1]) + "\n" + "\n".join([
        "import sys",
        "assert sys.modules['scipy.sparse.linalg._dsolve._superlu'] is pde._superlu",
        "assert sys.modules['scipy.sparse._sparsetools'] is pde._sparsetools",
        "assert spla._dsolve.linsolve._superlu is pde._superlu",
        "import numpy as np, scipy.sparse as sp",
        "a = sp.csc_matrix(np.array([[4.0, 1.0], [1.0, 3.0]]))",
        "assert np.allclose(a @ spla.splu(a).solve(np.ones(2)), 1.0)",
    ])
    src = os.path.dirname(os.path.dirname(mfeit.__file__))
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr


def test_missing_scipy_extension_names_the_scipy_version():
    from importlib.metadata import version

    with pytest.raises(ImportError, match=f"scipy {version('scipy')} does not have"):
        pde._scipy_extension("sparse._no_such_module")


NINE = np.linspace(1.0, 2.0, 9)


@pytest.fixture(scope="module")
def two_bumps33():
    g = build_grid(33, 0.2)
    return g, np.stack(make_phantom(TWO_BUMPS, g, AdmissibleParams())), canonical_phi(g)


def _count_factorizations(monkeypatch) -> list:
    made = []
    factor = pde.factor
    monkeypatch.setattr(pde, "factor", lambda *a, **k: made.append(1) or factor(*a, **k))
    return made


def test_sweep_matches_fresh_solves(two_bumps33, monkeypatch):
    g, a, phi = two_bumps33
    made = _count_factorizations(monkeypatch)
    calls = []
    orthonormalize = pde._orthonormalize
    monkeypatch.setattr(pde, "_orthonormalize", lambda w, basis: calls.append(1) or orthonormalize(w, basis))
    states = solve_frequencies(g, a, NINE, phi)
    assert len(made) == 1  # every frequency came from the sweep
    assert len(calls) <= 12  # the start and 11 steps; the sweep stops once all pass
    for omega, u in zip(NINE, states):
        fresh = solve_dirichlet(assemble(g, a, omega), phi)
        assert np.max(np.abs(u - fresh)) <= 1e-11 * np.max(np.abs(fresh))


def test_sweep_states_meet_solve_rtol(two_bumps33):
    g, a, phi = two_bumps33
    for omega, u in zip(NINE, solve_frequencies(g, a, NINE, phi)):
        assert np.array_equal(g.trace(u), phi)
        assert _full_backward_error(g, a, omega, u, phi, np.zeros(u.shape)) <= SOLVE_RTOL


def test_sweep_passes_each_state_to_finish(two_bumps33, monkeypatch):
    g, a, phi = two_bumps33
    whole = solve_frequencies(g, a, NINE, phi)
    coarse = solve_frequencies(g, a, NINE, phi, lambda u: u[:, ::2, ::2])
    assert all(np.array_equal(c, u[:, ::2, ::2]) for c, u in zip(coarse, whole))
    made = _count_factorizations(monkeypatch)
    assert solve_frequencies(g, a, NINE, phi, lambda u: None) == [None] * len(NINE)
    assert len(made) == 1  # a None from finish is a result, not a miss


def test_sweep_zero_boundary_data_gives_zero_states(two_bumps33):
    # every Krylov direction deflates: the states are zero, as solve_dirichlet's are
    g, a, phi = two_bumps33
    zero = np.zeros_like(phi)
    states = solve_frequencies(g, a, NINE, zero, lambda u: u[:, ::2, ::2])
    for omega, u in zip(NINE, states):
        assert np.array_equal(u, solve_dirichlet(assemble(g, a, omega), zero)[:, ::2, ::2])


def test_sweep_rejects_single_boundary_column(two_bumps33):
    g, a, phi = two_bumps33
    with pytest.raises(ValueError, match="expected"):
        solve_frequencies(g, a, NINE, phi[0])


def test_sweep_constant_medium_needs_one_factorization(monkeypatch):
    # c_s = c_e, so the 4 starting columns have rank 2, and A_e = A_s makes
    # the first block an invariant subspace
    g = build_grid(33, 0.2)
    phi = canonical_phi(g)
    made = _count_factorizations(monkeypatch)
    ranks = []
    orthonormalize = pde._orthonormalize

    def spy(w, basis):
        width = len(w)
        out = orthonormalize(w, basis)
        ranks.append((width, len(out[1])))
        return out

    monkeypatch.setattr(pde, "_orthonormalize", spy)
    states = solve_frequencies(g, constant_field(g, 1.0, 1.0), NINE, phi)
    assert len(made) == 1
    assert ranks[0] == (4, 2)
    assert len(ranks) == 2  # the start and one step
    for u in states:
        assert np.max(np.abs(u - np.stack((g.X, g.Y)))) <= 1e-10


def test_sweep_single_frequency(two_bumps33, monkeypatch):
    g, a, phi = two_bumps33
    made = _count_factorizations(monkeypatch)
    (u,) = solve_frequencies(g, a, [1.3], phi)
    assert len(made) == 1
    fresh = solve_dirichlet(assemble(g, a, 1.3), phi)
    assert np.max(np.abs(u - fresh)) <= 1e-11 * np.max(np.abs(fresh))


def test_sweep_falls_back_to_fresh_factorizations_at_step_cap(two_bumps33, monkeypatch):
    # no node sits at the mid-band shift, where one step is exact
    g, a, phi = two_bumps33
    omegas = np.linspace(1.0, 2.0, 4)
    monkeypatch.setattr(pde, "SWEEP_STEPS", 1)
    made = _count_factorizations(monkeypatch)
    states = solve_frequencies(g, a, omegas, phi, lambda u: u[:, ::2, ::2])
    assert len(made) == 1 + len(omegas)
    for omega, u in zip(omegas, states):
        assert np.array_equal(u, solve_dirichlet(assemble(g, a, omega), phi)[:, ::2, ::2])


def test_sweep_holds_blas_at_one_thread(two_bumps33, monkeypatch):
    g, a, phi = two_bumps33
    controls = blas_thread_controls()
    seen = []
    real = pde.assemble
    monkeypatch.setattr(pde, "assemble", lambda *args: seen.append([get() for get, _ in controls]) or real(*args))
    found = [get() for get, _ in controls]
    for _, set_ in controls:
        set_(2)
    try:
        solve_frequencies(g, a, NINE, phi)
        after = [get() for get, _ in controls]
    finally:
        for (_, set_), count in zip(controls, found):
            set_(count)
    assert len(seen) >= 1 + len(NINE)
    assert all(counts == [1] * len(controls) for counts in seen)
    assert after == [2] * len(controls)
