import numpy as np
import pytest

from mfeit.mesh import l2_norm_sq, h1_norm_sq
from mfeit.objective import (
    Dataset,
    FrequencyGrid,
    dF,
    directional_derivative,
    gradient_DJ,
    misfit_J,
    random_smooth_pair,
    residual_norm_sq,
)
from mfeit.pde import assemble, constant_field, map_frequencies, solve_dirichlet
from mfeit.phantom import add_noise, make_phantom, synthesize_data
from mfeit.admissible import project_T

from helpers import ONE_BUMP, index_of, pairing_dF_route, residual_F
from mfeit import RunConfig


def unit_direction(grid, rng):
    d = random_smooth_pair(grid, rng)
    return d / np.sqrt(l2_norm_sq(grid, d[0]) + l2_norm_sq(grid, d[1]))


class TestFrequencyGrid:
    def test_trapezoid_weights(self):
        f = FrequencyGrid.uniform(1.0, 2.0, 9)
        assert f.weights.sum() == pytest.approx(1.0, abs=1e-14)
        assert np.all(f.weights > 0)
        assert f.weights[0] == pytest.approx(f.weights[1] / 2)

    def test_single_node_gets_full_interval(self):
        f = FrequencyGrid.uniform(1.0, 2.5, 1)
        assert f.nodes[0] == pytest.approx(1.75)
        assert f.weights[0] == pytest.approx(1.5)

    def test_invariants_rejected(self):
        with pytest.raises(ValueError):
            FrequencyGrid(2.0, 1.0, np.array([1.5]), np.array([1.0]))
        with pytest.raises(ValueError):
            FrequencyGrid(1.0, 2.0, np.array([1.5, 1.2]), np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            FrequencyGrid(1.0, 2.0, np.array([1.2, 1.5]), np.array([0.5, 0.4]))

    def test_non_finite_values_rejected(self):
        # NaN passes every comparison, so each value is checked by name
        with pytest.raises(ValueError, match="omega_hi must be finite"):
            FrequencyGrid.uniform(1.0, np.inf, 9)
        with pytest.raises(ValueError, match="omega_lo must be finite"):
            FrequencyGrid(np.nan, 2.0, np.array([1.5]), np.array([1.0]))
        with pytest.raises(ValueError, match="frequency nodes must be finite"):
            FrequencyGrid(1.0, 2.0, np.array([1.2, np.nan]), np.array([0.5, 0.5]))
        with pytest.raises(ValueError, match="quadrature weights must be finite"):
            FrequencyGrid(1.0, 2.0, np.array([1.2, 1.5]), np.array([np.nan, 1.0]))

    def test_nodes_and_weights_of_different_lengths_rejected(self):
        # two weights summing to the interval length, three nodes
        with pytest.raises(ValueError, match="3 frequency nodes but 2 weights"):
            FrequencyGrid(1.0, 2.0, np.array([1.0, 1.5, 2.0]), np.array([0.5, 0.5]))

    def test_index_lookup(self):
        f = FrequencyGrid.uniform(1.0, 2.0, 5)
        assert index_of(f, float(f.nodes[2])) == 2
        with pytest.raises(KeyError):
            index_of(f, 1.23456)


class TestResidual:
    def test_zero_at_generating_phantom(self, data33, truth33):
        data, _ = data33
        # refinement-2 data: the residual at the truth carries only the
        # O(h^2) discretization gap between the two grids
        f = residual_F(truth33, float(data.freqs.nodes[0]), data)
        assert np.sqrt(residual_norm_sq(data.grid, f)) < 5e-3
        assert np.max(np.abs(data.grid.trace(f[0]))) < 1e-12

    def test_exactly_zero_with_matching_constant_data(self):
        from mfeit import PhantomSpec

        cfg = RunConfig(n=17, c0=0.2, n_freq=3, refinement=1, phantom=PhantomSpec())
        data = synthesize_data(cfg)
        a = constant_field(data.grid, 1.0, 1.0)
        f = residual_F(a, float(data.freqs.nodes[1]), data)
        assert np.max(np.abs(f[0])) < 1e-12
        assert np.max(np.abs(f[1])) < 1e-12

    def test_unknown_frequency_rejected(self, data33):
        data, _ = data33
        a = constant_field(data.grid, 1.0, 1.0)
        with pytest.raises(KeyError):
            residual_F(a, 1.2345, data)

    def test_norm_grows_with_perturbation(self, data33, truth33):
        data, _ = data33
        grid = data.grid
        d = unit_direction(grid, np.random.default_rng(8))
        omega = float(data.freqs.nodes[0])
        norms = []
        for t in (0.01, 0.02, 0.04):
            a = truth33 + t * d
            norms.append(np.sqrt(residual_norm_sq(grid, residual_F(a, omega, data))))
        assert norms[0] < norms[1] < norms[2]


class TestMisfit:
    def test_floor_at_truth_inverse_crime(self):
        cfg = RunConfig(n=17, c0=0.2, n_freq=3, refinement=1, phantom=ONE_BUMP)
        data = synthesize_data(cfg)
        truth = np.stack(make_phantom(ONE_BUMP, data.grid, cfg.admissible))
        assert misfit_J(truth, data) <= 1e-18

    def test_nonnegative(self, data33):
        data, _ = data33
        assert misfit_J(constant_field(data.grid, 1.0, 1.0), data) >= 0.0

    def test_quadratic_in_noise_level(self):
        cfg = RunConfig(n=33, c0=0.2, n_freq=3, refinement=1, phantom=ONE_BUMP)
        data = synthesize_data(cfg)
        truth = np.stack(make_phantom(ONE_BUMP, data.grid, cfg.admissible))
        j1 = misfit_J(truth, add_noise(data, 0.01, 99))
        j2 = misfit_J(truth, add_noise(data, 0.02, 99))
        assert j2 / j1 == pytest.approx(4.0, rel=1e-3)

    def test_invariant_under_frequency_relabeling(self, data33):
        data, _ = data33
        a = constant_field(data.grid, 1.0, 1.0)
        perm = [3, 1, 4, 0, 2]
        scrambled = Dataset(
            grid=data.grid,
            freqs=data.freqs,
            potentials=data.potentials,
            metadata=data.metadata,
        )
        # J is a weighted sum over nodes: summing contributions in any order
        # must agree up to round-off; evaluate via explicit per-node sums.
        total = 0.0
        for k in perm:
            f = residual_F(a, float(data.freqs.nodes[k]), scrambled)
            total += 0.5 * float(data.freqs.weights[k]) * residual_norm_sq(data.grid, f)
        assert total == pytest.approx(misfit_J(a, data), rel=1e-12)


class TestLinearization:
    def test_zero_direction(self, data33, truth33):
        data, _ = data33
        omega = float(data.freqs.nodes[1])
        u = solve_dirichlet(assemble(data.grid, truth33, omega), data.boundary_data())
        z = np.zeros((2,) + data.grid.shape)
        v = dF(assemble(data.grid, truth33, omega), z, u)
        assert np.max(np.abs(v[0])) == 0.0

    def test_linearity(self, data33, truth33):
        data, _ = data33
        grid = data.grid
        omega = float(data.freqs.nodes[1])
        u = solve_dirichlet(assemble(grid, truth33, omega), data.boundary_data())
        d = unit_direction(grid, np.random.default_rng(5))
        v1 = dF(assemble(grid, truth33, omega), d, u)
        v2 = dF(assemble(grid, truth33, omega), 2 * d, u)
        assert np.max(np.abs(v2[0] - 2 * v1[0])) < 1e-12
        assert np.max(np.abs(v2[1] - 2 * v1[1])) < 1e-12

    def test_taylor_remainder_second_order(self, data33):
        data, cfg = data33
        grid = data.grid
        a0 = project_T(grid, constant_field(grid, 1.0, 1.0), cfg.admissible)
        omega = float(data.freqs.nodes[0])
        phi = data.boundary_data()
        u0 = solve_dirichlet(assemble(grid, a0, omega), phi)
        d = unit_direction(grid, np.random.default_rng(3))
        v = dF(assemble(grid, a0, omega), d, u0)

        def remainder(t):
            ut = solve_dirichlet(assemble(grid, a0 + t * d, omega), phi)
            return np.sqrt(
                h1_norm_sq(grid, ut[0] - u0[0] - t * v[0])
                + h1_norm_sq(grid, ut[1] - u0[1] - t * v[1])
            )

        ratio = remainder(1e-2) / remainder(5e-3)
        assert ratio == pytest.approx(4.0, abs=0.5)


class TestGradient:
    def test_small_at_truth_with_matching_data(self):
        cfg = RunConfig(n=17, c0=0.2, n_freq=3, refinement=1, phantom=ONE_BUMP)
        data = synthesize_data(cfg)
        truth = np.stack(make_phantom(ONE_BUMP, data.grid, cfg.admissible))
        g = gradient_DJ(truth, data)
        assert max(np.max(np.abs(g[0])), np.max(np.abs(g[1]))) <= 1e-9

    def test_support_confined_to_interior(self, data33):
        data, _ = data33
        g = gradient_DJ(constant_field(data.grid, 1.0, 1.0), data)
        outside = ~data.grid.interior_mask
        assert np.all(g[0][outside] == 0.0)
        assert np.all(g[1][outside] == 0.0)

    def test_matches_finite_differences(self, data33, truth33):
        data, cfg = data33
        grid = data.grid
        a = project_T(grid, constant_field(grid, 1.0, 1.0), cfg.admissible)
        g = gradient_DJ(a, data)
        rng = np.random.default_rng(7)
        t = 1e-5
        for _ in range(2):
            d = unit_direction(grid, rng)
            predicted = directional_derivative(grid, g, d)
            jp = misfit_J(a + t * d, data)
            jm = misfit_J(a - t * d, data)
            fd = (jp - jm) / (2 * t)
            assert abs(predicted - fd) / abs(fd) < 1e-4

    def test_pairing_identity_between_routes(self, data33):
        data, cfg = data33
        grid = data.grid
        a = project_T(grid, constant_field(grid, 1.0, 1.0), cfg.admissible)
        g = gradient_DJ(a, data)
        rng = np.random.default_rng(17)
        for _ in range(2):
            d = unit_direction(grid, rng)
            route_density = directional_derivative(grid, g, d)
            route_pairing = pairing_dF_route(a, data, d)
            assert abs(route_density - route_pairing) <= 1e-8 * max(abs(route_density), 1.0)

    def test_conjugate_at_negated_frequency(self, data33, truth33):
        data, _ = data33
        phi = data.boundary_data()
        for omega in (0.7, 1.3, 1.9):
            up = solve_dirichlet(assemble(data.grid, truth33, omega), phi)
            um = solve_dirichlet(assemble(data.grid, truth33, -omega), phi)
            assert np.max(np.abs(um[0] - np.conj(up[0]))) < 1e-12
            assert np.max(np.abs(um[1] - np.conj(up[1]))) < 1e-12

    def test_threaded_frequency_loop_bitwise_identical(self, data33, monkeypatch):
        # the per-frequency map collects results in input order, so the
        # reduction is deterministic regardless of the thread count
        data, _ = data33
        a = constant_field(data.grid, 1.0, 1.0)
        serial = gradient_DJ(a, data)
        monkeypatch.setenv("MFEIT_THREADS", "4")
        threaded = gradient_DJ(a, data)
        assert np.array_equal(serial[0], threaded[0])
        assert np.array_equal(serial[1], threaded[1])

    def test_nested_frequency_loop_runs_inline(self, monkeypatch):
        # a task that maps again must not wait on the worker it occupies
        import threading

        monkeypatch.setenv("MFEIT_THREADS", "2")
        out = []
        outer = threading.Thread(
            target=lambda: out.append(map_frequencies(lambda k: map_frequencies(lambda j: (k, j), range(2)), range(2))),
            daemon=True,
        )
        outer.start()
        outer.join(timeout=60)
        assert not outer.is_alive()
        assert out == [[[(0, 0), (0, 1)], [(1, 0), (1, 1)]]]

    def test_pool_starts_no_more_workers_than_items(self, monkeypatch):
        # 16 threads on 3 items: only workers an item runs on may start
        import threading

        monkeypatch.setenv("MFEIT_THREADS", "16")
        before = set(threading.enumerate())
        ran = map_frequencies(lambda k: threading.current_thread(), range(3))
        assert len(set(ran)) == 3 and all(t.name.startswith("mfeit-freq") for t in ran)
        started = [t for t in set(threading.enumerate()) - before if t.name.startswith("mfeit-freq")]
        assert len(started) <= 3

    @pytest.mark.parametrize("value", ["abc", "0", "-2"])
    def test_invalid_thread_count_names_variable(self, monkeypatch, value):
        monkeypatch.setenv("MFEIT_THREADS", value)
        with pytest.raises(ValueError, match="MFEIT_THREADS"):
            map_frequencies(lambda k: k, range(3))
