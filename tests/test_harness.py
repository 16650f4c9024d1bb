import configparser
import os

import numpy as np
import pytest

from mfeit import RunConfig, PhantomSpec, Inclusion
from mfeit.cli import main
from mfeit.config import ConfigError, parse_config_text, serialize_config
from mfeit.fieldio import read_dataset, read_field, write_dataset, write_field
from mfeit.mesh import build_grid, l2_norm_sq
from mfeit.phantom import add_noise, make_phantom, synthesize_data

from helpers import ONE_BUMP, TWO_BUMPS


class TestMakePhantom:
    def test_empty_spec_is_background(self):
        g = build_grid(17, 0.2)
        a = make_phantom(PhantomSpec(sigma0=1.5, eps0=0.8), g)
        assert np.all(a.sigma == 1.5)
        assert np.all(a.eps == 0.8)

    def test_amplitude_reached_at_center_node(self):
        g = build_grid(65, 0.2)  # odd n: (0.5, 0.5) is a node
        a = make_phantom(PhantomSpec(inclusions=[Inclusion(0.5, 0.5, 0.15, 0.5, 0.2)]), g)
        assert np.max(a.sigma) == pytest.approx(1.5, abs=1e-14)
        i = np.argmax(np.abs(g.xs - 0.5) < 1e-12)
        assert a.sigma[i, i] == pytest.approx(1.5, abs=1e-14)

    def test_rejects_bound_violation(self):
        g = build_grid(33, 0.2)
        with pytest.raises(ValueError, match="admissible"):
            make_phantom(PhantomSpec(inclusions=[Inclusion(0.5, 0.5, 0.15, 20.0, 0.0)]), g)

    def test_rejects_support_violation(self):
        g = build_grid(33, 0.2)
        with pytest.raises(ValueError, match="interior"):
            make_phantom(PhantomSpec(inclusions=[Inclusion(0.3, 0.3, 0.15, 0.5, 0.1)]), g)

    @pytest.mark.parametrize("radius", [0.0, -0.1, float("nan"), float("inf")])
    def test_rejects_nonpositive_or_non_finite_radius(self, radius):
        g = build_grid(17, 0.2)
        with pytest.raises(ValueError, match="radius"):
            make_phantom(PhantomSpec(inclusions=[Inclusion(0.5, 0.5, radius, 0.5, 0.2)]), g)


class TestSynthesize:
    def test_constant_phantom_gives_coordinates(self):
        cfg = RunConfig(n=17, c0=0.2, n_freq=3, refinement=2, phantom=PhantomSpec())
        data = synthesize_data(cfg.phantom, cfg)
        g = data.grid
        for pair in data.potentials:
            assert np.max(np.abs(pair[0] - g.X)) < 1e-11
            assert np.max(np.abs(pair[1] - g.Y)) < 1e-11

    def test_refinement_matters_and_shrinks(self):
        diffs = []
        for n in (17, 33):
            c1 = RunConfig(n=n, c0=0.2, n_freq=1, refinement=1, phantom=ONE_BUMP)
            c2 = RunConfig(n=n, c0=0.2, n_freq=1, refinement=2, phantom=ONE_BUMP)
            d1 = synthesize_data(ONE_BUMP, c1)
            d2 = synthesize_data(ONE_BUMP, c2)
            diff = np.sqrt(l2_norm_sq(d1.grid, d1.potentials[0][0] - d2.potentials[0][0]))
            assert diff > 0.0
            diffs.append(diff)
        assert diffs[1] < diffs[0]

    def test_inverse_crime_flagged(self):
        cfg = RunConfig(n=17, c0=0.2, n_freq=1, refinement=1, phantom=PhantomSpec())
        data = synthesize_data(cfg.phantom, cfg)
        assert data.metadata["inverse_crime"] == 1

    def test_boundary_values_equal_traces_exactly(self):
        cfg = RunConfig(n=17, c0=0.2, n_freq=2, refinement=3, phantom=ONE_BUMP)
        data = synthesize_data(ONE_BUMP, cfg)
        g = data.grid
        for pair in data.potentials:
            assert np.array_equal(g.trace(pair[0]), g.trace(g.X.astype(complex)))
            assert np.array_equal(g.trace(pair[1]), g.trace(g.Y.astype(complex)))


@pytest.fixture(scope="module")
def clean():
    cfg = RunConfig(n=65, c0=0.2, n_freq=2, refinement=1, phantom=ONE_BUMP)
    return synthesize_data(ONE_BUMP, cfg)


class TestNoise:
    def test_level_zero_identical(self, clean):
        noisy = add_noise(clean, 0.0, 7)
        for a, b in zip(clean.potentials, noisy.potentials):
            assert np.array_equal(a[0], b[0])
            assert np.array_equal(a[1], b[1])

    def test_same_seed_reproducible(self, clean):
        n1 = add_noise(clean, 0.03, 7)
        n2 = add_noise(clean, 0.03, 7)
        for a, b in zip(n1.potentials, n2.potentials):
            assert np.array_equal(a[0], b[0])

    def test_boundary_untouched(self, clean):
        noisy = add_noise(clean, 0.05, 7)
        g = clean.grid
        for a, b in zip(clean.potentials, noisy.potentials):
            assert np.array_equal(g.trace(a[0]), g.trace(b[0]))

    def test_empirical_noise_level(self, clean):
        level = 0.02
        noisy = add_noise(clean, level, 11)
        g = clean.grid
        mask = ~g.boundary_mask
        ratios = []
        for a, b in zip(clean.potentials, noisy.potentials):
            for ua, ub in zip(a, b):
                noise_rms = np.sqrt(np.mean(np.abs(ub - ua)[mask] ** 2))
                signal_rms = np.sqrt(np.mean(np.abs(ua)[mask] ** 2))
                ratios.append(noise_rms / signal_rms)
        assert all(0.9 * level <= r <= 1.1 * level for r in ratios)


class TestFieldIO:
    def test_complex_field_roundtrip(self, tmp_path):
        g = build_grid(17, 0.2)
        rng = np.random.default_rng(0)
        f = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
        base = str(tmp_path / "field")
        write_field(base, f, g, meta={"label": "test"})
        back, meta = read_field(base)
        assert np.array_equal(back, f)
        assert meta["label"] == "test"
        assert meta["kind"] == "complex"

    def test_dataset_roundtrip_bitwise(self, tmp_path):
        cfg = RunConfig(n=17, c0=0.2, n_freq=3, refinement=2, phantom=ONE_BUMP)
        data = synthesize_data(ONE_BUMP, cfg)
        target = str(tmp_path / "ds")
        write_dataset(target, data)
        back = read_dataset(target)
        assert back.grid.n == data.grid.n
        assert np.array_equal(back.freqs.nodes, data.freqs.nodes)
        assert np.array_equal(back.freqs.weights, data.freqs.weights)
        for a, b in zip(data.potentials, back.potentials):
            assert np.array_equal(a[0], b[0])
            assert np.array_equal(a[1], b[1])

    def test_dataset_write_deterministic(self, tmp_path):
        cfg = RunConfig(n=17, c0=0.2, n_freq=2, refinement=1, phantom=ONE_BUMP)
        data = synthesize_data(ONE_BUMP, cfg)
        d1, d2 = str(tmp_path / "a"), str(tmp_path / "b")
        write_dataset(d1, data)
        write_dataset(d2, data)
        for name in sorted(os.listdir(d1)):
            with open(os.path.join(d1, name), "rb") as fa, open(os.path.join(d2, name), "rb") as fb:
                assert fa.read() == fb.read(), name



class TestDatasetValidation:
    """Malformed datasets are rejected where they are read, naming the file (exit 2)."""

    @pytest.fixture()
    def dataset(self, tmp_path):
        cfg = RunConfig(n=17, c0=0.2, n_freq=2, refinement=1, phantom=ONE_BUMP,
                        output_dir=str(tmp_path / "out"))
        path = tmp_path / "run.cfg"
        path.write_text(serialize_config(cfg))
        assert main(["simulate", "--config", str(path)]) == 0
        return str(path), str(tmp_path / "out" / "dataset")

    def _rejects(self, path, data_dir, name, capsys):
        with pytest.raises(ValueError, match=name):
            read_dataset(data_dir)
        capsys.readouterr()
        assert main(["init-guess", "--config", path, "--data", data_dir]) == 2
        err = capsys.readouterr().err
        assert "validation error" in err and name in err

    def test_field_grid_differs_from_manifest(self, dataset, capsys):
        path, data_dir = dataset
        g = build_grid(9, 0.2)
        write_field(os.path.join(data_dir, "u_001_c1"), g.X.astype(complex), g)
        self._rejects(path, data_dir, "u_001_c1", capsys)

    def test_non_finite_values(self, dataset, capsys):
        path, data_dir = dataset
        base = os.path.join(data_dir, "u_000_c2")
        u, _ = read_field(base)
        u[8, 8] = np.nan
        write_field(base, u, build_grid(17, 0.2))
        self._rejects(path, data_dir, "u_000_c2", capsys)

    def test_boundary_traces_differ_between_frequencies(self, dataset, capsys):
        path, data_dir = dataset
        base = os.path.join(data_dir, "u_001_c2")
        u, _ = read_field(base)
        u[0, 5] += 0.01
        write_field(base, u, build_grid(17, 0.2))
        self._rejects(path, data_dir, "u_001_c2", capsys)

    def test_field_meta_without_n(self, dataset, capsys):
        path, data_dir = dataset
        meta = os.path.join(data_dir, "u_000_c1.meta")
        with open(meta) as fh:
            lines = [line for line in fh if not line.startswith("n =")]
        with open(meta, "w") as fh:
            fh.writelines(lines)
        self._rejects(path, data_dir, "u_000_c1", capsys)

    def _edit_manifest(self, data_dir, edit):
        manifest = os.path.join(data_dir, "manifest.cfg")
        cp = configparser.ConfigParser()
        cp.read(manifest)
        edit(cp["frequencies"])
        with open(manifest, "w") as fh:
            cp.write(fh)

    def test_manifest_missing_key(self, dataset, capsys):
        path, data_dir = dataset
        self._edit_manifest(data_dir, lambda sec: sec.pop("weights"))
        self._rejects(path, data_dir, "manifest.cfg", capsys)

    def test_manifest_nodes_and_weights_differ_in_length(self, dataset, capsys):
        # one weight equal to the interval length for the two nodes
        path, data_dir = dataset
        self._edit_manifest(data_dir, lambda sec: sec.__setitem__("weights", "1.0"))
        with pytest.raises(ValueError, match="manifest.cfg"):
            read_dataset(data_dir)
        capsys.readouterr()
        assert main(["reconstruct", "--config", path, "--data", data_dir]) == 2
        err = capsys.readouterr().err
        assert "validation error" in err and "2 frequency nodes but 1 weights" in err


class TestConfig:
    def test_roundtrip_identity(self):
        cfg = RunConfig(
            n=33,
            c0=0.25,
            n_freq=7,
            refinement=3,
            mu=0.125,
            phantom=TWO_BUMPS,
            noise_level=0.015,
            x0="background",
        )
        text = serialize_config(cfg)
        again = parse_config_text(text)
        assert again == cfg
        assert parse_config_text(serialize_config(again)) == again

    def test_defaults_roundtrip(self):
        assert parse_config_text(serialize_config(RunConfig())) == RunConfig()

    def test_auto_mu_roundtrip(self):
        cfg = RunConfig(mu=None)
        assert parse_config_text(serialize_config(cfg)).mu is None

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config_text("[grid]\nn = 17\nbogus = 1\n")

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config_text("[nonsense]\na = 1\n")

    def test_bad_number_names_section_and_key(self):
        with pytest.raises(ConfigError, match=r"\[grid\] n"):
            parse_config_text("[grid]\nn = banana\n")

    def test_invariant_violation_reported(self):
        with pytest.raises(ConfigError, match="refinement"):
            parse_config_text("[data]\nrefinement = 5\n")

    @pytest.mark.parametrize(
        "text, key",
        [
            ("[landweber]\nlambda_min = nan\n", "lambda_min"),
            ("[landweber]\nmu = nan\n", "mu"),
            ("[landweber]\nmu = inf\n", "mu"),
            ("[landweber]\nstop_tol = nan\n", "stop_tol"),
            ("[initguess]\npinv_tol = nan\n", "pinv_tol"),
            ("[initguess]\npinv_tol = -1\n", "pinv_tol"),
            ("[initguess]\npinv_tol = 0\n", "pinv_tol"),
            ("[landweber]\nlog_every = -1\n", "log_every"),
            ("[noise]\nlevel = nan\n", "level"),
            ("[admissible]\nc4 = inf\n", "c4"),
            ("[frequencies]\nomega_hi = inf\n", "omega_hi"),
            ("[phantom]\ninclusions =\n    0.5 0.5 0.15 nan 0.1\n", "inclusions"),
            ("[phantom]\ninclusions =\n    0.5 0.5 0 0.5 0.1\n", r"\[phantom\] inclusions"),
            ("[phantom]\ninclusions =\n    0.5 0.5 -0.15 0.5 0.1\n", r"\[phantom\] inclusions"),
            ("[noise]\nseed = -1\n", r"\[noise\] seed"),
        ],
    )
    def test_non_finite_or_out_of_range_value_names_key(self, text, key):
        with pytest.raises(ConfigError, match=key):
            parse_config_text(text)

    def test_malformed_inclusion_line(self):
        with pytest.raises(ConfigError, match="inclusions"):
            parse_config_text("[phantom]\ninclusions =\n    0.5 0.5 0.15\n")


class TestCli:
    @pytest.fixture()
    def constant_cfg(self, tmp_path):
        path = tmp_path / "run.cfg"
        cfg = RunConfig(
            n=17,
            c0=0.2,
            n_freq=3,
            refinement=1,
            phantom=PhantomSpec(),
            x0="background",
            max_iters=50,
            output_dir=str(tmp_path / "out"),
        )
        path.write_text(serialize_config(cfg))
        return str(path), str(tmp_path / "out")

    def test_coverage_prints_interval_length(self, constant_cfg, capsys):
        path, out = constant_cfg
        assert main(["coverage", "--config", path]) == 0
        captured = capsys.readouterr().out
        lam = float(captured.split("lambda =")[1].split()[0])
        assert lam == pytest.approx(1.0, abs=1e-10)

    def test_simulate_then_reconstruct_constant(self, constant_cfg, capsys):
        path, out = constant_cfg
        assert main(["simulate", "--config", path]) == 0
        assert main(["reconstruct", "--config", path, "--data", os.path.join(out, "dataset")]) == 0
        captured = capsys.readouterr().out
        iters = int(captured.split("finished after")[1].split()[0])
        assert iters <= 11
        assert os.path.exists(os.path.join(out, "trajectory.csv"))

    def test_check_gradient_passes(self, tmp_path, capsys):
        cfg = RunConfig(
            n=17, c0=0.2, n_freq=2, refinement=2, phantom=ONE_BUMP,
            output_dir=str(tmp_path / "out"),
        )
        path = tmp_path / "bump.cfg"
        path.write_text(serialize_config(cfg))
        assert main(["check-gradient", "--config", str(path), "--directions", "2"]) == 0
        assert "max relative error" in capsys.readouterr().out

    def test_init_guess_writes_fields(self, tmp_path):
        cfg = RunConfig(n=17, c0=0.2, n_freq=2, refinement=2, phantom=ONE_BUMP,
                        output_dir=str(tmp_path / "out"))
        path = tmp_path / "run.cfg"
        path.write_text(serialize_config(cfg))
        assert main(["simulate", "--config", str(path)]) == 0
        data_dir = str(tmp_path / "out" / "dataset")
        assert main(["init-guess", "--config", str(path), "--data", data_dir]) == 0
        sigma, _ = read_field(str(tmp_path / "out" / "sigma_init"))
        assert sigma.shape == (17, 17)

    def test_reconstruct_reuses_start_factorizations(self, tmp_path, monkeypatch):
        # init guess 1 + coverage 9 + step-size estimate 9 + 9 per step
        # after the first, which reuses the estimate's forward states
        import scipy.sparse.linalg as spla

        iters = 2
        cfg = RunConfig(n=17, c0=0.2, refinement=1, phantom=ONE_BUMP, max_iters=iters,
                        stop_tol=0.0, allow_low_coverage=True, output_dir=str(tmp_path / "out"))
        path = tmp_path / "run.cfg"
        path.write_text(serialize_config(cfg))
        assert main(["simulate", "--config", str(path)]) == 0
        calls = []
        splu = spla.splu
        monkeypatch.setattr(spla, "splu", lambda *a, **k: calls.append(1) or splu(*a, **k))
        data_dir = str(tmp_path / "out" / "dataset")
        assert main(["reconstruct", "--config", str(path), "--data", data_dir]) == 0
        assert cfg.mu is None and cfg.n_freq == 9
        assert len(calls) == 9 * (iters + 1) + 1

    def test_malformed_config_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[grid]\nn = banana\n")
        assert main(["coverage", "--config", str(bad)]) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_grid_mismatch_exits_2(self, tmp_path, constant_cfg):
        path, out = constant_cfg
        assert main(["simulate", "--config", path]) == 0
        other = RunConfig(n=33, c0=0.2, output_dir=str(tmp_path / "o2"))
        other_path = tmp_path / "other.cfg"
        other_path.write_text(serialize_config(other))
        rc = main(["reconstruct", "--config", str(other_path), "--data", os.path.join(out, "dataset")])
        assert rc == 2

    def test_coverage_gate_refuses_and_override_works(self, tmp_path, capsys):
        base = dict(n=17, c0=0.2, n_freq=2, refinement=1, phantom=PhantomSpec(),
                    x0="background", max_iters=12)
        gated = RunConfig(**base, lambda_min=10.0, output_dir=str(tmp_path / "g"))
        gated_path = tmp_path / "gated.cfg"
        gated_path.write_text(serialize_config(gated))
        assert main(["reconstruct", "--config", str(gated_path)]) == 2
        assert "coverage lambda" in capsys.readouterr().err

        forced = RunConfig(**base, lambda_min=10.0, allow_low_coverage=True,
                           output_dir=str(tmp_path / "f"))
        forced_path = tmp_path / "forced.cfg"
        forced_path.write_text(serialize_config(forced))
        assert main(["reconstruct", "--config", str(forced_path)]) == 0
