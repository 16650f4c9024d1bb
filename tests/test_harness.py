import configparser
import dataclasses
import io
import os
import re
import shutil

import numpy as np
import pytest
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

from mfeit import RunConfig, PhantomSpec, Inclusion
from mfeit.admissible import AdmissibleParams
from mfeit.cli import main
from mfeit.config import _SCHEMA, ConfigError, parse_config, parse_config_text, serialize_config
from mfeit.fieldio import (
    read_dataset,
    read_field,
    write_dataset,
    write_field,
    write_field_csv,
    write_trajectory_csv,
)
from mfeit.landweber import IterationRecord, LandweberConfig
from mfeit.mesh import build_grid, l2_norm_sq
from mfeit.objective import FrequencyGrid
from mfeit import pde
from mfeit.pde import blas_thread_controls, map_frequencies
from mfeit.phantom import add_noise, make_phantom, phantom_id, synthesize_data

from helpers import ONE_BUMP, TWO_BUMPS, CountingLU, write_field_csv_per_node


class TestMakePhantom:
    def test_empty_spec_is_background(self):
        g = build_grid(17, 0.2)
        a = make_phantom(PhantomSpec(), g, AdmissibleParams(sigma0=1.5, eps0=0.8))
        assert np.all(a.sigma == 1.5)
        assert np.all(a.eps == 0.8)

    def test_amplitude_reached_at_center_node(self):
        g = build_grid(65, 0.2)  # odd n: (0.5, 0.5) is a node
        a = make_phantom(PhantomSpec(inclusions=[Inclusion(0.5, 0.5, 0.15, 0.5, 0.2)]), g, AdmissibleParams())
        assert np.max(a.sigma) == pytest.approx(1.5, abs=1e-14)
        i = np.argmax(np.abs(g.xs - 0.5) < 1e-12)
        assert a.sigma[i, i] == pytest.approx(1.5, abs=1e-14)

    def test_rejects_bound_violation(self):
        g = build_grid(33, 0.2)
        with pytest.raises(ValueError, match="admissible"):
            make_phantom(PhantomSpec(inclusions=[Inclusion(0.5, 0.5, 0.15, 20.0, 0.0)]), g, AdmissibleParams())

    def test_rejects_support_violation(self):
        g = build_grid(33, 0.2)
        with pytest.raises(ValueError, match="interior"):
            make_phantom(PhantomSpec(inclusions=[Inclusion(0.3, 0.3, 0.15, 0.5, 0.1)]), g, AdmissibleParams())

    @pytest.mark.parametrize("radius", [0.0, -0.1, float("nan"), float("inf")])
    def test_rejects_nonpositive_or_non_finite_radius(self, radius):
        g = build_grid(17, 0.2)
        with pytest.raises(ValueError, match="radius"):
            make_phantom(PhantomSpec(inclusions=[Inclusion(0.5, 0.5, radius, 0.5, 0.2)]), g, AdmissibleParams())

    @pytest.mark.parametrize("cx, cy", [(float("nan"), 0.5), (0.5, float("nan")), (float("inf"), 0.5)])
    def test_rejects_non_finite_center(self, cx, cy):
        # a NaN center would give the plain background while phantom_id still names the bump
        g = build_grid(17, 0.2)
        with pytest.raises(ValueError, match="center"):
            make_phantom(PhantomSpec(inclusions=[Inclusion(cx, cy, 0.1, 0.5, 0.2)]), g, AdmissibleParams())


class TestPhantomId:
    def test_default_phantom(self):
        spec = parse_config(DEFAULT_CFG).phantom
        expected = "bg(1,1)+bump(0.45,0.5,0.15,0.8,-0.3)+bump(0.65,0.6,0.12,-0.4,0.6)"
        assert phantom_id(spec, AdmissibleParams()) == expected

    def test_close_phantoms_get_distinct_ids(self):
        # rounded to 6 significant digits, both centers would read 0.45
        a = PhantomSpec(inclusions=[Inclusion(0.45, 0.5, 0.15, 0.8, -0.3)])
        b = PhantomSpec(inclusions=[Inclusion(0.4500001, 0.5, 0.15, 0.8, -0.3)])
        assert phantom_id(a, AdmissibleParams()) != phantom_id(b, AdmissibleParams())

    def test_background_comes_from_the_admissible_set(self):
        assert phantom_id(PhantomSpec(), AdmissibleParams(sigma0=1.5, eps0=2.0)) == "bg(1.5,2)"


class TestSynthesize:
    def test_constant_phantom_gives_coordinates(self):
        cfg = RunConfig(n=17, c0=0.2, n_freq=3, refinement=2, phantom=PhantomSpec())
        data = synthesize_data(cfg)
        g = data.grid
        for pair in data.potentials:
            assert np.max(np.abs(pair[0] - g.X)) < 1e-11
            assert np.max(np.abs(pair[1] - g.Y)) < 1e-11

    def test_refinement_matters_and_shrinks(self):
        diffs = []
        for n in (17, 33):
            c1 = RunConfig(n=n, c0=0.2, n_freq=1, refinement=1, phantom=ONE_BUMP)
            c2 = RunConfig(n=n, c0=0.2, n_freq=1, refinement=2, phantom=ONE_BUMP)
            d1 = synthesize_data(c1)
            d2 = synthesize_data(c2)
            diff = np.sqrt(l2_norm_sq(d1.grid, d1.potentials[0][0] - d2.potentials[0][0]))
            assert diff > 0.0
            diffs.append(diff)
        assert diffs[1] < diffs[0]

    def test_inverse_crime_flagged(self):
        cfg = RunConfig(n=17, c0=0.2, n_freq=1, refinement=1, phantom=PhantomSpec())
        data = synthesize_data(cfg)
        assert data.metadata["inverse_crime"] == 1

    def test_boundary_values_equal_traces_exactly(self):
        cfg = RunConfig(n=17, c0=0.2, n_freq=2, refinement=3, phantom=ONE_BUMP)
        data = synthesize_data(cfg)
        g = data.grid
        for pair in data.potentials:
            assert np.array_equal(g.trace(pair[0]), g.trace(g.X.astype(complex)))
            assert np.array_equal(g.trace(pair[1]), g.trace(g.Y.astype(complex)))


@pytest.fixture(scope="module")
def clean():
    cfg = RunConfig(n=65, c0=0.2, n_freq=2, refinement=1, phantom=ONE_BUMP)
    return synthesize_data(cfg)


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

    @pytest.mark.parametrize("level", [-0.01, np.nan, np.inf])
    def test_rejects_negative_or_non_finite_level(self, clean, level):
        # a NaN level returned the clean data labelled nan; an infinite one non-finite data
        with pytest.raises(ValueError, match="noise level"):
            add_noise(clean, level, 7)


class TestFieldIO:
    def test_complex_field_roundtrip(self, tmp_path):
        g = build_grid(17, 0.2)
        rng = np.random.default_rng(0)
        f = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
        base = str(tmp_path / "field")
        write_field(base, f, g)
        back = read_field(base)
        assert np.array_equal(back, f)
        meta = (tmp_path / "field.meta").read_text(encoding="utf-8").splitlines()
        assert "kind = complex" in meta and "c0 = 0.2" in meta

    def test_dataset_roundtrip_bitwise(self, tmp_path):
        cfg = RunConfig(n=17, c0=0.2, n_freq=3, refinement=2, phantom=ONE_BUMP)
        data = synthesize_data(cfg)
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
        data = synthesize_data(cfg)
        d1, d2 = str(tmp_path / "a"), str(tmp_path / "b")
        write_dataset(d1, data)
        write_dataset(d2, data)
        for name in sorted(os.listdir(d1)):
            with open(os.path.join(d1, name), "rb") as fa, open(os.path.join(d2, name), "rb") as fb:
                assert fa.read() == fb.read(), name

    def test_numpy_scalars_roundtrip_as_plain_floats(self, tmp_path):
        # a manifest written from numpy scalars reads back, byte for byte the one written from floats
        trees = []
        for cast in (float, np.float64):
            cfg = RunConfig(n=17, c0=cast(0.2), omega_lo=cast(1.0), omega_hi=cast(2.0), n_freq=2,
                            refinement=1, phantom=ONE_BUMP)
            data = add_noise(synthesize_data(cfg), cast(0.01), 3)
            target = tmp_path / cast.__name__
            write_dataset(str(target), data)
            back = read_dataset(str(target))
            assert back.grid.c0 == 0.2 and back.freqs.omega_hi == 2.0
            assert back.metadata["noise_level"] == "0.01"
            trees.append({p.name: p.read_bytes() for p in sorted(target.iterdir())})
        assert trees[0] == trees[1]

    @pytest.mark.parametrize("kind", ["real", "extreme", "int"])
    def test_csv_bytes_match_per_node_writer(self, tmp_path, kind):
        g = build_grid(17, 0.2)
        rng = np.random.default_rng(1)
        f = {
            "real": rng.standard_normal(g.shape),
            "extreme": rng.choice([1e300, -1e300, 1e-300, -1e-300, 5e-324, 0.0, -0.0], g.shape),
            "int": rng.integers(-5, 5, g.shape),
        }[kind]
        write_field_csv(str(tmp_path / "new.csv"), f, g)
        write_field_csv_per_node(str(tmp_path / "ref.csv"), f, g)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_csv_rejects_complex_field(self, tmp_path):
        # every CSV the commands write is real; a complex field is not cast
        g = build_grid(17, 0.2)
        path = tmp_path / "field.csv"
        with pytest.raises(ValueError, match="real field"):
            write_field_csv(str(path), g.X + 1j * g.Y, g)
        assert not path.exists()

    def test_trajectory_columns_are_the_record_fields(self, tmp_path):
        records = [IterationRecord(1, 0.5, 1e-300, 0.1, 0.0, 0.25),
                   IterationRecord(2, 0.25, 3.0, np.float64(0.05), -0.0, 1e-17)]
        path = tmp_path / "trajectory.csv"
        write_trajectory_csv(str(path), records)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0].split(",") == [f.name for f in dataclasses.fields(IterationRecord)]
        assert lines[1:] == ["1,0.5,1e-300,0.1,0.0,0.25", "2,0.25,3.0,0.05,-0.0,1e-17"]



def _set_manifest(section, key, value):
    """A mutation that replaces one manifest value ``old`` by ``value(old)``."""

    def mutate(data_dir):
        manifest = os.path.join(data_dir, "manifest.cfg")
        cp = configparser.ConfigParser()
        cp.read(manifest)
        cp[section][key] = value(cp[section][key])
        with open(manifest, "w") as fh:
            cp.write(fh)

    return mutate


def _append(name, data: bytes):
    def mutate(data_dir):
        with open(os.path.join(data_dir, name), "ab") as fh:
            fh.write(data)

    return mutate


def _truncate(name, nbytes):
    def mutate(data_dir):
        path = os.path.join(data_dir, name)
        os.truncate(path, os.path.getsize(path) - nbytes)

    return mutate


#: Dataset faults replayed through the CLI: mutation and the file it must be named at.
_DATASET_FAULTS = {
    "grid-n-empty": (_set_manifest("grid", "n", lambda old: ""), "manifest.cfg"),
    "grid-n-nan": (_set_manifest("grid", "n", lambda old: "nan"), "manifest.cfg"),
    "grid-n-negative": (_set_manifest("grid", "n", lambda old: "-3"), "manifest.cfg"),
    "grid-n-text": (_set_manifest("grid", "n", lambda old: "abc"), "manifest.cfg"),
    "weights-one-missing": (_set_manifest("frequencies", "weights", lambda old: old.split()[0]), "manifest.cfg"),
    "omega-lo-inf": (_set_manifest("frequencies", "omega_lo", lambda old: "inf"), "manifest.cfg"),
    "duplicate-meta": (_append("manifest.cfg", b"\n[meta]\nphantom = again\n"), "manifest.cfg"),
    "manifest-undecodable": (_append("manifest.cfg", b"# \xff\xfe\n"), "manifest.cfg"),
    "f64-truncated": (_truncate("u_000_c1.f64", 8), "u_000_c1.f64"),
    "meta-deleted": (lambda data_dir: os.remove(os.path.join(data_dir, "u_000_c1.meta")), "u_000_c1.meta"),
}


class TestDatasetValidation:
    """Malformed datasets are rejected where they are read, naming the file (exit 2).

    The replay test also runs a diverging step size, which exits 3.
    """

    @pytest.fixture(scope="class")
    def simulated(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("simulated")
        cfg = RunConfig(n=17, c0=0.2, n_freq=2, refinement=1, phantom=ONE_BUMP, output_dir=str(root / "out"))
        (root / "run.cfg").write_text(serialize_config(cfg))
        assert main(["simulate", "--config", str(root / "run.cfg")]) == 0
        return cfg, str(root / "out" / "dataset")

    @pytest.mark.parametrize("fault", [*_DATASET_FAULTS, "mu-1e300"])
    def test_replayed_fault_exits_2_or_3(self, simulated, tmp_path, capsys, fault):
        # one dataset fault (exit 2, naming its file) or the diverging step size
        # (exit 3) per case; no case may raise out of main
        cfg, source = simulated
        data_dir = str(tmp_path / "dataset")
        shutil.copytree(source, data_dir)
        path = tmp_path / "run.cfg"
        if fault == "mu-1e300":
            cfg = dataclasses.replace(cfg, mu=1e300, max_iters=2, stop_tol=0.0)
            commands, code, named = ["reconstruct"], 3, "diverged"
        else:
            mutate, name = _DATASET_FAULTS[fault]
            mutate(data_dir)
            commands, code, named = ["init-guess", "reconstruct", "check-gradient"], 2, os.path.join(data_dir, name)
        path.write_text(serialize_config(dataclasses.replace(cfg, output_dir=str(tmp_path / "out"))))
        capsys.readouterr()
        for command in commands:
            assert main([command, "--config", str(path), "--data", data_dir]) == code, command
            assert named in capsys.readouterr().err, command
        assert not os.path.exists(tmp_path / "out")

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
        u = read_field(base)
        u[8, 8] = np.nan
        write_field(base, u, build_grid(17, 0.2))
        self._rejects(path, data_dir, "u_000_c2", capsys)

    def test_boundary_traces_differ_between_frequencies(self, dataset, capsys):
        path, data_dir = dataset
        base = os.path.join(data_dir, "u_001_c2")
        u = read_field(base)
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

    @pytest.mark.parametrize("bad", ["17.0", "-3", "0"])
    def test_field_meta_with_malformed_n(self, dataset, capsys, bad):
        # each must be named at the .meta file, not at int() or at the .f64 size check
        path, data_dir = dataset
        meta = os.path.join(data_dir, "u_000_c1.meta")
        with open(meta) as fh:
            lines = [f"n = {bad}\n" if line.startswith("n =") else line for line in fh]
        with open(meta, "w") as fh:
            fh.writelines(lines)
        assert main(["reconstruct", "--config", path, "--data", data_dir]) == 2
        err = capsys.readouterr().err
        assert "validation error" in err and f"{meta}: n must be a positive integer, got {bad!r}" in err

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

    def test_manifest_non_finite_weights(self, dataset, capsys):
        # NaN weights pass every comparison of the frequency grid's checks
        path, data_dir = dataset
        self._edit_manifest(data_dir, lambda sec: sec.__setitem__("weights", "nan nan"))
        self._rejects(path, data_dir, "manifest.cfg", capsys)
        assert main(["reconstruct", "--config", path, "--data", data_dir]) == 2
        assert "quadrature weights must be finite" in capsys.readouterr().err

    def test_manifest_band_below_zero(self, dataset, capsys):
        # the initial guess divides by the band midpoint, zero here
        path, data_dir = dataset
        band = {"omega_lo": "-2.0", "omega_hi": "2.0", "nodes": "-2.0 2.0", "weights": "2.0 2.0"}
        self._edit_manifest(data_dir, lambda sec: sec.update(band))
        self._rejects(path, data_dir, "manifest.cfg", capsys)
        assert main(["reconstruct", "--config", path, "--data", data_dir]) == 2
        assert "0 <= omega_lo < omega_hi" in capsys.readouterr().err

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

    def test_manifest_with_duplicate_section(self, dataset, capsys):
        # configparser rejects the file while reading it, before any value is read
        path, data_dir = dataset
        with open(os.path.join(data_dir, "manifest.cfg"), "a") as fh:
            fh.write("\n[meta]\nphantom = again\n")
        self._rejects(path, data_dir, "manifest.cfg", capsys)


DEFAULT_CFG = os.path.join(os.path.dirname(__file__), "..", "configs", "default.cfg")
README = os.path.join(os.path.dirname(__file__), "..", "README.md")


def _finite(lo=-1e6, hi=1e6):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def _run_configs(draw):
    """Valid run configurations: every key set, inclusions and ``mu`` included."""
    c1 = draw(_finite(0.01, 0.5))
    c2 = draw(_finite(5.0, 20.0))
    admissible = AdmissibleParams(
        sigma0=draw(_finite(1.0, 4.0)), eps0=draw(_finite(1.0, 4.0)), c1=c1, c2=c2,
        c4=draw(_finite(0.5, 50.0)),
    )
    inclusion = st.builds(Inclusion, _finite(), _finite(), _finite(1e-3, 0.5), _finite(), _finite())
    omega_lo = draw(_finite(0.1, 2.0))
    n = draw(st.integers(9, 65))
    return RunConfig(
        n=n,
        c0=draw(_finite(0.01, 0.49 - 0.5 / (n - 1))),  # a node inside the interior region
        admissible=admissible,
        omega_lo=omega_lo,
        omega_hi=omega_lo + draw(_finite(0.1, 5.0)),
        n_freq=draw(st.integers(1, 12)),
        phantom=PhantomSpec(draw(st.lists(inclusion, max_size=3))),
        mu=draw(st.none() | _finite(1e-6, 1e3)),
        max_iters=draw(st.integers(1, 10_000)),
        stop_tol=draw(_finite(0.0, 1.0)),
        x0=draw(st.sampled_from(["initguess", "background"])),
        lambda_min=draw(_finite()),
        noise_level=draw(_finite(0.0, 1.0)),
        noise_seed=draw(st.integers(0, 2**31)),
        refinement=draw(st.sampled_from([1, 2, 3])),
        output_dir=draw(st.text("ab/_.%1", max_size=10).map(lambda s: f"runs/{s}%")),
    )


class TestConfig:
    @settings(
        max_examples=200,
        deadline=None,
        database=None,
        derandomize=True,
        phases=[Phase.generate],
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(cfg=_run_configs())
    def test_roundtrip_property(self, cfg):
        assert parse_config_text(serialize_config(cfg)) == cfg

    def test_default_file_is_its_own_serialization(self):
        with open(DEFAULT_CFG, encoding="utf-8") as fh:
            text = fh.read()
        assert serialize_config(parse_config(DEFAULT_CFG)) == text

    @staticmethod
    def _shows_every_key_at_its_default(text: str) -> RunConfig:
        """Check that ``text`` lists exactly the schema's sections and keys, each at its default."""
        cp = configparser.ConfigParser(inline_comment_prefixes=("#",), interpolation=None)
        cp.read_string(text)
        assert {s: cp.options(s) for s in cp.sections()} == {s: list(keys) for s, keys in _SCHEMA.items()}
        # the inclusions shown are the default file's phantom; the default is none
        shown = parse_config_text(text)
        assert shown == RunConfig(phantom=shown.phantom)
        return shown

    def test_readme_block_shows_every_key_at_its_default(self):
        with open(README, encoding="utf-8") as fh:
            block = fh.read().split("```ini\n", 1)[1].split("```", 1)[0]
        shown = self._shows_every_key_at_its_default(block)
        assert shown.phantom == parse_config(DEFAULT_CFG).phantom

    def test_default_file_shows_every_key_at_its_default(self):
        with open(DEFAULT_CFG, encoding="utf-8") as fh:
            self._shows_every_key_at_its_default(fh.read())

    def test_schema_names_every_field_once(self):
        # a field left out of the key table would never reach the file
        attrs = [attr for keys in _SCHEMA.values() for attr in keys.values()]
        assert len(set(attrs)) == len(attrs)
        assert {a.split(".")[0] for a in attrs} == {f.name for f in dataclasses.fields(RunConfig)}
        for owner, spec in (("admissible", AdmissibleParams), ("phantom", PhantomSpec)):
            nested = {a.split(".")[1] for a in attrs if a.startswith(owner + ".")}
            assert nested == {f.name for f in dataclasses.fields(spec)}

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[initguess]\nper_frequency_eps = false\n", "unknown section [initguess]"),
            ("[initguess]\npinv_tol = 1e-08\n", "unknown section [initguess]"),
            ("[phantom]\nsigma0 = 1.0\n", "unknown key 'sigma0' in section [phantom]"),
            ("[phantom]\neps0 = 1.0\n", "unknown key 'eps0' in section [phantom]"),
            ("[landweber]\nallow_low_coverage = true\n", "unknown key 'allow_low_coverage' in section [landweber]"),
            ("[landweber]\nlog_every = 10\n", "unknown key 'log_every' in section [landweber]"),
            ("[admissible]\ndelta = 0.001\n", "unknown key 'delta' in section [admissible]"),
            ("[admissible]\nsmooth_width = 2.0\n", "unknown key 'smooth_width' in section [admissible]"),
            ("[admissible]\nsmooth_passes = 2\n", "unknown key 'smooth_passes' in section [admissible]"),
            ("[boundary]\nphi = coords\n", "unknown section [boundary]"),
        ],
    )
    def test_removed_key_is_unknown(self, text, message, tmp_path, capsys):
        with pytest.raises(ConfigError, match=re.escape(message)):
            parse_config_text(text)
        path = tmp_path / "run.cfg"
        path.write_text(text)
        assert main(["coverage", "--config", str(path)]) == 2
        assert f"configuration error: {message}" in capsys.readouterr().err

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

    def test_numpy_float_roundtrip(self):
        # numpy scalars are written as plain decimals, not as "np.float64(...)"
        for cast in (np.float64, np.float32):
            cfg = RunConfig(c0=cast(0.25), mu=cast(0.1), noise_level=cast(0.015),
                            phantom=PhantomSpec(inclusions=[Inclusion(*map(cast, (0.5, 0.5, 0.15, 0.5, 0.3)))]))
            text = serialize_config(cfg)
            assert "np." not in text
            assert parse_config_text(text) == cfg

    def test_auto_mu_roundtrip(self):
        cfg = RunConfig(mu=None)
        assert parse_config_text(serialize_config(cfg)).mu is None

    def test_percent_sign_in_value_roundtrip(self):
        # values are read literally: no "%(name)s" interpolation
        cfg = RunConfig(output_dir="runs/50%1")
        assert parse_config_text(serialize_config(cfg)) == cfg

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
            ("[noise]\nlevel = nan\n", "level"),
            ("[admissible]\nc4 = inf\n", "c4"),
            ("[frequencies]\nomega_hi = inf\n", "omega_hi"),
            ("[frequencies]\nomega_lo = -1\n", "omega_lo"),
            ("[phantom]\ninclusions =\n    0.5 0.5 0.15 nan 0.1\n", "inclusions"),
            ("[phantom]\ninclusions =\n    0.5 0.5 0 0.5 0.1\n", r"\[phantom\] inclusions"),
            ("[phantom]\ninclusions =\n    0.5 0.5 -0.15 0.5 0.1\n", r"\[phantom\] inclusions"),
            ("[noise]\nseed = -1\n", r"\[noise\] seed"),
        ],
    )
    def test_non_finite_or_out_of_range_value_names_key(self, text, key):
        with pytest.raises(ConfigError, match=key):
            parse_config_text(text)

    @pytest.mark.parametrize(
        "build, name",
        [
            (lambda: LandweberConfig(max_iters=True), "max_iters"),
            (lambda: RunConfig(n=17.0).validate(), "grid size n"),
            (lambda: RunConfig(n_freq=True).validate(), r"\[frequencies\] count"),
            (lambda: RunConfig(refinement=True).validate(), r"\[data\] refinement"),
            (lambda: RunConfig(noise_seed=1.5).validate(), r"\[noise\] seed"),
            (lambda: FrequencyGrid.uniform(1.0, 2.0, 2.5), "frequency count"),
        ],
        ids=["max_iters-bool", "n-float", "n_freq-bool", "refinement-bool", "noise_seed-float", "count-float"],
    )
    def test_bool_or_non_integer_setting_names_field(self, build, name):
        # a bool is an Integral to Python, and a float count would fail later in range() or linspace()
        with pytest.raises(ValueError, match=name + " must be an integer"):
            build()

    def test_malformed_inclusion_line(self):
        with pytest.raises(ConfigError, match="inclusions"):
            parse_config_text("[phantom]\ninclusions =\n    0.5 0.5 0.15\n")


#: A small run whose outputs each config key can change.
_LIVE_BASE = serialize_config(RunConfig(
    n=17, n_freq=3, refinement=1, phantom=PhantomSpec([Inclusion(0.5, 0.5, 0.15, -0.3, 0.5)]),
    max_iters=12, stop_tol=0.0, noise_level=0.01,
))

#: One valid alternative to ``_LIVE_BASE``'s value of every config key.
_ALTERNATIVES = {
    ("grid", "n"): "21",
    ("grid", "c0"): "0.25",
    ("admissible", "sigma0"): "1.5",
    ("admissible", "eps0"): "1.5",
    ("admissible", "c1"): "0.8",  # above the phantom's sigma minimum of 0.7: simulate exits 2
    ("admissible", "c2"): "1.505",
    ("admissible", "c4"): "1.0",
    ("frequencies", "omega_lo"): "0.5",
    ("frequencies", "omega_hi"): "3.0",
    ("frequencies", "count"): "4",
    ("phantom", "inclusions"): "\n0.5 0.5 0.15 0.3 0.2",
    ("landweber", "mu"): "0.1",
    ("landweber", "max_iters"): "5",
    ("landweber", "stop_tol"): "1",
    ("landweber", "x0"): "background",
    ("landweber", "lambda_min"): "10",
    ("noise", "level"): "0.02",
    ("noise", "seed"): "5",
    ("data", "refinement"): "2",
    ("output", "dir"): "elsewhere",
}


def _run_outcome(text: str, root) -> tuple:
    """Exit statuses of simulate, coverage and reconstruct --data, and every file they write under ``root``."""
    root.mkdir()
    path = root.parent / (root.name + ".cfg")
    path.write_text(text)
    data = os.path.join(parse_config_text(text).output_dir, "dataset")
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(root)
        codes = tuple(main(argv + ["--config", str(path)])
                      for argv in (["simulate"], ["coverage"], ["reconstruct", "--data", data]))
    files = {f.relative_to(root): f.read_bytes() for f in sorted(root.rglob("*")) if f.is_file()}
    return codes, files


class TestEveryKeyIsLive:
    """Each config key can change a run: its outputs, where they land, or an exit status."""

    @pytest.fixture(scope="class")
    def base(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("live")
        outcome = _run_outcome(_LIVE_BASE, root / "base")
        assert outcome[0] == (0, 0, 0)
        # a rerun matches, so a difference below comes from the key
        assert _run_outcome(_LIVE_BASE, root / "rerun") == outcome
        return outcome

    @pytest.mark.parametrize("section, key", [(s, k) for s, keys in _SCHEMA.items() for k in keys])
    def test_alternative_value_changes_the_run(self, section, key, base, tmp_path):
        cp = configparser.ConfigParser(interpolation=None)
        cp.read_string(_LIVE_BASE)
        cp[section][key] = _ALTERNATIVES[section, key]
        buf = io.StringIO()
        cp.write(buf)
        text = buf.getvalue()
        assert parse_config_text(text) != parse_config_text(_LIVE_BASE)
        assert _run_outcome(text, tmp_path / "alt") != base


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

    @pytest.mark.parametrize("command", ["simulate", "coverage"])
    def test_data_rejected_by_commands_that_read_no_dataset(self, constant_cfg, tmp_path, command, capsys):
        path, out = constant_cfg
        with pytest.raises(SystemExit) as info:
            main([command, "--config", path, "--data", str(tmp_path / "nonexistent")])
        assert info.value.code == 2
        assert "--data" in capsys.readouterr().err
        assert not os.path.exists(out)

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
        # the data are the background's, so the first step is round-off (about 1e-15 of |x|)
        assert iters == 1
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

    @pytest.mark.parametrize(
        "option",
        ["--directions=0", "--directions=-3", "--tol=nan", "--tol=inf", "--tol=0", "--tol=-1e-4"],
    )
    def test_check_gradient_rejects_bad_option(self, constant_cfg, capsys, option):
        # zero directions check nothing, and a NaN tolerance passes any error
        path, _ = constant_cfg
        assert main(["check-gradient", "--config", path, option]) == 2
        captured = capsys.readouterr()
        assert option.split("=")[0] in captured.err
        assert "max relative error" not in captured.out

    def test_init_guess_writes_fields(self, tmp_path):
        cfg = RunConfig(n=17, c0=0.2, n_freq=2, refinement=2, phantom=ONE_BUMP,
                        output_dir=str(tmp_path / "out"))
        path = tmp_path / "run.cfg"
        path.write_text(serialize_config(cfg))
        assert main(["simulate", "--config", str(path)]) == 0
        data_dir = str(tmp_path / "out" / "dataset")
        assert main(["init-guess", "--config", str(path), "--data", data_dir]) == 0
        sigma = read_field(str(tmp_path / "out" / "sigma_init"))
        assert sigma.shape == (17, 17)

    def test_diverging_reconstruct_exits_3(self, tmp_path, capsys):
        # mu = 1e300 passes LandweberConfig; the first iterate's norm overflows
        cfg = RunConfig(n=17, c0=0.2, n_freq=3, refinement=1, phantom=ONE_BUMP, mu=1e300, max_iters=2,
                        stop_tol=0.0, output_dir=str(tmp_path / "out"))
        path = tmp_path / "run.cfg"
        path.write_text(serialize_config(cfg))
        assert main(["simulate", "--config", str(path)]) == 0
        capsys.readouterr()
        assert main(["reconstruct", "--config", str(path), "--data", str(tmp_path / "out" / "dataset")]) == 3
        err = capsys.readouterr().err
        assert "diverged" in err and "(Landweber iteration 1)" in err
        assert not os.path.exists(tmp_path / "out" / "trajectory.csv")

    @pytest.mark.parametrize("mu, iteration", [(100.0, 2), (5.0, 3)])
    def test_rising_misfit_exits_3(self, tmp_path, capsys, mu, iteration):
        # the automatic mu is about 1.35; at these, J rises above its first
        # value (to 2.1e-2 at iteration 2 for mu = 100, 3.3e-4 at 3 for mu = 5)
        cfg = RunConfig(n=17, c0=0.2, n_freq=3, refinement=1,
                        phantom=PhantomSpec([Inclusion(0.5, 0.5, 0.15, 0.5, -0.3)]), mu=mu, max_iters=4,
                        stop_tol=0.0, output_dir=str(tmp_path / "out"))
        path = tmp_path / "run.cfg"
        path.write_text(serialize_config(cfg))
        assert main(["simulate", "--config", str(path)]) == 0
        capsys.readouterr()
        assert main(["reconstruct", "--config", str(path), "--data", str(tmp_path / "out" / "dataset")]) == 3
        err = capsys.readouterr().err
        assert "exceeds the first step's 1.107078e-04" in err and f"(Landweber iteration {iteration})" in err
        assert sorted(os.listdir(tmp_path / "out")) == ["dataset"]

    def test_reconstruct_reuses_start_factorizations(self, tmp_path, monkeypatch):
        # factorizations: coverage 1 + step-size estimate 9 + 9 per step
        # after the first, which reuses the estimate's forward states; the
        # initial guess factors nothing.  Solves: 72 for the 4 Lanczos
        # applications of the normal operator, 18 per step (forward and
        # adjoint) and the coverage sweep's k + 1; each passes the gate on
        # its first triangular solve
        iters = 2
        cfg = RunConfig(n=17, c0=0.2, refinement=1, phantom=ONE_BUMP, max_iters=iters,
                        stop_tol=0.0, lambda_min=0.0, output_dir=str(tmp_path / "out"))
        path = tmp_path / "run.cfg"
        path.write_text(serialize_config(cfg))
        assert main(["simulate", "--config", str(path)]) == 0
        made = []
        factor = pde.factor
        monkeypatch.setattr(pde, "factor", lambda *a, **k: made.append(CountingLU(factor(*a, **k))) or made[-1])
        data_dir = str(tmp_path / "out" / "dataset")
        assert main(["reconstruct", "--config", str(path), "--data", data_dir]) == 0
        assert cfg.mu is None and cfg.n_freq == 9
        assert len(made) == 9 * iters + 1
        assert sum(lu.solves for lu in made) == 114

    def test_init_guess_makes_no_factorization(self, tmp_path, monkeypatch):
        cfg = RunConfig(n=17, c0=0.2, refinement=1, phantom=ONE_BUMP, output_dir=str(tmp_path / "out"))
        path = tmp_path / "run.cfg"
        path.write_text(serialize_config(cfg))
        assert main(["simulate", "--config", str(path)]) == 0
        made = []
        factor = pde.factor
        monkeypatch.setattr(pde, "factor", lambda *a, **k: made.append(1) or factor(*a, **k))
        assert main(["init-guess", "--config", str(path), "--data", str(tmp_path / "out" / "dataset")]) == 0
        assert made == []

    def test_cli_import_does_not_load_scipy_fft(self):
        # scipy.fft takes about 90 ms to import; the sine transform uses numpy.fft.
        # scipy.sparse, scipy.sparse.linalg and scipy.linalg take about 0.2 s:
        # pde loads SuperLU and the sparse kernels from their files instead
        import subprocess
        import sys

        import mfeit

        src = os.path.dirname(os.path.dirname(mfeit.__file__))
        code = (
            "import sys, mfeit.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[:2] in (['scipy', 'fft'], ['scipy', 'linalg']) "
            "or m in ('scipy.sparse', 'scipy.sparse.linalg')))"
        )
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "[]"

    def test_coverage_makes_one_factorization(self, tmp_path, monkeypatch):
        # the shifted sweep: one 4-column solve, then one per Krylov step
        cfg = RunConfig(n=17, c0=0.2, phantom=ONE_BUMP, output_dir=str(tmp_path / "out"))
        path = tmp_path / "run.cfg"
        path.write_text(serialize_config(cfg))
        made = []
        factor = pde.factor
        monkeypatch.setattr(pde, "factor", lambda *a, **k: made.append(CountingLU(factor(*a, **k))) or made[-1])
        assert main(["coverage", "--config", str(path)]) == 0
        assert cfg.n_freq == 9
        assert len(made) == 1
        assert made[0].solves == 7

    def test_factorizations_destroyed_on_the_thread_that_made_them(self, tmp_path, monkeypatch):
        # scipy returns a SuperLU factor's memory only when the factor is
        # freed on the thread that made it; elsewhere the memory leaks
        import gc
        import threading

        made, freed = {}, {}
        factor = pde.factor

        class Tracked:
            def __init__(self, lu):
                self.lu = lu
                self.key = len(made)
                made[self.key] = threading.get_ident()

            def solve(self, rhs):
                return self.lu.solve(rhs)

            def __del__(self):
                freed[self.key] = threading.get_ident()

        cfg = RunConfig(n=17, c0=0.2, refinement=1, phantom=ONE_BUMP, max_iters=3,
                        stop_tol=0.0, lambda_min=0.0, output_dir=str(tmp_path / "out"))
        path = tmp_path / "run.cfg"
        path.write_text(serialize_config(cfg))
        monkeypatch.setenv("MFEIT_THREADS", "2")
        monkeypatch.setattr(pde, "factor", lambda *a, **k: Tracked(factor(*a, **k)))

        def settle():
            gc.collect()
            map_frequencies(lambda k: k, range(2))  # one task per worker, queued after every release

        # simulate's sweep factors on the main thread and frees its factor there
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "sim")]) == 0
        settle()
        assert len(made) == 1 and set(made.values()) == {threading.get_ident()}
        assert freed == made
        # a one-step sweep hands every frequency but the mid-band one, which
        # that step solves exactly, to the workers
        monkeypatch.setattr(pde, "SWEEP_STEPS", 1)
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "fallback")]) == 0
        settle()
        assert len(made) == 2 + 8
        assert len(set(made.values())) == 3
        assert freed == made
        assert main(["reconstruct", "--config", str(path)]) == 0
        settle()
        assert len(made) > 20
        assert freed == made
        assert len(set(made.values())) == 3  # the main thread and both workers made factors

    def test_outputs_do_not_depend_on_thread_count(self, tmp_path, monkeypatch):
        # refinement 2 synthesizes at n=129, where OpenBLAS's own threads engage
        controls = blas_thread_controls()
        found = [get() for get, _ in controls]
        trees = []
        for threads in ("1", "2"):
            monkeypatch.setenv("MFEIT_THREADS", threads)
            out = tmp_path / f"t{threads}"
            cfg = RunConfig(n=65, refinement=2, phantom=TWO_BUMPS, max_iters=3, stop_tol=0.0,
                            output_dir=str(out))
            path = tmp_path / f"t{threads}.cfg"
            path.write_text(serialize_config(cfg))
            assert main(["simulate", "--config", str(path), "--out", str(out / "sim")]) == 0
            assert main(["reconstruct", "--config", str(path), "--out", str(out / "rec")]) == 0
            assert main(["coverage", "--config", str(path), "--out", str(out / "cov")]) == 0
            trees.append({
                p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()
            })
            held = map_frequencies(lambda k: [get() for get, _ in controls], range(2))
            assert held == [[1] * len(controls)] * 2
            assert [get() for get, _ in controls] == found
        assert len(trees[0]) > 10
        assert trees[0] == trees[1]

    def test_malformed_config_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[grid]\nn = banana\n")
        assert main(["coverage", "--config", str(bad)]) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_unusable_paths_exit_2_naming_the_path(self, tmp_path, capsys):
        afile = tmp_path / "afile"
        afile.write_text("")
        cfg = tmp_path / "s.cfg"
        cfg.write_text(serialize_config(RunConfig(n=17)))
        for argv, path in (
            (["coverage", "--config", str(cfg), "--out", str(afile)], afile),  # an existing file as --out
            (["coverage", "--config", str(tmp_path)], tmp_path),  # a directory as --config
        ):
            assert main(argv) == 2
            assert str(path) in capsys.readouterr().err

    def test_grid_without_interior_node_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[grid]\nn = 10\nc0 = 0.45\n")
        assert main(["simulate", "--config", str(bad), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and "n=10" in err and "c0=0.45" in err
        assert not os.path.exists(tmp_path / "out")

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
        err = capsys.readouterr().err
        assert "coverage lambda" in err and "lambda_min = 0" in err

        forced = RunConfig(**base, lambda_min=0.0, output_dir=str(tmp_path / "f"))
        forced_path = tmp_path / "forced.cfg"
        forced_path.write_text(serialize_config(forced))
        assert main(["reconstruct", "--config", str(forced_path)]) == 0

    def test_coverage_gate_refuses_nan_lambda(self, tmp_path, capsys, monkeypatch):
        import mfeit.cli
        from mfeit.properbc import CoverageMap

        cfg = RunConfig(n=17, c0=0.2, n_freq=2, refinement=1, phantom=PhantomSpec(),
                        x0="background", max_iters=2, output_dir=str(tmp_path / "out"))
        path = tmp_path / "run.cfg"
        path.write_text(serialize_config(cfg))
        monkeypatch.setattr(mfeit.cli, "coverage_lambda", lambda *a: CoverageMap(m=None, lam=float("nan")))
        assert main(["reconstruct", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "coverage lambda nan below threshold" in err
        assert not os.path.exists(tmp_path / "out" / "trajectory.csv")
