"""Binary field files, dataset directories, and CSV export.

A field file ``<name>.f64`` holds flat little-endian float64 values in
row-major node order: one plane for a real field, the real plane followed
by the imaginary plane for a complex field.  A text sidecar ``<name>.meta``
records the grid and the layout as sorted ``key = value`` lines.  Datasets
are directories with one complex field file per frequency and component
plus a ``manifest.cfg``.  All writes are deterministic: identical inputs
produce byte-identical files.
"""

from __future__ import annotations

import configparser
import dataclasses
import os

import numpy as np

from .landweber import IterationRecord
from .mesh import Grid, build_grid
from .objective import Dataset, FrequencyGrid


def format_number(value) -> str:
    """Text of a value in a written file: the shortest exact decimal of a float or NumPy float."""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_field(base: str, values: np.ndarray, grid: Grid) -> None:
    """Write ``<base>.f64`` and its ``<base>.meta`` sidecar."""
    values = np.asarray(values)
    complex_field = np.iscomplexobj(values)
    planes = [values.real] if not complex_field else [values.real, values.imag]
    with open(base + ".f64", "wb") as fh:
        for plane in planes:
            fh.write(np.ascontiguousarray(plane, dtype="<f8").tobytes())
    lines = {
        "kind": "complex" if complex_field else "real",
        "n": grid.n,
        "c0": grid.c0,
        "order": "row-major",
        "dtype": "float64-le",
    }
    with open(base + ".meta", "w", encoding="utf-8") as fh:
        for key in sorted(lines):
            fh.write(f"{key} = {format_number(lines[key])}\n")


def read_field(base: str) -> np.ndarray:
    """The (n, n) field, real or complex, of a file pair written by ``write_field``.

    The ``.meta`` sidecar must hold a positive integer ``n`` and the
    ``.f64`` file exactly the values its ``kind`` calls for; a ValueError
    naming the file is raised otherwise.
    """
    meta: dict = {}
    with open(base + ".meta", "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            key, _, value = line.partition("=")
            meta[key.strip()] = value.strip()
    if "n" not in meta:
        raise ValueError(f"{base}.meta: no 'n' line")
    n = int(meta["n"]) if meta["n"].isascii() and meta["n"].isdigit() else 0
    if n < 1:
        raise ValueError(f"{base}.meta: n must be a positive integer, got {meta['n']!r}")
    raw = np.fromfile(base + ".f64", dtype="<f8")
    if meta.get("kind") == "complex":
        if raw.size != 2 * n * n:
            raise ValueError(f"{base}.f64: expected {2*n*n} values, found {raw.size}")
        return raw[: n * n].reshape(n, n) + 1j * raw[n * n :].reshape(n, n)
    if raw.size != n * n:
        raise ValueError(f"{base}.f64: expected {n*n} values, found {raw.size}")
    return raw.reshape(n, n)


def write_field_csv(path: str, values: np.ndarray, grid: Grid) -> None:
    """CSV export of a real nodal field: i, j, x, y, value columns.

    A complex field raises ValueError, and no file is written.
    """
    values = np.asarray(values).reshape(grid.shape)
    if np.iscomplexobj(values):
        raise ValueError(f"{path}: CSV export takes a real field, got {values.dtype}")
    cells = [repr(v) for v in values.astype(float).ravel().tolist()]
    xs = [repr(x) for x in grid.xs.astype(float).tolist()]
    nodes = ((i, j) for i in range(grid.n) for j in range(grid.n))
    rows = [f"{i},{j},{xs[i]},{xs[j]},{cell}\n" for (i, j), cell in zip(nodes, cells)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("i,j,x,y,value\n" + "".join(rows))


def write_dataset(directory: str, data: Dataset) -> None:
    """Write a dataset directory: manifest plus per-frequency field files."""
    os.makedirs(directory, exist_ok=True)
    grid = data.grid
    cp = configparser.ConfigParser()
    cp["grid"] = {"n": str(grid.n), "c0": format_number(grid.c0)}
    cp["frequencies"] = {
        "omega_lo": format_number(data.freqs.omega_lo),
        "omega_hi": format_number(data.freqs.omega_hi),
        "nodes": " ".join(map(format_number, data.freqs.nodes)),
        "weights": " ".join(map(format_number, data.freqs.weights)),
    }
    cp["meta"] = {key: format_number(data.metadata[key]) for key in sorted(data.metadata)}
    with open(os.path.join(directory, "manifest.cfg"), "w", encoding="utf-8") as fh:
        cp.write(fh)
    for k, pair in enumerate(data.potentials):
        for c, u in enumerate(pair, start=1):
            write_field(os.path.join(directory, f"u_{k:03d}_c{c}"), u, grid)


def read_dataset(directory: str) -> Dataset:
    """Read a dataset directory written by ``write_dataset``.

    The manifest must be complete, every field must match its grid and be
    finite, and every frequency must share frequency 0's boundary traces
    (the driving data); a ValueError naming the offending file is raised
    otherwise.
    """
    cp = configparser.ConfigParser()
    manifest = os.path.join(directory, "manifest.cfg")
    try:
        if not cp.read(manifest, encoding="utf-8"):
            raise FileNotFoundError(f"no dataset manifest at {manifest}")
        grid = build_grid(cp.getint("grid", "n"), cp.getfloat("grid", "c0"))
        nodes = np.array([float(v) for v in cp.get("frequencies", "nodes").split()])
        weights = np.array([float(v) for v in cp.get("frequencies", "weights").split()])
        freqs = FrequencyGrid(
            cp.getfloat("frequencies", "omega_lo"),
            cp.getfloat("frequencies", "omega_hi"),
            nodes,
            weights,
        )
    except (configparser.Error, ValueError) as exc:
        raise ValueError(f"{manifest}: {exc}") from exc
    metadata = dict(cp["meta"]) if cp.has_section("meta") else {}
    potentials = []
    for k in range(nodes.size):
        pair = []
        for c in (1, 2):
            base = os.path.join(directory, f"u_{k:03d}_c{c}")
            u = read_field(base)
            if u.shape != grid.shape:
                raise ValueError(f"{base}.meta: n = {u.shape[0]} differs from the manifest's n = {grid.n}")
            if not np.all(np.isfinite(u)):
                raise ValueError(f"{base}.f64: non-finite values")
            if k > 0 and not np.array_equal(grid.trace(u), grid.trace(potentials[0][c - 1])):
                raise ValueError(f"{base}.f64: boundary trace differs from frequency 0's")
            pair.append(u)
        potentials.append(np.stack(pair))
    return Dataset(grid=grid, freqs=freqs, potentials=potentials, metadata=metadata)


def write_trajectory_csv(path: str, records: list[IterationRecord]) -> None:
    """One row per record under a header of the ``IterationRecord`` field names, in field order."""
    names = [f.name for f in dataclasses.fields(IterationRecord)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(names) + "\n")
        for r in records:
            fh.write(",".join(format_number(getattr(r, name)) for name in names) + "\n")
