"""Run configuration: a single INI-style file with one section per concern.

The keys are listed once, in ``_SCHEMA``, which both the parser and the
writer walk; the README documents them.  Parsing is strict: unknown
sections or keys, malformed numbers, and invariant violations all raise
``ConfigError`` with the section/key (or parser line) that caused them.
``parse -> serialize -> parse`` is the identity on configurations.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import astuple, dataclass, field
from operator import attrgetter

from .admissible import AdmissibleParams
from .fieldio import format_number
from .landweber import LandweberConfig
from .mesh import Grid, build_grid, require_int
from .objective import FrequencyGrid
from .phantom import Inclusion, PhantomSpec
from .properbc import DEFAULT_LAMBDA_MIN


class ConfigError(ValueError):
    """Configuration file is malformed or violates an invariant."""


@dataclass
class RunConfig:
    n: int = 65
    c0: float = 0.2
    admissible: AdmissibleParams = field(default_factory=AdmissibleParams)
    omega_lo: float = 1.0
    omega_hi: float = 2.0
    n_freq: int = 9
    phantom: PhantomSpec = field(default_factory=PhantomSpec)
    mu: float | None = None
    max_iters: int = LandweberConfig.max_iters
    stop_tol: float = LandweberConfig.stop_tol
    x0: str = "initguess"
    lambda_min: float = DEFAULT_LAMBDA_MIN
    noise_level: float = 0.0
    noise_seed: int = 1234
    refinement: int = 2
    output_dir: str = "out"

    def build_grid(self) -> Grid:
        return build_grid(self.n, self.c0)

    def frequency_grid(self) -> FrequencyGrid:
        return FrequencyGrid.uniform(self.omega_lo, self.omega_hi, self.n_freq)

    def landweber_config(self) -> LandweberConfig:
        return LandweberConfig(mu=self.mu, max_iters=self.max_iters, stop_tol=self.stop_tol)

    def validate(self) -> None:
        if self.x0 not in ("initguess", "background"):
            raise ConfigError(f"[landweber] x0 must be 'initguess' or 'background', got {self.x0!r}")
        if self.noise_level < 0.0:
            raise ConfigError("[noise] level must be nonnegative")
        try:
            # a config file gives int() values, but the Python API can pass a bool or a float
            require_int("[data] refinement", self.refinement, 1)
            require_int("[noise] seed", self.noise_seed, 0)
            require_int("[frequencies] count", self.n_freq, 1)
            self.build_grid()
            self.frequency_grid()
            self.landweber_config()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if self.refinement > 3:
            raise ConfigError(f"[data] refinement must be 1, 2, or 3, got {self.refinement}")


#: The file format: section -> key -> ``RunConfig`` attribute, in file order.
#: A dotted attribute is a field of the nested ``admissible`` or ``phantom``
#: spec.  Each value is parsed and written by the type of its default;
#: ``mu`` (default None: ``auto`` or a number) and ``phantom.inclusions`` (a
#: list: one bump per line) have their own syntax.
_SCHEMA = {
    "grid": {"n": "n", "c0": "c0"},
    "admissible": {key: f"admissible.{key}" for key in ("sigma0", "eps0", "c1", "c2", "c4")},
    "frequencies": {"omega_lo": "omega_lo", "omega_hi": "omega_hi", "count": "n_freq"},
    "phantom": {"inclusions": "phantom.inclusions"},
    "landweber": {key: key for key in ("mu", "max_iters", "stop_tol", "x0", "lambda_min")},
    "noise": {"level": "noise_level", "seed": "noise_seed"},
    "data": {"refinement": "refinement"},
    "output": {"dir": "output_dir"},
}


def _parse_inclusions(raw: str) -> list[Inclusion]:
    out = []
    for line in raw.strip().splitlines():
        line = line.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 5:
            raise ConfigError(
                f"[phantom] inclusions: expected 'cx cy radius dsigma deps', got {line!r}"
            )
        try:
            values = [float(p) for p in parts]
        except ValueError as exc:
            raise ConfigError(f"[phantom] inclusions: non-numeric entry in {line!r}") from exc
        if not all(math.isfinite(v) for v in values):
            raise ConfigError(f"[phantom] inclusions: non-finite entry in {line!r}")
        cx, cy, radius, dsigma, deps = values
        if radius <= 0.0:
            raise ConfigError(f"[phantom] inclusions: radius must be positive in {line!r}")
        out.append(Inclusion(cx, cy, radius, dsigma, deps))
    return out


def _parse_value(cp, section: str, key: str, default):
    """The value of ``key``, parsed by the type of its ``default``."""
    raw = cp.get(section, key)
    if isinstance(default, list):
        return _parse_inclusions(raw)
    if default is None:
        if raw == "auto":
            return None
        conv, expected = float, "expected 'auto' or a number, got"
    else:
        conv, expected = type(default), "cannot parse"
    try:
        value = conv(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}: {expected} {raw!r}") from exc
    if conv is float and not math.isfinite(value):
        raise ConfigError(f"[{section}] {key}: must be finite, got {raw!r}")
    return value


def parse_config_text(text: str) -> RunConfig:
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",), interpolation=None)
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(str(exc)) from exc

    for section in cp.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}]")
        for key in cp.options(section):
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")

    cfg = RunConfig()
    nested = {"admissible": {}, "phantom": {}}
    for section, keys in _SCHEMA.items():
        for key, attr in keys.items():
            if not cp.has_option(section, key):
                continue
            value = _parse_value(cp, section, key, attrgetter(attr)(cfg))
            owner, _, name = attr.rpartition(".")
            if owner:
                nested[owner][name] = value
            else:
                setattr(cfg, name, value)
    try:
        cfg.admissible = AdmissibleParams(**nested["admissible"])
    except ValueError as exc:
        raise ConfigError(f"[admissible] {exc}") from exc
    cfg.phantom = PhantomSpec(**nested["phantom"])

    cfg.validate()
    return cfg


def parse_config(path: str) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())


def serialize_config(cfg: RunConfig) -> str:
    sections = []
    for section, keys in _SCHEMA.items():
        lines = [f"[{section}]"]
        for key, attr in keys.items():
            value = attrgetter(attr)(cfg)
            if not isinstance(value, list):
                lines.append(f"{key} = {'auto' if value is None else format_number(value)}")
            elif value:
                lines.append(f"{key} =")
                lines += ["    " + " ".join(map(format_number, astuple(inc))) for inc in value]
        sections.append("".join(line + "\n" for line in lines))
    return "\n".join(sections)


def write_config(cfg: RunConfig, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_config(cfg))
