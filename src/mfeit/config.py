"""Run configuration: a single INI-style file with one section per concern.

The full schema is documented in the README.  Parsing is strict: unknown
sections or keys, malformed numbers, and invariant violations all raise
``ConfigError`` with the section/key (or parser line) that caused them.
``parse -> serialize -> parse`` is the identity on configurations.
"""

from __future__ import annotations

import configparser
import io
import math
from dataclasses import dataclass, field

from .admissible import AdmissibleParams
from .landweber import LandweberConfig
from .mesh import Grid, build_grid
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
    phi: str = "coords"
    phantom: PhantomSpec = field(default_factory=PhantomSpec)
    mu: float | None = None
    max_iters: int = 200
    stop_tol: float = 1e-10
    log_every: int = 10
    x0: str = "initguess"
    lambda_min: float = DEFAULT_LAMBDA_MIN
    allow_low_coverage: bool = False
    pinv_tol: float = 1e-8
    per_frequency_eps: bool = False
    noise_level: float = 0.0
    noise_seed: int = 1234
    refinement: int = 2
    output_dir: str = "out"

    def build_grid(self) -> Grid:
        return build_grid(self.n, self.c0)

    def frequency_grid(self) -> FrequencyGrid:
        return FrequencyGrid.uniform(self.omega_lo, self.omega_hi, self.n_freq)

    def landweber_config(self) -> LandweberConfig:
        return LandweberConfig(
            admissible=self.admissible,
            mu=self.mu,
            max_iters=self.max_iters,
            stop_tol=self.stop_tol,
            log_every=self.log_every,
        )

    def validate(self) -> None:
        if self.refinement not in (1, 2, 3):
            raise ConfigError(f"[data] refinement must be 1, 2, or 3, got {self.refinement}")
        if self.phi != "coords":
            raise ConfigError(f"[boundary] phi: unknown choice {self.phi!r}")
        if self.x0 not in ("initguess", "background"):
            raise ConfigError(f"[landweber] x0 must be 'initguess' or 'background', got {self.x0!r}")
        if self.noise_level < 0.0:
            raise ConfigError("[noise] level must be nonnegative")
        if self.noise_seed < 0:
            raise ConfigError(f"[noise] seed must be nonnegative, got {self.noise_seed}")
        if not 0.0 < self.pinv_tol < 1.0:
            # a cutoff of 1 or more zeroes every pseudo-inverse: the guess would be the background
            raise ConfigError(f"[initguess] pinv_tol must lie in (0, 1), got {self.pinv_tol!r}")
        if self.log_every < 0:
            raise ConfigError(f"[landweber] log_every must be nonnegative, got {self.log_every}")
        if self.n_freq < 1:
            raise ConfigError("[frequencies] count must be at least 1")
        try:
            self.build_grid()
            self.frequency_grid()
            self.landweber_config()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc


_SCHEMA = {
    "grid": {"n": int, "c0": float},
    "admissible": {
        "sigma0": float,
        "eps0": float,
        "c1": float,
        "c2": float,
        "c4": float,
        "delta": float,
        "smooth_width": float,
        "smooth_passes": int,
    },
    "frequencies": {"omega_lo": float, "omega_hi": float, "count": int},
    "boundary": {"phi": str},
    "phantom": {"sigma0": float, "eps0": float, "inclusions": str},
    "landweber": {
        "mu": str,
        "max_iters": int,
        "stop_tol": float,
        "log_every": int,
        "x0": str,
        "lambda_min": float,
        "allow_low_coverage": bool,
    },
    "initguess": {"pinv_tol": float, "per_frequency_eps": bool},
    "noise": {"level": float, "seed": int},
    "data": {"refinement": int},
    "output": {"dir": str},
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


def _get(cp, section, key, conv, current):
    if not cp.has_option(section, key):
        return current
    raw = cp.get(section, key)
    try:
        if conv is bool:
            return cp.getboolean(section, key)
        value = conv(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}: cannot parse {raw!r}") from exc
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
    cfg.n = _get(cp, "grid", "n", int, cfg.n)
    cfg.c0 = _get(cp, "grid", "c0", float, cfg.c0)

    adm = {}
    for key in _SCHEMA["admissible"]:
        adm[key] = _get(cp, "admissible", key, _SCHEMA["admissible"][key], getattr(AdmissibleParams(), key))
    try:
        cfg.admissible = AdmissibleParams(**adm)
    except ValueError as exc:
        raise ConfigError(f"[admissible] {exc}") from exc

    cfg.omega_lo = _get(cp, "frequencies", "omega_lo", float, cfg.omega_lo)
    cfg.omega_hi = _get(cp, "frequencies", "omega_hi", float, cfg.omega_hi)
    cfg.n_freq = _get(cp, "frequencies", "count", int, cfg.n_freq)
    cfg.phi = _get(cp, "boundary", "phi", str, cfg.phi)

    ph_sigma0 = _get(cp, "phantom", "sigma0", float, cfg.admissible.sigma0)
    ph_eps0 = _get(cp, "phantom", "eps0", float, cfg.admissible.eps0)
    inclusions = []
    if cp.has_option("phantom", "inclusions"):
        inclusions = _parse_inclusions(cp.get("phantom", "inclusions"))
    cfg.phantom = PhantomSpec(sigma0=ph_sigma0, eps0=ph_eps0, inclusions=inclusions)

    mu_raw = _get(cp, "landweber", "mu", str, "auto" if cfg.mu is None else repr(cfg.mu))
    if mu_raw == "auto":
        cfg.mu = None
    else:
        try:
            cfg.mu = float(mu_raw)
        except ValueError as exc:
            raise ConfigError(f"[landweber] mu: expected 'auto' or a number, got {mu_raw!r}") from exc
        if not math.isfinite(cfg.mu):
            raise ConfigError(f"[landweber] mu: must be finite, got {mu_raw!r}")
    cfg.max_iters = _get(cp, "landweber", "max_iters", int, cfg.max_iters)
    cfg.stop_tol = _get(cp, "landweber", "stop_tol", float, cfg.stop_tol)
    cfg.log_every = _get(cp, "landweber", "log_every", int, cfg.log_every)
    cfg.x0 = _get(cp, "landweber", "x0", str, cfg.x0)
    cfg.lambda_min = _get(cp, "landweber", "lambda_min", float, cfg.lambda_min)
    cfg.allow_low_coverage = _get(cp, "landweber", "allow_low_coverage", bool, cfg.allow_low_coverage)

    cfg.pinv_tol = _get(cp, "initguess", "pinv_tol", float, cfg.pinv_tol)
    cfg.per_frequency_eps = _get(cp, "initguess", "per_frequency_eps", bool, cfg.per_frequency_eps)
    cfg.noise_level = _get(cp, "noise", "level", float, cfg.noise_level)
    cfg.noise_seed = _get(cp, "noise", "seed", int, cfg.noise_seed)
    cfg.refinement = _get(cp, "data", "refinement", int, cfg.refinement)
    cfg.output_dir = _get(cp, "output", "dir", str, cfg.output_dir)

    cfg.validate()
    return cfg


def parse_config(path: str) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def serialize_config(cfg: RunConfig) -> str:
    adm = cfg.admissible
    buf = io.StringIO()
    buf.write("[grid]\n")
    buf.write(f"n = {cfg.n}\nc0 = {_fmt(cfg.c0)}\n\n")
    buf.write("[admissible]\n")
    for key in _SCHEMA["admissible"]:
        buf.write(f"{key} = {_fmt(getattr(adm, key))}\n")
    buf.write("\n[frequencies]\n")
    buf.write(f"omega_lo = {_fmt(cfg.omega_lo)}\nomega_hi = {_fmt(cfg.omega_hi)}\ncount = {cfg.n_freq}\n")
    buf.write("\n[boundary]\nphi = coords\n")
    buf.write("\n[phantom]\n")
    buf.write(f"sigma0 = {_fmt(cfg.phantom.sigma0)}\neps0 = {_fmt(cfg.phantom.eps0)}\n")
    if cfg.phantom.inclusions:
        buf.write("inclusions =\n")
        for inc in cfg.phantom.inclusions:
            buf.write(
                f"    {_fmt(inc.cx)} {_fmt(inc.cy)} {_fmt(inc.radius)} "
                f"{_fmt(inc.dsigma)} {_fmt(inc.deps)}\n"
            )
    buf.write("\n[landweber]\n")
    buf.write(f"mu = {'auto' if cfg.mu is None else _fmt(cfg.mu)}\n")
    buf.write(f"max_iters = {cfg.max_iters}\nstop_tol = {_fmt(cfg.stop_tol)}\n")
    buf.write(f"log_every = {cfg.log_every}\nx0 = {cfg.x0}\n")
    buf.write(f"lambda_min = {_fmt(cfg.lambda_min)}\nallow_low_coverage = {_fmt(cfg.allow_low_coverage)}\n")
    buf.write("\n[initguess]\n")
    buf.write(f"pinv_tol = {_fmt(cfg.pinv_tol)}\nper_frequency_eps = {_fmt(cfg.per_frequency_eps)}\n")
    buf.write("\n[noise]\n")
    buf.write(f"level = {_fmt(cfg.noise_level)}\nseed = {cfg.noise_seed}\n")
    buf.write("\n[data]\n")
    buf.write(f"refinement = {cfg.refinement}\n")
    buf.write("\n[output]\n")
    buf.write(f"dir = {cfg.output_dir}\n")
    return buf.getvalue()


def write_config(cfg: RunConfig, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_config(cfg))
