"""Run configuration: a flat key=value text format with a closed schema.

Design goals, in order: reproducibility (a config plus seeds pins every
number the pipeline emits), typo safety (unknown keys are errors, every
value must parse), and one canonical form (values are kept as the
validated raw strings in key order, so configs that set the same values
compare and digest equal, whatever their layout or comments).
The digest over that form, minus the path keys (output.dir,
scale.input_dir, plot.*), identifies a run for resume checks and is
stamped into every file the run produces.

The records the builders return own their defaults and rules: a builder
passes only the keys a config sets and wraps record errors as ConfigError.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, GeometryError
from .evolution import QuenchProtocol
from .mqc import EstimatorConfig
from .network import dipolar_couplings, generate_geometry


def _parse_bool(raw: str) -> bool:
    if raw in ("true", "false"):
        return raw == "true"
    raise ValueError(f"expected true or false, got {raw!r}")


def _parse_list(raw: str, kind) -> list:
    values = [kind(tok) for tok in raw.split(",") if tok.strip()]
    if not values:
        raise ValueError("empty list")
    return values


def _parse_float_list(raw: str) -> list:
    return _parse_list(raw, float)


def _parse_p_list(raw: str) -> list:
    values = _parse_float_list(raw)
    bad = [p for p in values if not 0.0 <= p <= 1.0]
    if bad:
        raise ValueError(f"entry {bad[0]} outside [0, 1]")
    return values


def _parse_int_list(raw: str) -> list:
    return _parse_list(raw, int)


def _non_negative(what: str):
    """Parser of an int >= 0 whose error names the value `what`."""
    def parse(raw: str) -> int:
        value = int(raw)
        if value < 0:
            raise ValueError(f"{what} must be >= 0, got {value}")
        return value
    return parse


_parse_seed = _non_negative("a seed")


def _parse_seed_list(raw: str) -> list:
    return _parse_list(raw, _parse_seed)


def _parse_grid(raw: str) -> np.ndarray:
    """Time grids: 'geom:a:b:n', 'lin:a:b:n', 'geomint:a:b:n' (geometric,
    rounded to unique integers, for cycle counts), or an explicit comma
    list."""
    if raw.startswith(("geom:", "lin:", "geomint:")):
        kind, a, b, n = raw.split(":")
        a, b, n = float(a), float(b), int(n)
        if n < 2:
            raise ValueError("grid needs at least 2 points")
        if kind == "lin":
            return np.linspace(a, b, n)
        grid = np.geomspace(a, b, n)
        if kind == "geomint":
            grid = np.unique(np.rint(grid)).astype(float)
        return grid
    return np.array(_parse_float_list(raw))


#: key -> parser; parsing validates, access re-parses the stored raw string
SCHEMA = {
    "run.label": str,
    "output.dir": str,
    "geometry.kind": str,
    "geometry.shape": _parse_int_list,
    "geometry.spacing": float,
    "geometry.n": int,
    "geometry.box": _parse_float_list,
    "geometry.min_separation": float,
    "geometry.path": str,
    "geometry.field_axis": _parse_float_list,
    "geometry.seed": _parse_seed,
    "protocol.mode": str,
    "protocol.time_grid": _parse_grid,
    "protocol.tau_c": float,
    "p_sweep": _parse_p_list,
    "seeds": _parse_seed_list,
    "estimator.kind": str,
    "estimator.n_samples": int,
    "estimator.keep_spectra": _parse_bool,
    "synth.p_list": _parse_p_list,
    "synth.p_c": float,
    "synth.nu": float,
    "synth.s": float,
    "synth.alpha": float,
    "synth.A": float,
    "synth.B": float,
    "synth.noise_level": float,
    "synth.seed": _parse_seed,
    "synth.time_grid": _parse_grid,
    "scale.input_dir": str,
    "scale.anchor_p": float,
    "scale.beta_grid": _parse_float_list,
    "scale.t_min": float,
    "scale.growth_t_min": float,
    "scale.n_bootstrap": _non_negative("a resample count"),
    "scale.bootstrap_seed": _parse_seed,
    "plot.input_dir": str,
    "plot.report": str,
}

#: keys that never influence computed numbers, excluded from the digest;
#: scale.input_dir says where the trajectories are read, not what they hold
_NON_SEMANTIC = ("output.dir", "scale.input_dir", "plot.input_dir", "plot.report")


@dataclass(frozen=True, eq=True)
class RunConfig:
    """Validated configuration; raw strings in, typed values on access."""

    entries: tuple

    @classmethod
    def parse(cls, text: str, source: str = "<string>") -> "RunConfig":
        entries = {}
        for lineno, line in enumerate(text.splitlines(), start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ConfigError(f"{source}:{lineno}: expected key = value, got {stripped!r}")
            key, _, raw = stripped.partition("=")
            key = key.strip()
            raw = raw.strip()
            if key not in SCHEMA:
                raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
            if key in entries:
                raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
            try:
                SCHEMA[key](raw)
            except (ValueError, TypeError) as exc:
                raise ConfigError(f"{source}:{lineno}: bad value for {key}: {exc}") from None
            entries[key] = raw
        return cls(entries=tuple(sorted(entries.items())))

    @classmethod
    def load(cls, path) -> "RunConfig":
        try:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from None
        return cls.parse(text, source=str(path))

    def digest(self) -> str:
        payload = "".join(f"{k} = {v}\n" for k, v in self.entries if k not in _NON_SEMANTIC)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    # -- typed access ----------------------------------------------------
    def __contains__(self, key):
        return any(k == key for k, _ in self.entries)

    def get(self, key, default=None):
        for k, raw in self.entries:
            if k == key:
                return SCHEMA[key](raw)
        return default

    def require(self, *keys):
        missing = [k for k in keys if k not in self]
        if missing:
            raise ConfigError(f"missing required config keys: {', '.join(missing)}")
        return [self.get(k) for k in keys]

    def _given(self, **keys) -> dict:
        """{name: value} of each name=key this config sets; callees default the rest."""
        return {name: self.get(key) for name, key in keys.items() if key in self}

    # -- domain builders -------------------------------------------------
    @property
    def label(self) -> str:
        return self.get("run.label", "run")

    @property
    def p_sweep(self) -> list:
        (values,) = self.require("p_sweep")
        return values

    @property
    def seeds(self) -> list:
        return self.get("seeds", [0])

    def build_geometry(self):
        (kind,) = self.require("geometry.kind")
        params = self._given(field_axis="geometry.field_axis")
        if kind == "cubic_lattice":
            (params["shape"],) = self.require("geometry.shape")
            params.update(self._given(spacing="geometry.spacing"))
        elif kind == "random_box":
            params["n"], params["box"], params["min_separation"] = self.require(
                "geometry.n", "geometry.box", "geometry.min_separation")
        elif kind == "file":
            (params["path"],) = self.require("geometry.path")
        try:
            return generate_geometry(kind, params, **self._given(seed="geometry.seed"))
        except GeometryError as exc:
            raise ConfigError(f"invalid geometry: {exc}") from None

    def build_network(self):
        return dipolar_couplings(self.build_geometry())

    def build_protocol(self, p: float) -> QuenchProtocol:
        mode = self.get("protocol.mode", "average")
        (grid,) = self.require("protocol.time_grid")
        tau_c = self.require("protocol.tau_c")[0] if mode == "floquet" else 0.0
        try:
            return QuenchProtocol(mode, p, grid, tau_c)
        except ValueError as exc:
            raise ConfigError(f"invalid protocol: {exc}") from None

    def estimator_config(self, seed: int = 0) -> EstimatorConfig:
        # replica seed s draws its samples from the seed block at 100003 s
        try:
            return EstimatorConfig(base_seed=100003 * seed, **self._given(
                kind="estimator.kind", n_samples="estimator.n_samples",
                keep_spectra="estimator.keep_spectra"))
        except ValueError as exc:
            raise ConfigError(f"invalid estimator config: {exc}") from None

    def synth_params(self) -> dict:
        p_list, p_c, nu, s, alpha, grid = self.require(
            "synth.p_list", "synth.p_c", "synth.nu", "synth.s", "synth.alpha",
            "synth.time_grid")
        return {"p_list": p_list, "p_c": p_c, "nu": nu, "s": s, "alpha": alpha,
                "t_grid": grid, "noise_level": self.get("synth.noise_level", 0.0),
                "seed": self.get("synth.seed", 0),
                "A": self.get("synth.A", 1.0), "B": self.get("synth.B", 0.0)}
