"""Run configuration: a flat key=value text format with a closed schema.

Design goals, in order: reproducibility (a config plus seeds pins every
number the pipeline emits), typo safety (unknown keys are errors, every
value must parse), and lossless round-trips (values are kept as the
validated raw strings, so serialize(parse(text)) preserves content).
The digest over the canonical serialization, minus output-path keys,
identifies a run for resume checks and is stamped into every file the
run produces.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, GeometryError
from .evolution import DEFAULT_TOL, QuenchProtocol
from .mqc import EstimatorConfig
from .network import dipolar_couplings, generate_geometry


def _parse_bool(raw: str) -> bool:
    if raw in ("true", "false"):
        return raw == "true"
    raise ValueError(f"expected true or false, got {raw!r}")


def _parse_float_list(raw: str) -> list:
    return [float(tok) for tok in raw.split(",") if tok.strip()]


def _parse_int_list(raw: str) -> list:
    return [int(tok) for tok in raw.split(",") if tok.strip()]


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
    values = np.array(_parse_float_list(raw))
    if values.size < 1:
        raise ValueError("empty grid")
    return values


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
    "geometry.cutoff_radius": float,
    "geometry.seed": int,
    "protocol.mode": str,
    "protocol.time_grid": _parse_grid,
    "protocol.tau_c": float,
    "p_sweep": _parse_float_list,
    "seeds": _parse_int_list,
    "estimator.kind": str,
    "estimator.n_samples": int,
    "estimator.base_seed": int,
    "estimator.k_method": str,
    "estimator.keep_spectra": _parse_bool,
    "numerics.tol": float,
    "numerics.max_dense_spins": int,
    "synth.p_list": _parse_float_list,
    "synth.p_c": float,
    "synth.nu": float,
    "synth.s": float,
    "synth.alpha": float,
    "synth.A": float,
    "synth.B": float,
    "synth.noise_level": float,
    "synth.seed": int,
    "synth.time_grid": _parse_grid,
    "scale.input_dir": str,
    "scale.anchor_p": float,
    "scale.beta_grid": _parse_float_list,
    "scale.t_min": float,
    "scale.growth_t_min": float,
    "scale.n_bootstrap": int,
    "scale.bootstrap_seed": int,
    "plot.input_dir": str,
    "plot.report": str,
}

#: keys that never influence computed numbers, excluded from the digest
_NON_SEMANTIC = ("output.dir", "plot.input_dir", "plot.report")


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

    def serialize(self) -> str:
        return "".join(f"{k} = {v}\n" for k, v in self.entries)

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

    # -- domain builders -------------------------------------------------
    @property
    def label(self) -> str:
        return self.get("run.label", "run")

    @property
    def p_sweep(self) -> list:
        (values,) = self.require("p_sweep")
        for p in values:
            if not 0.0 <= p <= 1.0:
                raise ConfigError(f"p_sweep entry {p} outside [0, 1]")
        return values

    @property
    def seeds(self) -> list:
        return self.get("seeds", [0])

    def build_geometry(self):
        (kind,) = self.require("geometry.kind")
        params = {}
        if kind == "cubic_lattice":
            (shape,) = self.require("geometry.shape")
            if len(shape) != 3:
                raise ConfigError(f"geometry.shape needs 3 extents, got {shape}")
            params["shape"] = tuple(shape)
            params["spacing"] = self.get("geometry.spacing", 1.0)
        elif kind == "random_box":
            n, box, sep = self.require("geometry.n", "geometry.box",
                                       "geometry.min_separation")
            params["n"] = n
            params["box"] = box[0] if len(box) == 1 else tuple(box)
            params["min_separation"] = sep
        elif kind == "file":
            (params["path"],) = self.require("geometry.path")
        else:
            raise ConfigError(f"geometry.kind must be cubic_lattice, random_box or file, "
                              f"got {kind!r}")
        if "geometry.field_axis" in self:
            axis = self.get("geometry.field_axis")
            if len(axis) != 3:
                raise ConfigError("geometry.field_axis needs exactly 3 components")
            params["field_axis"] = tuple(axis)
        try:
            return generate_geometry(kind, params, seed=self.get("geometry.seed", 0))
        except ConfigError:
            raise
        except GeometryError as exc:
            raise ConfigError(f"invalid geometry: {exc}") from None

    def build_network(self):
        return dipolar_couplings(self.build_geometry(),
                                 cutoff_radius=self.get("geometry.cutoff_radius"))

    def build_protocol(self, p: float) -> QuenchProtocol:
        mode = self.get("protocol.mode", "average")
        (grid,) = self.require("protocol.time_grid")
        tol = self.get("numerics.tol", DEFAULT_TOL)
        try:
            if mode == "average":
                return QuenchProtocol.average(p, grid, tol=tol)
            if mode == "floquet":
                (tau_c,) = self.require("protocol.tau_c")
                return QuenchProtocol.floquet(p, tau_c, grid, tol=tol)
        except ValueError as exc:
            raise ConfigError(f"invalid protocol: {exc}") from None
        raise ConfigError(f"protocol.mode must be average or floquet, got {mode!r}")

    def estimator_config(self, seed: int = 0) -> EstimatorConfig:
        kind = self.get("estimator.kind", "exact")
        if kind not in ("exact", "typicality"):
            raise ConfigError(f"estimator.kind must be exact or typicality, got {kind!r}")
        # replica seeds space out the per-sample seed blocks
        base = self.get("estimator.base_seed", 0) + 100003 * seed
        try:
            return EstimatorConfig(kind=kind, n_samples=self.get("estimator.n_samples", 8),
                                   base_seed=base,
                                   k_method=self.get("estimator.k_method", "halfwidth"),
                                   keep_spectra=self.get("estimator.keep_spectra", False))
        except ValueError as exc:
            raise ConfigError(f"invalid estimator config: {exc}") from None

    def synth_params(self) -> dict:
        p_list, p_c, nu, s, alpha, grid = self.require(
            "synth.p_list", "synth.p_c", "synth.nu", "synth.s", "synth.alpha",
            "synth.time_grid")
        return {
            "p_list": p_list, "p_c": p_c, "nu": nu, "s": s, "alpha": alpha,
            "t_grid": grid, "noise_level": self.get("synth.noise_level", 0.0),
            "seed": self.get("synth.seed", 0),
            "A": self.get("synth.A", 1.0), "B": self.get("synth.B", 0.0),
        }
