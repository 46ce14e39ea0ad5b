"""Spin geometries and the dipolar coupling network derived from them.

Distances are dimensionless generator units and couplings are reduced so
that the dipolar prefactor gamma^2*hbar^2/2 equals one; a pair at distance
r with internuclear angle theta to the static-field axis then couples with

    d_ij = (1 - 3 cos^2 theta_ij) / r_ij^3

The largest |d_ij| of a network sets the natural time unit 1/d_max used by
the evolution module.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.spatial.distance import pdist, squareform

from .errors import CoordinateFileError, GeometryError, PackingError

DEFAULT_FIELD_AXIS = (0.0, 0.0, 1.0)

#: Hard cap on generated system sizes; 2^24 basis states is the largest
#: bookkeeping the basis module will attempt.
MAX_GENERATED_SPINS = 24


def _as_readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class SpinGeometry:
    """Positions of spin-1/2 nuclei plus the static-field direction.

    Attributes
    ----------
    positions : (n, 3) float array, dimensionless length units.
    field_axis : unit 3-vector defining the angle theta_ij of each pair.
    label : free-form tag recorded in output metadata.
    seed : seed used by the generator that produced the geometry.
    """

    positions: np.ndarray
    field_axis: np.ndarray = field(default_factory=lambda: np.array(DEFAULT_FIELD_AXIS))
    label: str = ""
    seed: int = 0

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float)
        if pos.ndim != 2 or pos.shape[1] != 3:
            raise GeometryError(f"positions must be (n, 3), got {pos.shape}")
        axis = np.asarray(self.field_axis, dtype=float).reshape(3)
        norm = np.linalg.norm(axis)
        if abs(norm - 1.0) > 1e-12:
            raise GeometryError(f"field_axis must have unit norm, |axis| = {norm!r}")
        if pos.shape[0] >= 2 and pdist(pos).min() <= 0.0:
            raise GeometryError("coincident spins: all pairwise distances must be > 0")
        object.__setattr__(self, "positions", _as_readonly(pos))
        object.__setattr__(self, "field_axis", _as_readonly(axis))

    @property
    def n_spins(self) -> int:
        return self.positions.shape[0]


@dataclass(frozen=True, eq=False)
class CouplingNetwork:
    """Symmetric dipolar coupling matrix d_ij over a spin geometry.

    ``d_max`` caches the largest |d_ij| so that callers can express times
    in units of 1/d_max without rescanning the matrix.
    """

    geometry: SpinGeometry
    couplings: np.ndarray
    cutoff_radius: float | None = None
    d_max: float = 0.0

    def __post_init__(self):
        d = np.asarray(self.couplings, dtype=float)
        n = self.geometry.n_spins
        if d.shape != (n, n):
            raise GeometryError(f"couplings must be ({n}, {n}), got {d.shape}")
        if not np.array_equal(d, d.T):
            raise GeometryError("coupling matrix must be exactly symmetric")
        if np.any(np.diag(d) != 0.0):
            raise GeometryError("coupling matrix must have zero diagonal")
        object.__setattr__(self, "couplings", _as_readonly(d))
        object.__setattr__(self, "d_max", float(np.abs(d).max()) if n > 1 else 0.0)

    @property
    def n_spins(self) -> int:
        return self.geometry.n_spins

    def pairs(self):
        """Yield (i, j, d_ij) for every pair i < j with a nonzero coupling."""
        d = self.couplings
        n = self.n_spins
        for i in range(n):
            for j in range(i + 1, n):
                if d[i, j] != 0.0:
                    yield i, j, d[i, j]


def dipolar_couplings(geometry: SpinGeometry, cutoff_radius: float | None = None) -> CouplingNetwork:
    """Compute the reduced dipolar coupling matrix of a geometry.

    d_ij = (1 - 3 cos^2 theta_ij) / r_ij^3 for r_ij <= cutoff_radius, else
    exactly zero.  With no cutoff every pair couples, preserving the long
    range 1/r^3 character of the interaction.
    """
    pos = geometry.positions
    n = geometry.n_spins
    if n < 2:
        return CouplingNetwork(geometry, np.zeros((n, n)), cutoff_radius)
    rvec = pos[:, None, :] - pos[None, :, :]
    r = squareform(pdist(pos))
    with np.errstate(divide="ignore", invalid="ignore"):
        cos_theta = (rvec @ geometry.field_axis) / r
        d = (1.0 - 3.0 * cos_theta**2) / r**3
    np.fill_diagonal(d, 0.0)
    if cutoff_radius is not None:
        d[r > cutoff_radius] = 0.0
    d = 0.5 * (d + d.T)  # remove last-bit asymmetry from the vector arithmetic
    return CouplingNetwork(geometry, d, cutoff_radius)


def cubic_lattice_geometry(
    shape: tuple[int, int, int],
    spacing: float = 1.0,
    field_axis=DEFAULT_FIELD_AXIS,
    label: str = "",
    seed: int = 0,
    max_spins: int = MAX_GENERATED_SPINS,
) -> SpinGeometry:
    """Simple cubic lattice of shape (n_x, n_y, n_z) with the given spacing."""
    nx, ny, nz = (int(v) for v in shape)
    if min(nx, ny, nz) < 1:
        raise GeometryError(f"lattice shape must be positive, got {shape}")
    n = nx * ny * nz
    if n > max_spins:
        raise GeometryError(f"lattice with {n} spins exceeds the cap of {max_spins}")
    if spacing <= 0:
        raise GeometryError("lattice spacing must be > 0")
    grid = np.mgrid[0:nx, 0:ny, 0:nz].reshape(3, -1).T * float(spacing)
    label = label or f"cubic_{nx}x{ny}x{nz}"
    return SpinGeometry(grid, np.asarray(field_axis, float), label, seed)


def random_box_geometry(
    n: int,
    box: float | tuple[float, float, float],
    min_separation: float,
    seed: int,
    field_axis=DEFAULT_FIELD_AXIS,
    label: str = "",
    max_spins: int = MAX_GENERATED_SPINS,
    max_attempts_per_spin: int = 500,
) -> SpinGeometry:
    """Uniform random positions in a box, resampled until all pairs are
    at least ``min_separation`` apart.

    Raises PackingError once the per-spin attempt budget runs out, which
    signals an infeasible (too dense) packing request.
    """
    if n < 1 or n > max_spins:
        raise GeometryError(f"n must be in [1, {max_spins}], got {n}")
    if min_separation <= 0:
        raise GeometryError("min_separation must be > 0")
    lengths = np.broadcast_to(np.asarray(box, dtype=float), (3,))
    if np.any(lengths <= 0):
        raise GeometryError(f"box lengths must be > 0, got {box}")
    rng = np.random.default_rng(seed)
    placed = np.empty((0, 3))
    attempts = 0
    budget = max_attempts_per_spin * n
    while placed.shape[0] < n:
        if attempts >= budget:
            raise PackingError(
                f"could not place {n} spins with min separation {min_separation} "
                f"in box {lengths.tolist()} after {budget} attempts"
            )
        candidate = rng.uniform(0.0, lengths, size=3)
        attempts += 1
        if placed.shape[0] == 0 or np.linalg.norm(placed - candidate, axis=1).min() >= min_separation:
            placed = np.vstack([placed, candidate])
    label = label or f"random_box_n{n}"
    return SpinGeometry(placed, np.asarray(field_axis, float), label, seed)


def load_geometry_file(
    path,
    field_axis=DEFAULT_FIELD_AXIS,
    label: str = "",
    max_spins: int = MAX_GENERATED_SPINS,
) -> SpinGeometry:
    """Read a plain-text coordinate file: one spin per line, three
    whitespace-separated decimals, ``#`` starts a comment."""
    rows = []
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError as exc:
        raise CoordinateFileError(path, 0, f"cannot read file: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        text = raw.split("#", 1)[0].strip()
        if not text:
            continue
        parts = text.split()
        if len(parts) != 3:
            raise CoordinateFileError(path, lineno, f"expected 3 coordinates, got {len(parts)}")
        try:
            rows.append([float(p) for p in parts])
        except ValueError as exc:
            raise CoordinateFileError(path, lineno, f"not a decimal number: {exc}") from exc
    if not rows:
        raise CoordinateFileError(path, len(lines), "no coordinates in file")
    if len(rows) > max_spins:
        raise CoordinateFileError(path, len(lines), f"{len(rows)} spins exceeds the cap of {max_spins}")
    label = label or f"file_{len(rows)}spins"
    return SpinGeometry(np.asarray(rows), np.asarray(field_axis, float), label, 0)


def generate_geometry(kind: str, params: dict, seed: int = 0) -> SpinGeometry:
    """Dispatch on geometry kind: ``cubic_lattice``, ``random_box`` or ``file``.

    ``params`` holds the keyword arguments of the matching generator
    (minus ``seed``, passed separately so sweeps can vary it).
    """
    params = dict(params)
    if kind == "cubic_lattice":
        return cubic_lattice_geometry(seed=seed, **params)
    if kind == "random_box":
        return random_box_geometry(seed=seed, **params)
    if kind == "file":
        return load_geometry_file(**params)
    raise GeometryError(f"unknown geometry kind {kind!r}")
