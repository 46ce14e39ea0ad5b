"""Trajectory files and analysis outputs.

One file per (p, seed): a ``#``-prefixed metadata header (key=value, values
JSON-encoded so nested metadata survives) followed by a CSV body with
columns time, K and, when spectra were kept, one column per coherence
order. Floats are written with repr so a read-back is bit-identical and
re-running a deterministic config reproduces the file byte for byte.
Writes go to a temp file in the target directory and are renamed into
place, so readers never see partial files.
"""

from __future__ import annotations

import json
import os
import re
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .mqc import ClusterTrajectory, MqcSpectrum

FORMAT_LINE = "# spinquench trajectory v1"

_TRAJ_NAME = re.compile(r"^traj_p(?P<p>[0-9.]+)_seed(?P<seed>\d+)\.csv$")


def trajectory_filename(p: float, seed: int) -> str:
    return f"traj_p{p:.6f}_seed{int(seed)}.csv"


def atomic_write_text(path, text: str):
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def format_trajectory(traj: ClusterTrajectory, config_digest: str) -> str:
    meta = dict(traj.metadata)
    meta["p"] = float(traj.p)
    meta["config_digest"] = config_digest
    lines = [FORMAT_LINE]
    for key in sorted(meta):
        lines.append(f"# {key}={json.dumps(meta[key], sort_keys=True)}")
    header = "time,K"
    if traj.spectra:
        header += "," + ",".join(f"a{int(o)}" for o in traj.spectra[0].orders)
    lines.append(header)
    for i, (t, k) in enumerate(zip(traj.times, traj.K)):
        row = f"{float(t)!r},{float(k)!r}"
        if traj.spectra:
            row += "," + ",".join(f"{float(w)!r}" for w in traj.spectra[i].weights)
        lines.append(row)
    return "\n".join(lines) + "\n"


def write_trajectory_file(path, traj: ClusterTrajectory, config_digest: str):
    atomic_write_text(path, format_trajectory(traj, config_digest))


def read_trajectory_file(path) -> ClusterTrajectory:
    path = Path(path)
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read trajectory {path}: {exc}") from None
    if not lines or lines[0].strip() != FORMAT_LINE:
        raise ConfigError(f"{path}: not a spinquench trajectory file")
    meta = {}
    body_start = 1
    for i, line in enumerate(lines[1:], start=1):
        if not line.startswith("#"):
            body_start = i
            break
        key, _, raw = line[1:].strip().partition("=")
        try:
            meta[key.strip()] = json.loads(raw)
        except json.JSONDecodeError:
            raise ConfigError(f"{path}:{i + 1}: bad metadata value for {key.strip()!r}") from None
    else:
        raise ConfigError(f"{path}: header only, no data rows")
    columns = lines[body_start].split(",")
    if columns[:2] != ["time", "K"]:
        raise ConfigError(f"{path}: expected columns time,K..., got {lines[body_start]!r}")
    rows = [line.split(",") for line in lines[body_start + 1:] if line.strip()]
    if not rows:
        raise ConfigError(f"{path}: no data rows")
    orders = columns[2:]
    n = len(orders) // 2
    if orders and orders != [f"a{k}" for k in range(-n, n + 1)]:
        raise ConfigError(f"{path}: order columns must run a-n..an contiguously, got "
                          f"{','.join(orders)}")
    try:
        data = np.array([[float(v) for v in row] for row in rows])
    except ValueError as exc:
        raise ConfigError(f"{path}: bad data row: {exc}") from None
    if data.shape[1] != len(columns):
        raise ConfigError(f"{path}: ragged rows, expected {len(columns)} columns")
    p = meta.get("p")
    if p is None:
        raise ConfigError(f"{path}: metadata lacks p")
    try:
        spectra = [MqcSpectrum(w) for w in data[:, 2:]] if orders else None
        return ClusterTrajectory(p=p, times=data[:, 0], K=data[:, 1],
                                 spectra=spectra, metadata=meta)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def load_trajectory_dir(dirpath) -> list:
    """All trajectory files in a directory, sorted by (p, seed)."""
    dirpath = Path(dirpath)
    if not dirpath.is_dir():
        raise ConfigError(f"not a directory: {dirpath}")
    names = sorted(n for n in os.listdir(dirpath) if _TRAJ_NAME.match(n))
    if not names:
        raise ConfigError(f"no trajectory files (traj_p*_seed*.csv) in {dirpath}")
    trajs = [read_trajectory_file(dirpath / n) for n in names]
    trajs.sort(key=lambda tr: (tr.p, tr.metadata.get("seed", 0)))
    return trajs


def write_report_json(path, report: dict):
    atomic_write_text(path, json.dumps(report, indent=2, sort_keys=True) + "\n")


def read_report_json(path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read report {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON: {exc}") from None


def read_pooled_csv(path) -> list:
    """Rows of (x, y, p) as plain tuples."""
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read pooled samples {path}: {exc}") from None
    if not lines or lines[0] != "x,y,p":
        raise ConfigError(f"{path}: expected header x,y,p")
    rows = []
    for number, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            x, y, p = (float(v) for v in line.split(","))
        except ValueError:
            raise ConfigError(f"{path}:{number}: not three numbers x,y,p: {line!r}") from None
        rows.append((x, y, p))
    return rows


def write_pooled_csv(path, pooled):
    """Collapsed-scaling-function samples: x, y and the source p per row."""
    lines = ["x,y,p"]
    for x, y, p in zip(pooled.x, pooled.y, pooled.p):
        lines.append(f"{float(x)!r},{float(y)!r},{float(p)!r}")
    atomic_write_text(path, "\n".join(lines) + "\n")
