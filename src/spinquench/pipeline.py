"""Command implementations: simulate, synth, scale, plot.

Each takes a validated RunConfig plus an output directory and returns a
small summary dict (the CLI prints it; tests introspect it). All writes
are atomic and deterministic, so re-running a config is free: simulate
skips every (p, seed) whose file already carries the config digest.
SPINQUENCH_WORKERS (an integer >= 1, default 1) sets how many simulate
tasks run at once in a process pool; it changes no byte of their files.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from functools import partial
from pathlib import Path

import numpy as np

from . import io as sqio
from . import plots
from .config import RunConfig
from .errors import CapacityError, ConfigError
from .evolution import exact_peak_bytes
from .mqc import ClusterTrajectory, trajectory, typicality_peak_bytes
from .operators import workspace_bytes
from .scaling import (fit_growth_exponent, full_scaling_analysis, rescale,
                      synth_trajectories)

WORKERS_ENV = "SPINQUENCH_WORKERS"


def worker_count() -> int:
    raw = os.environ.get(WORKERS_ENV, "1")
    try:
        n = int(raw)
    except ValueError:
        raise ConfigError(f"{WORKERS_ENV} must be a positive integer, got {raw!r}") from None
    if n < 1:
        raise ConfigError(f"{WORKERS_ENV} must be >= 1, got {n}")
    return n


def _ensure_outdir(out_dir) -> Path:
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out}: {exc}") from None
    return out


def _physical_memory() -> int:
    """Bytes of physical memory on this machine."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _capacity_check(network, mode: str, estimator, n_parallel: int):
    """Reject oversized requests before any evolution starts: each of the
    n_parallel tasks run at once holds its own workspace and estimator."""
    n_spins, n_pairs = network.n_spins, sum(1 for _ in network.pairs())
    kind = estimator.kind
    peak = (exact_peak_bytes(n_spins, mode) if kind == "exact"
            else typicality_peak_bytes(n_spins, estimator.n_samples))
    need = n_parallel * (workspace_bytes(n_spins, n_pairs) + peak)
    have = _physical_memory()
    if need > have:
        raise CapacityError(
            f"the {kind} estimator on {n_spins} spins and {n_pairs} coupled pairs needs at "
            f"least {need / 2**30:.2f} GiB for {n_parallel} task(s) at once, more than the "
            f"{have / 2**30:.2f} GiB of physical memory")


def _one_file_each(key: str, values, filename):
    """Raise ConfigError when two values of key name the same file, so
    that no task silently overwrites another's."""
    seen = {}
    for value in values:
        name = filename(value)
        if name in seen:
            raise ConfigError(f"{key}: {seen[name]!r} and {value!r} both write {name}")
        seen[name] = value


def _simulate_task(network, label: str, digest: str, protocol, estimator, seed: int) -> str:
    """The trajectory file body of one (p, seed) task."""
    traj = trajectory(network, protocol, estimator)
    traj.metadata.update(base_seed=traj.metadata["seed"], seed=int(seed), label=label)
    return sqio.format_trajectory(traj, digest)


def cmd_simulate(config: RunConfig, out_dir) -> dict:
    """One trajectory file per (p, seed); resumes by config digest."""
    ps, seeds = config.p_sweep, config.seeds
    _one_file_each("p_sweep", ps, lambda p: sqio.trajectory_filename(p, seeds[0]))
    _one_file_each("seeds", seeds, lambda seed: sqio.trajectory_filename(ps[0], seed))
    out = _ensure_outdir(out_dir)
    network = config.build_network()
    digest = config.digest()
    # every task is built and listed, and capacity checked, before any is computed
    tasks, skipped = [], []
    for p in ps:
        protocol = config.build_protocol(p)
        for seed in seeds:
            estimator = config.estimator_config(seed)
            path = out / sqio.trajectory_filename(p, seed)
            if path.exists():
                try:
                    existing = sqio.read_trajectory_file(path)
                except ConfigError:
                    existing = None
                if existing is not None and existing.metadata.get("config_digest") == digest:
                    skipped.append(str(path))
                    continue
            tasks.append((str(path), protocol, estimator, seed))
    n_workers = min(worker_count(), len(tasks))
    if not tasks:
        return {"written": [], "skipped": skipped, "config_digest": digest}
    paths, protocols, estimators, seeds = zip(*tasks)
    _capacity_check(network, protocols[0].mode, estimators[0], n_workers)
    run = partial(_simulate_task, network, config.label, digest)
    with ProcessPoolExecutor(n_workers) if n_workers > 1 else nullcontext() as pool:
        bodies = (pool.map if pool else map)(run, protocols, estimators, seeds)
        for path, body in zip(paths, bodies):
            sqio.atomic_write_text(path, body)
    return {"written": list(paths), "skipped": skipped, "config_digest": digest}


def cmd_synth(config: RunConfig, out_dir) -> dict:
    """Synthetic trajectories from the planted scaling form, same file format."""
    params = config.synth_params()
    _one_file_each("synth.p_list", params["p_list"],
                   lambda p: sqio.trajectory_filename(p, params["seed"]))
    out = _ensure_outdir(out_dir)
    try:
        trajs = synth_trajectories(**params)
    except ValueError as exc:
        raise ConfigError(f"invalid synth parameters: {exc}") from None
    digest = config.digest()
    written = []
    for traj in trajs:
        traj.metadata["label"] = config.label
        path = out / sqio.trajectory_filename(traj.p, params["seed"])
        sqio.write_trajectory_file(path, traj, digest)
        written.append(str(path))
    return {"written": written, "skipped": [], "config_digest": digest}


def _combine_seeds(group: list) -> ClusterTrajectory:
    """Geometric mean of K across seeds sharing one p.

    K is a variance (strictly positive, log-normal-ish scatter), so the
    mean in log space is the right average and keeps power laws straight.
    """
    first = group[0]
    if len(group) == 1:
        return first
    for other in group[1:]:
        if not np.array_equal(other.times, first.times):
            raise ConfigError(
                f"trajectories for p={first.p} have mismatched time grids "
                "and cannot be seed-averaged")
    logk = np.mean([np.log(tr.K) for tr in group], axis=0)
    meta = dict(first.metadata)
    meta["n_seeds"] = len(group)
    meta.pop("seed", None)
    return ClusterTrajectory(p=first.p, times=first.times.copy(),
                             K=np.maximum(np.exp(logk), 1.0), metadata=meta)


def load_input_trajectories(config: RunConfig, key: str = "scale.input_dir") -> list:
    (input_dir,) = config.require(key)
    trajs = sqio.load_trajectory_dir(input_dir)
    groups = {}
    for tr in trajs:
        groups.setdefault(tr.p, []).append(tr)
    return [_combine_seeds(groups[p]) for p in sorted(groups)]


def cmd_scale(config: RunConfig, out_dir) -> dict:
    """Full scaling analysis of a trajectory directory; writes report.json
    and pooled.csv.  Every number in them comes from the config, so its
    digest identifies the report."""
    out = _ensure_outdir(out_dir)
    combined = load_input_trajectories(config)
    if len(combined) < 3:
        raise ConfigError(f"collapse needs >= 3 curves at distinct p, "
                          f"found {len(combined)} (p={[tr.p for tr in combined]})")
    anchor_p = config.get("scale.anchor_p", max(tr.p for tr in combined))
    if not any(math.isclose(tr.p, anchor_p, rel_tol=1e-9, abs_tol=1e-9) for tr in combined):
        raise ConfigError(f"scale.anchor_p = {anchor_p} is not among the input p values "
                          f"{[tr.p for tr in combined]}")
    result = full_scaling_analysis(
        combined, anchor_p=anchor_p, beta_grid=config.get("scale.beta_grid"),
        t_min=config.get("scale.t_min"), growth_t_min=config.get("scale.growth_t_min"),
        n_bootstrap=config.get("scale.n_bootstrap", 100),
        bootstrap_seed=config.get("scale.bootstrap_seed", 0))
    growth, scan, fit = result.growth, result.scan, result.fit

    report = {
        "alpha": growth.alpha,
        "alpha_K": growth.alpha_K,
        "growth": {"r2": growth.r2, "t_min": growth.t_min, "n_points": growth.n_points},
        "collapse": {"t_min": result.t_min},
        "beta": scan.best_beta,
        "beta_scan": [{"beta": b, "residual": r} for b, r in sorted(scan.residuals.items())],
        "xi": [{"p": p, "xi": x} for p, x in sorted(result.xi.items())],
        "fit": {"A": fit.A, "B": fit.B, "nu": fit.nu, "p_c": fit.p_c,
                "p_c_bounds": list(fit.gap), "s": result.s, "branch_gauge": fit.gamma,
                "std_err": fit.std_err},
        "residuals": {"collapse": scan.best.residual,
                      "beta_scan": scan.residuals[scan.best_beta],
                      "pairs": [{"p_lo": lo, "p_hi": hi, "rms": math.sqrt(sq / n), "n": n}
                                for (lo, hi), (sq, n) in scan.best.pair_stats.items()],
                      "excluded_pair": scan.best.excluded_pair()},
        "anchor_p": float(anchor_p),
        "bootstrap": result.bootstrap,
        "n_curves": len(combined),
        "config_digest": config.digest(),
    }
    report_path = out / "report.json"
    sqio.write_report_json(report_path, _jsonable(report))
    sqio.write_pooled_csv(out / "pooled.csv", scan.best.pooled)
    return {"report": str(report_path), "pooled": str(out / "pooled.csv"),
            "result": result}


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    return obj


def cmd_plot(config: RunConfig, out_dir) -> dict:
    """SVG figures from trajectory files and, when given, a scale report."""
    out = _ensure_outdir(out_dir)
    combined = load_input_trajectories(config, key="plot.input_dir")
    figures = {"trajectories": plots.plot_trajectories(combined)}
    spectral = next((tr for tr in combined if tr.spectra), None)
    if spectral is not None:
        figures["spectrum_heatmap"] = plots.plot_spectrum_heatmap(spectral)

    report_path = config.get("plot.report")
    if report_path:
        report = sqio.read_report_json(report_path)
        growth = fit_growth_exponent(combined[0],
                                     t_min=report["growth"]["t_min"])
        # the collapse's scaling window, which pooled.csv holds too, not
        # the growth-fit window
        curves = rescale(combined, growth, report["beta"],
                         t_min=report["collapse"]["t_min"])
        figures["rescaled"] = plots.plot_rescaled(curves)
        pooled_path = Path(report_path).with_name("pooled.csv")
        if pooled_path.exists():
            figures["collapsed"] = plots.plot_collapsed(sqio.read_pooled_csv(pooled_path))
        figures["xi_fit"] = plots.plot_xi_fit(report)

    paths = []
    for name, svg in figures.items():
        path = out / f"{name}.svg"
        sqio.atomic_write_text(path, svg)
        paths.append(str(path))
    return {"written": paths}
