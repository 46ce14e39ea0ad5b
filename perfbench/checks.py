"""Output checks and accuracy measures, and the exact-path references they
compare against.

A reference holds the exact-estimator spectra for a workload's network,
protocol and p, together with the digest of the exact-path configuration
it came from.  ``load_reference`` refuses a reference whose digest differs
from the one the current workload definition gives.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from spinquench.config import RunConfig
from spinquench.io import read_trajectory_file

from workloads import PLANTED_NU, PLANTED_P_C

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


class CheckFailed(Exception):
    """An output, or the reference it is compared with, is not acceptable."""


def refs_dir(toy: bool) -> Path:
    """Where references live: committed for full sizes, generated for toy sizes."""
    return ROOT / ".bench_work" / "toy_refs" if toy else HERE / "refs"


def reference_digest(workload) -> str:
    return RunConfig.parse(workload.reference_config_text()).digest()


def write_reference(workload, traj_path, refs_dir) -> Path:
    traj = read_trajectory_file(traj_path)
    path = Path(refs_dir) / f"{workload.name}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "workload": workload.name,
        "config_digest": reference_digest(workload),
        "config": workload.reference_config_text(),
        "times": [float(t) for t in traj.times],
        "spectra": [[float(w) for w in s.weights] for s in traj.spectra],
    }
    path.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    return path


def load_reference(workload, refs_dir) -> dict:
    path = Path(refs_dir) / f"{workload.name}.json"
    try:
        ref = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise CheckFailed(f"no reference for {workload.name}: {exc}") from None
    want = reference_digest(workload)
    if ref.get("config_digest") != want:
        raise CheckFailed(f"reference {path.name} was made for inputs {ref.get('config_digest')}, "
                          f"the workload has {want}; regenerate it with make_refs.py")
    return ref


def check_simulate(workload, out_dir, reference) -> dict:
    """One trajectory file that parses, K in [1, n], and spectra close to
    the exact path: within exact_tol per order, or spec_l1 under the ceiling."""
    files = sorted(Path(out_dir).glob("traj_*.csv"))
    if len(files) != 1:
        raise CheckFailed(f"expected one trajectory file, found {len(files)}")
    traj = read_trajectory_file(files[0])
    n = traj.metadata["n_spins"]
    if not (np.all(np.isfinite(traj.K)) and np.all(traj.K >= 1.0 - 1e-9)
            and np.all(traj.K <= n + 1e-9)):
        raise CheckFailed(f"K outside [1, {n}]: {traj.K.tolist()}")
    if not traj.spectra:
        raise CheckFailed("trajectory holds no spectra")
    if not np.allclose(traj.times, reference["times"], rtol=1e-12, atol=0.0):
        raise CheckFailed("trajectory times differ from the reference grid")
    got = np.array([s.weights for s in traj.spectra])
    want = np.array(reference["spectra"])
    if got.shape != want.shape:
        raise CheckFailed(f"spectra shape {got.shape} differs from reference {want.shape}")
    dev = np.abs(got - want)
    spec_l1 = float(dev.sum(axis=1).mean())
    if workload.exact_tol is not None and dev.max() > workload.exact_tol:
        raise CheckFailed(f"exact spectra deviate from the reference by {dev.max():.3e} "
                          f"> {workload.exact_tol:g}")
    if workload.spec_l1_ceiling is not None and spec_l1 > workload.spec_l1_ceiling:
        raise CheckFailed(f"spec_l1 {spec_l1:.4g} above the ceiling {workload.spec_l1_ceiling:g}")
    return {"spec_l1": spec_l1}


#: the planted family's collapse must select beta = s/nu = 1
EXPECTED_BETA = 1.0
MIN_BOOTSTRAP_OK = 0.9


def check_scale(config_text, out_dir) -> dict:
    """report.json with beta = 1 selected, >= 90% of bootstrap resamples
    fitted, and finite fit values."""
    try:
        report = json.loads((Path(out_dir) / "report.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise CheckFailed(f"no readable report.json: {exc}") from None
    if report["beta"] != EXPECTED_BETA:
        raise CheckFailed(f"beta {report['beta']} selected, expected {EXPECTED_BETA}")
    fit = report["fit"]
    for key in ("A", "B", "nu", "p_c"):
        # the report writes non-finite floats as strings
        if not (isinstance(fit[key], float) and math.isfinite(fit[key])):
            raise CheckFailed(f"fit value {key} = {fit[key]!r} is not finite")
    n_boot = RunConfig.parse(config_text).get("scale.n_bootstrap")
    ok_ratio = report["bootstrap"]["n_effective"] / n_boot
    if ok_ratio < MIN_BOOTSTRAP_OK:
        raise CheckFailed(f"bootstrap fitted {ok_ratio:.2f} of resamples, need {MIN_BOOTSTRAP_OK}")
    return {"p_c_rel_err": abs(fit["p_c"] - PLANTED_P_C) / PLANTED_P_C,
            "nu_rel_err": abs(fit["nu"] - PLANTED_NU) / PLANTED_NU}
