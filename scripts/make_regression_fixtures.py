"""Regenerate the stored trajectory fixtures under tests/data/.

The 14-spin typicality run (24 samples of 8 sector streams) takes about
11 minutes on 2 cores, which is why the test suite reads the stored file
instead of recomputing it.  Rerun this script whenever the estimator,
propagator, or geometry code changes in a way that is supposed to alter
the numbers, and commit the refreshed files.
"""

import dataclasses
import pathlib
import sys

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from spinquench.evolution import QuenchProtocol
from spinquench.io import write_trajectory_file
from spinquench.mqc import EstimatorConfig, trajectory
from spinquench.network import SpinGeometry, dipolar_couplings

DATA_DIR = pathlib.Path(__file__).resolve().parents[1] / "tests" / "data"

# The free quench at N=14 grows over roughly t in [0.21, 0.30] and bends
# into the finite-size shoulder right after; the grid deliberately runs
# past the shoulder and only the first GROWTH_POINTS rows are stored, so
# the stored file is exactly the power-law window a default fit selects.
GRID = np.geomspace(0.21, 0.375, 8)
GROWTH_POINTS = 5


def blob14_network():
    """14 spins on jittered cubic sites: three-dimensional, ergodic, no
    lattice symmetry left to stall the quench growth."""
    rng = np.random.default_rng(3)
    sites = [(x, y, z) for x in range(3) for y in range(3) for z in range(2)][:14]
    pos = np.array(sites, float) + rng.uniform(-0.25, 0.25, (14, 3))
    return dipolar_couplings(SpinGeometry(pos, np.array([0.0, 0.0, 1.0]), "blob14", 3))


def main():
    DATA_DIR.mkdir(parents=True, exist_ok=True)
    net = blob14_network()
    est = EstimatorConfig(kind="typicality", n_samples=24, base_seed=0)
    traj = trajectory(net, QuenchProtocol.average(0.0, GRID), est)
    print("full K:", " ".join(f"{k:.4f}" for k in traj.K))
    n = GROWTH_POINTS
    kept = dataclasses.replace(
        traj, times=traj.times[:n], K=traj.K[:n],
        spectra=None if traj.spectra is None else traj.spectra[:n])
    kept.metadata["fixture"] = "n14_growth"
    out = DATA_DIR / "traj_n14_p0_typicality.csv"
    write_trajectory_file(out, kept, config_digest="fixture-n14-growth")
    print(f"wrote {out} ({n} of {len(GRID)} rows)")


if __name__ == "__main__":
    main()
