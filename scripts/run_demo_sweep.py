"""End-to-end demo on a lattice small enough for the exact estimator.

Simulates a perturbation sweep on 8 spins, renders the SVG figures, and
prints the late-time cluster sizes so the slowdown with increasing p is
visible straight from the terminal.  Runs in well under a minute.
"""

import argparse
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from spinquench.cli import main as spinquench
from spinquench.io import read_trajectory_file, trajectory_filename

CONFIG = """\
run.label = demo8
geometry.kind = cubic_lattice
geometry.shape = 4, 2, 1
geometry.field_axis = 0, 0, 1
protocol.time_grid = geom:0.3:8.0:10
p_sweep = 0.0, 0.15, 0.35, 0.7, 1.0
estimator.kind = exact
estimator.keep_spectra = true
plot.input_dir = {out}
"""


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="demo_out", help="output directory")
    args = ap.parse_args()

    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    cfg = out / "demo.cfg"
    cfg.write_text(CONFIG.format(out=out))

    for argv in (["simulate", "--config", str(cfg), "--out", str(out)],
                 ["plot", "--config", str(cfg), "--out", str(out)]):
        rc = spinquench(argv)
        if rc != 0:
            sys.exit(rc)

    ps = [0.0, 0.15, 0.35, 0.7, 1.0]
    print("\n   p     K(final)")
    for p in ps:
        traj = read_trajectory_file(out / trajectory_filename(p, 0))
        print(f"  {p:4.2f}   {traj.K[-1]:7.3f}")
    print(f"\nfigures: {out}/trajectories.svg, {out}/spectrum_heatmap.svg")


if __name__ == "__main__":
    main()
