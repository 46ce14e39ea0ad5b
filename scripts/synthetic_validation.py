"""Closed-loop check of the scaling pipeline on planted data.

Generates a family of synthetic K(t) curves from the finite-time scaling
form with known exponents, runs the full collapse + critical-fit pipeline
on them, and prints planted vs recovered values side by side, then the
bootstrap 95% interval of p_c and whether it covers the planted value.

With the defaults (p_c = 0.0266, nu = 0.42, noise 0.01, seed 7) the
growth exponent (2.8737), beta = 1, p_c = 0.026635 and nu = s = 0.4169
come back, and the p_c interval [0.026584, 0.026696] covers the planted
value.  The interval is still narrow: the bootstrap resamples only the
residuals of the xi fit, not the collapse before it.
"""

import argparse
import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from spinquench.cli import main as spinquench

CONFIG = """\
run.label = planted
synth.p_list = 0.005, 0.009, 0.014, 0.02, 0.033, 0.048, 0.06, 0.075, 0.09, 0.108
synth.p_c = {p_c}
synth.nu = {nu}
synth.s = {s}
synth.alpha = {alpha}
synth.A = 0.58
synth.B = 0.05
synth.noise_level = {noise}
synth.seed = {seed}
synth.time_grid = geom:1.0:500.0:40
scale.input_dir = {out}
scale.t_min = 2.0
scale.growth_t_min = 40.0
scale.n_bootstrap = {n_bootstrap}
scale.bootstrap_seed = 3
"""


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="synth_out", help="output directory")
    ap.add_argument("--p-c", type=float, default=0.0266)
    ap.add_argument("--nu", type=float, default=0.42)
    ap.add_argument("--s", type=float, default=0.42)
    ap.add_argument("--alpha", type=float, default=2.87)
    ap.add_argument("--noise", type=float, default=0.01)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--n-bootstrap", type=int, default=100)
    args = ap.parse_args()

    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    cfg = out / "planted.cfg"
    cfg.write_text(CONFIG.format(p_c=args.p_c, nu=args.nu, s=args.s, alpha=args.alpha,
                                 noise=args.noise, seed=args.seed,
                                 n_bootstrap=args.n_bootstrap, out=out))

    for argv in (["synth", "--config", str(cfg), "--out", str(out)],
                 ["scale", "--config", str(cfg), "--out", str(out)]):
        rc = spinquench(argv)
        if rc != 0:
            sys.exit(rc)

    report = json.loads((out / "report.json").read_text())
    fit = report["fit"]
    rows = [("alpha", args.alpha, report["alpha"]),
            ("p_c", args.p_c, fit["p_c"]),
            ("nu", args.nu, fit["nu"]),
            ("s", args.s, fit["s"]),
            ("beta", 1.0, report["beta"])]
    print("\n  param    planted   recovered")
    for name, planted, got in rows:
        print(f"  {name:<7} {planted:8.4f}  {got:10.4f}")
    boot = report.get("bootstrap")
    if boot:
        lo, hi = boot["p_c"]["ci_low"], boot["p_c"]["ci_high"]
        covered = "covers" if lo <= args.p_c <= hi else "MISSES"
        print(f"\n  p_c 95% interval [{lo:#.5g}, {hi:#.5g}] {covered} the planted value")
    print(f"\nreport: {out}/report.json")


if __name__ == "__main__":
    main()
