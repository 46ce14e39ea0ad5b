"""Command-line entry point.

Every command takes only --config and --out: the config file is the one
input to the numbers a run writes, so its digest identifies them.

Exit codes: 0 success, 2 configuration problems (bad config file,
missing inputs, capacity limits), 3 numerical failures (non-convergence,
infeasible collapse, failed fits). Anything else is a bug and escapes
with a traceback.
"""

from __future__ import annotations

import argparse
import sys

from .config import RunConfig
from .errors import ConfigError, NumericalError
from .pipeline import cmd_plot, cmd_scale, cmd_simulate, cmd_synth


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinquench",
        description="Quench simulator and finite-time scaling analysis for "
                    "dipolar spin networks")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="run configuration file")
        p.add_argument("--out", default=None,
                       help="output directory (default: output.dir from the config)")

    common(sub.add_parser("simulate", help="evolve trajectories for a p sweep"))
    common(sub.add_parser("synth", help="generate synthetic trajectories"))
    common(sub.add_parser("scale", help="collapse trajectories and fit xi(p)"))
    common(sub.add_parser("plot", help="render SVG figures"))
    return parser


def _resolve_out(args, config):
    if args.out is not None:
        return args.out
    out = config.get("output.dir")
    if out is None:
        raise ConfigError("no output directory: pass --out or set output.dir")
    return out


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = RunConfig.load(args.config)
        out = _resolve_out(args, config)
        if args.command == "simulate":
            summary = cmd_simulate(config, out)
            print(f"simulate: {len(summary['written'])} written, "
                  f"{len(summary['skipped'])} up to date, digest {summary['config_digest']}")
        elif args.command == "synth":
            summary = cmd_synth(config, out)
            print(f"synth: {len(summary['written'])} trajectories, "
                  f"digest {summary['config_digest']}")
        elif args.command == "scale":
            summary = cmd_scale(config, out)
            result = summary["result"]
            print(f"scale: beta = {result.scan.best_beta:g}, p_c = {result.fit.p_c:.6g}, "
                  f"nu = {result.fit.nu:.6g}, report at {summary['report']}")
        elif args.command == "plot":
            summary = cmd_plot(config, out)
            print(f"plot: {len(summary['written'])} figures in {out}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
