"""One fresh process of the benchmark: run, trace or time the set-up of a
workload through the spinquench CLI entry ``spinquench.cli.main``.

    python3 perfbench/child.py run|trace|setup JOB.json

JOB.json holds ``commands`` (CLI argument lists, run in order), and for
``trace`` the trace output path, for ``setup`` the workload kind, config
path and result path.  The exit code is the first non-zero CLI exit code.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402


def setup(job) -> float:
    """Import, config parse, and network + workspace build (simulate) or
    trajectory load (scale): what a command does before its real work."""
    from spinquench.config import RunConfig
    config = RunConfig.load(job["config"])
    if job["kind"] == "simulate":
        from spinquench.operators import workspace_for
        workspace_for(config.build_network())
    else:
        from spinquench.pipeline import load_input_trajectories
        load_input_trajectories(config)
    return time.perf_counter() - T0


def main() -> int:
    mode, job_path = sys.argv[1], sys.argv[2]
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    if mode == "setup":
        with open(job["out"], "w", encoding="utf-8") as fh:
            json.dump({"setup_s": setup(job)}, fh)
        return 0
    tracer = None
    if mode == "trace":
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    from spinquench.cli import main as cli
    rc = 0
    for argv in job["commands"]:
        rc = cli(argv)
        if rc:
            break
    if tracer is not None:
        tracer.dump(job["trace_out"])
    return rc


if __name__ == "__main__":
    sys.exit(main())
