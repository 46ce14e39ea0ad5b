"""spinquench benchmark: one workload, closed loop, one process at a time.

    python3 perfbench/run.py --workload typ12 --seed 0 --seconds 20 --trace 0

Each repetition runs the workload's CLI command(s) in a fresh Python
process (``child.py``) and checks its outputs.  Repetitions follow one
another until ``--seconds`` would be exceeded; medians are reported.

--trace 0   end-to-end metrics: wall_s, cpu_s, peak_rss_mb of a repetition,
            and setup_s, the median of SETUP_REPS separate set-up processes.
--trace 1   per-layer metrics: after one untimed warm-up repetition, traced
            and untraced repetitions alternate; layer times are medians over
            the traced ones, and trace.overhead_ratio compares the two kinds'
            median wall time.

Standard output ends with one JSON line: correct, attempted, failed and
metrics.  A results file stamped with the machine and code goes to
.bench_work/results/.  Run from the root of a source checkout; elsewhere
the benchmark exits with code 2 before measuring anything.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: set-up processes per run after one discarded warm-up; setup_s is their median
SETUP_REPS = 15
#: every run, set-up included, ends within this many seconds
RUN_DEADLINE_S = 170.0
#: BLAS threads per process: at most the cores this process may use, and 2
BLAS_THREADS = max(1, min(2, len(os.sched_getaffinity(0))))

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB"))


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def run_child(mode: str, job: dict, work: Path, deadline: float) -> dict:
    """Run child.py in a fresh process; wall, CPU and peak RSS of that process."""
    job_path = work / f"job-{mode}.json"
    job_path.write_text(json.dumps(job), encoding="utf-8")
    with open(work / f"{mode}.out", "w") as out, open(work / f"{mode}.err", "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), mode, str(job_path)],
                                stdout=out, stderr=err, env=child_env(), cwd=work)
        timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            # interrupted or terminated: leave no child behind
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"rc": proc.returncode, "wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024.0,
            "stderr": (work / f"{mode}.err").read_text(errors="replace")[-2000:]}


def commands(workload, cfg: Path, out: Path) -> list:
    if workload.kind == "simulate":
        return [["simulate", "--config", str(cfg), "--out", str(out)]]
    return [["synth", "--config", str(cfg), "--out", str(out)],
            ["scale", "--config", str(cfg), "--out", str(out)]]


def repetition(workload, seed, reference, work: Path, deadline: float, traced: bool) -> dict:
    """One checked execution of the workload in a fresh directory."""
    rep_dir = work / "rep"
    shutil.rmtree(rep_dir, ignore_errors=True)
    rep_dir.mkdir()
    out = rep_dir / "out"
    cfg = rep_dir / "run.cfg"
    text = workload.config_text(seed, input_dir=str(out))
    cfg.write_text(text, encoding="utf-8")
    job = {"commands": commands(workload, cfg, out), "trace_out": str(rep_dir / "trace.json")}
    rep = run_child("trace" if traced else "run", job, rep_dir, deadline)
    rep["traced"] = traced
    rep["ok"] = False
    if rep["rc"] != 0:
        rep["error"] = f"exit code {rep['rc']}: {rep['stderr'][-500:]}"
    else:
        from checks import check_scale, check_simulate
        try:
            rep["accuracy"] = (check_simulate(workload, out, reference) if workload.kind == "simulate"
                               else check_scale(text, out))
            rep["ok"] = True
        except Exception as exc:  # a failed check fails this repetition, not the run
            rep["error"] = f"{type(exc).__name__}: {exc}"
    if traced and rep["rc"] == 0:
        rep["trace"] = json.loads((rep_dir / "trace.json").read_text(encoding="utf-8"))
    shutil.rmtree(rep_dir, ignore_errors=True)
    del rep["stderr"]
    return rep


def setup_times(workload, seed, work: Path, deadline: float) -> list:
    """setup_s of SETUP_REPS fresh processes; scale loads a synth output."""
    sdir = work / "setup"
    sdir.mkdir()
    cfg = sdir / "run.cfg"
    cfg.write_text(workload.config_text(seed, input_dir=str(sdir / "in")), encoding="utf-8")
    if workload.kind != "simulate":
        prep = run_child("run", {"commands": [commands(workload, cfg, sdir / "in")[0]]},
                         sdir, deadline)
        if prep["rc"] != 0:
            raise RuntimeError(f"synth for set-up failed: {prep['stderr'][-500:]}")
    times = []
    for _ in range(SETUP_REPS + 1):
        job = {"kind": workload.kind, "config": str(cfg), "out": str(sdir / "setup.json")}
        res = run_child("setup", job, sdir, deadline)
        if res["rc"] != 0:
            raise RuntimeError(f"set-up process failed: {res['stderr'][-500:]}")
        times.append(json.loads((sdir / "setup.json").read_text())["setup_s"])
    shutil.rmtree(sdir, ignore_errors=True)
    return times[1:]


def h_norms(workload, ps) -> dict:
    """||H(p)||_2 for each p, computed once per run, outside every timed span."""
    import numpy as np
    from scipy.sparse.linalg import LinearOperator, eigsh
    from spinquench.config import RunConfig
    from spinquench.operators import _apply_mixed_array, workspace_for
    ws = workspace_for(RunConfig.parse(workload.config_text(0)).build_network())
    dim = ws.basis.dimension
    v0 = np.random.default_rng(0).standard_normal(dim)
    norms = {}
    for p in ps:
        op = LinearOperator((dim, dim), dtype=float,
                            matvec=lambda x, p=p: _apply_mixed_array(ws, p, np.ravel(x)))
        norms[p] = float(abs(eigsh(op, k=1, which="LM", v0=v0, return_eigenvectors=False)[0]))
    return norms


def median(values):
    return statistics.median(values) if values else 0.0


def measure(workload, seed, seconds, traced, reference, work, deadline):
    """Repetitions until the next one would end after ``seconds``.

    A traced run starts with one checked but untimed warm-up repetition:
    otherwise the first untraced repetition alone pays for cold caches and
    first-touch memory (~35% on exact12), which biases trace.overhead_ratio.
    """
    reps = []
    if traced:
        reps.append(repetition(workload, seed, reference, work, deadline, False))
        reps[0]["warmup"] = True
    start = time.perf_counter()
    cycle = (False, True) if traced else (False,)
    while True:
        t0 = time.perf_counter()
        for kind in cycle:
            reps.append(repetition(workload, seed, reference, work, deadline, kind))
        one = time.perf_counter() - t0
        if time.perf_counter() - start + one > seconds or time.monotonic() + one > deadline:
            return reps


def end_to_end(reps, setup) -> dict:
    good = [r for r in reps if r["ok"]] or reps
    out = {k: median([r[k] for r in good]) for k in ("wall_s", "cpu_s", "peak_rss_mb")}
    out["setup_s"] = median(setup)
    return out


def per_layer(workload, reps) -> tuple:
    from tracing import LAYER_METRICS, layer_metrics
    traced = [r for r in reps if r["traced"] and "trace" in r]
    plain = [r for r in reps if not r["traced"] and r["ok"] and not r.get("warmup")]
    ps = sorted({p for r in traced for p, _ in r["trace"]["exp_time"]})
    norms = h_norms(workload, ps) if ps else {}
    layers = [layer_metrics(r["trace"], norms) for r in traced]
    counts = [name for name, unit, _ in LAYER_METRICS if unit == "count"]
    repeat = all(m[c] == layers[0][c] for m in layers for c in counts)
    out = {name: median([m[name] for m in layers]) for name in layers[0]} if layers else {}
    out.update({c: int(out[c]) for c in counts if c in out})
    wall_plain = median([r["wall_s"] for r in plain])
    wall_traced = median([r["wall_s"] for r in traced])
    out["trace.overhead_ratio"] = wall_traced / wall_plain - 1.0 if wall_plain else 0.0
    for name, _, _ in LAYER_METRICS:
        out.setdefault(name, 0.0)
    return out, {"counts_repeat_exactly": repeat, "h_norms": {str(p): v for p, v in norms.items()}}


def accuracy(reps) -> dict:
    out = {}
    for key in ("spec_l1", "p_c_rel_err", "nu_rel_err"):
        vals = [r["accuracy"][key] for r in reps if key in r.get("accuracy", {})]
        out[key] = median(vals)
    out["fail_ratio"] = sum(not r["ok"] for r in reps) / len(reps)
    return out


def stamp(seconds) -> dict:
    """The machine and code a result came from."""
    import numpy
    import platform
    import scipy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = git.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "spinquench").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)), "cpu_model": cpu,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": BLAS_THREADS},
        "python": platform.python_version(), "numpy": numpy.__version__, "scipy": scipy.__version__,
        "git_commit": commit, "src_sha256": digest.hexdigest(), "run_seconds": seconds,
        "load": "closed loop, 1 client, 1 process at a time",
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=None, help="workload seed (default per workload)")
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--toy", action="store_true", help="toy sizes (self-test)")
    args = ap.parse_args(argv)
    deadline = time.monotonic() + RUN_DEADLINE_S
    # SIGTERM unwinds like an interrupt, so the running child is stopped too
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (SRC / "spinquench" / "cli.py").is_file():
        print(f"no spinquench sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import workloads
    specs = workloads(toy=args.toy)
    if args.workload not in specs:
        print(f"unknown workload {args.workload!r}; choose from {', '.join(specs)}", file=sys.stderr)
        return 2
    workload = specs[args.workload]
    seed = workload.default_seed if args.seed is None else args.seed

    from checks import CheckFailed, load_reference, refs_dir
    bench_dir = ROOT / ".bench_work"
    work = bench_dir / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        reference = load_reference(workload, refs_dir(args.toy)) if workload.has_reference else None
        setup = [] if args.trace else setup_times(workload, seed, work, deadline)
        reps = measure(workload, seed, args.seconds, bool(args.trace), reference, work, deadline)
    except CheckFailed as exc:
        print(f"benchmark refused: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    acc = accuracy(reps)
    extra = {}
    if args.trace:
        values, extra = per_layer(workload, reps)
        values.update(acc)
        from tracing import LAYER_METRICS
        units = {name: unit for name, unit, _ in LAYER_METRICS}
    else:
        values = end_to_end(reps, setup)
        units = dict(END_TO_END)
    failed = sum(not r["ok"] for r in reps)
    result = {"correct": failed == 0, "attempted": len(reps), "failed": failed,
              "metrics": {k: {"value": values[k], "unit": units[k]} for k in units}}

    results_dir = bench_dir / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    record = {"workload": workload.name, "seed": seed, "trace": args.trace, "toy": args.toy,
              "config": workload.config_text(seed), "stamp": stamp(args.seconds),
              "setup_s_samples": setup, "accuracy": acc, **extra, **result,
              "repetitions": [{k: v for k, v in r.items() if k != "trace"} for r in reps]}
    (results_dir / f"{workload.name}-seed{seed}-trace{args.trace}-{time.time_ns()}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"# {workload.name} seed={seed} reps={len(reps)} failed={failed} "
          f"blas_threads={BLAS_THREADS}")
    for r in reps:
        if not r["ok"]:
            print(f"#   failed repetition: {r['error']}")
    shown = dict(values)
    if not args.trace:
        shown.update(acc)
    for name, value in shown.items():
        unit = units.get(name, "1")
        print(f"{name:32s} {value:>14.6g} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
