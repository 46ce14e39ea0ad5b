"""Toy-size self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload at toy size (n <= 6 lattices, 2-point grids, a 3-beta
scan) untraced and traced, against toy references generated on the spot
in .bench_work/toy_refs, and checks that:

- every run is correct and reports exactly the metrics BENCHMARK.json lists;
- the bypass predictions hold in the trace, and counts repeat exactly
  between two traced runs of the same seed;
- a reference made for other inputs is refused, a spectrum off by 1e-6
  fails the exact check, and a directory without sources is refused.

Exits 0 when all of that holds.  Works under .bench_work/selftest.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from checks import refs_dir  # noqa: E402

WORK = ROOT / ".bench_work" / "selftest"
SIMULATE = ("typ12", "floquet10", "exact12")


def bench(*args):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--toy", "--seconds", "1", *args],
                          cwd=ROOT, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, result, proc.stderr


def expect(cond, what):
    if not cond:
        raise SystemExit(f"selftest FAILED: {what}")


def run_workloads(spec) -> dict:
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    traces = {}
    for w in spec["workloads"]:
        name = w["name"]
        for trace, want in ((0, e2e), (1, layers), (1, layers)):
            rc, res, err = bench("--workload", name, "--seed", "1", "--trace", str(trace))
            expect(rc == 0 and res is not None, f"{name} trace={trace} exited {rc}: {err[-800:]}")
            expect(res["correct"] and res["failed"] == 0, f"{name} trace={trace} incorrect: {res}")
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            expect(got == want, f"{name} trace={trace} metrics differ from BENCHMARK.json")
            if trace == 0:
                expect(all(v["value"] > 0 for v in res["metrics"].values()),
                       f"{name}: an end-to-end metric is 0")
            else:
                traces.setdefault(name, []).append(
                    {k: v["value"] for k, v in res["metrics"].items()})
        print(f"ok  {name}: untraced and twice traced")
    return traces


def check_trace(traces, spec):
    counts = [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]
    for name, (first, second) in traces.items():
        for c in counts:
            expect(first[c] == second[c], f"{name}: count {c} differs between traced runs")
        scaling = {k: v for k, v in first.items() if k.startswith("scaling.")}
        if name in SIMULATE:
            expect(not any(scaling.values()), f"{name}: scaling metrics not 0: {scaling}")
        if name in ("exact12", "scale_synth"):
            expect(first["operators.matvec_calls"] == 0, f"{name}: matvec calls not 0")
        if name in ("typ12", "floquet10"):
            expect(first["operators.matvec_calls"] > 0, f"{name}: no matvec calls")
            for k in ("operators.order_weights_s", "evolution.exact_first_s",
                      "evolution.exact_step_s"):
                expect(first[k] == 0, f"{name}: {k} not 0")
        if name == "exact12":
            expect(first["evolution.exact_first_s"] > 0 and first["evolution.exact_step_s"] > 0,
                   "exact12: no dense evolution spans")
        if name == "scale_synth":
            expect(first["scaling.pair_evals"] > 0 and first["scaling.beta_scan_s"] > 0,
                   "scale_synth: no scaling spans")
    print("ok  bypass predictions hold; counts repeat exactly")


def check_refusals():
    path = refs_dir(toy=True) / "exact12.json"
    good = path.read_text()
    try:
        ref = json.loads(good)
        ref["config_digest"] = "0" * 16
        path.write_text(json.dumps(ref))
        rc, res, _ = bench("--workload", "exact12", "--seed", "1", "--trace", "0")
        expect(rc != 0 and res is None, "a reference for other inputs was accepted")

        ref = json.loads(good)
        ref["spectra"][-1][len(ref["spectra"][-1]) // 2] += 1e-6
        path.write_text(json.dumps(ref))
        rc, res, _ = bench("--workload", "exact12", "--seed", "1", "--trace", "0")
        expect(rc == 0 and res is not None and not res["correct"]
               and res["failed"] == res["attempted"],
               "a spectrum 1e-6 off the reference passed the exact check")
    finally:
        path.write_text(good)

    bare = WORK / "bare"
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "typ12", "--seed", "0",
                           "--seconds", "1", "--trace", "0"], cwd=bare, capture_output=True,
                          text=True, timeout=180)
    expect(proc.returncode != 0 and "{" not in proc.stdout, "ran without sources")
    print("ok  foreign reference refused, perturbed spectrum caught, bare directory refused")


def main() -> int:
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    try:
        subprocess.run([sys.executable, str(HERE / "make_refs.py"), "--toy"],
                       check=True, capture_output=True, timeout=180)
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        check_trace(run_workloads(spec), spec)
        check_refusals()
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
