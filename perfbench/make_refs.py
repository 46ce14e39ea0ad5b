"""Generate the exact-path reference spectra the benchmark checks against.

    python3 perfbench/make_refs.py [--toy]

For each simulate workload, runs ``spinquench simulate`` with the exact
estimator on the workload's network, protocol and p, and stores the
spectra with the digest of that configuration in perfbench/refs/<workload>.json
(with --toy: toy sizes, in .bench_work/toy_refs/).  Floquet inputs go
through the dense Floquet path, which covers n <= 12.
"""

from __future__ import annotations

import argparse
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from spinquench.cli import main as spinquench  # noqa: E402

from checks import refs_dir, write_reference  # noqa: E402
from workloads import workloads  # noqa: E402


def generate(workload, refs_dir: Path, work: Path) -> Path:
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cfg = work / "ref.cfg"
    cfg.write_text(workload.reference_config_text(), encoding="utf-8")
    try:
        rc = spinquench(["simulate", "--config", str(cfg), "--out", str(work)])
        if rc != 0:
            raise RuntimeError(f"exact simulate for {workload.name} exited with {rc}")
        (traj,) = sorted(work.glob("traj_*.csv"))
        return write_reference(workload, traj, refs_dir)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--toy", action="store_true")
    args = ap.parse_args(argv)
    for name, workload in workloads(toy=args.toy).items():
        if workload.has_reference:
            path = generate(workload, refs_dir(args.toy), ROOT / ".bench_work" / f"ref-{name}")
            print(f"{name}: {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
