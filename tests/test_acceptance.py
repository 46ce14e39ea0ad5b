"""Acceptance gate: ten end-to-end checks, one verdict line each.

Every test prints exactly one PASS/FAIL line (bypassing pytest capture)
with the measured numbers, so a full run reads as a ten-line scorecard.
The checks cover operator selection rules, oracle equivalence of the
propagators and estimators, conservation laws, the p = 1 identity, the
N = 12 perturbation ordering, scaling-exponent arithmetic, synthetic
end-to-end recovery of planted critical parameters, collapse
correctness, xi normalization, and byte-level determinism.
"""

from __future__ import annotations

import contextlib
import sys
from pathlib import Path

import numpy as np
import pytest

from oracles import basis_vector, evolve_state_dense, h_mixed_dense
from spinquench import io as sqio
from spinquench.config import RunConfig
from spinquench.evolution import Propagator, QuenchProtocol, evolve_density_exact
from spinquench.mqc import (EstimatorConfig, ClusterTrajectory, mqc_exact,
                            mqc_typicality_grid, trajectory)
from spinquench.network import cubic_lattice_geometry, dipolar_couplings
from spinquench.operators import _apply_mixed_array, gaussian_state, workspace_for
from spinquench.pipeline import cmd_scale, cmd_simulate, cmd_synth
from spinquench.scaling import (RescaledCurve, beta_scan, collapse, estimate_k_loc,
                                fit_growth_exponent, normalize_xi, scaling_exponents,
                                synth_trajectories)


def _emit(num: int, name: str, passed: bool, detail: str):
    tag = "PASS" if passed else "FAIL"
    # sys.__stdout__ so the scorecard shows under pytest capture too
    print(f"{tag} {num:2d} {name}: {detail}", file=sys.__stdout__, flush=True)


@contextlib.contextmanager
def criterion(num: int, name: str):
    """Collects (ok, detail) checks; prints the verdict line on exit."""
    checks = []

    def check(ok, detail: str):
        checks.append((bool(ok), detail))

    try:
        yield check
    except Exception as exc:
        _emit(num, name, False, f"{type(exc).__name__}: {exc}")
        raise
    passed = all(ok for ok, _ in checks)
    _emit(num, name, passed, "; ".join(d for _, d in checks))
    assert passed, f"{name}: " + "; ".join(d for ok, d in checks if not ok)


@pytest.fixture(scope="module")
def lattice10():
    return dipolar_couplings(cubic_lattice_geometry((5, 2, 1)))


def test_01_selection_rules(chain6, lattice8, lattice10):
    with criterion(1, "selection rules") as check:
        leak_dd = leak_dq = 0.0
        for net in (chain6, lattice8, lattice10):
            ws = workspace_for(net)
            mz = ws.basis.mz_of
            for s in range(ws.basis.dimension):
                v = basis_vector(ws.basis.n_spins, s)
                out_dd = _apply_mixed_array(ws, 1.0, v)
                out_dq = _apply_mixed_array(ws, 0.0, v)
                leak_dd = max(leak_dd, float(np.abs(out_dd[mz != mz[s]]).max()))
                off = np.abs(mz - mz[s]) != 2
                leak_dq = max(leak_dq, float(np.abs(out_dq[off]).max()))
        check(leak_dd == 0.0, f"Hdd sector leakage {leak_dd:.1e}")
        check(leak_dq == 0.0, f"H0 non +-2 components {leak_dq:.1e}")

        worst_odd = 0.0
        times = np.array([0.5, 1.4, 3.0])
        for net in (chain6, lattice8, lattice10):
            for p in (0.0, 0.3, 0.7, 1.0):
                proto = QuenchProtocol.average(p, times)
                for _, w in evolve_density_exact(net, proto):
                    spec = mqc_exact(w)
                    odd = spec.weights[spec.orders % 2 != 0]
                    worst_odd = max(worst_odd, float(np.abs(odd).max()))
        check(worst_odd == 0.0,
              f"odd-order weight {worst_odd:.1e} (N=6,8,10; p=0,0.3,0.7,1)")


def test_02_oracle_equivalence(chain6, lattice8, lattice10):
    with criterion(2, "oracle equivalence") as check:
        rng = np.random.default_rng(5)
        worst = 0.0
        for net in (chain6, lattice8):
            basis = workspace_for(net).basis
            h_cache = {}
            for _ in range(10):
                p = float(rng.uniform(0.0, 1.0))
                t = float(rng.uniform(0.1, 3.0))
                v = gaussian_state(basis, rng.integers(1 << 31))
                v = v / np.linalg.norm(v)
                if p not in h_cache:
                    h_cache[p] = h_mixed_dense(net, p)
                dense = evolve_state_dense(h_cache[p], v, t)
                prop = Propagator(net, QuenchProtocol.average(p, [t]))
                free = prop.span_forward(v, 0)
                worst = max(worst, float(np.abs(dense - free).max()))
        check(worst <= 1e-8, f"dense vs Propagator max component err {worst:.2e} (20 pairs)")

        times = np.array([0.4, 1.1, 2.5])
        total = within = 0
        for net, n in ((lattice8, 8), (lattice10, 10)):
            for p in (0.0, 0.5):
                proto = QuenchProtocol.average(p, times)
                exact = [mqc_exact(w) for _, w in evolve_density_exact(net, proto)]
                typ = mqc_typicality_grid(net, proto, EstimatorConfig(n_samples=16, base_seed=2))
                for sp_t, sp_e in zip(typ, exact):
                    for o in range(-n, n + 1):
                        # 1e-12 floor: orders carrying only fp dust agree
                        # even when every sample put exactly zero there
                        tol = 3.0 * sp_t.std_err[n + o] + 1e-12
                        total += 1
                        within += abs(sp_t.weight(o) - sp_e.weight(o)) <= tol
        frac = within / total
        check(frac >= 0.95,
              f"typicality within 3 std_err for {within}/{total} orders ({frac:.1%}, N=8,10)")


def test_03_conservation(lattice8):
    with criterion(3, "conservation") as check:
        basis = workspace_for(lattice8).basis
        grid = np.linspace(0.15, 6.0, 40)
        proto = QuenchProtocol.average(0.37, grid)
        prop = Propagator(lattice8, proto)

        v0 = gaussian_state(basis, 11)
        v0 = v0 / np.linalg.norm(v0)
        v = v0
        norm_drift = 0.0
        for i in range(grid.size):
            v = prop.step_forward(v, i)
            norm_drift = max(norm_drift, abs(np.linalg.norm(v) - 1.0))
        check(norm_drift <= 1e-10, f"norm drift {norm_drift:.1e} over 40 steps")

        # Tr[Iz^2] = n 2^n / 4; rho = rho^dag puts equal weight on orders +-n
        purity0 = 8 * 2**8 / 4
        purity_drift = herm = 0.0
        for _, w in evolve_density_exact(lattice8, proto):
            purity_drift = max(purity_drift, abs(w.sum() - purity0) / purity0)
            herm = max(herm, float(np.abs(w - w[::-1]).max() / w.sum()))
        check(purity_drift <= 1e-10, f"Tr[rho^2] drift {purity_drift:.1e}")
        check(herm <= 1e-10, f"order asymmetry |w(n) - w(-n)| / Tr[rho^2] {herm:.1e}")

        back = v
        for i in reversed(range(grid.size)):
            back = prop.step_backward(back, i)
        fidelity = abs(np.vdot(v0, back)) / (np.linalg.norm(v0) * np.linalg.norm(back))
        check(fidelity >= 1.0 - 1e-8, f"reversibility fidelity 1 - {1.0 - fidelity:.1e}")


def test_04_no_quench_identity(lattice8):
    with criterion(4, "p = 1 identity") as check:
        times = np.geomspace(0.3, 10.0, 8)
        proto = QuenchProtocol.average(1.0, times)
        exact = trajectory(lattice8, proto, EstimatorConfig(kind="exact"))
        check(np.all(exact.K == 1.0), f"exact K in [{exact.K.min()}, {exact.K.max()}]")
        typ = trajectory(lattice8, proto,
                         EstimatorConfig(kind="typicality", n_samples=4, base_seed=0))
        check(np.all(typ.K <= 1.0 + 1e-9),
              f"typicality max K {typ.K.max():.6f} (noise floor)")


def test_05_perturbation_ordering(lattice12_trajectory):
    with criterion(5, "perturbation ordering, N = 12") as check:
        plateaus = {}
        for p in (0.0, 0.2, 0.5, 1.0):
            traj = lattice12_trajectory(p)
            plateaus[p] = float(np.mean(traj.K[-3:]))
        vals = [plateaus[p] for p in (0.0, 0.2, 0.5, 1.0)]
        check(all(a >= b - 1e-9 for a, b in zip(vals, vals[1:])),
              "plateau K non-increasing in p: "
              + ", ".join(f"{p}: {plateaus[p]:.2f}" for p in (0.0, 0.2, 0.5, 1.0)))
        check(vals[2] > vals[3] + 0.5, f"strict drop into p = 1 ({vals[2]:.2f} -> {vals[3]:.2f})")


def test_06_scaling_arithmetic():
    with criterion(6, "scaling arithmetic") as check:
        k1, k2p = scaling_exponents(2.87, 1.0)
        check(k1 == pytest.approx(1.9133333333333333, rel=1e-12), f"k1 = {k1:.6f}")
        check(k2p == pytest.approx(0.9566666666666666, rel=1e-12), f"k2' = {k2p:.6f}")
        check(f"{k1:.2f}" == "1.91" and f"{k2p:.2f}" == "0.96",
              f"rounding {k1:.2f} / {k2p:.2f}")


def test_07_synthetic_recovery(tmp_path):
    with criterion(7, "synthetic recovery") as check:
        family = tmp_path / "family"
        text = f"""
        run.label = recovery
        synth.p_list = 0.005, 0.010, 0.015, 0.020, 0.024, 0.030, 0.040, 0.060, 0.108
        synth.p_c = 0.0266
        synth.nu = 0.42
        synth.s = 0.42
        synth.alpha = 2.87
        synth.A = 0.58
        synth.B = 0.05
        synth.noise_level = 0.01
        synth.seed = 7
        synth.time_grid = geom:1.0:500.0:40
        scale.input_dir = {family}
        scale.t_min = 2.0
        scale.growth_t_min = 40.0
        scale.n_bootstrap = 100
        scale.bootstrap_seed = 3
        """
        config = RunConfig.parse(text)
        cmd_synth(config, family)
        out = cmd_scale(config, tmp_path / "scaled")
        report = sqio.read_report_json(out["report"])

        check(report["beta"] == 1.0, f"beta scan selected {report['beta']:g}")
        p_c, nu = report["fit"]["p_c"], report["fit"]["nu"]
        check(abs(p_c - 0.0266) <= 0.05 * 0.0266, f"p_c = {p_c:.5f} (planted 0.0266)")
        check(abs(nu - 0.42) <= 0.10 * 0.42, f"nu = {nu:.4f} (planted 0.42)")
        boot = report["bootstrap"]
        check(boot["p_c"]["ci_low"] <= 0.0266 <= boot["p_c"]["ci_high"],
              f"p_c CI [{boot['p_c']['ci_low']:.4f}, {boot['p_c']['ci_high']:.4f}]")
        check(boot["nu"]["ci_low"] <= 0.42 <= boot["nu"]["ci_high"],
              f"nu CI [{boot['nu']['ci_low']:.3f}, {boot['nu']['ci_high']:.3f}]")


def test_08_collapse_correctness():
    with criterion(8, "collapse correctness") as check:
        master = lambda u: 0.05 * u**3 - 0.4 * u**2 + 0.3 * u
        base = np.linspace(-2.0, 2.0, 41)
        planted = (0.0, 0.31, 0.55, 0.8)
        curves = [RescaledCurve(p=p, x=base - d, y=master(base))
                  for p, d in zip((0.1, 0.2, 0.3, 0.4), planted)]
        result = collapse(curves)
        recovered = [result.shifts[p] for p in (0.1, 0.2, 0.3, 0.4)]
        worst = max(abs(r - d) for r, d in zip(recovered, planted))
        check(worst <= 1e-9, f"planted translations recovered to {worst:.2e}")

        trajs = synth_trajectories(
            [0.005, 0.010, 0.015, 0.020, 0.024, 0.030, 0.040, 0.060, 0.108],
            p_c=0.0266, nu=0.42, s=0.42, alpha=2.87,
            t_grid=np.geomspace(1.0, 500.0, 40), A=0.58, B=0.05)
        growth = fit_growth_exponent(trajs[0], t_min=40.0)
        scan = beta_scan(trajs, growth, beta_grid=(6.6, 1.0, 0.0, -0.39, -0.71),
                         t_min=2.0)
        others = {b: r for b, r in scan.residuals.items() if b != 1.0}
        check(scan.best_beta == 1.0 and all(scan.residuals[1.0] < r for r in others.values()),
              "beta = 1 residual {:.2e} below {}".format(
                  scan.residuals[1.0],
                  ", ".join(f"{b:g}: {r:.2e}" for b, r in sorted(others.items()))))


def test_09_xi_normalization():
    with criterion(9, "xi normalization") as check:
        # crossing placed on a grid point of a coarse grid: the shoulder
        # point below the plateau then drops far enough that the flat-tail
        # window cannot absorb it
        times = np.geomspace(0.5, 50.0, 20)
        K = np.clip(56.33 * (times / times[12]) ** 3, 1.0, 56.33)
        traj = ClusterTrajectory(p=0.108, times=times, K=K, metadata={})
        k_loc = estimate_k_loc(traj)
        check(abs(k_loc - 56.33) <= 0.5, f"K_loc = {k_loc:.4f} (target 56.33 +- 0.5)")
        xi = normalize_xi({0.02: 1.7, 0.05: 0.9, 0.108: 2.6}, 0.108, k_loc)
        target = 56.33 ** (1.0 / 3.0)
        check(xi[0.108] == pytest.approx(target, rel=1e-12),
              f"xi(anchor) = {xi[0.108]:.6f} = K_loc^(1/3)")
        check(xi[0.02] / xi[0.05] == pytest.approx(1.7 / 0.9, rel=1e-12),
              "ratios preserved")


def test_10_determinism(tmp_path):
    with criterion(10, "determinism") as check:
        text = """
        run.label = repeat
        geometry.kind = cubic_lattice
        geometry.shape = 2, 2, 1
        protocol.mode = average
        protocol.time_grid = geom:0.4:1.6:3
        p_sweep = 0.0, 0.6
        estimator.kind = exact
        """
        config = RunConfig.parse(text)
        first = cmd_simulate(config, tmp_path / "a")
        second = cmd_simulate(config, tmp_path / "b")
        names = sorted(Path(p).name for p in first["written"])
        check(names == sorted(Path(p).name for p in second["written"]),
              f"{len(names)} files per run")
        identical = all((tmp_path / "a" / n).read_bytes() == (tmp_path / "b" / n).read_bytes()
                        for n in names)
        check(identical, "repeated runs byte-identical")
