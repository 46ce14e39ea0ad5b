"""Pipeline commands and the CLI wiring around them.

simulate and synth write one trajectory file per task and stamp each
with the config digest, which is what makes re-runs free; scale turns a
trajectory directory into report.json plus a pooled sample; plot renders
standalone SVG. The CLI maps error families to exit codes: 2 for
configuration problems, 3 for numerical failures.
"""

from __future__ import annotations

import importlib
import shutil
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from spinquench import io as sqio
from spinquench import pipeline
from spinquench.cli import main
from spinquench.config import RunConfig
from spinquench.errors import CapacityError, ConfigError, SaturationError
from spinquench.evolution import exact_peak_bytes
from spinquench.mqc import ClusterTrajectory
from spinquench.operators import workspace_bytes
from spinquench.pipeline import (cmd_plot, cmd_scale, cmd_simulate, cmd_synth,
                                 load_input_trajectories, worker_count)

# 4 spins, 3 times, exact estimator: milliseconds per trajectory
SIM_SMALL = """
run.label = quad
geometry.kind = cubic_lattice
geometry.shape = 2, 2, 1
protocol.mode = average
protocol.time_grid = geom:0.4:1.6:3
p_sweep = 0.0, 0.6
seeds = 0
estimator.kind = exact
"""

# noiseless planted family straddling p_c = 0.05; alpha = 3 with
# beta = 1 makes k1 = 2, k2' = 1
SYNTH_FAMILY = """
run.label = plantbed
synth.p_list = 0.01, 0.02, 0.03, 0.04, 0.07, 0.09, 0.12
synth.p_c = 0.05
synth.nu = 0.5
synth.s = 0.5
synth.alpha = 3.0
synth.time_grid = geom:1.0:300.0:30
"""

# SIM_SMALL as a Floquet typicality sweep over 2 p and 2 seeds
SIM_FLOQUET_TYP = SIM_SMALL.replace(
    "protocol.mode = average", "protocol.mode = floquet\nprotocol.tau_c = 0.3").replace(
    "geom:0.4:1.6:3", "1, 2").replace("seeds = 0", "seeds = 0, 1").replace(
    "estimator.kind = exact", "estimator.kind = typicality\nestimator.n_samples = 2")

SCALE_KEYS = """
scale.input_dir = {input_dir}
scale.beta_grid = 0.0, 1.0
scale.t_min = 2.0
scale.growth_t_min = 40.0
scale.n_bootstrap = 0
"""


def write_cfg(directory, text, name="run.cfg"):
    path = Path(directory) / name
    path.write_text(text, encoding="utf-8")
    return path


def with_order_columns(text, names, values):
    """A trajectory file's text with columns names appended to time,K and
    values appended to every data row."""
    head, _, rows = text.partition("time,K\n")
    return head + f"time,K,{names}\n" + "".join(f"{row},{values}\n" for row in rows.splitlines())


def count_tags(svg_text, local_name):
    root = ET.fromstring(svg_text)
    return sum(1 for el in root.iter() if el.tag.rsplit("}", 1)[-1] == local_name)


@pytest.fixture(scope="module")
def planted_family(tmp_path_factory):
    """Synth family plus one full scale run, shared by scale/plot tests."""
    root = tmp_path_factory.mktemp("family")
    synth_dir = root / "trajs"
    cmd_synth(RunConfig.parse(SYNTH_FAMILY), synth_dir)
    scale_cfg = RunConfig.parse(SYNTH_FAMILY + SCALE_KEYS.format(input_dir=synth_dir))
    out = cmd_scale(scale_cfg, root / "scaled")
    return {
        "root": root,
        "synth_dir": synth_dir,
        "scale_cfg": scale_cfg,
        "scale_out": root / "scaled",
        "report": sqio.read_report_json(out["report"]),
        "result": out["result"],
    }


class TestWorkerCount:
    def test_default_is_one(self, monkeypatch):
        monkeypatch.delenv("SPINQUENCH_WORKERS", raising=False)
        assert worker_count() == 1

    def test_env_value_respected(self, monkeypatch):
        monkeypatch.setenv("SPINQUENCH_WORKERS", "3")
        assert worker_count() == 3

    def test_non_integer_rejected(self, monkeypatch):
        monkeypatch.setenv("SPINQUENCH_WORKERS", "two")
        with pytest.raises(ConfigError, match="positive integer"):
            worker_count()

    def test_zero_rejected(self, monkeypatch):
        monkeypatch.setenv("SPINQUENCH_WORKERS", "0")
        with pytest.raises(ConfigError, match=">= 1"):
            worker_count()


class TestSimulate:
    def test_one_file_per_p_seed_pair(self, tmp_path):
        config = RunConfig.parse(SIM_SMALL)
        summary = cmd_simulate(config, tmp_path)
        names = sorted(Path(p).name for p in summary["written"])
        assert names == ["traj_p0.000000_seed0.csv", "traj_p0.600000_seed0.csv"]
        assert summary["skipped"] == []
        assert summary["config_digest"] == config.digest()
        for name in names:
            traj = sqio.read_trajectory_file(tmp_path / name)
            assert traj.metadata["config_digest"] == config.digest()
            assert traj.metadata["label"] == "quad"
            assert traj.metadata["seed"] == 0
            assert traj.metadata["n_spins"] == 4
            assert np.all(traj.K >= 1.0)

    def test_rerun_skips_everything(self, tmp_path):
        config = RunConfig.parse(SIM_SMALL)
        cmd_simulate(config, tmp_path)
        again = cmd_simulate(config, tmp_path)
        assert again["written"] == []
        assert len(again["skipped"]) == 2

    def test_semantic_change_recomputes(self, tmp_path):
        cmd_simulate(RunConfig.parse(SIM_SMALL), tmp_path)
        changed = RunConfig.parse(SIM_SMALL.replace("geom:0.4:1.6:3", "geom:0.4:2.0:3"))
        summary = cmd_simulate(changed, tmp_path)
        assert len(summary["written"]) == 2
        assert summary["skipped"] == []

    def test_output_path_keys_do_not_invalidate(self, tmp_path):
        cmd_simulate(RunConfig.parse(SIM_SMALL), tmp_path)
        decorated = RunConfig.parse(SIM_SMALL + f"output.dir = {tmp_path}\n")
        summary = cmd_simulate(decorated, tmp_path)
        assert summary["written"] == []
        assert len(summary["skipped"]) == 2

    def test_corrupt_file_is_recomputed(self, tmp_path):
        """A scribble, an order column that is no number and a spectrum row
        whose weights sum to 1.0001 each make a file unreadable, so simulate
        writes it again."""
        config = RunConfig.parse(SIM_SMALL)
        cmd_simulate(config, tmp_path)
        victim = tmp_path / "traj_p0.000000_seed0.csv"
        good = victim.read_text(encoding="utf-8")
        for corrupt in ("scribble\n", with_order_columns(good, "ax", "1.0"),
                        with_order_columns(good, "a-1,a0,a1", "0.2,0.6,0.2001")):
            victim.write_text(corrupt, encoding="utf-8")
            summary = cmd_simulate(config, tmp_path)
            assert [Path(p).name for p in summary["written"]] == [victim.name]
            assert len(summary["skipped"]) == 1
            assert sqio.read_trajectory_file(victim).metadata["config_digest"] == config.digest()
            assert victim.read_text(encoding="utf-8") == good

    def test_perturbation_slows_late_growth(self, tmp_path):
        # 10 spins, exact: the clean quench should reach larger clusters
        # than the perturbed one once transients die out
        text = """
        run.label = demo10
        geometry.kind = cubic_lattice
        geometry.shape = 5, 2, 1
        protocol.mode = average
        protocol.time_grid = geom:0.5:8.0:6
        p_sweep = 0.0, 0.5
        estimator.kind = exact
        """
        cmd_simulate(RunConfig.parse(text), tmp_path)
        k0 = sqio.read_trajectory_file(tmp_path / "traj_p0.000000_seed0.csv").K
        k5 = sqio.read_trajectory_file(tmp_path / "traj_p0.500000_seed0.csv").K
        assert np.all(k0[3:] >= k5[3:] - 1e-9)

    def test_exact_capacity_honors_config_cap(self, tmp_path):
        text = SIM_SMALL.replace("2, 2, 1", "5, 3, 1")
        with pytest.raises(CapacityError, match="capped at 14 spins, geometry has 15"):
            cmd_simulate(RunConfig.parse(text), tmp_path)
        assert list(tmp_path.glob("traj_*")) == []

    def test_exact_capacity_follows_memory(self, tmp_path, monkeypatch):
        """The exact check compares a byte estimate of the block path with
        physical memory: in average mode 9 real d x d arrays of one block,
        d = 2^(n-2) for even n, plus 48 MiB, plus the workspace: 12 B per
        state for the diagonal and each coupled pair of the sparse
        H_0 + H_dd and 26 B per state for the basis and indptr.  The 5x2x1
        lattice has 10 spins and 45 pairs, so d = 256."""
        text = SIM_SMALL.replace("2, 2, 1", "5, 2, 1").replace("p_sweep = 0.0, 0.6", "p_sweep = 0.0")
        need = 8 * 256 * 256 * 9 + 48 * 2**20 + 12 * 1024 * (45 + 1) + 26 * 1024
        monkeypatch.setattr(pipeline, "_physical_memory", lambda: need - 1)
        with pytest.raises(CapacityError, match="physical memory"):
            cmd_simulate(RunConfig.parse(text), tmp_path)
        assert list(tmp_path.glob("traj_*")) == []
        cfg = write_cfg(tmp_path, text)
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        monkeypatch.setattr(pipeline, "_physical_memory", lambda: need)
        assert len(cmd_simulate(RunConfig.parse(text), tmp_path)["written"]) == 1

    def test_exact_capacity_counts_floquet_unitaries(self, tmp_path, monkeypatch):
        """Floquet mode holds one block's one-cycle unitaries: 10 real d x d
        arrays for odd n (a cycle step) and for even n (the unitaries'
        set-up, or a cycle step).  The 3x1x1 chain has 3 spins, 3 pairs and
        one block, d = 4; the 5x2x1 lattice has 10 spins and 45 pairs, d = 256."""
        for shape, n, pairs, d, arrays in (("3, 1, 1", 3, 3, 4, 10), ("5, 2, 1", 10, 45, 256, 10)):
            text = SIM_SMALL.replace("2, 2, 1", shape).replace("p_sweep = 0.0, 0.6", "p_sweep = 0.0") \
                .replace("protocol.mode = average", "protocol.mode = floquet\nprotocol.tau_c = 0.3") \
                .replace("geom:0.4:1.6:3", "1, 2")
            need = 8 * d * d * arrays + 48 * 2**20 + 12 * 2**n * (pairs + 1) + 26 * 2**n
            out = tmp_path / f"n{n}"
            monkeypatch.setattr(pipeline, "_physical_memory", lambda: need - 1)
            with pytest.raises(CapacityError, match="physical memory"):
                cmd_simulate(RunConfig.parse(text), out)
            monkeypatch.setattr(pipeline, "_physical_memory", lambda: need)
            assert len(cmd_simulate(RunConfig.parse(text), out)["written"]) == 1

    def test_typicality_capacity_follows_memory(self, tmp_path, monkeypatch):
        """The typicality check compares a byte estimate with physical
        memory: the workspace (12 B per state for the diagonal and each
        coupled pair of the sparse H_0 + H_dd, 26 B per state for the basis
        and indptr) plus the grid loop's peak, 8 complex (2^(n-1), c) blocks
        (128 B per row and column) and 73 B per row, plus 1 MiB.  The 2x2x1
        lattice has 4 spins and 6 pairs; a parity block holds at most 2 of
        the sectors with 2, 3 and 4 spins up, so a sample pair gives c = 4."""
        text = SIM_SMALL.replace("estimator.kind = exact", "estimator.kind = typicality\n"
                                 "estimator.n_samples = 2")
        need = 12 * 16 * (6 + 1) + 26 * 16 + (128 * 4 + 73) * 8 + 2**20
        monkeypatch.setattr(pipeline, "_physical_memory", lambda: need - 1)
        with pytest.raises(CapacityError, match="physical memory"):
            cmd_simulate(RunConfig.parse(text), tmp_path)
        assert list(tmp_path.glob("traj_*")) == []
        cfg = write_cfg(tmp_path, text)
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        monkeypatch.setattr(pipeline, "_physical_memory", lambda: need)
        assert len(cmd_simulate(RunConfig.parse(text), tmp_path)["written"]) == 2

    def test_parallel_workers_share_physical_memory(self, tmp_path, monkeypatch):
        """Up to SPINQUENCH_WORKERS tasks run at once, each with its own
        workspace and estimator, so the check counts min(W, tasks) of
        them; with every task up to date there is nothing to check."""
        one = workspace_bytes(4, 6) + exact_peak_bytes(4, "average")
        monkeypatch.setattr(pipeline, "_physical_memory", lambda: int(1.5 * one))
        monkeypatch.setenv("SPINQUENCH_WORKERS", "2")
        with pytest.raises(CapacityError, match="for 2 task"):
            cmd_simulate(RunConfig.parse(SIM_SMALL), tmp_path)
        assert list(tmp_path.glob("traj_*")) == []
        monkeypatch.setenv("SPINQUENCH_WORKERS", "1")
        assert len(cmd_simulate(RunConfig.parse(SIM_SMALL), tmp_path)["written"]) == 2
        monkeypatch.setattr(pipeline, "_physical_memory", lambda: 0)
        monkeypatch.setenv("SPINQUENCH_WORKERS", "2")
        assert len(cmd_simulate(RunConfig.parse(SIM_SMALL), tmp_path)["skipped"]) == 2

    def test_oversized_lattice_rejected_at_geometry(self, tmp_path):
        # the hard 24-spin cap fires while the geometry is built, before
        # any estimator-specific capacity check
        text = """
        run.label = big
        geometry.kind = cubic_lattice
        geometry.shape = 3, 3, 3
        protocol.mode = average
        protocol.time_grid = geom:0.4:1.6:3
        p_sweep = 0.0
        estimator.kind = typicality
        """
        with pytest.raises(ConfigError, match="cap of 24"):
            cmd_simulate(RunConfig.parse(text), tmp_path)

    def test_bad_protocol_fails_before_any_file(self, tmp_path):
        # fractional floquet cycle counts are rejected during the dry-run
        # pass, so the sweep must not leave partial output behind
        text = """
        run.label = cyc
        geometry.kind = cubic_lattice
        geometry.shape = 2, 2, 1
        protocol.mode = floquet
        protocol.tau_c = 0.3
        protocol.time_grid = geom:0.5:2.0:3
        p_sweep = 0.0, 0.6
        estimator.kind = exact
        """
        with pytest.raises(ConfigError, match="invalid protocol"):
            cmd_simulate(RunConfig.parse(text), tmp_path)
        assert list(tmp_path.glob("traj_*")) == []

    @pytest.mark.parametrize("text", [pytest.param(SIM_SMALL, id="exact"),
                                      pytest.param(SIM_FLOQUET_TYP, id="typicality-floquet")])
    def test_parallel_output_matches_serial(self, tmp_path, monkeypatch, text):
        serial, parallel = tmp_path / "serial", tmp_path / "parallel"
        config = RunConfig.parse(text)
        monkeypatch.delenv("SPINQUENCH_WORKERS", raising=False)
        cmd_simulate(config, serial)
        monkeypatch.setenv("SPINQUENCH_WORKERS", "2")
        summary = cmd_simulate(config, parallel)
        assert len(summary["written"]) == len(config.p_sweep) * len(config.seeds)
        assert sorted(p.name for p in parallel.iterdir()) == sorted(p.name for p in serial.iterdir())
        for path in sorted(serial.iterdir()):
            assert (parallel / path.name).read_bytes() == path.read_bytes()


class TestInputLoading:
    @staticmethod
    def tagged(p, seed, times, K):
        return ClusterTrajectory(p=p, times=np.asarray(times, float),
                                 K=np.asarray(K, float), metadata={"seed": seed})

    def dir_config(self, input_dir):
        return RunConfig.parse(f"scale.input_dir = {input_dir}\n")

    def test_missing_input_dir_key(self):
        with pytest.raises(ConfigError, match="scale.input_dir"):
            load_input_trajectories(RunConfig.parse("run.label = x\n"))

    def test_single_seed_passes_through(self, tmp_path):
        traj = self.tagged(0.2, 3, [1.0, 2.0], [2.0, 4.0])
        sqio.write_trajectory_file(tmp_path / sqio.trajectory_filename(0.2, 3), traj, "d")
        (combined,) = load_input_trajectories(self.dir_config(tmp_path))
        assert combined.metadata["seed"] == 3
        np.testing.assert_allclose(combined.K, [2.0, 4.0])

    def test_seed_average_is_geometric_mean(self, tmp_path):
        times = [1.0, 2.0, 4.0]
        for seed, K in ((0, [2.0, 8.0, 16.0]), (1, [8.0, 2.0, 4.0])):
            traj = self.tagged(0.2, seed, times, K)
            sqio.write_trajectory_file(tmp_path / sqio.trajectory_filename(0.2, seed), traj, "d")
        (combined,) = load_input_trajectories(self.dir_config(tmp_path))
        np.testing.assert_allclose(combined.K, [4.0, 4.0, 8.0])
        assert combined.metadata["n_seeds"] == 2
        assert "seed" not in combined.metadata

    def test_mismatched_grids_rejected(self, tmp_path):
        sqio.write_trajectory_file(tmp_path / sqio.trajectory_filename(0.2, 0),
                                   self.tagged(0.2, 0, [1.0, 2.0], [2.0, 4.0]), "d")
        sqio.write_trajectory_file(tmp_path / sqio.trajectory_filename(0.2, 1),
                                   self.tagged(0.2, 1, [1.0, 3.0], [2.0, 4.0]), "d")
        with pytest.raises(ConfigError, match="mismatched time grids"):
            load_input_trajectories(self.dir_config(tmp_path))

    def test_groups_come_back_sorted_by_p(self, tmp_path):
        for p in (0.3, 0.1, 0.2):
            sqio.write_trajectory_file(tmp_path / sqio.trajectory_filename(p, 0),
                                       self.tagged(p, 0, [1.0, 2.0], [2.0, 4.0]), "d")
        combined = load_input_trajectories(self.dir_config(tmp_path))
        assert [tr.p for tr in combined] == [0.1, 0.2, 0.3]


class TestSynthCommand:
    def test_writes_planted_family(self, tmp_path):
        config = RunConfig.parse(SYNTH_FAMILY)
        summary = cmd_synth(config, tmp_path)
        assert len(summary["written"]) == 7
        assert all(Path(p).name.endswith("_seed0.csv") for p in summary["written"])
        traj = sqio.read_trajectory_file(tmp_path / "traj_p0.010000_seed0.csv")
        assert traj.metadata["planted"]["p_c"] == 0.05
        assert traj.metadata["label"] == "plantbed"
        assert traj.metadata["config_digest"] == config.digest()
        assert np.all(traj.K >= 1.0)

    def test_invalid_parameters_are_config_errors(self, tmp_path):
        bad = SYNTH_FAMILY.replace("synth.nu = 0.5", "synth.nu = -0.5")
        with pytest.raises(ConfigError, match="invalid synth parameters"):
            cmd_synth(RunConfig.parse(bad), tmp_path)


class TestScaleCommand:
    def test_report_key_contract(self, planted_family):
        report = planted_family["report"]
        assert set(report) == {"alpha", "alpha_K", "growth", "collapse", "beta", "beta_scan",
                               "xi", "fit", "residuals", "anchor_p", "bootstrap", "n_curves",
                               "config_digest"}
        assert set(report["growth"]) == {"r2", "t_min", "n_points"}
        assert report["collapse"] == {"t_min": 2.0}
        assert set(report["fit"]) == {"A", "B", "nu", "p_c", "p_c_bounds", "s", "branch_gauge",
                                      "std_err"}
        lo, hi = report["fit"]["p_c_bounds"]
        assert (lo, hi) in {(row["p"], nxt["p"]) for row, nxt in zip(report["xi"], report["xi"][1:])}
        assert lo <= report["fit"]["p_c"] <= hi
        assert set(report["residuals"]) == {"collapse", "beta_scan", "pairs", "excluded_pair"}
        pairs = report["residuals"]["pairs"]
        assert [(row["p_lo"], row["p_hi"]) for row in pairs] == [
            (0.01, 0.02), (0.02, 0.03), (0.03, 0.04), (0.04, 0.07), (0.07, 0.09), (0.09, 0.12)]
        assert all(set(row) == {"p_lo", "p_hi", "rms", "n"} and row["n"] > 0 for row in pairs)
        worst = max(pairs, key=lambda row: row["rms"])
        assert report["residuals"]["excluded_pair"] == [worst["p_lo"], worst["p_hi"]]
        assert report["n_curves"] == 7
        assert len(report["config_digest"]) == 16
        int(report["config_digest"], 16)

    def test_recovers_planted_numbers(self, planted_family):
        report = planted_family["report"]
        assert report["beta"] == 1.0
        assert report["alpha"] == pytest.approx(3.0, abs=0.01)
        assert report["alpha_K"] == pytest.approx(1.5 * report["alpha"], rel=1e-12)
        assert report["fit"]["p_c"] == pytest.approx(0.05, abs=2e-3)
        assert report["fit"]["nu"] == pytest.approx(0.5, abs=0.02)
        assert report["fit"]["s"] == pytest.approx(report["beta"] * report["fit"]["nu"], rel=1e-12)

    def test_growth_window_respects_config(self, planted_family):
        growth = planted_family["report"]["growth"]
        assert growth["t_min"] >= 40.0
        assert growth["n_points"] == 11
        assert growth["r2"] > 0.999

    def test_anchor_defaults_to_largest_p(self, planted_family):
        report = planted_family["report"]
        assert report["anchor_p"] == 0.12
        xi = {row["p"]: row["xi"] for row in report["xi"]}
        assert sorted(xi) == [0.01, 0.02, 0.03, 0.04, 0.07, 0.09, 0.12]
        assert xi[0.12] == pytest.approx(1.0 / np.sqrt(0.07), rel=0.05)

    def test_beta_scan_is_sorted_and_decisive(self, planted_family):
        scan = planted_family["report"]["beta_scan"]
        assert [row["beta"] for row in scan] == [0.0, 1.0]
        by_beta = {row["beta"]: row["residual"] for row in scan}
        assert by_beta[1.0] < 0.1 * by_beta[0.0]

    def test_bootstrap_disabled_reports_none(self, planted_family):
        assert planted_family["report"]["bootstrap"] is None

    def test_pooled_sample_readable(self, planted_family):
        rows = sqio.read_pooled_csv(planted_family["scale_out"] / "pooled.csv")
        # 7 curves, 26 of 30 grid points at t >= 2
        assert len(rows) == 7 * 26
        assert {p for _, _, p in rows} == {0.01, 0.02, 0.03, 0.04, 0.07, 0.09, 0.12}

    def test_grid_anchor_and_window_come_from_config_keys(self, planted_family):
        out = planted_family["root"] / "keys"
        config = RunConfig.parse(SYNTH_FAMILY + f"scale.input_dir = {planted_family['synth_dir']}\n"
                                 "scale.beta_grid = 1.0\nscale.anchor_p = 0.09\n"
                                 "scale.t_min = 3.0\nscale.growth_t_min = 40.0\n"
                                 "scale.n_bootstrap = 0\n")
        summary = cmd_scale(config, out)
        report = sqio.read_report_json(summary["report"])
        assert report["anchor_p"] == 0.09
        assert [row["beta"] for row in report["beta_scan"]] == [1.0]
        # t >= 3 keeps 24 of 30 grid points per curve
        assert len(sqio.read_pooled_csv(out / "pooled.csv")) == 7 * 24

    def test_report_stamped_with_the_digest_of_its_config(self, planted_family, tmp_path):
        cfg = write_cfg(tmp_path, SYNTH_FAMILY
                        + f"scale.input_dir = {planted_family['synth_dir']}\n"
                        + "scale.beta_grid = 1.0, 0.0\nscale.t_min = 2.0\n"
                        + "scale.growth_t_min = 40.0\nscale.n_bootstrap = 0\n")
        assert main(["scale", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        report = sqio.read_report_json(tmp_path / "out" / "report.json")
        config = RunConfig.load(cfg)
        assert report["config_digest"] == config.digest()
        assert sorted(row["beta"] for row in report["beta_scan"]) == sorted(
            config.get("scale.beta_grid"))

    def test_off_grid_anchor_exits_two(self, planted_family, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SYNTH_FAMILY
                        + f"scale.input_dir = {planted_family['synth_dir']}\n"
                        + "scale.beta_grid = 1.0\nscale.anchor_p = 0.05\n"
                        + "scale.n_bootstrap = 0\n")
        assert main(["scale", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "scale.anchor_p = 0.05 is not among the input p values" in err
        assert "0.01, 0.02, 0.03, 0.04, 0.07, 0.09, 0.12" in err
        assert not (tmp_path / "out" / "report.json").exists()

    def test_corrupt_spectrum_row_exits_two(self, tmp_path, capsys):
        runs = tmp_path / "runs"
        cmd_simulate(RunConfig.parse(SIM_SMALL), runs)
        victim = runs / "traj_p0.000000_seed0.csv"
        victim.write_text(with_order_columns(victim.read_text(encoding="utf-8"), "a-1,a0,a1",
                                             "0.2,0.6,0.2001"), encoding="utf-8")
        cfg = write_cfg(tmp_path, f"scale.input_dir = {runs}\n")
        assert main(["scale", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert "weights must sum to 1" in capsys.readouterr().err

    def test_too_few_distinct_p_rejected(self, tmp_path):
        for p in (0.1, 0.2):
            traj = ClusterTrajectory(p=p, times=np.array([1.0, 2.0]),
                                     K=np.array([2.0, 4.0]), metadata={"seed": 0})
            sqio.write_trajectory_file(tmp_path / sqio.trajectory_filename(p, 0), traj, "d")
        config = RunConfig.parse(f"scale.input_dir = {tmp_path}\n")
        with pytest.raises(ConfigError, match="collapse needs >= 3 curves"):
            cmd_scale(config, tmp_path / "out")


class TestPlotCommand:
    def test_trajectory_figure_always_present(self, planted_family, tmp_path):
        config = RunConfig.parse(f"plot.input_dir = {planted_family['synth_dir']}\n")
        summary = cmd_plot(config, tmp_path)
        assert [Path(p).name for p in summary["written"]] == ["trajectories.svg"]
        svg = (tmp_path / "trajectories.svg").read_text(encoding="utf-8")
        root = ET.fromstring(svg)
        assert root.tag.endswith("svg")
        assert count_tags(svg, "polyline") >= 7

    def test_report_unlocks_scaling_figures(self, planted_family, tmp_path):
        report_path = planted_family["scale_out"] / "report.json"
        config = RunConfig.parse(f"plot.input_dir = {planted_family['synth_dir']}\n"
                                 f"plot.report = {report_path}\n")
        summary = cmd_plot(config, tmp_path)
        names = {Path(p).name for p in summary["written"]}
        assert names == {"trajectories.svg", "rescaled.svg", "collapsed.svg", "xi_fit.svg"}
        collapsed = (tmp_path / "collapsed.svg").read_text(encoding="utf-8")
        assert count_tags(collapsed, "circle") == 7 * 26
        xi_fit = (tmp_path / "xi_fit.svg").read_text(encoding="utf-8")
        assert count_tags(xi_fit, "circle") >= 7
        assert 'stroke-dasharray="5,4"' in xi_fit
        for name in names:
            ET.fromstring((tmp_path / name).read_text(encoding="utf-8"))

    def test_rescaled_curves_start_at_the_collapse_window(self, planted_family, tmp_path):
        # the growth fit's window starts at t >= 40, the collapse's at
        # scale.t_min = 2: the rescaled figure must show what was collapsed,
        # 26 of 30 grid points per curve, the same rows as pooled.csv
        report_path = planted_family["scale_out"] / "report.json"
        config = RunConfig.parse(f"plot.input_dir = {planted_family['synth_dir']}\n"
                                 f"plot.report = {report_path}\n")
        cmd_plot(config, tmp_path)
        root = ET.fromstring((tmp_path / "rescaled.svg").read_text(encoding="utf-8"))
        lines = [el for el in root.iter() if el.tag.rsplit("}", 1)[-1] == "polyline"]
        assert [len(el.get("points").split()) for el in lines] == [26] * 7
        rows = sqio.read_pooled_csv(planted_family["scale_out"] / "pooled.csv")
        assert len(rows) == 26 * 7

    def test_collapsed_needs_pooled_next_to_report(self, planted_family, tmp_path):
        lonely = tmp_path / "lonely"
        lonely.mkdir()
        report_path = lonely / "report.json"
        report_path.write_bytes((planted_family["scale_out"] / "report.json").read_bytes())
        config = RunConfig.parse(f"plot.input_dir = {planted_family['synth_dir']}\n"
                                 f"plot.report = {report_path}\n")
        summary = cmd_plot(config, tmp_path / "figs")
        names = {Path(p).name for p in summary["written"]}
        assert names == {"trajectories.svg", "rescaled.svg", "xi_fit.svg"}

    def test_spectra_trigger_heatmap(self, tmp_path):
        sim_dir = tmp_path / "spectral"
        text = SIM_SMALL.replace("p_sweep = 0.0, 0.6", "p_sweep = 0.0")
        cmd_simulate(RunConfig.parse(text + "estimator.keep_spectra = true\n"), sim_dir)
        config = RunConfig.parse(f"plot.input_dir = {sim_dir}\n")
        summary = cmd_plot(config, tmp_path / "figs")
        names = {Path(p).name for p in summary["written"]}
        assert names == {"trajectories.svg", "spectrum_heatmap.svg"}
        svg = (tmp_path / "figs" / "spectrum_heatmap.svg").read_text(encoding="utf-8")
        # 3 times x 9 coherence orders of cells, plus frame and backdrop
        assert count_tags(svg, "rect") >= 27


class TestCliExitCodes:
    def test_synth_and_plot_succeed(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SYNTH_FAMILY)
        out = tmp_path / "fam"
        assert main(["synth", "--config", str(cfg), "--out", str(out)]) == 0
        assert "synth: 7 trajectories" in capsys.readouterr().out
        plot_cfg = write_cfg(tmp_path, f"plot.input_dir = {out}\n", "plot.cfg")
        assert main(["plot", "--config", str(plot_cfg), "--out", str(tmp_path / "figs")]) == 0
        assert "1 figures" in capsys.readouterr().out

    def test_simulate_reports_resume_counts(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SIM_SMALL)
        out = tmp_path / "runs"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        assert "simulate: 2 written, 0 up to date" in capsys.readouterr().out
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        assert "simulate: 0 written, 2 up to date" in capsys.readouterr().out

    def test_scale_success_summary(self, planted_family, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SYNTH_FAMILY
                        + f"scale.input_dir = {planted_family['synth_dir']}\n"
                        + "scale.beta_grid = 1.0\nscale.t_min = 2.0\n"
                        + "scale.growth_t_min = 40.0\nscale.n_bootstrap = 0\n")
        rc = main(["scale", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 0
        assert "beta = 1" in capsys.readouterr().out

    def test_scale_takes_no_override_flags(self, planted_family, tmp_path):
        cfg = write_cfg(tmp_path, f"scale.input_dir = {planted_family['synth_dir']}\n")
        with pytest.raises(SystemExit) as exc:
            main(["scale", "--config", str(cfg), "--out", str(tmp_path / "o"),
                  "--beta-grid", "1.0"])
        assert exc.value.code == 2

    def test_missing_config_file(self, tmp_path, capsys):
        rc = main(["synth", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("config error:")

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "run.lable = typo\n")
        assert main(["synth", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert "unknown key" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        pytest.param(key, value, id=key) for key, value in [
            ("numerics.krylov_dim", "30"), ("numerics.max_dense_spins", "4"),
            ("numerics.tol", "1e-12"), ("estimator.k_method", "gaussian"),
            ("geometry.cutoff_radius", "1.5")]])
    def test_retired_key_is_unknown(self, tmp_path, capsys, key, value):
        cfg = write_cfg(tmp_path, SIM_SMALL + f"{key} = {value}\n")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert f"unknown key '{key}'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_negative_synth_p_exits_two(self, tmp_path, capsys):
        # a file named traj_p-0.010000_* would be skipped by scale without notice
        cfg = write_cfg(tmp_path, SYNTH_FAMILY.replace("synth.p_list = 0.01,",
                                                       "synth.p_list = -0.01, 0.01,"))
        assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "bad value for synth.p_list: entry -0.01 outside [0, 1]" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_no_output_directory_anywhere(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SYNTH_FAMILY)
        assert main(["synth", "--config", str(cfg)]) == 2
        assert "no output directory" in capsys.readouterr().err

    def test_output_dir_key_is_fallback(self, tmp_path):
        out = tmp_path / "fromkey"
        cfg = write_cfg(tmp_path, SYNTH_FAMILY + f"output.dir = {out}\n")
        assert main(["synth", "--config", str(cfg)]) == 0
        assert len(list(out.glob("traj_*"))) == 7

    def test_out_flag_beats_output_dir_key(self, tmp_path):
        ignored = tmp_path / "ignored"
        chosen = tmp_path / "chosen"
        cfg = write_cfg(tmp_path, SYNTH_FAMILY + f"output.dir = {ignored}\n")
        assert main(["synth", "--config", str(cfg), "--out", str(chosen)]) == 0
        assert len(list(chosen.glob("traj_*"))) == 7
        assert not ignored.exists()

    def test_malformed_beta_grid(self, planted_family, tmp_path, capsys):
        cfg = write_cfg(tmp_path, f"scale.input_dir = {planted_family['synth_dir']}\n"
                        "scale.beta_grid = 1.0, zap\n")
        rc = main(["scale", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "bad value for scale.beta_grid" in capsys.readouterr().err

    @pytest.mark.parametrize("command, key", [("simulate", "p_sweep"), ("simulate", "seeds"),
                                              ("synth", "synth.p_list"),
                                              ("scale", "scale.beta_grid")])
    def test_empty_list_value_exits_two(self, tmp_path, capsys, command, key):
        base = SIM_SMALL if command == "simulate" else SYNTH_FAMILY
        text = "".join(line + "\n" for line in base.splitlines()
                       if not line.startswith(f"{key} ="))
        cfg = write_cfg(tmp_path, text + f"scale.input_dir = {tmp_path}\n{key} = ,\n")
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert f"bad value for {key}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command, lines, message", [
        pytest.param("simulate", {"seeds": "0, 0", "p_sweep": "0.6, 0.6"},
                     "p_sweep: 0.6 and 0.6 both write traj_p0.600000_seed0.csv", id="repeats"),
        pytest.param("simulate", {"seeds": "0, 0"},
                     "seeds: 0 and 0 both write traj_p0.000000_seed0.csv", id="seeds"),
        pytest.param("simulate", {"p_sweep": "0.1, 0.1000001"},
                     "p_sweep: 0.1 and 0.1000001 both write traj_p0.100000_seed0.csv",
                     id="p_sweep"),
        pytest.param("synth", {"synth.p_list": "0.01, 0.0100000001, 0.02"},
                     "synth.p_list: 0.01 and 0.0100000001 both write traj_p0.010000_seed0.csv",
                     id="synth.p_list")])
    def test_two_tasks_one_file_exits_two(self, tmp_path, capsys, command, lines, message):
        # trajectory_filename keeps 6 decimals of p, so near-equal p collide too
        base = SIM_SMALL if command == "simulate" else SYNTH_FAMILY
        text = "".join(line + "\n" for line in base.splitlines()
                       if line.partition(" =")[0] not in lines)
        cfg = write_cfg(tmp_path, text + "".join(f"{k} = {v}\n" for k, v in lines.items()))
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command, key, value", [
        pytest.param(command, key, value, id=key) for command, key, value in [
            ("simulate", "seeds", "0, -2"), ("simulate", "estimator.base_seed", "-1"),
            ("simulate", "geometry.seed", "-1"), ("synth", "synth.seed", "-1"),
            ("scale", "scale.bootstrap_seed", "-1")]])
    def test_negative_seed_exits_two(self, tmp_path, capsys, command, key, value):
        base = SIM_SMALL if command == "simulate" else SYNTH_FAMILY
        text = "".join(line + "\n" for line in base.splitlines()
                       if not line.startswith(f"{key} ="))
        cfg = write_cfg(tmp_path, text + f"scale.input_dir = {tmp_path}\n{key} = {value}\n")
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert f"bad value for {key}: a seed must be >= 0" in err
        assert not (tmp_path / "o").exists()

    def test_numerical_failure_exits_three(self, tmp_path, capsys):
        # every p on the delocalized side: the anchor trajectory never
        # plateaus, so normalization fails after a clean collapse
        one_sided = SYNTH_FAMILY.replace(
            "synth.p_list = 0.01, 0.02, 0.03, 0.04, 0.07, 0.09, 0.12",
            "synth.p_list = 0.01, 0.02, 0.03, 0.04")
        sim_dir = tmp_path / "below"
        cmd_synth(RunConfig.parse(one_sided), sim_dir)
        cfg = write_cfg(tmp_path, one_sided + f"scale.input_dir = {sim_dir}\n"
                        + "scale.beta_grid = 1.0\nscale.t_min = 2.0\nscale.n_bootstrap = 0\n")
        rc = main(["scale", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 3
        assert capsys.readouterr().err.startswith("numerical failure: SaturationError")

    def test_capacity_failure_exits_two(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, SIM_SMALL.replace("2, 2, 1", "5, 3, 1"))
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "capped at 14" in capsys.readouterr().err

    def test_non_finite_coordinate_exits_two(self, tmp_path, capsys):
        coords = tmp_path / "coords.txt"
        coords.write_text("0 0 0\nnan 0 0\n2 0 0\n")
        text = SIM_SMALL.replace("geometry.kind = cubic_lattice\ngeometry.shape = 2, 2, 1",
                                 f"geometry.kind = file\ngeometry.path = {coords}")
        cfg = write_cfg(tmp_path, text)
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "positions must be finite, spin 1 is at [nan, 0.0, 0.0]" in capsys.readouterr().err

    def test_bad_workers_env_exits_two(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("SPINQUENCH_WORKERS", "many")
        cfg = write_cfg(tmp_path, SIM_SMALL)
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "SPINQUENCH_WORKERS" in capsys.readouterr().err

    def test_subcommand_is_required(self):
        with pytest.raises(SystemExit):
            main([])


class TestEntryPoints:
    def test_module_invocation(self, tmp_path):
        cfg = write_cfg(tmp_path, SYNTH_FAMILY)
        proc = subprocess.run(
            [sys.executable, "-m", "spinquench", "synth",
             "--config", str(cfg), "--out", str(tmp_path / "fam")],
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0
        assert proc.stdout.startswith("synth: 7 trajectories")

    def test_simulate_loads_only_sparse_scipy(self, tmp_path):
        """A simulate run, typicality or exact, loads no scipy subpackage
        besides scipy.sparse: special, spatial, optimize and interpolate
        take ~0.45 s to import, most of a short run's start-up."""
        typ = write_cfg(tmp_path, SIM_SMALL.replace(
            "estimator.kind = exact", "estimator.kind = typicality\nestimator.n_samples = 2"),
            "typ.cfg")
        exact = write_cfg(tmp_path, SIM_SMALL, "exact.cfg")
        script = (
            "import sys\n"
            "from spinquench import cli\n"
            f"for cfg in ({str(typ)!r}, {str(exact)!r}):\n"
            f"    assert cli.main(['simulate', '--config', cfg, '--out', {str(tmp_path)!r}]) == 0\n"
            "print('loaded=' + ','.join(m for m in ('scipy.special', 'scipy.spatial',\n"
            "      'scipy.optimize', 'scipy.interpolate') if m in sys.modules))\n")
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "simulate: 2 written" in proc.stdout
        assert proc.stdout.splitlines()[-1] == "loaded="

    def test_console_script_help(self):
        """The [project.scripts] entry resolves and prints the CLI help.

        Run from the source tree no console script is installed, so the
        entry is run the way the generated wrapper runs it; a script found
        on PATH is run as well.
        """
        tomllib = pytest.importorskip("tomllib")
        with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["spinquench"]
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr))
        wrapper = (f"import sys; from {module} import {attr}; "
                   f"sys.argv[0] = 'spinquench'; sys.exit({attr}())")
        commands = [[sys.executable, "-c", wrapper, "--help"]]
        installed = shutil.which("spinquench")
        if installed:
            commands.append([installed, "--help"])
        for cmd in commands:
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout.startswith("usage: spinquench")
            for sub in ("simulate", "synth", "scale", "plot"):
                assert sub in proc.stdout


class TestScripts:
    def test_demo_sweep_runs_to_completion(self, tmp_path):
        script = Path(__file__).resolve().parents[1] / "scripts" / "run_demo_sweep.py"
        proc = subprocess.run([sys.executable, str(script), "--out", str(tmp_path)],
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        for name in ("trajectories.svg", "spectrum_heatmap.svg"):
            assert count_tags((tmp_path / name).read_text(), "svg") >= 1

    def test_synthetic_validation_runs_to_completion(self, tmp_path):
        script = Path(__file__).resolve().parents[1] / "scripts" / "synthetic_validation.py"
        proc = subprocess.run([sys.executable, str(script), "--out", str(tmp_path),
                               "--n-bootstrap", "20"],
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        report = sqio.read_report_json(tmp_path / "report.json")
        assert report["beta"] == 1.0
        assert report["fit"]["p_c"] == pytest.approx(0.0266, rel=0.02)
