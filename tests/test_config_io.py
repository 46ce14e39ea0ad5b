"""Config parsing/digest semantics and on-disk formats."""

import ast
import json
import os
from pathlib import Path

import numpy as np
import pytest

import spinquench
from spinquench.cli import main
from spinquench.config import SCHEMA, RunConfig
from spinquench.errors import ConfigError
from spinquench.io import (
    format_trajectory,
    load_trajectory_dir,
    read_pooled_csv,
    read_report_json,
    read_trajectory_file,
    trajectory_filename,
    write_pooled_csv,
    write_report_json,
    write_trajectory_file,
)
from spinquench.mqc import ClusterTrajectory
from spinquench.network import random_box_geometry
from spinquench.scaling import ScalingFunctionSample

BASE_TEXT = """\
# demo run
run.label = demo
output.dir = out

geometry.kind = cubic_lattice
geometry.shape = 2,2,2
protocol.time_grid = geom:0.1:10:5
p_sweep = 0.0,0.5
seeds = 0,1
"""


class TestConfigParsing:
    def test_comments_and_blanks_skipped(self):
        cfg = RunConfig.parse(BASE_TEXT)
        assert cfg.label == "demo"
        assert cfg.get("geometry.shape") == [2, 2, 2]

    def test_unknown_key_rejected_with_location(self):
        with pytest.raises(ConfigError, match=r"demo.cfg:2: unknown key 'run.lable'"):
            RunConfig.parse("run.label = x\nrun.lable = y\n", source="demo.cfg")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate key"):
            RunConfig.parse("run.label = a\nrun.label = b\n")

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="expected key = value"):
            RunConfig.parse("run.label demo\n")

    def test_bad_value_rejected_at_parse_time(self):
        with pytest.raises(ConfigError, match="bad value for geometry.spacing"):
            RunConfig.parse("geometry.spacing = wide\n")
        with pytest.raises(ConfigError, match="bad value for estimator.keep_spectra"):
            RunConfig.parse("estimator.keep_spectra = yes\n")

    def test_missing_file_reported(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read config"):
            RunConfig.load(tmp_path / "absent.cfg")

    def test_every_schema_key_is_read(self):
        """Each key is passed as a literal to some call (get, require, ...)
        or is a parameter default in the package sources, so no settable
        option goes unread."""
        read = set()
        for path in Path(spinquench.__file__).parent.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Call):
                    values = node.args + [kw.value for kw in node.keywords]
                elif isinstance(node, ast.arguments):
                    values = node.defaults + node.kw_defaults
                else:
                    continue
                read.update(v.value for v in values if isinstance(v, ast.Constant))
        assert sorted(set(SCHEMA) - read) == []

    def test_every_schema_key_is_set_somewhere(self):
        """Each key is written as "<key> =" in a test, a script or a
        benchmark workload, so no option exists that nothing ever sets."""
        root = Path(__file__).resolve().parent.parent
        paths = [*(root / "tests").rglob("*.py"), *(root / "scripts").glob("*.py"),
                 root / "perfbench" / "workloads.py"]
        text = "".join(path.read_text(encoding="utf-8") for path in paths)
        assert sorted(key for key in SCHEMA if f"{key} =" not in text) == []

    def test_load_matches_parse(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(BASE_TEXT)
        assert RunConfig.load(path) == RunConfig.parse(BASE_TEXT)


class TestDigest:
    def test_digest_is_short_hex(self):
        digest = RunConfig.parse(BASE_TEXT).digest()
        assert len(digest) == 16
        int(digest, 16)

    def test_output_paths_do_not_change_digest(self):
        base = RunConfig.parse(BASE_TEXT)
        moved = RunConfig.parse(BASE_TEXT.replace("output.dir = out", "output.dir = elsewhere"))
        extra = RunConfig.parse(BASE_TEXT + "plot.report = r.json\nplot.input_dir = d\n")
        assert moved.digest() == base.digest()
        assert extra.digest() == base.digest()

    def test_scale_input_dir_does_not_change_digest(self):
        # the same config read from two run directories stamps one digest
        here = RunConfig.parse(BASE_TEXT + "scale.input_dir = runs/a/trajs\n")
        there = RunConfig.parse(BASE_TEXT + "scale.input_dir = elsewhere/b/trajs\n")
        assert here.digest() == there.digest() == RunConfig.parse(BASE_TEXT).digest()

    def test_semantic_change_changes_digest(self):
        base = RunConfig.parse(BASE_TEXT)
        changed = RunConfig.parse(BASE_TEXT.replace("p_sweep = 0.0,0.5", "p_sweep = 0.0,0.6"))
        assert changed.digest() != base.digest()


class TestGridSyntax:
    def grid(self, raw):
        return RunConfig.parse(f"protocol.time_grid = {raw}\n").get("protocol.time_grid")

    def test_geometric(self):
        np.testing.assert_array_equal(self.grid("geom:0.5:20:10"), np.geomspace(0.5, 20, 10))

    def test_linear(self):
        np.testing.assert_array_equal(self.grid("lin:0:1:5"), np.linspace(0, 1, 5))

    def test_geometric_integers_unique_ascending(self):
        grid = self.grid("geomint:1:100:20")
        assert grid[0] == 1.0 and grid[-1] == 100.0
        assert np.all(grid == np.rint(grid))
        assert np.all(np.diff(grid) > 0)

    def test_explicit_list(self):
        np.testing.assert_array_equal(self.grid("0.1, 0.5, 2.0"), [0.1, 0.5, 2.0])

    def test_degenerate_grid_rejected(self):
        with pytest.raises(ConfigError, match="at least 2"):
            self.grid("geom:1:10:1")


class TestTypedAccess:
    def test_get_with_default(self):
        cfg = RunConfig.parse(BASE_TEXT)
        assert cfg.get("estimator.kind", "exact") == "exact"
        assert cfg.get("geometry.spacing") is None

    def test_require_reports_all_missing(self):
        cfg = RunConfig.parse("run.label = x\n")
        with pytest.raises(ConfigError, match="missing required config keys: p_sweep, seeds"):
            cfg.require("p_sweep", "seeds")

    @pytest.mark.parametrize("key", ["p_sweep", "synth.p_list"])
    def test_p_sweep_range_checked(self, key):
        for values, bad in (("0.0, 1.5", "1.5"), ("-0.01, 0.5", "-0.01")):
            with pytest.raises(ConfigError, match=rf"bad value for {key}: entry {bad} outside"):
                RunConfig.parse(f"{key} = {values}\n")

    def test_seeds_default(self):
        assert RunConfig.parse("run.label = x\n").seeds == [0]
        assert RunConfig.parse(BASE_TEXT).seeds == [0, 1]


class TestDomainBuilders:
    def test_lattice_network(self):
        net = RunConfig.parse(BASE_TEXT).build_network()
        assert net.geometry.positions.shape == (8, 3)

    def test_file_geometry(self, tmp_path):
        coords = tmp_path / "sites.txt"
        coords.write_text("# corners\n0 0 0\n1.5 0 0\n")
        cfg = RunConfig.parse(f"geometry.kind = file\ngeometry.path = {coords}\n")
        assert cfg.build_geometry().positions.shape == (2, 3)

    def test_geometry_seed_drives_random_box(self):
        text = ("geometry.kind = random_box\ngeometry.n = 6\ngeometry.box = 3.0\n"
                "geometry.min_separation = 0.8\n")
        placed = RunConfig.parse(text + "geometry.seed = 3\n").build_geometry().positions
        again = RunConfig.parse(text + "geometry.seed = 4\n").build_geometry().positions
        np.testing.assert_array_equal(placed, random_box_geometry(6, 3.0, 0.8, seed=3).positions)
        assert not np.array_equal(placed, again)

    def test_unknown_geometry_kind(self):
        with pytest.raises(ConfigError, match="geometry.kind must be"):
            RunConfig.parse("geometry.kind = hexagonal\n").build_geometry()

    def test_shape_must_have_three_extents(self):
        cfg = RunConfig.parse("geometry.kind = cubic_lattice\ngeometry.shape = 2,2\n")
        with pytest.raises(ConfigError, match="3 extents"):
            cfg.build_geometry()

    def test_bad_field_axis_length(self):
        cfg = RunConfig.parse(
            "geometry.kind = cubic_lattice\ngeometry.shape = 2,2,2\n"
            "geometry.field_axis = 0,1\n")
        with pytest.raises(ConfigError, match="3 components"):
            cfg.build_geometry()

    def test_geometry_errors_become_config_errors(self):
        cfg = RunConfig.parse(
            "geometry.kind = random_box\ngeometry.n = 30\ngeometry.box = 1.0\n"
            "geometry.min_separation = 0.9\n")
        with pytest.raises(ConfigError, match="invalid geometry"):
            cfg.build_geometry()

    def test_average_protocol(self):
        proto = RunConfig.parse(BASE_TEXT).build_protocol(0.3)
        assert proto.p == 0.3
        np.testing.assert_array_equal(proto.times, np.geomspace(0.1, 10, 5))

    def test_floquet_protocol_times_are_cycle_multiples(self):
        cfg = RunConfig.parse(
            "protocol.mode = floquet\nprotocol.tau_c = 0.3\n"
            "protocol.time_grid = 1,2,4\n")
        proto = cfg.build_protocol(0.1)
        np.testing.assert_allclose(proto.times, [0.3, 0.6, 1.2])

    def test_floquet_requires_tau_c(self):
        cfg = RunConfig.parse("protocol.mode = floquet\nprotocol.time_grid = 1,2\n")
        with pytest.raises(ConfigError, match="protocol.tau_c"):
            cfg.build_protocol(0.1)

    def test_floquet_rejects_fractional_cycles(self):
        cfg = RunConfig.parse(
            "protocol.mode = floquet\nprotocol.tau_c = 0.3\n"
            "protocol.time_grid = 1.5,2.5\n")
        with pytest.raises(ConfigError, match="invalid protocol"):
            cfg.build_protocol(0.1)

    def test_unknown_protocol_mode(self):
        cfg = RunConfig.parse("protocol.mode = adiabatic\nprotocol.time_grid = 1,2\n")
        with pytest.raises(ConfigError, match="protocol.mode must be"):
            cfg.build_protocol(0.1)

    def test_estimator_defaults(self):
        est = RunConfig.parse(BASE_TEXT).estimator_config()
        assert (est.kind, est.n_samples, est.base_seed) == ("exact", 8, 0)

    def test_replica_seed_blocks_disjoint(self):
        cfg = RunConfig.parse("estimator.n_samples = 4\n")
        assert cfg.estimator_config(seed=0).base_seed == 0
        assert cfg.estimator_config(seed=2).base_seed == 2 * 100003

    def test_bad_estimator_kind(self):
        with pytest.raises(ConfigError, match="estimator.kind must be"):
            RunConfig.parse("estimator.kind = montecarlo\n").estimator_config()

    def test_bad_estimator_parameters(self):
        with pytest.raises(ConfigError, match="invalid estimator"):
            RunConfig.parse("estimator.n_samples = 0\n").estimator_config()

    def test_synth_parameter_assembly(self):
        cfg = RunConfig.parse(
            "synth.p_list = 0.01,0.02,0.03\nsynth.p_c = 0.0266\nsynth.nu = 0.42\n"
            "synth.s = 0.42\nsynth.alpha = 2.87\nsynth.time_grid = geom:1:100:10\n")
        params = cfg.synth_params()
        assert params["p_list"] == [0.01, 0.02, 0.03]
        assert (params["A"], params["B"], params["noise_level"], params["seed"]) == (
            1.0, 0.0, 0.0, 0)
        np.testing.assert_array_equal(params["t_grid"], np.geomspace(1, 100, 10))


def sample_trajectory():
    times = np.geomspace(0.5, 20.0, 6)
    K = np.array([1.0, 1.5, 2.25, 4.0, 7.5, 11.0])
    meta = {"geometry": "demo", "seed": 3, "estimator": "exact", "n_spins": 12,
            "protocol_digest": "abc123", "planted": {"nu": 0.42, "list": [1, 2]}}
    return ClusterTrajectory(p=0.25, times=times, K=K, metadata=meta)


class TestTrajectoryFiles:
    def test_round_trip_is_exact(self, tmp_path):
        traj = sample_trajectory()
        path = tmp_path / trajectory_filename(traj.p, 3)
        write_trajectory_file(path, traj, config_digest="deadbeef00112233")
        back = read_trajectory_file(path)
        assert back.p == traj.p
        np.testing.assert_array_equal(back.times, traj.times)
        np.testing.assert_array_equal(back.K, traj.K)
        assert back.metadata["config_digest"] == "deadbeef00112233"
        assert back.metadata["planted"] == {"nu": 0.42, "list": [1, 2]}
        assert back.spectra is None

    def test_reformat_is_byte_identical(self, tmp_path):
        traj = sample_trajectory()
        text = format_trajectory(traj, "deadbeef00112233")
        path = tmp_path / "t.csv"
        path.write_text(text)
        assert format_trajectory(read_trajectory_file(path), "deadbeef00112233") == text

    def test_filename_convention(self):
        assert trajectory_filename(0.1, 3) == "traj_p0.100000_seed3.csv"
        assert trajectory_filename(0.0266, 0) == "traj_p0.026600_seed0.csv"

    def test_foreign_file_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("time,K\n1.0,2.0\n")
        with pytest.raises(ConfigError, match="not a spinquench trajectory"):
            read_trajectory_file(path)

    def test_header_only_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("# spinquench trajectory v1\n# p=0.1\n")
        with pytest.raises(ConfigError, match="header only"):
            read_trajectory_file(path)

    def test_bad_metadata_json_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("# spinquench trajectory v1\n# p={broken\ntime,K\n1.0,2.0\n")
        with pytest.raises(ConfigError, match="bad metadata value"):
            read_trajectory_file(path)

    def test_wrong_columns_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("# spinquench trajectory v1\n# p=0.1\nt,K\n1.0,2.0\n")
        with pytest.raises(ConfigError, match="expected columns time,K"):
            read_trajectory_file(path)

    def test_missing_p_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("# spinquench trajectory v1\n# seed=0\ntime,K\n1.0,2.0\n")
        with pytest.raises(ConfigError, match="lacks p"):
            read_trajectory_file(path)

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("# spinquench trajectory v1\n# p=0.1\ntime,K\n1.0,2.0,9.0\n")
        with pytest.raises(ConfigError, match="ragged|bad data row"):
            read_trajectory_file(path)

    def test_unparseable_number_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("# spinquench trajectory v1\n# p=0.1\ntime,K\n1.0,two\n")
        with pytest.raises(ConfigError, match="bad data row"):
            read_trajectory_file(path)

    def test_invalid_cluster_sizes_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("# spinquench trajectory v1\n# p=0.1\ntime,K\n1.0,0.2\n")
        with pytest.raises(ConfigError, match=">= 1"):
            read_trajectory_file(path)

    @pytest.mark.parametrize("columns", ["a-1,a1,a0", "a-1,a0,a0", "a-2,a0,a2", "a0,a1"])
    def test_order_columns_must_run_contiguously(self, tmp_path, columns):
        """Order columns that reorder, repeat or skip an order, or that
        leave out the negative ones, hold no spectrum over -n..n: reading
        the file raises, and scale on its directory exits 2."""
        weights = ",".join(["0.5"] * 2 + ["0.0"] * (columns.count(",") - 1))
        path = tmp_path / trajectory_filename(0.1, 0)
        path.write_text(f"# spinquench trajectory v1\n# p=0.1\ntime,K,{columns}\n1.0,1.0,{weights}\n")
        with pytest.raises(ConfigError, match="order columns must run a-n..an contiguously"):
            read_trajectory_file(path)
        cfg = tmp_path / "scale.cfg"
        cfg.write_text(f"scale.input_dir = {tmp_path}\n")
        assert main(["scale", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2

    def test_no_temp_files_left_behind(self, tmp_path):
        write_trajectory_file(tmp_path / "t.csv", sample_trajectory(), "d")
        assert os.listdir(tmp_path) == ["t.csv"]


class TestTrajectoryDirectory:
    def write(self, dirpath, p, seed):
        traj = sample_trajectory()
        traj = ClusterTrajectory(p=p, times=traj.times, K=traj.K,
                                 metadata={**traj.metadata, "seed": seed})
        write_trajectory_file(dirpath / trajectory_filename(p, seed), traj, "d")

    def test_sorted_by_p_then_seed(self, tmp_path):
        for p, seed in [(0.5, 0), (0.0, 1), (0.0, 0)]:
            self.write(tmp_path, p, seed)
        (tmp_path / "notes.txt").write_text("ignored")
        loaded = load_trajectory_dir(tmp_path)
        assert [(t.p, t.metadata["seed"]) for t in loaded] == [(0.0, 0), (0.0, 1), (0.5, 0)]

    def test_missing_directory(self, tmp_path):
        with pytest.raises(ConfigError, match="not a directory"):
            load_trajectory_dir(tmp_path / "absent")

    def test_empty_directory(self, tmp_path):
        with pytest.raises(ConfigError, match="no trajectory files"):
            load_trajectory_dir(tmp_path)


class TestReportAndPooled:
    def test_report_round_trip(self, tmp_path):
        report = {"alpha": 2.87, "fit": {"nu": 0.42, "p_c": 0.0266},
                  "beta_scan": {"1.0": 0.01}, "xi": {"0.1": 2.0}}
        path = tmp_path / "report.json"
        write_report_json(path, report)
        assert read_report_json(path) == report

    def test_report_errors(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read report"):
            read_report_json(tmp_path / "absent.json")
        path = tmp_path / "bad.json"
        path.write_text("{oops")
        with pytest.raises(ConfigError, match="not valid JSON"):
            read_report_json(path)

    def test_pooled_round_trip_exact(self, tmp_path):
        pooled = ScalingFunctionSample(
            x=np.array([-1.5, 0.1, 2.0]), y=np.array([0.3, -0.2, 0.7]),
            p=np.array([0.1, 0.1, 0.2]))
        path = tmp_path / "pooled.csv"
        write_pooled_csv(path, pooled)
        rows = read_pooled_csv(path)
        assert rows == [(-1.5, 0.3, 0.1), (0.1, -0.2, 0.1), (2.0, 0.7, 0.2)]

    def test_pooled_header_enforced(self, tmp_path):
        path = tmp_path / "pooled.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ConfigError, match="expected header"):
            read_pooled_csv(path)


class TestTrajectoryWithSpectra:
    def test_per_order_columns_round_trip(self, tmp_path, chain6):
        from spinquench.evolution import QuenchProtocol
        from spinquench.mqc import EstimatorConfig, trajectory

        proto = QuenchProtocol.average(0.0, [0.3, 0.6])
        traj = trajectory(chain6, proto, EstimatorConfig(kind="exact", keep_spectra=True))
        path = tmp_path / "t.csv"
        write_trajectory_file(path, traj, "d")
        back = read_trajectory_file(path)
        assert len(back.spectra) == 2
        for a, b in zip(traj.spectra, back.spectra):
            np.testing.assert_array_equal(a.orders, b.orders)
            np.testing.assert_array_equal(a.weights, b.weights)
        assert format_trajectory(back, "d") == format_trajectory(traj, "d")
