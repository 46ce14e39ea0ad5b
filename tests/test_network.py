import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.testing import assert_allclose

from spinquench.errors import CoordinateFileError, GeometryError, PackingError
from spinquench.network import (
    CouplingNetwork,
    SpinGeometry,
    cubic_lattice_geometry,
    dipolar_couplings,
    generate_geometry,
    load_geometry_file,
    random_box_geometry,
)

from oracles import rotate_about_axis

Z = np.array([0.0, 0.0, 1.0])


def pair_network(r_vec):
    geo = SpinGeometry(np.array([[0.0, 0.0, 0.0], r_vec], dtype=float), Z)
    return dipolar_couplings(geo)


# distinct lattice sites plus a jitter smaller than half the spacing can
# never produce coincident spins, so hypothesis never hits the rejection
@st.composite
def geometries(draw):
    sites = draw(st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)),
        min_size=2, max_size=6, unique=True))
    jitter = draw(st.lists(
        st.tuples(*[st.floats(-0.3, 0.3, allow_nan=False) for _ in range(3)]),
        min_size=len(sites), max_size=len(sites)))
    pos = np.array(sites, dtype=float) + np.array(jitter)
    return SpinGeometry(pos, Z)


class TestCouplingValues:
    def test_pair_along_field_axis(self):
        net = pair_network([0.0, 0.0, 1.0])
        assert_allclose(net.couplings[0, 1], -2.0, rtol=1e-14)

    def test_pair_at_magic_angle(self):
        c = 1.0 / np.sqrt(3.0)
        s = np.sqrt(1.0 - c * c)
        net = pair_network([s, 0.0, c])
        assert abs(net.couplings[0, 1]) < 1e-12

    def test_perpendicular_pair_at_distance_two(self):
        net = pair_network([2.0, 0.0, 0.0])
        assert_allclose(net.couplings[0, 1], 0.125, rtol=1e-14)

    def test_d_max_is_largest_magnitude(self):
        net = dipolar_couplings(cubic_lattice_geometry((2, 2, 2)))
        assert net.d_max == np.abs(net.couplings).max() == 2.0


class TestCouplingInvariants:
    @given(geometries(), st.floats(0.1, 2 * np.pi))
    def test_rotation_about_field_axis_preserves_couplings(self, geo, angle):
        d0 = dipolar_couplings(geo).couplings
        rotated = SpinGeometry(rotate_about_axis(geo.positions, geo.field_axis, angle),
                               geo.field_axis.copy())
        d1 = dipolar_couplings(rotated).couplings
        assert_allclose(d1, d0, atol=1e-12)

    @given(geometries(), st.floats(0.5, 4.0))
    def test_uniform_dilation_scales_couplings_by_inverse_cube(self, geo, lam):
        d0 = dipolar_couplings(geo).couplings
        scaled = SpinGeometry(geo.positions * lam, geo.field_axis.copy())
        d1 = dipolar_couplings(scaled).couplings
        assert_allclose(d1, d0 / lam**3, rtol=1e-12, atol=1e-15)

    @given(geometries())
    def test_coupling_matrix_symmetric_zero_diagonal(self, geo):
        d = dipolar_couplings(geo).couplings
        assert np.array_equal(d, d.T)
        assert np.all(np.diag(d) == 0.0)

    def test_cutoff_zeroes_distant_pairs_exactly(self):
        geo = cubic_lattice_geometry((4, 1, 1))
        net = dipolar_couplings(geo, cutoff_radius=1.5)
        r = np.linalg.norm(geo.positions[:, None] - geo.positions[None, :], axis=-1)
        assert np.all(net.couplings[r > 1.5] == 0.0)
        assert net.couplings[0, 1] != 0.0


class TestGeometryValidation:
    def test_coincident_spins_rejected(self):
        with pytest.raises(GeometryError, match="coincident"):
            SpinGeometry(np.zeros((2, 3)), Z)

    def test_non_unit_field_axis_rejected(self):
        with pytest.raises(GeometryError, match="unit norm"):
            SpinGeometry(np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]), np.array([0.0, 0.0, 2.0]))

    def test_asymmetric_coupling_matrix_rejected(self):
        geo = cubic_lattice_geometry((2, 1, 1))
        bad = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(GeometryError, match="symmetric"):
            CouplingNetwork(geo, bad)


class TestGenerators:
    def test_cubic_lattice_2x2x2(self):
        geo = cubic_lattice_geometry((2, 2, 2), spacing=1.0)
        assert geo.n_spins == 8
        expected = {(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)}
        assert {tuple(p) for p in geo.positions} == expected

    def test_cubic_lattice_rejects_oversize_and_bad_spacing(self):
        with pytest.raises(GeometryError, match="exceeds"):
            cubic_lattice_geometry((3, 3, 3))
        with pytest.raises(GeometryError, match="spacing"):
            cubic_lattice_geometry((2, 2, 2), spacing=0.0)

    def test_random_box_respects_min_separation(self):
        geo = random_box_geometry(10, 3.0, 0.8, seed=42)
        assert geo.n_spins == 10
        from scipy.spatial.distance import pdist
        assert pdist(geo.positions).min() >= 0.8
        assert np.all(geo.positions >= 0.0) and np.all(geo.positions <= 3.0)

    def test_random_box_deterministic_given_seed(self):
        a = random_box_geometry(8, 2.5, 0.5, seed=7)
        b = random_box_geometry(8, 2.5, 0.5, seed=7)
        assert np.array_equal(a.positions, b.positions)
        c = random_box_geometry(8, 2.5, 0.5, seed=8)
        assert not np.array_equal(a.positions, c.positions)

    @given(st.integers(2, 12), st.integers(0, 1000))
    def test_random_box_separation_holds_for_any_seed(self, n, seed):
        geo = random_box_geometry(n, 4.0, 0.6, seed=seed)
        from scipy.spatial.distance import pdist
        assert pdist(geo.positions).min() >= 0.6

    def test_infeasible_packing_raises(self):
        # 24 spins with pairwise separation 1 cannot fit in a unit box
        with pytest.raises(PackingError, match="min separation"):
            random_box_geometry(24, 1.0, 1.0, seed=0)

    def test_generate_geometry_dispatch(self, tmp_path):
        lat = generate_geometry("cubic_lattice", {"shape": (2, 2, 1)}, seed=3)
        assert lat.n_spins == 4 and lat.seed == 3
        rnd = generate_geometry("random_box", {"n": 5, "box": 3.0, "min_separation": 0.4}, seed=9)
        assert rnd.n_spins == 5 and rnd.seed == 9
        path = tmp_path / "coords.txt"
        path.write_text("0 0 0\n1 0 0\n")
        fromfile = generate_geometry("file", {"path": path})
        assert fromfile.n_spins == 2
        with pytest.raises(GeometryError, match="unknown geometry kind"):
            generate_geometry("hexagonal", {})


class TestCoordinateFiles:
    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("# header\n\n0.0 0.0 0.0\n1.5 0 0  # trailing comment\n")
        geo = load_geometry_file(path)
        assert geo.n_spins == 2
        assert_allclose(geo.positions[1], [1.5, 0.0, 0.0])

    def test_sixteen_coordinate_file(self, tmp_path):
        # diamond-cage-like cluster: 16 sites, no coincidences
        rng = np.random.default_rng(1)
        pos = np.arange(16)[:, None] * [1.0, 0.0, 0.0] + rng.uniform(-0.2, 0.2, (16, 3))
        path = tmp_path / "cluster16.txt"
        path.write_text("\n".join(" ".join(f"{v:.6f}" for v in row) for row in pos))
        geo = load_geometry_file(path)
        assert geo.n_spins == 16

    def test_wrong_column_count_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 0 0\n1 0\n")
        with pytest.raises(CoordinateFileError, match="bad.txt:2"):
            load_geometry_file(path)

    def test_non_decimal_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("# comment\n0 0 zero\n")
        with pytest.raises(CoordinateFileError, match="bad.txt:2"):
            load_geometry_file(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("# only comments\n")
        with pytest.raises(CoordinateFileError, match="no coordinates"):
            load_geometry_file(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(CoordinateFileError, match="cannot read"):
            load_geometry_file(tmp_path / "nope.txt")
