"""Finite-time scaling pipeline: growth fits, collapse, critical fits.

Most tests run on synthetic trajectories drawn from the closed-form
scaling family, where every planted quantity is known exactly.  The one
stored simulation fixture (14 spins, typicality estimator) is produced
by scripts/make_regression_fixtures.py.
"""

import math
import pathlib

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spinquench import scaling
from spinquench.errors import (
    CollapseError,
    FitError,
    InsufficientDataError,
    SaturationError,
)
from spinquench.io import read_trajectory_file
from spinquench.mqc import ClusterTrajectory
from spinquench.scaling import (
    DEFAULT_BETA_GRID,
    CollapseResult,
    GrowthFit,
    RescaledCurve,
    ScalingFunctionSample,
    _pair_mismatch,
    _xi_jacobian,
    _xi_residuals,
    beta_scan,
    bootstrap_fit_xi,
    collapse,
    estimate_k_loc,
    fit_growth_exponent,
    fit_xi_branch_gauged,
    full_scaling_analysis,
    normalize_xi,
    rescale,
    scaling_exponents,
    synth_trajectories,
)

DATA_DIR = pathlib.Path(__file__).parent / "data"

# planted family used throughout: transition inside the p window, both
# branches populated, anchor curve deep in the saturated regime
P_LIST = [0.005, 0.010, 0.015, 0.020, 0.024, 0.030, 0.040, 0.060, 0.108]
T_GRID = np.geomspace(1.0, 500.0, 40)
PLANTED = {"p_c": 0.0266, "nu": 0.4205, "s": 0.4205, "alpha": 2.87,
           "A": 0.58, "B": 0.05}


# the xi fitters under test: the branch-gauged fit is the only one
XI_FITTERS = (fit_xi_branch_gauged,)


def planted_xi(p):
    d = abs(p - PLANTED["p_c"])
    return 1.0 / (PLANTED["A"] * d ** PLANTED["nu"] + PLANTED["B"])


def make_traj(times, K, p=0.0):
    return ClusterTrajectory(p=p, times=np.asarray(times, float),
                             K=np.asarray(K, float))


@pytest.fixture(scope="module")
def noiseless_family():
    """Noiseless synthetic curves plus their fitted growth law and collapse."""
    trajs = synth_trajectories(P_LIST, t_grid=T_GRID, noise_level=0.0, **PLANTED)
    growth = fit_growth_exponent(trajs[0], t_min=40.0)
    curves = rescale(trajs, growth, beta=1.0, t_min=2.0)
    return trajs, growth, curves, collapse(curves)


class TestScalingExponents:
    def test_reference_exponent_pair(self):
        k1, k2p = scaling_exponents(2.87, 1.0)
        assert k1 == pytest.approx(1.913333333333333, rel=1e-12)
        assert k2p == pytest.approx(0.9566666666666666, rel=1e-12)

    def test_unperturbed_ratio_arithmetic(self):
        assert scaling_exponents(3.0, 0.0) == (3.0, 1.5)

    def test_singular_ratio_rejected(self):
        with pytest.raises(ValueError, match="singular"):
            scaling_exponents(2.87, -2.0)

    @given(alpha=st.floats(0.1, 10.0), beta=st.floats(-1.9, 20.0))
    def test_exponent_identities(self, alpha, beta):
        k1, k2p = scaling_exponents(alpha, beta)
        assert k1 == pytest.approx(2.0 * k2p, rel=1e-12)
        assert k1 * (2.0 + beta) == pytest.approx(2.0 * alpha, rel=1e-12)


class TestGrowthFit:
    def test_pure_power_law(self):
        t = np.geomspace(1.0, 100.0, 30)
        fit = fit_growth_exponent(make_traj(t, t**4.3))
        assert fit.alpha == pytest.approx(4.3 * 2.0 / 3.0, rel=1e-10)
        assert fit.alpha_K == pytest.approx(4.3, rel=1e-10)
        assert fit.D == pytest.approx(1.0, rel=1e-9)
        assert fit.r2 > 1.0 - 1e-12
        assert fit.n_points == 30
        assert fit.t_min == t[0]

    def test_prefactor_recovered(self):
        t = np.geomspace(1.0, 50.0, 20)
        fit = fit_growth_exponent(make_traj(t, 2.5 * t**3))
        assert fit.alpha == pytest.approx(2.0, rel=1e-10)
        assert fit.D == pytest.approx(2.5 ** (2.0 / 3.0), rel=1e-9)
        assert fit.r2 > 1.0 - 1e-12

    def test_explicit_window_start(self):
        t = np.geomspace(1.0, 100.0, 30)
        fit = fit_growth_exponent(make_traj(t, t**3), t_min=10.0)
        assert fit.t_min == t[t >= 10.0][0]
        assert fit.n_points == int(np.sum(t >= fit.t_min))
        assert fit.alpha == pytest.approx(2.0, rel=1e-10)

    def test_saturated_tail_trimmed(self):
        t = np.geomspace(1.0, 100.0, 30)
        fit = fit_growth_exponent(make_traj(t, np.minimum(t**3, 1000.0)))
        assert fit.n_points < 30
        assert fit.alpha == pytest.approx(2.0, abs=0.1)
        assert fit.r2 > 0.98

    def test_flat_trajectory_rejected(self):
        t = np.geomspace(1.0, 100.0, 20)
        with pytest.raises(InsufficientDataError, match="saturat"):
            fit_growth_exponent(make_traj(t, np.full(20, 7.0)))

    def test_short_window_rejected(self):
        with pytest.raises(InsufficientDataError, match="need 5"):
            fit_growth_exponent(make_traj([1.0, 2.0, 4.0, 8.0], [1.0, 8.0, 64.0, 512.0]))

    def test_exponent_pair_consistency_enforced(self):
        assert GrowthFit(alpha=2.0, D=1.0, t_min=1.0, r2=1.0, n_points=6).alpha_K == 3.0
        with pytest.raises(ValueError, match="at least 5"):
            GrowthFit(alpha=2.0, D=1.0, t_min=1.0, r2=1.0, n_points=4)


class TestGrowthFixture:
    """14-spin typicality trajectory stored under tests/data/.

    Too slow to recompute per run (minutes of propagation); regenerate
    with scripts/make_regression_fixtures.py when estimator or kernel
    changes are supposed to move the numbers.
    """

    def test_stored_quench_growth_is_power_law(self):
        traj = read_trajectory_file(DATA_DIR / "traj_n14_p0_typicality.csv")
        assert traj.p == 0.0
        assert traj.metadata["n_spins"] == 14
        assert traj.metadata["estimator"] == "typicality"
        fit = fit_growth_exponent(traj)
        assert fit.r2 >= 0.98
        assert fit.n_points >= 5
        assert fit.alpha == pytest.approx(FIXTURE_ALPHA_N14, abs=0.02)


class TestRescale:
    def test_coordinate_definitions(self):
        t = np.geomspace(1.0, 10.0, 12)
        growth = GrowthFit(alpha=2.0, D=1.0, t_min=1.0, r2=1.0, n_points=12)
        (curve,) = rescale([make_traj(t, t**3, p=0.1)], growth, beta=1.0, t_min=None)
        k1, k2p = scaling_exponents(2.0, 1.0)
        # x ascends while t descends
        np.testing.assert_allclose(curve.x, -k2p * np.log(t)[::-1], atol=1e-12)
        np.testing.assert_allclose(
            curve.y, (2.0 * np.log(t) - k1 * np.log(t))[::-1], atol=1e-12)

    def test_window_filter_and_default(self):
        t = np.geomspace(1.0, 10.0, 12)
        growth = GrowthFit(alpha=2.0, D=1.0, t_min=3.0, r2=1.0, n_points=12)
        explicit = rescale([make_traj(t, t**3)], growth, beta=0.0, t_min=5.0)[0]
        assert explicit.x.size == int(np.sum(t >= 5.0))
        default = rescale([make_traj(t, t**3)], growth, beta=0.0)[0]
        assert default.x.size == int(np.sum(t >= 3.0))

    def test_curves_sorted_by_p(self):
        t = np.geomspace(1.0, 10.0, 8)
        growth = GrowthFit(alpha=2.0, D=1.0, t_min=1.0, r2=1.0, n_points=8)
        trajs = [make_traj(t, t**3, p=0.3), make_traj(t, t**3, p=0.1)]
        assert [c.p for c in rescale(trajs, growth, beta=1.0)] == [0.1, 0.3]

    def test_non_monotone_x_rejected(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            RescaledCurve(p=0.1, x=np.array([0.0, 0.0, 1.0]), y=np.zeros(3))


def translated_curves(shifts_in):
    """Sampled copies of one cubic master curve, horizontally displaced.

    A cubic master keeps the spline interpolant exact, so shift recovery
    is limited only by the optimizer, not by interpolation bias.
    """
    master = lambda u: 0.05 * u**3 - 0.4 * u**2 + 0.3 * u
    base = np.linspace(-2.0, 2.0, 41)
    ps = (0.1, 0.2, 0.3, 0.4)
    curves = []
    for p, d in zip(ps, shifts_in):
        curves.append(RescaledCurve(p=p, x=base - d, y=master(base)))
    return curves


class TestCollapse:
    def test_planted_translations_recovered(self):
        planted = [0.0, 0.31, 0.55]
        result = collapse(translated_curves(planted))
        for p, d in zip((0.1, 0.2, 0.3), planted):
            assert result.shifts[p] == pytest.approx(d, abs=1e-9)
        assert result.residual <= 1e-9

    def test_shift_origin_is_lowest_p(self):
        result = collapse(translated_curves([0.2, 0.0, 0.45]))
        assert result.shifts[0.1] == 0.0

    def test_idempotent_on_collapsed_curves(self):
        curves = translated_curves([0.0, 0.31, 0.55])
        first = collapse(curves)
        shifted = [RescaledCurve(p=c.p, x=c.x + first.shifts[c.p], y=c.y) for c in curves]
        again = collapse(shifted)
        for p, s in again.shifts.items():
            assert s == pytest.approx(0.0, abs=1e-6)

    def test_common_offset_gauge_invariance(self):
        curves = translated_curves([0.0, 0.31, 0.55])
        moved = [RescaledCurve(p=c.p, x=c.x + 0.37, y=c.y) for c in curves]
        a, b = collapse(curves), collapse(moved)
        for p in a.shifts:
            assert b.shifts[p] == pytest.approx(a.shifts[p], abs=1e-6)

    def test_single_curve_passthrough(self):
        (curve,) = translated_curves([0.0])
        result = collapse([curve])
        assert result.shifts == {0.1: 0.0}
        assert result.residual == 0.0
        np.testing.assert_array_equal(result.pooled.x, curve.x)

    def test_degenerate_curve_named_in_error(self):
        curves = translated_curves([0.0, 0.3])
        curves.append(RescaledCurve(p=0.9, x=np.array([1.0]), y=np.array([0.0])))
        with pytest.raises(CollapseError, match="p=0.9"):
            collapse(curves)

    def test_pooled_sample_is_sorted_and_tagged(self):
        result = collapse(translated_curves([0.0, 0.31, 0.55]))
        assert np.all(np.diff(result.pooled.x) >= 0)
        assert set(np.unique(result.pooled.p)) == {0.1, 0.2, 0.3}
        assert result.pooled.x.size == result.pooled.y.size == result.pooled.p.size

    def test_scale_factors_exponentiate_shifts(self):
        pooled = ScalingFunctionSample(np.zeros(1), np.zeros(1), np.zeros(1))
        result = CollapseResult({0.1: 0.0, 0.2: math.log(2.0)}, pooled, {})
        assert result.xi_raw == {0.1: pytest.approx(1.0), 0.2: pytest.approx(2.0)}

    def test_trimmed_residual_drops_worst_pair(self):
        pooled = ScalingFunctionSample(np.zeros(1), np.zeros(1), np.zeros(1))
        stats = {(0.1, 0.2): (4.0, 1), (0.2, 0.3): (1.0, 1), (0.3, 0.4): (100.0, 1)}
        result = CollapseResult({}, pooled, stats)
        assert result.trimmed_residual() == pytest.approx(math.sqrt(5.0 / 2.0))
        assert result.residual == pytest.approx(math.sqrt(105.0 / 3.0))
        two = CollapseResult({}, pooled, {(0.1, 0.2): (4.0, 1), (0.2, 0.3): (1.0, 1)})
        assert two.trimmed_residual() == pytest.approx(math.sqrt(5.0 / 2.0))


def overlap_floor(c1, c2):
    """Half the shorter span, m, and the window of shift differences that
    keep at least m in overlap."""
    m = 0.5 * min(c1.x[-1] - c1.x[0], c2.x[-1] - c2.x[0])
    return m, (c1.x[0] - c2.x[-1] + m, c1.x[-1] - c2.x[0] - m)


class TestSeparableCollapse:
    """Each adjacent pair's mismatch depends only on its shift difference.

    The collapse objective is therefore a sum of independent 1-D terms:
    no pair can move another pair's shift difference, and each pair must
    sit at the global minimum of its own mismatch over its window.
    """

    def test_highest_curve_moves_no_other_shift(self, noiseless_family):
        _, _, curves, result = noiseless_family
        top = curves[-1]
        bent = RescaledCurve(p=top.p, x=top.x, y=top.y + 0.3 * np.sin(3.0 * top.x))
        for variant in (curves[:-1], curves[:-1] + [bent]):
            shifts = collapse(variant).shifts
            for c in curves[:-1]:
                assert shifts[c.p] == pytest.approx(result.shifts[c.p], abs=1e-12)

    @pytest.mark.parametrize("beta", [0.58, 1.0, 6.6])
    def test_each_pair_at_its_global_minimum(self, noiseless_family, beta):
        trajs, growth, _, _ = noiseless_family
        curves = rescale(trajs, growth, beta=beta, t_min=2.0)
        result = collapse(curves)
        for c1, c2 in zip(curves, curves[1:]):
            got = result.pair_stats[(c1.p, c2.p)][0]
            _, window = overlap_floor(c1, c2)
            floor = _pair_mismatch(c1, c2, np.linspace(*window, 4001))[0].min()
            assert got <= floor * (1.0 + 1e-9) + 1e-15

    @pytest.mark.parametrize("beta", [0.58, 1.0, 6.6])
    def test_overlap_floor_holds(self, noiseless_family, beta):
        # the pair bracketing p_c cannot collapse, so it slides as far apart
        # as the floor lets it, and no further
        trajs, growth, _, _ = noiseless_family
        curves = rescale(trajs, growth, beta=beta, t_min=2.0)
        shifts = collapse(curves).shifts
        for c1, c2 in zip(curves, curves[1:]):
            m, _ = overlap_floor(c1, c2)
            delta = shifts[c2.p] - shifts[c1.p]
            overlap = min(c1.x[-1], c2.x[-1] + delta) - max(c1.x[0], c2.x[0] + delta)
            assert overlap >= m * (1.0 - 1e-9)
            if c1.p < PLANTED["p_c"] < c2.p:
                assert overlap - m <= 1e-9 * m


class TestBatchedPairCost:
    """One _pair_mismatch call scores a whole array of shift differences;
    each entry must equal a call on that shift difference alone.
    """

    @staticmethod
    def check(c1, c2, deltas):
        sq, cnt = _pair_mismatch(c1, c2, deltas)
        for i, d in enumerate(deltas):
            sq_i, cnt_i = _pair_mismatch(c1, c2, [d])
            assert cnt[i] == cnt_i[0]
            assert sq[i] == pytest.approx(sq_i[0], rel=1e-15, abs=0)

    @pytest.mark.parametrize("beta", [0.58, 1.0, 6.6])
    def test_every_collapse_probe(self, noiseless_family, beta, monkeypatch):
        trajs, growth, _, _ = noiseless_family
        curves = rescale(trajs, growth, beta=beta, t_min=2.0)
        calls = []

        def recording(c1, c2, deltas):
            calls.append((c1, c2, np.array(deltas, dtype=float)))
            return _pair_mismatch(c1, c2, deltas)

        monkeypatch.setattr(scaling, "_pair_mismatch", recording)
        collapse(curves)
        monkeypatch.undo()
        # every delta scored, probe or polish step, lies in its pair's window
        for c1, c2, deltas in calls:
            _, (first, last) = overlap_floor(c1, c2)
            assert np.all((deltas >= first) & (deltas <= last))
        batches = [call for call in calls if call[2].size > 1]   # the probes
        assert [(c1.p, c2.p) for c1, c2, _ in batches] == [
            (c1.p, c2.p) for c1, c2 in zip(curves, curves[1:])]
        for c1, c2, deltas in batches:
            self.check(c1, c2, deltas)

    def test_short_curve_and_empty_overlaps(self):
        # 3 points: linear interpolation (np.interp) instead of the spline.
        # A positive-length overlap always holds an end sample of one
        # curve, so only disjoint curves hold no sample; where they touch,
        # at delta = 2.5 and -3.0 exactly, the shared point counts once
        # from each curve
        (long,) = translated_curves([0.0])
        short = RescaledCurve(p=0.2, x=np.array([-0.5, 0.25, 1.0]), y=np.array([0.3, -0.1, 0.2]))
        touching = {2.5: long.y[-1] - short.y[0], -3.0: long.y[0] - short.y[-1]}
        disjoint = [-10.0, -3.5, 2.75, 10.0]
        deltas = np.array(list(touching) + disjoint + np.linspace(-2.9, 2.4, 53).tolist())
        sq, cnt = _pair_mismatch(long, short, disjoint)
        assert np.all(cnt == 0) and np.all(sq == 0.0)
        sq, cnt = _pair_mismatch(long, short, list(touching))
        np.testing.assert_array_equal(cnt, [2, 2])
        np.testing.assert_allclose(sq, [2.0 * g * g for g in touching.values()], rtol=1e-12)
        self.check(long, short, deltas)
        self.check(short, long, -deltas)


class TestTwoBranchCollapse:
    """Shift structure of a family bracketing the transition.

    Within one side of the transition the recovered shifts track the
    planted log scale factors up to a single additive constant; across
    sides the constants differ (the cross-transition link is a soft mode
    of any overlap objective), which is why scale factors are gauged per
    branch downstream.
    """

    def branch_stats(self, result, ps):
        d = np.array([result.shifts[p] - math.log(planted_xi(p)) for p in ps])
        lx = np.array([math.log(planted_xi(p)) for p in ps])
        spread = math.sqrt(np.mean((lx - lx.mean()) ** 2))
        return d.mean(), math.sqrt(np.mean((d - d.mean()) ** 2)) / spread

    def test_shifts_track_log_scale_factor_per_branch(self, noiseless_family):
        _, _, _, result = noiseless_family
        below = [p for p in P_LIST if p < PLANTED["p_c"]]
        above = [p for p in P_LIST if p > PLANTED["p_c"]]
        _, rel_below = self.branch_stats(result, below)
        _, rel_above = self.branch_stats(result, above)
        assert rel_below <= 0.02
        assert rel_above <= 0.02

    def test_cross_transition_constant_differs(self, noiseless_family):
        _, _, _, result = noiseless_family
        c_below, _ = self.branch_stats(result, [p for p in P_LIST if p < PLANTED["p_c"]])
        c_above, _ = self.branch_stats(result, [p for p in P_LIST if p > PLANTED["p_c"]])
        assert abs(c_below - c_above) > 1.0

    def test_bracketing_pair_dominates_full_residual(self, noiseless_family):
        _, _, _, result = noiseless_family
        assert result.trimmed_residual() < 1e-3
        assert result.residual > 10.0 * result.trimmed_residual()
        worst = max(result.pair_stats, key=lambda k: result.pair_stats[k][0])
        assert worst[0] < PLANTED["p_c"] < worst[1]


class TestBetaScan:
    def test_planted_ratio_selected(self):
        nu = 0.4205
        trajs = synth_trajectories(P_LIST, p_c=0.0266, nu=nu, s=2.0 * nu,
                                  alpha=2.87, t_grid=T_GRID)
        growth = fit_growth_exponent(trajs[0], t_min=40.0)
        scan = beta_scan(trajs, growth, beta_grid=(0.0, 1.0, 2.0, 3.0), t_min=2.0)
        assert scan.best_beta == 2.0
        others = [r for b, r in scan.residuals.items() if b != 2.0]
        assert scan.residuals[2.0] < 0.1 * min(others)
        assert set(scan.residuals) == {0.0, 1.0, 2.0, 3.0}

    def test_all_windows_empty_raises(self):
        t = np.geomspace(1.0, 10.0, 8)
        trajs = [make_traj(t, t**3, p=p) for p in (0.1, 0.2, 0.3)]
        growth = GrowthFit(alpha=2.0, D=1.0, t_min=1.0, r2=1.0, n_points=8)
        with pytest.raises(CollapseError, match="every beta"):
            beta_scan(trajs, growth, beta_grid=(0.0, 1.0), t_min=1e6)


class TestSaturatedClusterSize:
    def test_constant_plateau_mean(self):
        t = np.geomspace(1.0, 100.0, 40)
        assert estimate_k_loc(make_traj(t, np.full(40, 56.33))) == pytest.approx(
            56.33, rel=1e-13)

    def test_noisy_plateau_within_half_unit(self):
        t = np.geomspace(1.0, 100.0, 40)
        noise = np.exp(0.01 * np.random.default_rng(0).standard_normal(40))
        assert estimate_k_loc(make_traj(t, 56.33 * noise)) == pytest.approx(56.33, abs=0.5)

    def test_growing_trajectory_rejected(self):
        t = np.geomspace(1.0, 100.0, 40)
        with pytest.raises(SaturationError, match="no saturation plateau"):
            estimate_k_loc(make_traj(t, t**2))

    def test_too_few_points_rejected(self):
        with pytest.raises(SaturationError, match="at least 5"):
            estimate_k_loc(make_traj([1.0, 2.0, 3.0, 4.0], np.full(4, 3.0)))

    def test_growth_then_plateau_reads_plateau(self):
        # tail window may absorb a shoulder point, hence the loose bound
        t = np.geomspace(0.1, 100.0, 40)
        K = np.minimum(1.0 + t**2, 30.0)
        assert estimate_k_loc(make_traj(t, K)) == pytest.approx(30.0, rel=0.02)

    def test_quench_plateau_fills_system(self, lattice12_trajectory):
        # the free quench saturates only near the end of this grid, too
        # late for a 5-point flat window, so check the tail values directly
        traj = lattice12_trajectory(0.0)
        assert np.all(traj.K[-3:] == 12.0)

    def test_static_hamiltonian_plateau_is_one(self, lattice12_trajectory):
        assert estimate_k_loc(lattice12_trajectory(1.0)) == pytest.approx(1.0, abs=1e-9)


class TestNormalizeXi:
    def test_anchor_set_to_cube_root(self):
        out = normalize_xi({0.1: 1.0, 0.2: 2.0}, anchor_p=0.1, k_loc=8.0)
        assert out == {0.1: pytest.approx(2.0), 0.2: pytest.approx(4.0)}

    def test_reference_saturation_value(self):
        out = normalize_xi({0.108: 7.5, 0.05: 1.5}, anchor_p=0.108, k_loc=56.33)
        assert out[0.108] == pytest.approx(56.33 ** (1.0 / 3.0), rel=1e-12)
        assert out[0.05] / out[0.108] == pytest.approx(1.5 / 7.5, rel=1e-12)

    def test_identity_when_already_anchored(self):
        xi = {0.1: 2.0, 0.2: 5.0}
        out = normalize_xi(xi, anchor_p=0.2, k_loc=125.0)
        assert out[0.1] == pytest.approx(2.0, rel=1e-12)
        assert out[0.2] == pytest.approx(5.0, rel=1e-12)

    def test_anchor_matching_tolerates_rounding(self):
        out = normalize_xi({0.1: 1.0}, anchor_p=0.1 + 1e-12, k_loc=8.0)
        assert out[0.1] == pytest.approx(2.0)

    def test_missing_anchor_rejected(self):
        with pytest.raises(ValueError, match="not among"):
            normalize_xi({0.1: 1.0}, anchor_p=0.5, k_loc=8.0)

    def test_nonpositive_plateau_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            normalize_xi({0.1: 1.0}, anchor_p=0.1, k_loc=0.0)


class TestXiFit:
    def xi_map(self, noise_seed=None, level=0.0):
        vals = np.array([planted_xi(p) for p in P_LIST])
        if noise_seed is not None:
            vals = vals * np.exp(level * np.random.default_rng(noise_seed).standard_normal(vals.size))
        return dict(zip(P_LIST, vals.tolist()))

    def test_noiseless_recovery(self):
        for fitter in XI_FITTERS:
            fit, name = fitter(self.xi_map()), fitter.__name__
            assert fit.A == pytest.approx(PLANTED["A"], rel=1e-4), name
            assert fit.B == pytest.approx(PLANTED["B"], rel=1e-4), name
            assert fit.nu == pytest.approx(PLANTED["nu"], rel=1e-4), name
            assert fit.p_c == pytest.approx(PLANTED["p_c"], rel=1e-4), name
            assert fit.residual <= 1e-7, name

    def test_pure_pole_recovery(self):
        ps = [0.01, 0.02, 0.03, 0.04, 0.06, 0.08, 0.10]
        for fitter in XI_FITTERS:
            fit, name = fitter({p: 1.0 / abs(p - 0.05) for p in ps}), fitter.__name__
            assert fit.A == pytest.approx(1.0, rel=1e-8), name
            assert fit.B == pytest.approx(0.0, abs=1e-9), name
            assert fit.nu == pytest.approx(1.0, rel=1e-8), name
            assert fit.p_c == pytest.approx(0.05, rel=1e-8), name
            assert fit.gap == (0.04, 0.06), name

    def test_model_matches_parameters(self):
        ps = np.linspace(0.006, 0.1, 9)
        for fitter in XI_FITTERS:
            fit = fitter(self.xi_map())
            expect = 1.0 / (fit.A * np.abs(ps - fit.p_c) ** fit.nu + fit.B)
            np.testing.assert_allclose(fit.model(ps), expect, rtol=1e-12,
                                       err_msg=fitter.__name__)

    def test_errors_reported_per_parameter(self):
        for fitter in XI_FITTERS:
            fit, name = fitter(self.xi_map(noise_seed=7, level=0.02)), fitter.__name__
            assert set(fit.std_err) == {"A", "B", "nu", "p_c"}, name
            assert all(v >= 0.0 for v in fit.std_err.values()), name
            assert fit.std_err["p_c"] > 0.0, name

    def test_errors_nan_without_degrees_of_freedom(self):
        # 5 factors for 5 parameters, gamma the fifth: no degree of freedom
        xi = {p: planted_xi(p) for p in (0.009, 0.014, 0.02, 0.048, 0.075)}
        assert all(math.isnan(v) for v in fit_xi_branch_gauged(xi).std_err.values())

    def test_gauged_p_c_stays_in_its_gap(self):
        # flat factors with log-normal scatter on the simulated-sweep grid:
        # a refit of the gauge-corrected factors over the whole grid moves
        # p_c out of the gap the gauge was fitted for (the third draw to
        # 0.85 from gap [0.55, 0.7])
        ps = [0.0, 0.1, 0.2, 0.3, 0.4, 0.55, 0.7, 0.85]
        rng = np.random.default_rng(0)
        for _ in range(3):
            xi = dict(zip(ps, np.exp(0.03 * rng.standard_normal(len(ps))).tolist()))
            fit = fit_xi_branch_gauged(xi)
            assert fit.gap in list(zip(ps[1:-2], ps[2:-1]))
            assert fit.gap[0] <= fit.p_c <= fit.gap[1]

    def test_too_few_points_rejected(self):
        for fitter in XI_FITTERS:
            with pytest.raises(InsufficientDataError, match=">= 5"):
                fitter({0.1: 1.0, 0.2: 2.0, 0.3: 3.0, 0.4: 4.0})

    def test_nonpositive_values_rejected(self):
        for fitter in XI_FITTERS:
            with pytest.raises(FitError, match="positive"):
                fitter({p: v for p, v in zip(P_LIST, [1.0, 2.0, -1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0])})


class TestXiJacobian:
    """The xi fit's analytic Jacobian against central differences."""

    @staticmethod
    def args(k):
        ps = np.array(P_LIST)
        return ps, np.log([planted_xi(p) for p in ps]), np.arange(ps.size) < k

    @staticmethod
    def central(theta, args, h=1e-6):
        cols = []
        for j in range(theta.size):
            step = h * max(abs(theta[j]), 1e-2)
            up, down = theta.copy(), theta.copy()
            up[j] += step
            down[j] -= step
            cols.append((_xi_residuals(up, *args) - _xi_residuals(down, *args)) / (2.0 * step))
        return np.column_stack(cols)

    @pytest.mark.parametrize("gauged", [True])
    def test_matches_central_differences(self, gauged):
        rng = np.random.default_rng(3)
        for _ in range(20):
            k = int(rng.integers(1, len(P_LIST)))
            args = self.args(k)
            lo, hi = args[0][k - 1], args[0][k]
            theta = np.array([rng.uniform(0.1, 2.0), rng.uniform(0.01, 0.5), rng.uniform(0.2, 2.0),
                              rng.uniform(lo + 0.1 * (hi - lo), hi - 0.1 * (hi - lo)),
                              rng.uniform(-1.0, 1.0)][:5 if gauged else 4])
            jac = _xi_jacobian(theta, *args)
            assert jac.shape == (len(P_LIST), theta.size)
            np.testing.assert_allclose(jac, self.central(theta, args), rtol=1e-6, atol=1e-6)

    @pytest.mark.parametrize("gauged", [True])
    def test_finite_with_p_c_on_a_sample(self, gauged):
        # Delta = 0 on row 3: its nu and p_c entries are 0 by definition,
        # the other rows keep their derivatives
        args = self.args(4)
        for nu in (0.4205, 1.0, 1.7):
            theta = np.array([0.58, 0.05, nu, P_LIST[3], 0.3][:5 if gauged else 4])
            with np.errstate(all="raise"):
                jac = _xi_jacobian(theta, *args)
            assert np.all(np.isfinite(jac))
            assert jac[3, 2] == 0.0 and jac[3, 3] == 0.0
            others = np.arange(len(P_LIST)) != 3
            np.testing.assert_allclose(jac[others], self.central(theta, args)[others],
                                       rtol=1e-6, atol=1e-6)


class TestXiFitLockOn:
    """The gauged xi fit must not stop p_c on a sampled p.

    Planted family of scripts/synthetic_validation.py (synth seed 7,
    noise 0.01) on the benchmark's 5-point grid, which leaves out 0.033,
    the nearest sampled p above p_c, and on the script's 10-point grid.
    """

    @staticmethod
    def analyse(p_list):
        trajs = synth_trajectories(p_list, p_c=0.0266, nu=0.42, s=0.42, alpha=2.87,
                                   A=0.58, B=0.05, t_grid=T_GRID, noise_level=0.01, seed=7)
        return full_scaling_analysis(trajs, anchor_p=max(p_list), t_min=2.0,
                                     growth_t_min=40.0, n_bootstrap=0)

    def test_sparse_grid_p_c_between_samples(self):
        grid = [0.009, 0.014, 0.02, 0.048, 0.075]
        fit = self.analyse(grid).fit
        assert fit.p_c == pytest.approx(0.0266, rel=0.10)
        assert min(abs(fit.p_c - p) for p in grid) > 1e-4

    def test_script_grid_recovers_planted_values(self):
        fit = self.analyse([0.005, 0.009, 0.014, 0.02, 0.033, 0.048, 0.06, 0.075, 0.09, 0.108]).fit
        assert fit.p_c == pytest.approx(0.0266, rel=0.01)
        assert fit.nu == pytest.approx(0.42, rel=0.03)


class TestBootstrapXiFit:
    def test_summary_structure(self):
        xi = TestXiFit().xi_map(noise_seed=7, level=0.02)
        for fitter in XI_FITTERS:
            out, name = bootstrap_fit_xi(xi, fitter(xi), n_resamples=40, seed=1), fitter.__name__
            assert set(out) == {"n_effective", "A", "B", "nu", "p_c"}, name
            assert out["n_effective"] >= 30, name
            for key in ("A", "B", "nu", "p_c"):
                assert set(out[key]) == {"std", "ci_low", "ci_high"}, name
                assert out[key]["ci_low"] <= out[key]["ci_high"], name

    def test_interval_brackets_base_fit(self):
        xi = TestXiFit().xi_map(noise_seed=7, level=0.02)
        for fitter in XI_FITTERS:
            base, name = fitter(xi), fitter.__name__
            out = bootstrap_fit_xi(xi, base, n_resamples=60, seed=1)
            assert out["nu"]["ci_low"] <= base.nu <= out["nu"]["ci_high"], name
            assert out["p_c"]["ci_low"] <= base.p_c <= out["p_c"]["ci_high"], name
            assert out["nu"]["std"] > 0.0, name

    def test_deterministic_given_seed(self):
        xi = TestXiFit().xi_map(noise_seed=7, level=0.02)
        for fitter in XI_FITTERS:
            base = fitter(xi)
            assert bootstrap_fit_xi(xi, base, n_resamples=25, seed=5) == bootstrap_fit_xi(
                xi, base, n_resamples=25, seed=5), fitter.__name__

    def test_unconverged_refits_not_counted(self, monkeypatch):
        # every other polish is cut off after one evaluation, short of
        # convergence: those resamples must not count as fitted, and a fit
        # whose every polish is cut off must fail
        import scipy.optimize
        xi = TestXiFit().xi_map(noise_seed=7, level=0.02)
        base = fit_xi_branch_gauged(xi)
        real, calls = scipy.optimize.least_squares, []

        def capped(*args, every=2, **kwargs):
            calls.append(None)
            if len(calls) % every == 0:
                kwargs["max_nfev"] = 1
            return real(*args, **kwargs)

        monkeypatch.setattr(scipy.optimize, "least_squares", capped)
        assert bootstrap_fit_xi(xi, base, n_resamples=10, seed=1)["n_effective"] == 5
        monkeypatch.setattr(scipy.optimize, "least_squares",
                            lambda *a, **kw: capped(*a, every=1, **kw))
        with pytest.raises(FitError, match="converged from no start"):
            fit_xi_branch_gauged(xi)


class TestOnePolishPerGap:
    """The xi fit polishes one start per gap of the p grid, and a
    bootstrap resample is one polish from the base fit."""

    @pytest.fixture
    def polishes(self, monkeypatch):
        import scipy.optimize
        real, calls = scipy.optimize.least_squares, []

        def counted(*args, **kwargs):
            calls.append(None)
            return real(*args, **kwargs)

        monkeypatch.setattr(scipy.optimize, "least_squares", counted)
        return calls

    @pytest.mark.parametrize("fitter, grid, n_gaps", [
        (fit_xi_branch_gauged, [0.009, 0.014, 0.02, 0.048, 0.075], 2),
        (fit_xi_branch_gauged, [0.005, 0.009, 0.014, 0.02, 0.033, 0.048, 0.06, 0.075, 0.09,
                                0.108], 7)], ids=["gauged-bench-grid", "gauged-script-grid"])
    def test_fit(self, polishes, fitter, grid, n_gaps):
        fitter({p: planted_xi(p) for p in grid})
        assert len(polishes) == n_gaps

    def test_bootstrap_resample(self, polishes):
        xi = TestXiFit().xi_map(noise_seed=7, level=0.02)
        base = fit_xi_branch_gauged(xi)
        polishes.clear()
        assert bootstrap_fit_xi(xi, base, n_resamples=12, seed=1)["n_effective"] == 12
        assert len(polishes) == 12


class TestBootstrapNeedsAResidual:
    """On the benchmark's 5-point grid the gauged xi fit has 5 parameters
    for 5 points.  At noise seed 0 all stay off their bounds and the fit
    interpolates, so a resample would reproduce the data; at seed 7 B sits
    on its bound and one residual is left to resample."""

    @staticmethod
    def analyse(noise_seed):
        trajs = synth_trajectories([0.009, 0.014, 0.02, 0.048, 0.075], p_c=0.0266, nu=0.42,
                                   s=0.42, alpha=2.87, A=0.58, B=0.05, t_grid=T_GRID,
                                   noise_level=0.01, seed=noise_seed)
        return full_scaling_analysis(trajs, anchor_p=0.075, beta_grid=(5.7, 1.0, 0.15),
                                     t_min=2.0, growth_t_min=40.0, n_bootstrap=20,
                                     bootstrap_seed=3)

    def test_interpolating_fit_draws_no_resample(self):
        result = self.analyse(0)
        assert result.fit.n_free == 5
        assert result.bootstrap["n_effective"] == 0
        assert all(math.isnan(v) for name in ("A", "B", "nu", "p_c")
                   for v in result.bootstrap[name].values())

    def test_fit_with_a_residual_resamples(self):
        result = self.analyse(7)
        assert result.fit.n_free == 4
        # one residual is left, so every resample is drawn: the block, pinned bitwise
        assert result.bootstrap == {
            "n_effective": 20,
            "A": {"std": 0.007977588700197217, "ci_low": 0.5274385828341955,
                  "ci_high": 0.5529132817273479},
            "B": {"std": 0.011105221411489159, "ci_low": 4.51989170875715e-32,
                  "ci_high": 0.03229824333523864},
            "nu": {"std": 0.023436066966257076, "ci_low": 0.2945052626492571,
                   "ci_high": 0.3649242539623447},
            "p_c": {"std": 0.0002160124498106264, "ci_low": 0.027176248883596005,
                    "ci_high": 0.02782805726414331}}


class TestSynthTrajectories:
    def test_critical_curve_is_pure_power_law(self):
        # below t ~ 1.2 the K >= 1 floor bends the critical curve; fit past it
        t = np.geomspace(2.0, 200.0, 25)
        (tr,) = synth_trajectories([0.0266], p_c=0.0266, nu=0.4205, s=0.4205,
                                   alpha=2.87, t_grid=t)
        k1, _ = scaling_exponents(2.87, 1.0)
        slope = np.polyfit(np.log(t), (2.0 / 3.0) * np.log(tr.K), 1)[0]
        assert slope == pytest.approx(k1, rel=1e-10)

    def test_localized_plateau_matches_scale_factor_cubed(self):
        p, p_c, nu = 0.06, 0.0266, 0.4205
        (tr,) = synth_trajectories([p], p_c=p_c, nu=nu, s=nu, alpha=2.87,
                                   t_grid=[1e5, 1e6])
        assert tr.K[-1] == pytest.approx((p - p_c) ** (-3.0 * nu), rel=1e-6)

    def test_floor_clips_early_times(self):
        (tr,) = synth_trajectories([0.5], p_c=0.0266, nu=0.4205, s=0.4205,
                                   alpha=2.87, t_grid=[0.01, 0.02, 1e6])
        assert tr.K[0] == 1.0 and tr.K[1] == 1.0
        assert tr.K[-1] > 1.0

    def test_noise_reproducible_by_seed(self):
        kw = dict(p_c=0.0266, nu=0.4205, s=0.4205, alpha=2.87,
                  t_grid=T_GRID, noise_level=0.01)
        a = synth_trajectories(P_LIST[:3], seed=4, **kw)
        b = synth_trajectories(P_LIST[:3], seed=4, **kw)
        c = synth_trajectories(P_LIST[:3], seed=5, **kw)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.K, y.K)
        assert any(not np.array_equal(x.K, z.K) for x, z in zip(a, c))

    def test_planted_parameters_recorded(self):
        (tr,) = synth_trajectories([0.03], t_grid=[1.0, 2.0], **PLANTED)
        assert tr.p == 0.03
        assert tr.metadata["p"] == 0.03
        assert tr.metadata["geometry"] == "synthetic"
        planted = tr.metadata["planted"]
        assert planted == {**{k: PLANTED[k] for k in ("p_c", "nu", "s", "alpha", "A", "B")},
                           "noise_level": 0.0}

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="positive"):
            synth_trajectories([0.1], p_c=0.05, nu=-1.0, s=0.4, alpha=2.0, t_grid=[1.0, 2.0])
        with pytest.raises(ValueError, match="positive"):
            synth_trajectories([0.1], p_c=0.05, nu=0.4, s=0.4, alpha=0.0, t_grid=[1.0, 2.0])
        with pytest.raises(ValueError, match="A, B"):
            synth_trajectories([0.1], p_c=0.05, nu=0.4, s=0.4, alpha=2.0,
                               t_grid=[1.0, 2.0], A=0.0, B=0.0)
        with pytest.raises(ValueError, match="time grid"):
            synth_trajectories([0.1], p_c=0.05, nu=0.4, s=0.4, alpha=2.0, t_grid=[0.0, 1.0])

    @pytest.mark.parametrize("change, message", [
        ({"p_c": np.nan}, "planted p_c must be finite"), ({"nu": np.inf}, "planted nu"),
        ({"A": np.nan}, "planted A"), ({"noise_level": -1.0}, "noise_level"),
        ({"noise_level": np.nan}, "noise_level"), ({"t_grid": [1.0, np.inf]}, "time grid")],
        ids=["p_c=nan", "nu=inf", "A=nan", "noise=-1", "noise=nan", "t=inf"])
    def test_non_finite_parameters_rejected(self, change, message):
        args = {"p_c": 0.05, "nu": 0.4, "s": 0.4, "alpha": 2.0, "t_grid": [1.0, 2.0], **change}
        with pytest.raises(ValueError, match=message):
            synth_trajectories([0.1], **args)


class TestFullAnalysis:
    def test_noiseless_round_trip(self, noiseless_family):
        trajs, _, _, _ = noiseless_family
        result = full_scaling_analysis(trajs, anchor_p=0.108, beta_grid=(0.0, 1.0, 5.70),
                                       t_min=2.0, growth_t_min=40.0, n_bootstrap=0)
        scan, fit = result.scan, result.fit
        assert scan.best_beta == 1.0
        assert result.growth.alpha == pytest.approx(PLANTED["alpha"], abs=0.01)
        assert fit.p_c == pytest.approx(PLANTED["p_c"], abs=5e-4)
        assert fit.nu == pytest.approx(PLANTED["nu"], abs=0.02)
        assert result.s == scan.best_beta * fit.nu
        assert 2.0 + result.s / fit.nu == pytest.approx(3.0, rel=1e-9)
        assert result.bootstrap is None
        assert scan.residuals[1.0] < scan.residuals[0.0]
        assert scan.residuals[1.0] < scan.residuals[5.70]
        # anchor pinned to the plateau of the deepest localized curve
        assert result.xi[0.108] == pytest.approx(planted_xi(0.108), rel=0.02)
        # branch gauge restores the planted factors below the transition
        assert abs(math.log(fit.gamma)) > 1.0
        assert result.xi[0.005] == pytest.approx(planted_xi(0.005), rel=0.05)

    def test_winning_collapse_reused(self, noiseless_family, monkeypatch):
        """The beta scan collapses once per beta and hands the winner on:
        no second collapse at the chosen beta, and its shifts are those of
        a fresh collapse there."""
        import spinquench.scaling as scaling

        trajs, _, _, _ = noiseless_family
        calls = []

        def counted(curves):
            calls.append(curves)
            return collapse(curves)

        monkeypatch.setattr(scaling, "collapse", counted)
        result = full_scaling_analysis(trajs, anchor_p=0.108, beta_grid=(0.0, 1.0, 5.70),
                                       t_min=2.0, growth_t_min=40.0, n_bootstrap=0)
        assert len(calls) == 3
        growth = fit_growth_exponent(trajs[0], t_min=40.0)
        fresh = collapse(rescale(trajs, growth, result.scan.best_beta, 2.0))
        assert result.scan.best.shifts == fresh.shifts

    def test_gauged_fit_reported_without_refit(self, noiseless_family):
        """A grid with two curves on each side of p_c reports the gauged
        fit itself, bootstraps it, and has p_c inside the fit's gap."""
        trajs, _, _, _ = noiseless_family
        result = full_scaling_analysis(trajs, anchor_p=0.108, beta_grid=(1.0,), t_min=2.0,
                                       growth_t_min=40.0, n_bootstrap=5)
        assert result.bootstrap["n_effective"] == 5
        lo, hi = result.fit.gap
        assert (lo, hi) in list(zip(P_LIST, P_LIST[1:]))
        assert lo <= result.fit.p_c <= hi

    def test_too_few_curves_rejected(self):
        trajs = synth_trajectories([0.01, 0.06], t_grid=T_GRID, **PLANTED)
        with pytest.raises(InsufficientDataError, match="5 distinct"):
            full_scaling_analysis(trajs, anchor_p=0.06)

    def test_unknown_anchor_rejected(self):
        t = np.geomspace(1.0, 200.0, 25)
        trajs = synth_trajectories([0.05, 0.06, 0.08, 0.1, 0.12], p_c=0.02, nu=0.5,
                                   s=0.5, alpha=2.0, t_grid=t)
        with pytest.raises(ValueError, match="no trajectory"):
            full_scaling_analysis(trajs, anchor_p=0.07, beta_grid=(1.0,))


def test_default_beta_grid_spans_both_signs():
    assert 1.0 in DEFAULT_BETA_GRID
    assert min(DEFAULT_BETA_GRID) < 0 < max(DEFAULT_BETA_GRID)


FIXTURE_ALPHA_N14 = 2.2668  # frozen from the stored fixture; see TestGrowthFixture
