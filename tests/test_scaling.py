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
    ScalingResult,
    _pair_mismatch,
    beta_scan,
    bootstrap_fit_xi,
    collapse,
    estimate_k_loc,
    fit_growth_exponent,
    fit_xi,
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
        with pytest.raises(ValueError, match="1.5"):
            GrowthFit(alpha=2.0, alpha_K=2.9, D=1.0, t_min=1.0, r2=1.0, n_points=6)
        with pytest.raises(ValueError, match="at least 5"):
            GrowthFit(alpha=2.0, alpha_K=3.0, D=1.0, t_min=1.0, r2=1.0, n_points=4)


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
        growth = GrowthFit(alpha=2.0, alpha_K=3.0, D=1.0, t_min=1.0, r2=1.0, n_points=12)
        (curve,) = rescale([make_traj(t, t**3, p=0.1)], growth, beta=1.0, t_min=None)
        k1, k2p = scaling_exponents(2.0, 1.0)
        assert curve.k1 == k1 and curve.k2_prime == k2p
        # x ascends while t descends
        np.testing.assert_allclose(curve.x, -k2p * np.log(t)[::-1], atol=1e-12)
        np.testing.assert_allclose(
            curve.y, (2.0 * np.log(t) - k1 * np.log(t))[::-1], atol=1e-12)

    def test_window_filter_and_default(self):
        t = np.geomspace(1.0, 10.0, 12)
        growth = GrowthFit(alpha=2.0, alpha_K=3.0, D=1.0, t_min=3.0, r2=1.0, n_points=12)
        explicit = rescale([make_traj(t, t**3)], growth, beta=0.0, t_min=5.0)[0]
        assert explicit.x.size == int(np.sum(t >= 5.0))
        default = rescale([make_traj(t, t**3)], growth, beta=0.0)[0]
        assert default.x.size == int(np.sum(t >= 3.0))

    def test_curves_sorted_by_p(self):
        t = np.geomspace(1.0, 10.0, 8)
        growth = GrowthFit(alpha=2.0, alpha_K=3.0, D=1.0, t_min=1.0, r2=1.0, n_points=8)
        trajs = [make_traj(t, t**3, p=0.3), make_traj(t, t**3, p=0.1)]
        assert [c.p for c in rescale(trajs, growth, beta=1.0)] == [0.1, 0.3]

    def test_non_monotone_x_rejected(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            RescaledCurve(p=0.1, x=np.array([0.0, 0.0, 1.0]),
                          y=np.zeros(3), k1=1.0, k2_prime=0.5)


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
        curves.append(RescaledCurve(p=p, x=base - d, y=master(base),
                                    k1=1.0, k2_prime=0.5))
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
        shifted = [RescaledCurve(p=c.p, x=c.x + first.shifts[c.p], y=c.y,
                                 k1=c.k1, k2_prime=c.k2_prime) for c in curves]
        again = collapse(shifted)
        for p, s in again.shifts.items():
            assert s == pytest.approx(0.0, abs=1e-6)

    def test_common_offset_gauge_invariance(self):
        curves = translated_curves([0.0, 0.31, 0.55])
        moved = [RescaledCurve(p=c.p, x=c.x + 0.37, y=c.y, k1=c.k1,
                               k2_prime=c.k2_prime) for c in curves]
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
        curves.append(RescaledCurve(p=0.9, x=np.array([1.0]), y=np.array([0.0]),
                                    k1=1.0, k2_prime=0.5))
        with pytest.raises(CollapseError, match="p=0.9"):
            collapse(curves)

    def test_pooled_sample_is_sorted_and_tagged(self):
        result = collapse(translated_curves([0.0, 0.31, 0.55]))
        assert np.all(np.diff(result.pooled.x) >= 0)
        assert set(np.unique(result.pooled.p)) == {0.1, 0.2, 0.3}
        assert result.pooled.x.size == result.pooled.y.size == result.pooled.p.size

    def test_scale_factors_exponentiate_shifts(self):
        pooled = ScalingFunctionSample(np.zeros(1), np.zeros(1), np.zeros(1))
        result = CollapseResult({0.1: 0.0, 0.2: math.log(2.0)}, 0.0, pooled, {})
        assert result.xi_raw == {0.1: pytest.approx(1.0), 0.2: pytest.approx(2.0)}

    def test_trimmed_residual_drops_worst_pair(self):
        pooled = ScalingFunctionSample(np.zeros(1), np.zeros(1), np.zeros(1))
        stats = {(0.1, 0.2): (4.0, 1), (0.2, 0.3): (1.0, 1), (0.3, 0.4): (100.0, 1)}
        result = CollapseResult({}, 0.0, pooled, stats)
        assert result.trimmed_residual() == pytest.approx(math.sqrt(5.0 / 2.0))
        two = CollapseResult({}, 0.0, pooled, {(0.1, 0.2): (4.0, 1), (0.2, 0.3): (1.0, 1)})
        assert two.trimmed_residual() == pytest.approx(math.sqrt(5.0 / 2.0))


class TestSeparableCollapse:
    """Each adjacent pair's cost depends only on its shift difference.

    The collapse objective is therefore a sum of independent 1-D terms:
    no pair can move another pair's shift difference, and each pair must
    sit at the global minimum of its own cost.
    """

    @staticmethod
    def pair_cost(c1, c2, delta):
        # mismatch plus the overlap barrier (half the shorter span)
        sq, _, ov = _pair_mismatch(c1, c2, 0.0, delta)
        min_ov = 0.5 * min(c1.x[-1] - c1.x[0], c2.x[-1] - c2.x[0])
        if sq is None:
            return 1e6 * (1.0 + (min_ov - ov) ** 2)
        return sq + 1e6 * max(0.0, min_ov - ov) ** 2

    def test_highest_curve_moves_no_other_shift(self, noiseless_family):
        _, _, curves, result = noiseless_family
        top = curves[-1]
        bent = RescaledCurve(p=top.p, x=top.x, y=top.y + 0.3 * np.sin(3.0 * top.x),
                             k1=top.k1, k2_prime=top.k2_prime)
        for variant in (curves[:-1], curves[:-1] + [bent]):
            shifts = collapse(variant).shifts
            for c in curves[:-1]:
                assert shifts[c.p] == pytest.approx(result.shifts[c.p], abs=1e-12)

    @pytest.mark.parametrize("beta", [0.58, 1.0, 6.6])
    def test_each_pair_at_its_global_minimum(self, noiseless_family, beta):
        trajs, growth, _, _ = noiseless_family
        curves = rescale(trajs, growth, beta=beta, t_min=2.0)
        result = collapse(curves)
        span = max(c.x[-1] for c in curves) - min(c.x[0] for c in curves)
        fine = np.linspace(-span, span, 4001)
        for c1, c2 in zip(curves, curves[1:]):
            got = self.pair_cost(c1, c2, result.shifts[c2.p] - result.shifts[c1.p])
            floor = min(self.pair_cost(c1, c2, d) for d in fine)
            assert got <= floor * (1.0 + 1e-9) + 1e-15


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
        assert set(scan.full_residuals) == {0.0, 1.0, 2.0, 3.0}

    def test_all_windows_empty_raises(self):
        t = np.geomspace(1.0, 10.0, 8)
        trajs = [make_traj(t, t**3, p=p) for p in (0.1, 0.2, 0.3)]
        growth = GrowthFit(alpha=2.0, alpha_K=3.0, D=1.0, t_min=1.0, r2=1.0, n_points=8)
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
        fit = fit_xi(self.xi_map())
        assert fit.A == pytest.approx(PLANTED["A"], rel=1e-4)
        assert fit.B == pytest.approx(PLANTED["B"], rel=1e-4)
        assert fit.nu == pytest.approx(PLANTED["nu"], rel=1e-4)
        assert fit.p_c == pytest.approx(PLANTED["p_c"], rel=1e-4)
        assert fit.residual <= 1e-7

    def test_pure_pole_recovery(self):
        ps = [0.01, 0.02, 0.03, 0.04, 0.06, 0.08, 0.10]
        fit = fit_xi({p: 1.0 / abs(p - 0.05) for p in ps})
        assert fit.A == pytest.approx(1.0, rel=1e-8)
        assert fit.B == pytest.approx(0.0, abs=1e-9)
        assert fit.nu == pytest.approx(1.0, rel=1e-8)
        assert fit.p_c == pytest.approx(0.05, rel=1e-8)

    def test_two_percent_noise_recovery(self):
        # seed-sensitive at this noise level; pinned seed sits well inside
        fit = fit_xi(self.xi_map(noise_seed=7, level=0.02))
        assert abs(fit.p_c - PLANTED["p_c"]) <= 0.002
        assert abs(fit.nu - PLANTED["nu"]) <= 0.05

    def test_model_matches_parameters(self):
        fit = fit_xi(self.xi_map())
        ps = np.linspace(0.006, 0.1, 9)
        expect = 1.0 / (fit.A * np.abs(ps - fit.p_c) ** fit.nu + fit.B)
        np.testing.assert_allclose(fit.model(ps), expect, rtol=1e-12)

    def test_errors_reported_per_parameter(self):
        fit = fit_xi(self.xi_map(noise_seed=7, level=0.02))
        assert set(fit.std_err) == {"A", "B", "nu", "p_c"}
        assert all(v >= 0.0 for v in fit.std_err.values())
        assert fit.std_err["p_c"] > 0.0

    def test_too_few_points_rejected(self):
        with pytest.raises(InsufficientDataError, match=">= 5"):
            fit_xi({0.1: 1.0, 0.2: 2.0, 0.3: 3.0, 0.4: 4.0})

    def test_nonpositive_values_rejected(self):
        with pytest.raises(FitError, match="positive"):
            fit_xi({p: v for p, v in zip(P_LIST, [1.0, 2.0, -1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0])})


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
        result = self.analyse(grid)
        assert result.p_c == pytest.approx(0.0266, rel=0.10)
        assert min(abs(result.p_c - p) for p in grid) > 1e-4

    def test_script_grid_recovers_planted_values(self):
        result = self.analyse([0.005, 0.009, 0.014, 0.02, 0.033, 0.048, 0.06, 0.075, 0.09, 0.108])
        assert result.p_c == pytest.approx(0.0266, rel=0.01)
        assert result.nu == pytest.approx(0.42, rel=0.03)


class TestBootstrapXiFit:
    def test_summary_structure(self):
        xi = TestXiFit().xi_map(noise_seed=7, level=0.02)
        out = bootstrap_fit_xi(xi, n_resamples=40, seed=1)
        assert set(out) == {"n_effective", "A", "B", "nu", "p_c"}
        assert out["n_effective"] >= 30
        for key in ("A", "B", "nu", "p_c"):
            assert set(out[key]) == {"std", "ci_low", "ci_high"}
            assert out[key]["ci_low"] <= out[key]["ci_high"]

    def test_interval_brackets_base_fit(self):
        xi = TestXiFit().xi_map(noise_seed=7, level=0.02)
        base = fit_xi(xi)
        out = bootstrap_fit_xi(xi, n_resamples=60, seed=1)
        assert out["nu"]["ci_low"] <= base.nu <= out["nu"]["ci_high"]
        assert out["p_c"]["ci_low"] <= base.p_c <= out["p_c"]["ci_high"]
        assert out["nu"]["std"] > 0.0

    def test_deterministic_given_seed(self):
        xi = TestXiFit().xi_map(noise_seed=7, level=0.02)
        assert bootstrap_fit_xi(xi, n_resamples=25, seed=5) == bootstrap_fit_xi(
            xi, n_resamples=25, seed=5)


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


class TestFullAnalysis:
    def test_noiseless_round_trip(self, noiseless_family):
        trajs, _, _, _ = noiseless_family
        result = full_scaling_analysis(trajs, anchor_p=0.108, beta_grid=(0.0, 1.0, 5.70),
                                       t_min=2.0, growth_t_min=40.0, n_bootstrap=0)
        assert result.beta == 1.0
        assert result.alpha == pytest.approx(PLANTED["alpha"], abs=0.01)
        assert result.p_c == pytest.approx(PLANTED["p_c"], abs=5e-4)
        assert result.nu == pytest.approx(PLANTED["nu"], abs=0.02)
        assert result.s == result.beta * result.nu
        assert result.wegner_dimension_check == pytest.approx(3.0, rel=1e-9)
        assert result.bootstrap is None
        assert result.beta_residuals[1.0] < result.beta_residuals[0.0]
        assert result.beta_residuals[1.0] < result.beta_residuals[5.70]
        # anchor pinned to the plateau of the deepest localized curve
        assert result.xi[0.108] == pytest.approx(planted_xi(0.108), rel=0.02)
        # branch gauge restores the planted factors below the transition
        assert abs(math.log(result.branch_gauge)) > 1.0
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
        fresh = collapse(rescale(trajs, growth, result.beta, 2.0))
        assert result.collapse.shifts == fresh.shifts

    def test_too_few_curves_rejected(self):
        trajs = synth_trajectories([0.01, 0.06], t_grid=T_GRID, **PLANTED)
        with pytest.raises(InsufficientDataError, match="3 distinct"):
            full_scaling_analysis(trajs, anchor_p=0.06)

    def test_unknown_anchor_rejected(self):
        t = np.geomspace(1.0, 200.0, 25)
        trajs = synth_trajectories([0.05, 0.06, 0.08, 0.1, 0.12], p_c=0.02, nu=0.5,
                                   s=0.5, alpha=2.0, t_grid=t)
        with pytest.raises(ValueError, match="no trajectory"):
            full_scaling_analysis(trajs, anchor_p=0.07, beta_grid=(1.0,))

    def test_result_invariants_enforced(self):
        pooled = ScalingFunctionSample(np.zeros(1), np.zeros(1), np.zeros(1))
        ok = dict(beta=1.0, xi={0.1: 2.0}, collapse_residual=0.1, fit_A=1.0,
                  fit_B=0.0, nu=0.5, p_c=0.05, std_err={}, s=0.5,
                  wegner_dimension_check=3.0, alpha=2.87, beta_residuals={},
                  pooled=pooled)
        ScalingResult(**ok)
        with pytest.raises(ValueError, match="s must equal"):
            ScalingResult(**{**ok, "s": 0.3})
        with pytest.raises(ValueError, match="nu"):
            ScalingResult(**{**ok, "nu": -0.5, "s": -0.5})
        with pytest.raises(ValueError, match="positive"):
            ScalingResult(**{**ok, "xi": {0.1: -2.0}})


def test_default_beta_grid_spans_both_signs():
    assert 1.0 in DEFAULT_BETA_GRID
    assert min(DEFAULT_BETA_GRID) < 0 < max(DEFAULT_BETA_GRID)


FIXTURE_ALPHA_N14 = 2.2668  # frozen from the stored fixture; see TestGrowthFixture
