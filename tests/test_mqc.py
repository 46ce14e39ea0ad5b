import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.testing import assert_allclose

from spinquench.errors import CapacityError, EstimatorWarning
from spinquench.evolution import QuenchProtocol, exact_peak_bytes
from spinquench.mqc import (
    ClusterTrajectory,
    EstimatorConfig,
    MqcSpectrum,
    _gaussian_k,
    cluster_size,
    mqc_typicality_grid,
    trajectory,
    typicality_peak_bytes,
)
from spinquench.network import SpinGeometry, dipolar_couplings
from spinquench.operators import workspace_bytes

Z = np.array([0.0, 0.0, 1.0])


def jittered_network(n, seed):
    rng = np.random.default_rng(seed)
    pos = np.arange(n)[:, None] * [1.0, 0.0, 0.0] + rng.uniform(-0.3, 0.3, (n, 3))
    return dipolar_couplings(SpinGeometry(pos, Z))


def spectrum_from_weights(orders, weights):
    w = np.asarray(weights, dtype=float)
    return MqcSpectrum(orders=np.asarray(orders), weights=w / w.sum())


class TestSpectrumValidation:
    def test_orders_must_be_contiguous_symmetric(self):
        with pytest.raises(ValueError, match="contiguously"):
            MqcSpectrum(orders=np.array([0, 1, 2]), weights=np.array([1.0, 0, 0]))

    def test_weights_checked(self):
        orders = np.arange(-1, 2)
        with pytest.raises(ValueError, match="sum to 1"):
            MqcSpectrum(orders=orders, weights=np.array([0.2, 0.2, 0.2]))
        with pytest.raises(ValueError, match="non-negative"):
            MqcSpectrum(orders=orders, weights=np.array([-0.5, 1.0, 0.5]))

    def test_even_envelope_symmetrizes(self):
        s = spectrum_from_weights(np.arange(-2, 3), [0.1, 0.0, 0.6, 0.0, 0.3])
        ks, a, floor = s.even_envelope()
        assert_allclose(ks, [0, 2])
        assert_allclose(a, [0.6, 0.2])
        assert np.all(floor > 0)


class TestClusterSize:
    def test_pure_zero_order_is_one(self):
        s = spectrum_from_weights(np.arange(-2, 3), [0, 0, 1.0, 0, 0])
        assert cluster_size(s) == 1.0

    @given(st.integers(-6, 6))
    def test_any_single_order_spectrum_is_one(self, n):
        w = np.zeros(13)
        w[6 + n] = 1.0
        s = spectrum_from_weights(np.arange(-6, 7), w)
        assert cluster_size(s) == 1.0

    def test_gaussian_envelope_sixteen(self):
        """A(n) = c exp(-n^2/16) crosses a(0)/e exactly at n = 4."""
        orders = np.arange(-16, 17)
        w = np.where(orders % 2 == 0, np.exp(-orders.astype(float) ** 2 / 16.0), 0.0)
        s = spectrum_from_weights(orders, w)
        assert_allclose(cluster_size(s), 16.0, atol=1e-9)
        ks, a, _ = s.even_envelope()
        assert_allclose(_gaussian_k(ks, a, s.n_spins), 16.0, atol=1e-9)

    def test_rescaling_weights_before_normalization_is_invariant(self):
        orders = np.arange(-4, 5)
        w = np.where(orders % 2 == 0, np.exp(-orders.astype(float) ** 2 / 3.0), 0.0)
        a = spectrum_from_weights(orders, w)
        b = spectrum_from_weights(orders, 7.5 * w)
        assert cluster_size(a) == cluster_size(b)

    @pytest.mark.parametrize("dt,expected", [(0.4, 1.0), (0.55, 1.4315392389866175), (0.75, 2.0)])
    def test_two_spin_quench_fixture(self, dt, expected):
        """Pair under the pure double-quantum term: A(0) = cos^2(d t),
        A(+-2) = sin^2(d t)/2; K = (2 / ln(A0/A2))^2 clamped to [1, 2]."""
        geo = SpinGeometry(np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1.0]]), Z)
        net = dipolar_couplings(geo)
        d = abs(net.couplings[0, 1])
        tr = trajectory(net, QuenchProtocol.average(0.0, [dt / d]), EstimatorConfig(kind="exact"))
        assert_allclose(tr.K[0], expected, atol=1e-9)
        a0, a2 = math.cos(dt) ** 2, math.sin(dt) ** 2 / 2
        closed = (2.0 / math.log(a0 / a2)) ** 2
        assert_allclose(tr.K[0], min(max(closed, 1.0), 2.0), atol=1e-9)

    @staticmethod
    def even_spectrum(envelope):
        """Spectrum on orders -n..n with a(k) = envelope[k/2] at both +-k."""
        n = 2 * (len(envelope) - 1)
        w = np.zeros(2 * n + 1)
        for i, a in enumerate(envelope):
            w[n + 2 * i] = w[n - 2 * i] = a
        return spectrum_from_weights(np.arange(-n, n + 1), w)

    def test_crossing_measured_from_order_zero_when_order_two_dominates(self):
        """a(2) > a(0) with one crossing of a(0)/e between orders 2 and 4:
        the log-linear halfwidth, not the Gaussian fallback."""
        a0, a2, a4 = 0.30, 0.35, 0.05
        s = self.even_spectrum([a0, a2, a4, 0.01, 0.005, 0.002, 0.001])
        with warnings.catch_warnings():
            warnings.simplefilter("error", EstimatorWarning)
            k = cluster_size(s)
        sigma = 2.0 + 2.0 * (math.log(a2) - math.log(a0 / math.e)) / (math.log(a2) - math.log(a4))
        assert_allclose(k, sigma**2, rtol=1e-12)

    def test_envelope_crossing_back_above_target_falls_back(self):
        s = self.even_spectrum([0.30, 0.35, 0.05, 0.12, 1e-4, 1e-6, 1e-8])
        with pytest.warns(EstimatorWarning, match="no unique 1/e crossing"):
            k = cluster_size(s)
        ks, a, _ = s.even_envelope()
        assert k == _gaussian_k(ks, a, s.n_spins) < 12.0


class TestTypicality:
    def test_time_zero_spectrum_is_pure_zero_order(self):
        net = jittered_network(5, 3)
        prot = QuenchProtocol.average(0.4, [0.0, 0.5])
        spec = mqc_typicality_grid(net, prot, EstimatorConfig(n_samples=3, base_seed=0))[0]
        assert spec.std_err is not None
        assert spec.weight(0) > 1.0 - 1e-9
        assert np.all(np.delete(spec.weights, 5) < 1e-9)

    def test_dipolar_only_evolution_keeps_delta_spectrum(self):
        net = jittered_network(6, 5)
        prot = QuenchProtocol.average(1.0, [0.8, 2.5])
        for spec in mqc_typicality_grid(net, prot, EstimatorConfig(n_samples=4, base_seed=2)):
            off = np.delete(spec.weights, 6)
            floor = np.maximum(3.0 * np.delete(spec.std_err, 6), 1e-9)
            assert np.all(off <= floor)

    @pytest.mark.parametrize("n", [6, 7])
    def test_weights_non_negative_and_odd_orders_exactly_zero(self, n):
        # H(p) moves M_z by 0 or +-2, so no stream ever reaches an odd order
        net = jittered_network(n, 17)
        prot = QuenchProtocol.average(0.4, [0.3, 0.9, 2.0])
        for spec in mqc_typicality_grid(net, prot, EstimatorConfig(n_samples=3, base_seed=4)):
            odd = spec.orders % 2 == 1
            assert np.all(spec.weights >= 0.0)
            assert np.all(spec.weights[odd] == 0.0)
            assert np.all(spec.weights[~odd] > 0.0)

    @pytest.mark.parametrize("mode", ["average", "floquet"])
    def test_dipolar_only_evolution_is_exactly_order_zero(self, mode):
        # H_dd conserves M_z: every sector stream stays in its own sector
        net = jittered_network(6, 5)
        prot = (QuenchProtocol.average(1.0, [0.8, 2.5]) if mode == "average"
                else QuenchProtocol.floquet(1.0, 0.4, [2, 6]))
        for spec in mqc_typicality_grid(net, prot, EstimatorConfig(n_samples=2, base_seed=2)):
            assert spec.weight(0) == 1.0
            assert np.all(np.delete(spec.weights, 6) == 0.0)
            assert np.all(spec.std_err == 0.0)

    def test_agrees_with_exact_path_at_eight_spins(self):
        from spinquench.evolution import evolve_density_exact
        from spinquench.mqc import mqc_exact

        net = jittered_network(8, 11)
        grid = np.array([0.3, 0.9, 2.0])
        prot = QuenchProtocol.average(0.3, grid)
        approx = mqc_typicality_grid(net, prot, EstimatorConfig(n_samples=8, base_seed=1))
        exact = [mqc_exact(w) for _, w in evolve_density_exact(net, prot)]
        agree = total = 0
        for sa, se in zip(approx, exact):
            dev = np.abs(sa.weights - se.weights)
            tol = 3.0 * np.maximum(sa.std_err, 1e-12)
            agree += int(np.sum(dev <= np.maximum(tol, 1e-9)))
            total += dev.size
        assert agree / total >= 0.95

    @pytest.mark.parametrize("n", [7, 8])
    def test_paired_samples_match_single_samples(self, n):
        """Samples are propagated two at a time, each sector slice in its
        parity block: three samples (one pair, then one alone) must give
        the mean and standard error of three one-sample runs at base seeds
        b, b + 1 and b + 2.  At n = 8 the blocks carry 3 and 2 sectors."""
        net = jittered_network(n, 23)
        prot = QuenchProtocol.average(0.4, [0.3, 1.2, 2.5])
        b = 11
        three = mqc_typicality_grid(net, prot, EstimatorConfig(kind="typicality", n_samples=3,
                                                               base_seed=b))
        singles = np.array([[s.weights for s in mqc_typicality_grid(
            net, prot, EstimatorConfig(kind="typicality", n_samples=1, base_seed=b + i))]
            for i in range(3)])
        for j, spec in enumerate(three):
            assert np.max(np.abs(spec.weights - singles[:, j].mean(axis=0))) <= 1e-13
            se = singles[:, j].std(axis=0, ddof=1) / math.sqrt(3)
            assert np.max(np.abs(spec.std_err - se)) <= 1e-13


class TestTrajectory:
    def test_no_quench_identity(self):
        net = jittered_network(6, 15)
        tr = trajectory(net, QuenchProtocol.average(1.0, np.geomspace(0.2, 20, 8)),
                        EstimatorConfig(kind="exact"))
        assert np.all(tr.K == 1.0)

    def test_no_quench_identity_typicality(self):
        net = jittered_network(6, 15)
        tr = trajectory(net, QuenchProtocol.average(1.0, [0.5, 3.0]),
                        EstimatorConfig(kind="typicality", n_samples=4))
        assert np.all(tr.K == 1.0)

    def test_metadata_recorded(self):
        net = jittered_network(4, 17)
        prot = QuenchProtocol.average(0.25, [0.5, 1.0])
        tr = trajectory(net, prot, EstimatorConfig(kind="exact", keep_spectra=True))
        assert tr.metadata["n_spins"] == 4
        assert tr.metadata["p"] == 0.25
        assert tr.metadata["protocol_digest"] == prot.digest()
        assert len(tr.spectra) == 2

    def test_exact_estimator_capped_at_fourteen_spins(self):
        net = jittered_network(15, 19)
        with pytest.raises(CapacityError, match="typicality"):
            trajectory(net, QuenchProtocol.average(0.0, [0.5]), EstimatorConfig(kind="exact"))

    def test_quench_grows_then_saturates_at_system_size(self, lattice12, lattice12_trajectory):
        """The 3x2x2 lattice is six z-dimers with |d| = d_max = 2 joined by
        |d| = 1 bonds.  A pair's order-0 weight goes as cos^2(d t), so during
        the first dimer period pi/d_max ~ 1.57 the core of the spectrum swings
        from order 0 to +-2 and back: a(0) = 0.30, 0.40, 0.50 and
        sum n^2 A(n) = 2.84, 2.72, 3.00 at t = 0.50, 0.75, 1.13, and the
        halfwidth K follows (5.82, 5.82, 4.58).  Growth is asserted from one
        dimer period on, plus net growth over the early window."""
        tr = lattice12_trajectory(0.0)
        settled = tr.K[tr.times >= math.pi / lattice12.d_max]
        assert settled.size >= 2
        assert np.all(np.diff(settled) > -1e-9)
        early = tr.K[tr.times <= 2.0]
        assert early[-1] > early[0]
        assert np.all(tr.K <= 12.0 + 1e-9)
        assert tr.K[-1] == 12.0

    def test_perturbed_plateau_not_above_quench_plateau(self, lattice12_trajectory):
        """At system sizes this small both mixtures thermalize to the
        full-lattice cluster, so the late-time plateaus tie at n_spins;
        the perturbed curve must never exceed the unperturbed one there."""
        k0 = np.mean(lattice12_trajectory(0.0).K[-3:])
        k5 = np.mean(lattice12_trajectory(0.5).K[-3:])
        assert k5 <= k0 + 1e-9

    def test_validation_of_trajectory_fields(self):
        with pytest.raises(ValueError, match=">= 1"):
            ClusterTrajectory(p=0.0, times=np.array([1.0]), K=np.array([0.5]))
        with pytest.raises(ValueError, match="n_spins"):
            ClusterTrajectory(p=0.0, times=np.array([1.0]), K=np.array([9.0]),
                              metadata={"n_spins": 8})
        with pytest.raises(ValueError, match="matching"):
            ClusterTrajectory(p=0.0, times=np.array([1.0, 2.0]), K=np.array([1.0]))

    def test_estimator_config_validation(self):
        with pytest.raises(ValueError, match="kind"):
            EstimatorConfig(kind="montecarlo")
        with pytest.raises(ValueError, match="n_samples"):
            EstimatorConfig(n_samples=0)


class TestStatedPeakBytes:
    """The byte counts the capacity check adds up, against tracemalloc over
    a whole trajectory() on a fresh network, so the workspace build is
    traced too.  Each stated peak must bound the traced one and, without
    its fixed allowance (48 MiB exact, 1 MiB typicality), stay within 25%
    of it."""

    @staticmethod
    def assert_stated(net, protocol, estimator, peak, allowance):
        stated = workspace_bytes(net.n_spins, sum(1 for _ in net.pairs())) + peak
        tracemalloc.start()
        try:
            trajectory(net, protocol, estimator)
            traced = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert traced <= stated
        assert abs(traced - (stated - allowance)) <= 0.25 * traced

    @pytest.mark.parametrize("n", [9, 10])
    @pytest.mark.parametrize("mode", ["average", "floquet"])
    def test_exact(self, n, mode):
        protocol = (QuenchProtocol.average(0.3, [0.5, 1.0]) if mode == "average"
                    else QuenchProtocol.floquet(0.3, 0.2, [1, 2]))
        self.assert_stated(jittered_network(n, 5), protocol, EstimatorConfig(kind="exact"),
                           exact_peak_bytes(n, mode), 48 * 2**20)

    @pytest.mark.parametrize("n", [10, 12])
    @pytest.mark.parametrize("p", [0.0, 0.3])
    def test_typicality(self, n, p):
        self.assert_stated(jittered_network(n, 5), QuenchProtocol.average(p, [0.5, 1.0]),
                           EstimatorConfig(kind="typicality", n_samples=2),
                           typicality_peak_bytes(n, 2), 2**20)

    @pytest.mark.parametrize("n, n_samples", [(12, 3), (11, 2), (9, 2)])
    @pytest.mark.parametrize("p", [0.0, 0.3])
    def test_typicality_unpaired_sample_and_odd_n(self, n, n_samples, p):
        """Samples go in pairs, so n_samples = 3 ends on one unpaired sample;
        the two parity blocks carry 4 and 3 sectors at n = 12, 3 and 3 at
        n = 11, and 2 and 3 at n = 9."""
        self.assert_stated(jittered_network(n, 5), QuenchProtocol.average(p, [0.5, 1.0]),
                           EstimatorConfig(kind="typicality", n_samples=n_samples),
                           typicality_peak_bytes(n, n_samples), 2**20)
