import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.testing import assert_allclose

from spinquench.errors import CapacityError, ConvergenceError
from spinquench.evolution import (
    Propagator,
    QuenchProtocol,
    default_time_grid,
    evolve_density_exact,
    expm_multiply_krylov,
)
from spinquench.mqc import mqc_exact
from spinquench.network import SpinGeometry, dipolar_couplings
from spinquench.operators import (
    DensityMatrix,
    StateVector,
    _apply_mixed_array,
    basis_for,
    basis_state,
    gaussian_state,
    workspace_for,
)

from oracles import evolve_state_dense, h_mixed_dense

Z = np.array([0.0, 0.0, 1.0])


def chain_network(n):
    pos = np.zeros((n, 3))
    pos[:, 0] = np.arange(n)
    return dipolar_couplings(SpinGeometry(pos, Z))


def jittered_network(n, seed):
    rng = np.random.default_rng(seed)
    pos = np.arange(n)[:, None] * [1.0, 0.0, 0.0] + rng.uniform(-0.3, 0.3, (n, 3))
    return dipolar_couplings(SpinGeometry(pos, Z))


def unit_state(basis, seed):
    v = gaussian_state(basis, seed)
    return StateVector(basis, v.amplitudes / v.norm)


def evolve(net, p, t, v, tol=1e-10):
    """exp(-i H(p) t) v through a one-point average-mode Propagator."""
    return Propagator(net, QuenchProtocol.average(p, [t], tol=tol)).span_forward(v, 0)


def evolve_cycles(net, p, tau_c, n_cycles, v):
    """n_cycles Floquet cycles of length tau_c through a Propagator."""
    return Propagator(net, QuenchProtocol.floquet(p, tau_c, [n_cycles], tol=1e-12)).span_forward(v, 0)


class TestProtocolValidation:
    def test_mode_and_p_checked(self):
        with pytest.raises(ValueError, match="mode"):
            QuenchProtocol("adiabatic", 0.5, np.array([1.0]))
        with pytest.raises(ValueError, match="p must be"):
            QuenchProtocol.average(1.5, [1.0])

    def test_grid_must_increase(self):
        with pytest.raises(ValueError, match="increasing"):
            QuenchProtocol.average(0.0, [1.0, 0.5])
        with pytest.raises(ValueError, match="increasing"):
            QuenchProtocol.average(0.0, [-1.0, 0.5])

    def test_floquet_requires_consistent_p_and_integer_cycles(self):
        with pytest.raises(ValueError, match="p must equal"):
            QuenchProtocol("floquet", 0.3, np.array([1.0]), tau_0=1.0, tau_dd=1.0)
        with pytest.raises(ValueError, match="integer cycle"):
            QuenchProtocol.floquet(0.5, 0.2, [1.5])

    def test_floquet_times_scale_with_cycle_time(self):
        prot = QuenchProtocol.floquet(0.25, 0.8, [1, 2, 4])
        assert_allclose(prot.times, [0.8, 1.6, 3.2])
        assert_allclose(prot.tau_dd / (prot.tau_0 + prot.tau_dd), 0.25, atol=1e-15)

    def test_default_time_grid_spans_inverse_coupling_units(self):
        grid = default_time_grid(2.0)
        assert grid.size == 40
        assert_allclose([grid[0], grid[-1]], [0.05, 25.0])
        with pytest.raises(ValueError):
            default_time_grid(0.0)

    def test_digest_distinguishes_protocols(self):
        a = QuenchProtocol.average(0.3, [1.0, 2.0])
        b = QuenchProtocol.average(0.3, [1.0, 2.5])
        c = QuenchProtocol.average(0.4, [1.0, 2.0])
        assert len({a.digest(), b.digest(), c.digest()}) == 3
        assert a.digest() == QuenchProtocol.average(0.3, [1.0, 2.0]).digest()


class TestPropagateAverage:
    def test_zero_time_is_identity(self):
        net = chain_network(4)
        v = unit_state(basis_for(net), 0)
        out = evolve(net, 0.3, 0.0, v)
        assert np.array_equal(out.amplitudes, v.amplitudes)

    @pytest.mark.parametrize("dt", [0.3, 0.9, 2.0])
    def test_two_spin_quench_closed_form_amplitude(self, dt):
        """Pure double-quantum pair from |down,down>: the |up,up| amplitude
        is i sin(d dt / 2) with the signed coupling d."""
        geo = SpinGeometry(np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1.0]]), Z)
        net = dipolar_couplings(geo)
        d = net.couplings[0, 1]
        b = basis_for(net)
        out = evolve(net, 0.0, dt, basis_state(b, 0b00), tol=1e-12)
        assert_allclose(out.amplitudes[0b11], 1j * np.sin(d * dt / 2), atol=1e-11)
        assert_allclose(out.amplitudes[0b00], np.cos(d * dt / 2), atol=1e-11)

    @given(st.floats(0.0, 1.0), st.floats(0.1, 3.0))
    def test_matches_dense_exponential_n6(self, p, t):
        net = jittered_network(6, 17)
        b = basis_for(net)
        v = unit_state(b, 2)
        got = evolve(net, p, t, v, tol=1e-10).amplitudes
        want = evolve_state_dense(h_mixed_dense(net, p), v.amplitudes, t)
        assert np.max(np.abs(got - want)) < 1e-8

    def test_norm_preserved_to_solver_tolerance(self):
        net = jittered_network(8, 23)
        v = unit_state(basis_for(net), 4)
        tol = 1e-10
        out = evolve(net, 0.35, 5.0, v, tol=tol)
        assert abs(out.norm - 1.0) <= 10 * tol

    def test_backward_after_forward_restores_input(self):
        net = jittered_network(7, 29)
        v = unit_state(basis_for(net), 6)
        tol = 1e-10
        prop = Propagator(net, QuenchProtocol.average(0.6, [3.0], tol=tol))
        fwd = prop.step_forward(v, 0)
        back = prop.step_backward(fwd, 0)
        fidelity = abs(np.vdot(v.amplitudes, back.amplitudes))
        assert fidelity >= 1.0 - 100 * tol


class TestPropagateFloquet:
    def test_zero_dipolar_leg_reduces_to_pure_quench(self):
        net = chain_network(5)
        v = unit_state(basis_for(net), 8)
        cycles = evolve_cycles(net, 0.0, 0.5, 4, v)
        direct = evolve(net, 0.0, 2.0, v, tol=1e-12)
        assert np.max(np.abs(cycles.amplitudes - direct.amplitudes)) < 1e-10

    def test_zero_quench_leg_reduces_to_pure_dipolar(self):
        net = chain_network(5)
        v = unit_state(basis_for(net), 9)
        cycles = evolve_cycles(net, 1.0, 0.5, 4, v)
        direct = evolve(net, 1.0, 2.0, v, tol=1e-12)
        assert np.max(np.abs(cycles.amplitudes - direct.amplitudes)) < 1e-10

    def test_first_order_convergence_to_average_hamiltonian(self):
        """Halving the cycle time halves the deviation from the effective
        Hamiltonian evolution (Trotter first order in tau_c)."""
        net = jittered_network(6, 31)
        v = unit_state(basis_for(net), 10)
        p, t_total = 0.4, 2.0
        ref = evolve(net, p, t_total, v, tol=1e-12)
        errs = []
        for n_cyc in (10, 20, 40):
            tau_c = t_total / n_cyc
            got = evolve_cycles(net, p, tau_c, n_cyc, v)
            errs.append(np.max(np.abs(got.amplitudes - ref.amplitudes)))
        assert errs[0] > errs[1] > errs[2]
        for a, b in zip(errs, errs[1:]):
            assert 1.6 < a / b < 2.6

    def test_invalid_cycle_parameters(self):
        """The protocol rejects a zero cycle time and a negative cycle
        count before any Propagator is built."""
        with pytest.raises(ValueError, match="tau_0 \\+ tau_dd > 0"):
            QuenchProtocol.floquet(0.0, 0.0, [2])
        with pytest.raises(ValueError, match="non-negative"):
            QuenchProtocol.floquet(0.5, 1.0, [-1])


class TestKrylovStep:
    def test_convergence_failure_is_reported(self):
        net = jittered_network(6, 37)
        ws = workspace_for(net)
        v = unit_state(ws.basis, 3)
        with pytest.raises(ConvergenceError, match="Krylov"):
            expm_multiply_krylov(lambda x: _apply_mixed_array(ws, 0.5, x), v.amplitudes,
                                 50.0, tol=1e-12, krylov_dim=2, max_depth=1)

    def test_propagator_span_equals_stepping(self):
        net = jittered_network(5, 41)
        b = basis_for(net)
        prot = QuenchProtocol.average(0.3, [0.5, 1.1, 2.3], tol=1e-12)
        prop = Propagator(net, prot)
        v = unit_state(b, 12)
        stepped = v
        for i in range(3):
            stepped = prop.step_forward(stepped, i)
        spanned = prop.span_forward(v, 2)
        assert np.max(np.abs(stepped.amplitudes - spanned.amplitudes)) < 1e-9

    def test_propagator_step_backward_inverts_step_forward(self):
        net = jittered_network(5, 43)
        prot = QuenchProtocol.floquet(0.5, 0.4, [2, 5], tol=1e-12)
        prop = Propagator(net, prot)
        v = unit_state(basis_for(net), 14)
        fwd = prop.step_forward(v, 1)
        back = prop.step_backward(fwd, 1)
        assert abs(np.vdot(v.amplitudes, back.amplitudes)) >= 1.0 - 1e-9


class TestDensityEvolution:
    def test_p_one_leaves_initial_state_static(self):
        net = chain_network(4)
        b = basis_for(net)
        rho0 = DensityMatrix.from_iz(b)
        prot = QuenchProtocol.average(1.0, [0.5, 2.0, 8.0])
        for _, rho in evolve_density_exact(net, prot, rho0):
            assert_allclose(rho.entries, rho0.entries, atol=1e-12)

    def test_time_zero_returns_initial_state(self):
        net = chain_network(4)
        b = basis_for(net)
        rho0 = DensityMatrix.from_iz(b)
        prot = QuenchProtocol.average(0.0, [0.0, 1.0])
        t, rho = next(iter(evolve_density_exact(net, prot, rho0)))
        assert t == 0.0
        assert_allclose(rho.entries, rho0.entries, atol=1e-12)

    def test_purity_trace_hermiticity_preserved(self):
        net = jittered_network(6, 47)
        b = basis_for(net)
        rho0 = DensityMatrix.from_iz(b)
        prot = QuenchProtocol.average(0.3, np.geomspace(0.2, 10.0, 12))
        for _, rho in evolve_density_exact(net, prot, rho0):
            assert abs(rho.purity - rho0.purity) < 1e-10 * rho0.purity
            assert abs(rho.trace) < 1e-10
            # DensityMatrix construction enforces hermiticity at 1e-12

    def test_capacity_cap_enforced_before_work(self):
        pos = np.zeros((13, 3))
        pos[:, 0] = np.arange(13)
        net = dipolar_couplings(SpinGeometry(pos, Z))
        rho0 = DensityMatrix.from_iz(basis_for(net))
        prot = QuenchProtocol.average(0.0, [1.0])
        with pytest.raises(CapacityError):
            next(iter(evolve_density_exact(net, prot, rho0)))

    def test_chain6_quench_spreads_to_fourth_order(self):
        """Regression fixture: 6-spin chain, pure quench, orders reach
        |n| = 4 within two inverse couplings."""
        net = chain_network(6)
        b = basis_for(net)
        rho0 = DensityMatrix.from_iz(b)
        prot = QuenchProtocol.average(0.0, [0.5, 2.0])
        specs = [mqc_exact(rho, time=t, p=0.0) for t, rho in evolve_density_exact(net, prot, rho0)]
        assert specs[1].weight(4) > 1e-4
        assert_allclose(specs[0].weight(0), 0.662329799514, atol=1e-9)
        assert_allclose(specs[1].weight(0), 0.601057326392, atol=1e-9)
        assert_allclose(specs[1].weight(2), 0.197375905166, atol=1e-9)
        assert_allclose(specs[1].weight(4), 0.002082869235, atol=1e-9)
