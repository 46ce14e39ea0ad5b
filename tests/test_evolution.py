import importlib.util
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.testing import assert_allclose
from scipy.sparse.linalg import LinearOperator, eigsh

from spinquench import evolution
from spinquench.errors import CapacityError, NumericalError
from spinquench.evolution import (
    TOL,
    Propagator,
    QuenchProtocol,
    _exact_blocks,
    _spectral_interval,
    evolve_density_exact,
    expm_multiply_krylov,
)
from spinquench.mqc import mqc_exact
from spinquench.network import CouplingNetwork, SpinGeometry, cubic_lattice_geometry, dipolar_couplings
from spinquench.operators import (_apply_mixed_array, build_basis, dense_hamiltonian, gaussian_state,
                                  workspace_for)

from oracles import (basis_vector, evolve_rho_dense, evolve_state_dense, floquet_cycle_dense,
                     h_mixed_dense, iz_total_dense, mqc_weights_dense)

Z = np.array([0.0, 0.0, 1.0])


def blob14_network():
    """The 14-spin geometry of the stored regression fixture."""
    path = Path(__file__).resolve().parents[1] / "scripts" / "make_regression_fixtures.py"
    spec = importlib.util.spec_from_file_location("make_regression_fixtures", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.blob14_network()


def chain_network(n):
    pos = np.zeros((n, 3))
    pos[:, 0] = np.arange(n)
    return dipolar_couplings(SpinGeometry(pos, Z))


def jittered_network(n, seed):
    rng = np.random.default_rng(seed)
    pos = np.arange(n)[:, None] * [1.0, 0.0, 0.0] + rng.uniform(-0.3, 0.3, (n, 3))
    return dipolar_couplings(SpinGeometry(pos, Z))


def unit_state(net, seed):
    v = gaussian_state(workspace_for(net).basis, seed)
    return v / np.linalg.norm(v)


def evolve(net, p, t, v):
    """exp(-i H(p) t) v through a one-point average-mode Propagator."""
    prop = Propagator(net, QuenchProtocol.average(p, [t]))
    return prop.span_forward(v, 0)


def evolve_cycles(net, p, tau_c, n_cycles, v):
    """n_cycles Floquet cycles of length tau_c through a Propagator."""
    prop = Propagator(net, QuenchProtocol.floquet(p, tau_c, [n_cycles]))
    return prop.span_forward(v, 0)


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
        """The legs are derived from p and tau_c, so p = tau_dd / (tau_0 +
        tau_dd) holds by construction; cycle counts must be integers."""
        for p in (0.0, 0.1, 0.3, 1.0 / 3.0, 0.7, 1.0):
            for tau_c in (0.07, 0.3, 1.0, 13.7):
                prot = QuenchProtocol.floquet(p, tau_c, [1])
                assert prot.tau_0 >= 0.0 and prot.tau_dd >= 0.0
                assert abs(prot.tau_dd / (prot.tau_0 + prot.tau_dd) - p) < 1e-12
        with pytest.raises(ValueError, match="integer cycle"):
            QuenchProtocol.floquet(0.5, 0.2, [1.5])

    def test_floquet_times_scale_with_cycle_time(self):
        prot = QuenchProtocol.floquet(0.25, 0.8, [1, 2, 4])
        assert_allclose(prot.times, [0.8, 1.6, 3.2])
        assert_allclose(prot.tau_dd / (prot.tau_0 + prot.tau_dd), 0.25, atol=1e-15)

    def test_digest_and_times_pinned(self):
        """Trajectory files carry the protocol digest, and their time
        column is .times, so a refactor that moves either changes file
        bytes.  Floquet times are grid (tau_0 + tau_dd), which for p = 0.1,
        tau_c = 0.3 is one ulp above grid tau_c."""
        a = QuenchProtocol.average(0.3, [0.1, 0.7, 2.5])
        assert a.digest() == "cb0731bc573bf923"
        assert a.times.tolist() == [0.1, 0.7, 2.5]
        f = QuenchProtocol.floquet(0.1, 0.3, [1, 3, 10])
        assert f.digest() == "5d00e981feda1005"
        assert f.times.tolist() == [0.30000000000000004, 0.9000000000000001, 3.0000000000000004]

    def test_digest_distinguishes_protocols(self):
        a = QuenchProtocol.average(0.3, [1.0, 2.0])
        b = QuenchProtocol.average(0.3, [1.0, 2.5])
        c = QuenchProtocol.average(0.4, [1.0, 2.0])
        assert len({a.digest(), b.digest(), c.digest()}) == 3
        assert a.digest() == QuenchProtocol.average(0.3, [1.0, 2.0]).digest()


class TestPropagateAverage:
    def test_zero_time_is_identity(self):
        net = chain_network(4)
        v = unit_state(net, 0)
        out = evolve(net, 0.3, 0.0, v)
        assert np.array_equal(out, v)

    @pytest.mark.parametrize("dt", [0.3, 0.9, 2.0])
    def test_two_spin_quench_closed_form_amplitude(self, dt):
        """Pure double-quantum pair from |down,down>: the |up,up| amplitude
        is i sin(d dt / 2) with the signed coupling d."""
        geo = SpinGeometry(np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1.0]]), Z)
        net = dipolar_couplings(geo)
        d = net.couplings[0, 1]
        out = evolve(net, 0.0, dt, basis_vector(2, 0b00))
        assert_allclose(out[0b11], 1j * np.sin(d * dt / 2), atol=1e-11)
        assert_allclose(out[0b00], np.cos(d * dt / 2), atol=1e-11)

    @given(st.floats(0.0, 1.0), st.floats(0.1, 3.0))
    def test_matches_dense_exponential_n6(self, p, t):
        net = jittered_network(6, 17)
        v = unit_state(net, 2)
        got = evolve(net, p, t, v)
        want = evolve_state_dense(h_mixed_dense(net, p), v, t)
        assert np.max(np.abs(got - want)) < 1e-8

    def test_norm_preserved_to_solver_tolerance(self):
        net = jittered_network(8, 23)
        v = unit_state(net, 4)
        out = evolve(net, 0.35, 5.0, v)
        assert abs(np.linalg.norm(out) - 1.0) <= 10 * TOL

    def test_backward_after_forward_restores_input(self):
        net = jittered_network(7, 29)
        v = unit_state(net, 6)
        prop = Propagator(net, QuenchProtocol.average(0.6, [3.0]))
        fwd = prop.step_forward(v, 0)
        back = prop.step_backward(fwd, 0)
        fidelity = abs(np.vdot(v, back))
        assert fidelity >= 1.0 - 100 * TOL


class TestPropagateFloquet:
    def test_zero_dipolar_leg_reduces_to_pure_quench(self):
        net = chain_network(5)
        v = unit_state(net, 8)
        cycles = evolve_cycles(net, 0.0, 0.5, 4, v)
        direct = evolve(net, 0.0, 2.0, v)
        assert np.max(np.abs(cycles - direct)) < 1e-10

    def test_zero_quench_leg_reduces_to_pure_dipolar(self):
        net = chain_network(5)
        v = unit_state(net, 9)
        cycles = evolve_cycles(net, 1.0, 0.5, 4, v)
        direct = evolve(net, 1.0, 2.0, v)
        assert np.max(np.abs(cycles - direct)) < 1e-10

    def test_first_order_convergence_to_average_hamiltonian(self):
        """Halving the cycle time halves the deviation from the effective
        Hamiltonian evolution (Trotter first order in tau_c)."""
        net = jittered_network(6, 31)
        v = unit_state(net, 10)
        p, t_total = 0.4, 2.0
        ref = evolve(net, p, t_total, v)
        errs = []
        for n_cyc in (10, 20, 40):
            tau_c = t_total / n_cyc
            got = evolve_cycles(net, p, tau_c, n_cyc, v)
            errs.append(np.max(np.abs(got - ref)))
        assert errs[0] > errs[1] > errs[2]
        for a, b in zip(errs, errs[1:]):
            assert 1.6 < a / b < 2.6

    def test_invalid_cycle_parameters(self):
        """The protocol rejects a cycle time that is not finite and positive,
        and a negative cycle count, before any Propagator is built."""
        for tau_c in (0.0, -0.5, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="tau_0 \\+ tau_dd > 0"):
                QuenchProtocol.floquet(0.0, tau_c, [2])
        with pytest.raises(ValueError, match="non-negative"):
            QuenchProtocol.floquet(0.5, 1.0, [-1])


class TestKrylovStep:
    def test_block_columns_match_single_columns(self):
        """Each column of a (dim, 3) block comes out as that column
        propagated alone, in average and Floquet mode."""
        net = jittered_network(6, 37)
        block = np.stack([unit_state(net, s) for s in (3, 4, 5)], axis=1)
        for prot in (QuenchProtocol.average(0.45, [0.7, 2.9]),
                     QuenchProtocol.floquet(0.3, 0.4, [3, 7])):
            prop = Propagator(net, prot)
            got = prop.step_backward(prop.span_forward(block, 1), 0)
            for c in range(3):
                alone = prop.step_backward(prop.span_forward(block[:, c], 1), 0)
                assert np.max(np.abs(got[:, c] - alone)) < 1e-13

    @pytest.mark.parametrize("p", [0.0, 0.2, 0.3, 0.5, 1.0])
    def test_spectral_interval_holds_the_spectrum(self, chain6, lattice8, lattice12, p):
        """The Lanczos interval of each parity block holds every eigenvalue
        of H(p) on it, as a Chebyshev series over an interval that misses
        one diverges, and is at most its 10% of padding wider than the
        spectrum.  The 2-spin H_0 is zero on the parity-1 block (|01>,
        |10>), where Lanczos breaks down at its first step.  Dense
        eigenvalues up to 12 spins (the 3x2x2 and 5x2x1 bench lattices
        among them), eigsh for the 14-spin regression fixture geometry."""
        two = dipolar_couplings(SpinGeometry(np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1.0]]), Z))
        lattice10 = dipolar_couplings(cubic_lattice_geometry((5, 2, 1)))
        for net in (two, chain6, lattice8, lattice10, lattice12, blob14_network()):
            ws = workspace_for(net)
            for q in (0, 1):
                lo, hi = _spectral_interval(ws, p, q)
                if net.n_spins <= 12:
                    eig = np.linalg.eigvalsh(dense_hamiltonian(net, p, ws.block_states(q)))
                else:
                    d = ws.basis.dimension >> 1
                    op = LinearOperator((d, d), dtype=float,
                                        matvec=lambda x: _apply_mixed_array(ws, p, np.ravel(x), q))
                    eig = np.sort(eigsh(op, k=2, which="BE", tol=1e-12, return_eigenvectors=False))
                slack = 1e-10 * max(1.0, abs(lo), abs(hi))
                assert lo - slack <= eig[0] and eig[-1] <= hi + slack, (net.n_spins, q)
                assert hi - lo <= 1.1 * (eig[-1] - eig[0]) + slack, (net.n_spins, q)

    def test_interval_missing_the_spectrum_raises(self):
        """A series over an interval that misses an eigenvalue grows
        exponentially in the number of terms there; the norm check turns
        that into a NumericalError instead of a wrong result.  Missing the
        top 5% of the spectrum over r dt = 40, or half of it over r dt = 8,
        moves the norms by far more than tol.  (A small miss over a short
        span errs by less than the norm check resolves: the 5% miss over
        r dt = 8 is off by 1e-9 with the norms moved by 1e-11.)"""
        c, r, dim = 0.5, 4.0, 40
        lam = c + r * np.cos(np.pi * (np.arange(dim) + 0.5) / dim)
        v = np.random.default_rng(3).normal(size=(dim, 2)) + 0j

        def matvec(u):
            return lam[:, None] * u

        assert_allclose(np.linalg.norm(expm_multiply_krylov(matvec, v, 2.0, spectrum=(c - r, c + r)),
                                       axis=0), np.linalg.norm(v, axis=0), rtol=1e-12)
        for spectrum, dt in (((c - r, c + 0.95 * r), 10.0), ((c - 0.5 * r, c + 0.5 * r), 2.0)):
            with pytest.raises(NumericalError, match="misses the spectrum"):
                expm_multiply_krylov(matvec, v, dt, spectrum=spectrum)

    def test_long_span_matches_dense_oracle(self):
        """One expansion over a long span, ||H|| t = 250."""
        net = jittered_network(8, 53)
        v = unit_state(net, 15)
        h = h_mixed_dense(net, 0.6)
        t = 250.0 / np.linalg.norm(h, 2)
        got = evolve(net, 0.6, t, v)
        want = evolve_state_dense(h, v, t)
        assert np.max(np.abs(got - want)) < 1e-8

    @pytest.mark.parametrize("x", [0.0, 1e-6, 0.3, 13.0, 250.0, 1000.0])
    def test_fft_coefficients_match_bessel_series(self, x):
        """The FFT coefficients reproduce exp(-i dt H) v on a diagonal H
        whose eigenvalues fill the interval, forward and backward, on a
        vector and a (dim, 3) block, and the series stops at the term the
        Bessel coefficients (-i)^k J_k(x) give, or one term later."""
        from scipy.special import jv

        c, r, dim = 0.5, 4.0, 40
        lam = c + r * np.cos(np.pi * (np.arange(dim) + 0.5) / dim)
        k = np.arange(int(x + 10.0 * x ** (1.0 / 3.0) + 20))
        bessel = 2.0 * np.abs(jv(k, x))
        bessel[0] /= 2.0
        n_terms = max(1, np.count_nonzero(np.cumsum(bessel[::-1])[::-1] >= 0.01 * TOL))
        rng = np.random.default_rng(17)
        for dt in (x / r, -x / r):
            for shape in ((dim,), (dim, 3)):
                v = rng.normal(size=shape) + 1j * rng.normal(size=shape)
                calls = []

                def matvec(u):
                    calls.append(1)
                    return lam.reshape((dim,) + (1,) * (u.ndim - 1)) * u

                got = expm_multiply_krylov(matvec, v, dt, spectrum=(c - r, c + r))
                want = np.exp(-1j * dt * lam).reshape(v.shape[:1] + (1,) * (v.ndim - 1)) * v
                assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(v)
                assert n_terms - 1 <= len(calls) <= n_terms

    def test_zero_spectral_width_returns_input_times_phase(self):
        """Uncoupled spins have H(p) = 0: the interval (0, 0) has no
        width, and the expansion returns its input times the phase
        exp(-i c dt) = 1 without a single matvec."""
        pos = np.arange(3)[:, None] * [5.0, 0.0, 0.0]
        net = CouplingNetwork(SpinGeometry(pos, Z), np.zeros((3, 3)))
        v = unit_state(net, 16)

        def matvec(x):
            raise AssertionError("no matvec expected")

        assert np.array_equal(expm_multiply_krylov(matvec, v, 3.0, spectrum=(0.0, 0.0)), v)
        c = 0.8
        assert_allclose(expm_multiply_krylov(matvec, v, 3.0, spectrum=(c, c)),
                        np.exp(-3j * c) * v, rtol=0, atol=1e-15)
        assert np.array_equal(evolve(net, 0.4, 3.0, v), v)

    def test_propagator_span_equals_stepping(self):
        net = jittered_network(5, 41)
        prot = QuenchProtocol.average(0.3, [0.5, 1.1, 2.3])
        prop = Propagator(net, prot)
        v = unit_state(net, 12)
        stepped = v
        for i in range(3):
            stepped = prop.step_forward(stepped, i)
        spanned = prop.span_forward(v, 2)
        assert np.max(np.abs(stepped - spanned)) < 1e-9

    def test_propagator_step_backward_inverts_step_forward(self):
        net = jittered_network(5, 43)
        prot = QuenchProtocol.floquet(0.5, 0.4, [2, 5])
        prop = Propagator(net, prot)
        v = unit_state(net, 14)
        fwd = prop.step_forward(v, 1)
        back = prop.step_backward(fwd, 1)
        assert abs(np.vdot(v, back)) >= 1.0 - 1e-9


def iz_weights(n):
    """Order weights of rho(0) = Iz: all of Tr[Iz^2] = n 2^n / 4 at order 0."""
    w = np.zeros(2 * n + 1)
    w[n] = n * 2**n / 4
    return w


class TestDensityEvolution:
    def test_p_one_leaves_initial_state_static(self):
        net = chain_network(4)
        prot = QuenchProtocol.average(1.0, [0.5, 2.0, 8.0])
        for _, w in evolve_density_exact(net, prot):
            assert_allclose(w, iz_weights(4), atol=1e-12)

    def test_time_zero_returns_initial_state(self):
        net = chain_network(4)
        prot = QuenchProtocol.average(0.0, [0.0, 1.0])
        t, w = next(iter(evolve_density_exact(net, prot)))
        assert t == 0.0
        assert_allclose(w, iz_weights(4), atol=1e-12)

    def test_purity_trace_hermiticity_preserved(self):
        net = jittered_network(6, 47)
        purity0 = iz_weights(6).sum()
        prot = QuenchProtocol.average(0.3, np.geomspace(0.2, 10.0, 12))
        for _, w in evolve_density_exact(net, prot):
            assert abs(w.sum() - purity0) < 1e-10 * purity0
            # rho = rho^dag puts the same weight on orders n and -n
            assert np.abs(w - w[::-1]).max() < 1e-10 * w.sum()

    def test_capacity_cap_enforced_before_work(self):
        pos = np.zeros((15, 3))
        pos[:, 0] = np.arange(15)
        net = dipolar_couplings(SpinGeometry(pos, Z))
        prot = QuenchProtocol.average(0.0, [1.0])
        with pytest.raises(CapacityError):
            next(iter(evolve_density_exact(net, prot)))

    @pytest.mark.parametrize("n", [5, 6, 7, 8])
    @pytest.mark.parametrize("p", [0.0, 0.37, 1.0])
    @pytest.mark.parametrize("mode", ["average", "floquet"])
    def test_block_path_matches_dense_oracle(self, n, p, mode):
        """Flip x parity blocks (even n) and the odd-block mirror (odd n)
        against rho(t) = U Iz U^dag from full 2^n x 2^n Kronecker operators."""
        net = jittered_network(n, 60 + n)
        iz = iz_total_dense(n)
        if mode == "average":
            prot = QuenchProtocol.average(p, [0.4, 1.7])
            h = h_mixed_dense(net, p)
            refs = [evolve_rho_dense(h, iz, t) for t in prot.time_grid]
        else:
            prot = QuenchProtocol.floquet(p, 0.6, [1, 3])
            u = floquet_cycle_dense(net, prot.tau_0, prot.tau_dd)
            refs = [np.linalg.matrix_power(u, int(c)) for c in prot.time_grid]
            refs = [uc @ iz @ uc.conj().T for uc in refs]
        for (_, w), rho in zip(evolve_density_exact(net, prot), refs):
            # unnormalized: w must also carry the oracle's total Tr[rho^2]
            assert_allclose(w / np.sum(np.abs(rho) ** 2), mqc_weights_dense(rho, n), atol=1e-12)

    @pytest.mark.parametrize("n", [5, 6], ids=["odd-n", "flip"])
    @pytest.mark.parametrize("panel", [3, 64], ids=["panel3", "panel64"])
    def test_panelled_weights_match_whole_array_sums(self, monkeypatch, n, panel):
        """_Block.weights sums its squares a panel of rows at a time; against
        the sums over whole arrays, on blocks of d = 16 and a random X, with
        a panel that divides no d and one larger than d."""
        blk = _exact_blocks(build_basis(n))[-1]
        d, k = blk.states.size, blk.n_weights
        xr, xi = np.random.default_rng(n).standard_normal((2, d, d))

        def sector_sums(sq):
            return np.add.reduceat(np.add.reduceat(sq, blk.cuts, axis=0), blk.cuts, axis=1).ravel()

        if blk.flip:
            ref = 0.25 * (np.bincount(blk.same, sector_sums((xr + xr.T) ** 2 + (xi - xi.T) ** 2), k)
                          + np.bincount(blk.cross, sector_sums((xr - xr.T) ** 2 + (xi + xi.T) ** 2), k))
        else:
            ref = np.bincount(blk.same, sector_sums(xr ** 2 + xi ** 2), k)
        monkeypatch.setattr(evolution, "PANEL_ROWS", panel)
        assert_allclose(blk.weights(xr, xi), ref + ref[::-1], rtol=1e-13, atol=0)

    def test_chain6_quench_spreads_to_fourth_order(self):
        """Regression fixture: 6-spin chain, pure quench, orders reach
        |n| = 4 within two inverse couplings."""
        net = chain_network(6)
        prot = QuenchProtocol.average(0.0, [0.5, 2.0])
        specs = [mqc_exact(w) for _, w in evolve_density_exact(net, prot)]
        assert specs[1].weight(4) > 1e-4
        assert_allclose(specs[0].weight(0), 0.662329799514, atol=1e-9)
        assert_allclose(specs[1].weight(0), 0.601057326392, atol=1e-9)
        assert_allclose(specs[1].weight(2), 0.197375905166, atol=1e-9)
        assert_allclose(specs[1].weight(4), 0.002082869235, atol=1e-9)
