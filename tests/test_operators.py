import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.testing import assert_allclose

from spinquench.errors import CapacityError, UndefinedSpectrumError
from spinquench.mqc import mqc_exact
from spinquench.network import SpinGeometry, dipolar_couplings
from spinquench.operators import (
    DensityMatrix,
    _apply_mixed_array,
    build_basis,
    coherence_order_weights,
    dense_hamiltonian,
    gaussian_state,
    workspace_for,
)

from oracles import (
    basis_vector,
    evolve_rho_dense,
    h0_dense,
    h_dd_dense,
    h_mixed_dense,
    iz_total_dense,
    mqc_weights_dense,
)

Z = np.array([0.0, 0.0, 1.0])


def two_spin_network(d=-2.0):
    # distance chosen so the single coupling equals exactly d
    r = (-2.0 / d) ** (1.0 / 3.0) if d < 0 else (1.0 / d) ** (1.0 / 3.0)
    axis_vec = [0.0, 0.0, r] if d < 0 else [r, 0.0, 0.0]
    geo = SpinGeometry(np.array([[0.0, 0.0, 0.0], axis_vec]), Z)
    return dipolar_couplings(geo)


def random_network(n, seed):
    rng = np.random.default_rng(seed)
    pos = np.arange(n)[:, None] * [1.0, 0.0, 0.0] + rng.uniform(-0.3, 0.3, (n, 3))
    return dipolar_couplings(SpinGeometry(pos, Z))


def random_state(basis, seed):
    rng = np.random.default_rng(seed)
    amp = rng.standard_normal(basis.dimension) + 1j * rng.standard_normal(basis.dimension)
    return amp / np.linalg.norm(amp)


class TestBasis:
    def test_single_spin_mz(self):
        b = build_basis(1)
        assert b.dimension == 2
        assert_allclose(b.mz_of, [-0.5, 0.5])

    @pytest.mark.parametrize("n,sizes", [(2, [1, 2, 1]), (4, [1, 4, 6, 4, 1])])
    def test_sector_sizes_are_binomials(self, n, sizes):
        b = build_basis(n)
        assert [np.count_nonzero(b.n_up == k) for k in range(n + 1)] == sizes

    def test_mz_matches_popcount(self):
        b = build_basis(5)
        for s in range(b.dimension):
            assert b.mz_of[s] == bin(s).count("1") - 2.5

    def test_capacity_cap(self):
        with pytest.raises(CapacityError):
            build_basis(25)
        with pytest.raises(CapacityError):
            build_basis(0)

    def test_parity_sectors_partition_basis(self):
        b = build_basis(4)
        even, odd = np.flatnonzero(b.parity == 0), np.flatnonzero(b.parity == 1)
        assert even.size + odd.size == b.dimension
        assert all(bin(s).count("1") % 2 == 0 for s in even)
        assert all(bin(s).count("1") % 2 == 1 for s in odd)


class TestStateAndDensity:
    def test_gaussian_state_deterministic_and_isotropic(self):
        b = build_basis(6)
        v1 = gaussian_state(b, 11)
        v2 = gaussian_state(b, 11)
        assert v1.shape == (b.dimension,)
        assert np.array_equal(v1, v2)
        # E |v_i|^2 = 1 per component under the trace-estimator convention
        assert abs(np.linalg.norm(v1) ** 2 / b.dimension - 1.0) < 0.5

    def test_density_matrix_rejects_non_hermitian(self):
        b = build_basis(2)
        m = np.zeros((4, 4), dtype=complex)
        m[0, 1] = 1.0
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(b, m)


class TestPairActions:
    def test_hdd_on_antialigned_pair(self):
        net = two_spin_network(d=-2.0)
        d = net.couplings[0, 1]
        out = _apply_mixed_array(workspace_for(net), 1.0, basis_vector(2, 0b01))
        expected = np.zeros(4, dtype=complex)
        expected[0b01] = -d / 2
        expected[0b10] = -d / 2
        assert_allclose(out, expected, atol=1e-15)

    def test_hdd_on_aligned_pair(self):
        net = two_spin_network(d=-2.0)
        d = net.couplings[0, 1]
        out = _apply_mixed_array(workspace_for(net), 1.0, basis_vector(2, 0b11))
        expected = np.zeros(4, dtype=complex)
        expected[0b11] = d / 2
        assert_allclose(out, expected, atol=1e-15)

    def test_h0_double_raises_down_down(self):
        net = two_spin_network(d=-2.0)
        d = net.couplings[0, 1]
        out = _apply_mixed_array(workspace_for(net), 0.0, basis_vector(2, 0b00))
        expected = np.zeros(4, dtype=complex)
        expected[0b11] = -d / 2
        assert_allclose(out, expected, atol=1e-15)

    def test_h0_annihilates_antialigned_pair(self):
        net = two_spin_network(d=-2.0)
        out = _apply_mixed_array(workspace_for(net), 0.0, basis_vector(2, 0b01))
        assert np.all(out == 0)

    @given(st.integers(0, 50))
    def test_hdd_preserves_mz_sector_bitwise(self, seed):
        net = random_network(6, 3)
        ws = workspace_for(net)
        b = ws.basis
        v = random_state(b, seed)
        out = _apply_mixed_array(ws, 1.0, v)
        for k in range(7):
            mask = b.n_up == k
            probe = v * mask
            got = _apply_mixed_array(ws, 1.0, probe)
            assert np.all(got[~mask] == 0)
        assert out.shape == (64,)

    @given(st.integers(0, 50))
    def test_h0_connects_only_plus_minus_two(self, seed):
        net = random_network(6, 3)
        b = workspace_for(net).basis
        v = random_state(b, seed)
        for k in range(7):
            got = _apply_mixed_array(workspace_for(net), 0.0, v * (b.n_up == k))
            allowed = (b.n_up == k - 2) | (b.n_up == k + 2)
            assert np.all(got[~allowed] == 0)

    def test_mixed_endpoints_match_components(self):
        net = random_network(5, 4)
        ws = workspace_for(net)
        v = random_state(ws.basis, 0)
        for q in (0, 1):
            states = ws.block_states(q)
            assert np.array_equal(_apply_mixed_array(ws, 1.0, v)[states], ws.hdd[q] @ v[states])
            assert np.array_equal(_apply_mixed_array(ws, 0.0, v)[states], ws.h0[q] @ v[states])
            assert np.array_equal(_apply_mixed_array(ws, 0.3, v[states], q),
                                  _apply_mixed_array(ws, 0.3, v)[states])

    @given(st.integers(0, 30), st.floats(0.0, 1.0))
    def test_hermiticity_of_mixed_action(self, seed, p):
        net = random_network(5, 6)
        ws = workspace_for(net)
        u = random_state(ws.basis, seed)
        v = random_state(ws.basis, seed + 1000)
        huv = np.vdot(u, _apply_mixed_array(ws, p, v))
        hvu = np.vdot(v, _apply_mixed_array(ws, p, u))
        assert abs(huv - np.conj(hvu)) < 1e-12


class TestDenseOracleEquivalence:
    @pytest.mark.parametrize("n", [2, 3, 4, 6, 8])
    def test_matrix_free_matches_kron_oracle(self, n):
        net = random_network(n, n)
        ws = workspace_for(net)
        v = random_state(ws.basis, 99)
        h = h_mixed_dense(net, 0.37)
        got = _apply_mixed_array(ws, 0.37, v)
        want = h @ v
        assert np.max(np.abs(got - want)) < 1e-10 * max(1.0, np.max(np.abs(want)))

    def test_half_mixture_at_four_spins(self):
        net = random_network(4, 12)
        ws = workspace_for(net)
        v = random_state(ws.basis, 5)
        want = 0.5 * (h0_dense(net) + h_dd_dense(net)) @ v
        got = _apply_mixed_array(ws, 0.5, v)
        assert_allclose(got, want, atol=1e-12)

    @pytest.mark.parametrize("p", [0.0, 0.37, 1.0])
    def test_array_action_on_every_input_layout(self, p):
        """The sparse product takes complex input through a float64 view,
        so each layout the propagators and the benchmark pass must match
        the oracle: a C-ordered complex block, strided and transposed
        complex input, and a real vector."""
        net = random_network(6, 31)
        ws = workspace_for(net)
        dim = ws.basis.dimension
        h = h_mixed_dense(net, p)
        rng = np.random.default_rng(7)
        block = rng.standard_normal((dim, 6)) + 1j * rng.standard_normal((dim, 6))
        real = rng.standard_normal(dim)
        layouts = {
            "block": block,
            "strided columns": block[:, ::2],
            "strided rows": np.repeat(block[:, 0], 2)[::2],
            "transposed": np.ascontiguousarray(block.T).T,
            "real vector": real,
        }
        scale = 1e-12 * max(1.0, float(np.abs(h).max()))
        for name, v in layouts.items():
            before = v.copy()
            got = _apply_mixed_array(ws, p, v)
            assert got.shape == v.shape, name
            assert np.max(np.abs(got - h @ v)) < scale * dim, name
            assert np.array_equal(v, before), name
        assert not np.iscomplexobj(_apply_mixed_array(ws, p, real))

    @pytest.mark.parametrize("p", [0.0, 0.25, 1.0])
    def test_dense_hamiltonian_matches_oracle(self, p):
        net = random_network(5, 21)
        assert_allclose(dense_hamiltonian(net, p), h_mixed_dense(net, p).real, atol=1e-12)

    def test_dense_hamiltonian_parity_restriction(self):
        net = random_network(4, 8)
        b = workspace_for(net).basis
        even, odd = np.flatnonzero(b.parity == 0), np.flatnonzero(b.parity == 1)
        h = h_mixed_dense(net, 0.3).real
        assert_allclose(dense_hamiltonian(net, 0.3, even), h[np.ix_(even, even)], atol=1e-12)
        # parity sectors are closed: no matrix elements between them
        assert np.all(h[np.ix_(even, odd)] == 0)


class TestCoherenceDecomposition:
    def test_iz_is_pure_zero_order(self):
        b = build_basis(4)
        spec = mqc_exact(coherence_order_weights(iz_total_dense(4), b))
        assert_allclose(spec.weight(0), 1.0, atol=1e-15)
        assert np.all(spec.weights[spec.orders != 0] == 0)

    def test_single_spin_ix_splits_into_plus_minus_one(self):
        b = build_basis(1)
        ix = np.array([[0.0, 0.5], [0.5, 0.0]], dtype=complex)
        spec = mqc_exact(coherence_order_weights(ix, b))
        assert_allclose(spec.weight(1), 0.5, atol=1e-15)
        assert_allclose(spec.weight(-1), 0.5, atol=1e-15)
        assert spec.weight(0) == 0.0

    @pytest.mark.parametrize("t_frac", [0.25, 0.5, 1.0])
    def test_two_spin_quench_closed_form(self, t_frac):
        """Iz under the pure double-quantum pair: A(0) = cos^2(dt),
        A(+-2) = sin^2(dt)/2, maximally transferred at t = pi/(2d)."""
        net = two_spin_network(d=-2.0)
        d = abs(net.couplings[0, 1])
        t = t_frac * np.pi / (2 * d)
        b = workspace_for(net).basis
        rho_t = evolve_rho_dense(h0_dense(net), iz_total_dense(2), t)
        spec = mqc_exact(coherence_order_weights(rho_t, b))
        assert_allclose(spec.weight(0), np.cos(d * t) ** 2, atol=1e-12)
        assert_allclose(spec.weight(2), 0.5 * np.sin(d * t) ** 2, atol=1e-12)
        assert_allclose(spec.weight(-2), 0.5 * np.sin(d * t) ** 2, atol=1e-12)

    @given(st.integers(0, 40))
    def test_parity_and_normalization_for_random_hermitian(self, seed):
        b = build_basis(4)
        rng = np.random.default_rng(seed)
        m = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        rho = m + m.conj().T
        spec = mqc_exact(coherence_order_weights(rho, b))
        assert abs(spec.weights.sum() - 1.0) < 1e-12
        for n in range(5):
            assert abs(spec.weight(n) - spec.weight(-n)) < 1e-12
        assert_allclose(spec.weights, mqc_weights_dense(rho, 4), atol=1e-12)

    def test_zero_density_matrix_has_no_spectrum(self):
        b = build_basis(2)
        with pytest.raises(UndefinedSpectrumError):
            mqc_exact(coherence_order_weights(np.zeros((4, 4)), b))
