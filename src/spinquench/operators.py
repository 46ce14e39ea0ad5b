"""Bit-encoded Zeeman product basis and the sparse spin-pair Hamiltonians.

Basis states are integers: bit i set means spin i up, so the total
magnetic quantum number M_z = n_up - n/2 is a popcount away.  Each
coupled pair {i, j} links a state to the one with bits i and j flipped,
and each network gets its two pair Hamiltonians once, as real CSR
matrices:

  zz part      diagonal, coefficient (1/2) sum_{i<j} d_ij s_i s_j, s = +-1
               (part of H_dd)
  flip-flop    couples states differing in bits {i,j} with the two bits
               anti-aligned, amplitude -d_ij/2  (part of H_dd)
  flip-flip    same index map, bits aligned, amplitude -d_ij/2  (H_0,
               raises or lowers M_z by exactly 2)

The mixed generator of the quench protocol is H(p) = (1-p) H_0 + p H_dd.
In this basis every H(p) is real symmetric, and it never mixes the two
popcount-parity sectors, which the exact evolution path exploits: its
blocks are row/column slices of the same two matrices.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .errors import CapacityError
from .network import MAX_SPINS, CouplingNetwork

_WORKSPACES: "weakref.WeakKeyDictionary[CouplingNetwork, _Workspace]" = weakref.WeakKeyDictionary()


@dataclass(frozen=True, eq=False)
class SpinBasis:
    """Zeeman product basis with M_z bookkeeping.

    mz_of[s] is the magnetic quantum number of basis state s; the M_z
    sector with k spins up is the mask n_up == k.
    """

    n_spins: int
    dimension: int
    states: np.ndarray
    n_up: np.ndarray
    mz_of: np.ndarray
    parity: np.ndarray


def build_basis(n_spins: int) -> SpinBasis:
    """Enumerate the 2^n product basis with sector bookkeeping.

    The cap exists because every array here is dimension-long; past ~20
    spins the bookkeeping alone dominates memory.
    """
    if not 1 <= n_spins <= MAX_SPINS:
        raise CapacityError(f"n_spins must be in [1, {MAX_SPINS}], got {n_spins}")
    dim = 1 << n_spins
    states = np.arange(dim, dtype=np.intp)
    n_up = np.bitwise_count(states).astype(np.uint8)
    mz = n_up.astype(np.float64) - 0.5 * n_spins
    parity = (n_up & 1).astype(np.uint8)
    for a in (states, n_up, mz, parity):
        a.flags.writeable = False
    return SpinBasis(n_spins, dim, states, n_up, mz, parity)


def gaussian_state(basis: SpinBasis, seed) -> np.ndarray:
    """Unnormalized complex Gaussian vector with E[v v†] = identity.

    The identity-covariance convention makes <v|M|v> an unbiased
    estimator of Tr M, which the typicality spectra rely on.
    """
    rng = np.random.default_rng(seed)
    return (rng.standard_normal(basis.dimension) + 1j * rng.standard_normal(basis.dimension)) / np.sqrt(2.0)


def _assert_hermitian(m: np.ndarray, tol: float):
    scale = max(1.0, float(np.abs(m).max())) if m.size else 1.0
    stripe = 256
    worst = 0.0
    for lo in range(0, m.shape[0], stripe):
        hi = min(lo + stripe, m.shape[0])
        worst = max(worst, float(np.abs(m[lo:hi, :] - m[:, lo:hi].conj().T).max()))
    if worst > tol * scale:
        raise ValueError(f"matrix not Hermitian: max deviation {worst:.3e} (scale {scale:.3e})")


@dataclass(eq=False)
class DensityMatrix:
    """Dense density operator over a SpinBasis, Hermitian by construction.

    The exact path never forms one; its weights come from the blocks that
    evolve_density_exact works on.
    """

    basis: SpinBasis
    entries: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=np.complex128)
        dim = self.basis.dimension
        if m.shape != (dim, dim):
            raise ValueError(f"entries must have shape ({dim}, {dim}), got {m.shape}")
        _assert_hermitian(m, 1e-12)
        self.entries = m


class _Workspace:
    """Per-network operators, built once: H_0 and H_dd as CSR matrices.

    Pair k with bits {i, j} links every basis state s to its partner
    s ^ (2^i + 2^j) with amplitude -d_ij/2.  The partner lies in the same
    M_z sector exactly when the two bits are anti-aligned (flip-flop, in
    H_dd); otherwise M_z moves by +-2 (flip-flip, in H_0).  H_dd also holds
    the zz diagonal.  Both matrices are filled from one (dim, pairs + 1)
    layout, column 0 the diagonal and column k + 1 the partner of pair k;
    row-major selection of that layout gives the CSR rows directly, and
    each row is then sorted by column.
    """

    __slots__ = ("basis", "h0", "hdd")

    def __init__(self, network: CouplingNetwork):
        basis = build_basis(network.n_spins)
        self.basis = basis
        dim = basis.dimension
        pairs = list(network.pairs())
        masks = np.array([(1 << i) | (1 << j) for i, j, _ in pairs], dtype=np.int32)
        amp = np.array([0.0] + [-0.5 * d for _, _, d in pairs])
        cols = np.empty((dim, amp.size), dtype=np.int32)
        cols[:, 0] = basis.states
        np.bitwise_xor(cols[:, :1], masks, out=cols[:, 1:])
        same_sector = basis.n_up[cols] == basis.n_up[:, None]
        self.hdd = self._csr(cols, amp, same_sector)
        # s_i s_j = 1 - 2 [anti-aligned], so the zz diagonal is
        # sum_k d_k / 2 plus twice the flip-flop row sum
        rows = self.hdd.indptr[:-1]
        zz = 2.0 * np.add.reduceat(self.hdd.data, rows) - amp.sum()
        self.hdd.data[rows] = zz
        # every other partner is two M_z steps away: the flip-flip terms
        np.logical_not(same_sector, out=same_sector)
        self.h0 = self._csr(cols, amp, same_sector)
        # in place, once the diagonal is written; the matvec and the
        # Gershgorin row sums add each row in this order
        self.hdd.sort_indices()
        self.h0.sort_indices()

    @staticmethod
    def _csr(cols: np.ndarray, amp: np.ndarray, keep: np.ndarray):
        dim = cols.shape[0]
        # indptr holds nnz; scipy keeps int32 indices only if indptr is int32 too
        indptr = np.zeros(dim + 1, dtype=np.int32 if cols.size < 2**31 else np.int64)
        np.cumsum(np.count_nonzero(keep, axis=1), out=indptr[1:])
        data = np.broadcast_to(amp, cols.shape)[keep]
        return sparse.csr_array((data, cols[keep], indptr), shape=(dim, dim))


def workspace_bytes(n_spins: int, n_pairs: int) -> int:
    """Bytes a built _Workspace holds: a float64 value and an index per
    entry of H_0 and H_dd (2^n (pairs + 1) in all), the basis (18 B per
    state) and two indptr.  The build's partner layout and mask (5 B per
    entry) are freed before, and stay below, any estimator's peak."""
    dim = 1 << n_spins
    index = 4 if dim * (n_pairs + 1) < 2**31 else 8  # as _Workspace._csr
    return (8 + index) * dim * (n_pairs + 1) + (18 + 2 * index) * dim


def workspace_for(network: CouplingNetwork) -> _Workspace:
    ws = _WORKSPACES.get(network)
    if ws is None:
        ws = _Workspace(network)
        _WORKSPACES[network] = ws
    return ws


def _product(h, v: np.ndarray) -> np.ndarray:
    """h @ v for a real CSR h; complex v goes through its float64 view
    (dim, 2k), which spares scipy a complex copy of h per call."""
    if not np.iscomplexobj(v):
        return h @ v
    v = np.ascontiguousarray(v, dtype=np.complex128)
    out = h @ v.view(np.float64).reshape(v.shape[0], -1)
    return out.view(np.complex128).reshape(v.shape)


def _apply_mixed_array(ws: _Workspace, p: float, v: np.ndarray) -> np.ndarray:
    """out = [(1-p) H_0 + p H_dd] v for v of shape (dim,) or (dim, k)."""
    if p == 0.0:
        return _product(ws.h0, v)
    if p == 1.0:
        return _product(ws.hdd, v)
    out = _product(ws.h0, v)
    out *= 1.0 - p
    out += p * _product(ws.hdd, v)
    return out


def dense_hamiltonian(network: CouplingNetwork, p: float, indices: np.ndarray | None = None) -> np.ndarray:
    """Dense real-symmetric H(p), or its block H[indices, indices].

    The block is the Hamiltonian of a subspace only for subsets closed
    under all pair flips present in the coupling network (the
    popcount-parity sectors are).
    """
    ws = workspace_for(network)
    h = (1.0 - p) * ws.h0 + p * ws.hdd
    if indices is not None:
        h = h[indices][:, indices]
    return h.toarray()


def coherence_order_weights(rho: np.ndarray, basis: SpinBasis) -> np.ndarray:
    """Unnormalized squared-magnitude weight per coherence order.

    Returns an array w of length 2n+1 with w[n_spins + order]; the total
    equals Tr[rho rho†] = sum |rho_rc|^2.
    """
    n = basis.n_spins
    sectors = [basis.n_up == k for k in range(n + 1)]
    weights = np.zeros(2 * n + 1)
    for r_up, ri in enumerate(sectors):
        for c_up, ci in enumerate(sectors):
            block = rho[np.ix_(ri, ci)]
            weights[n + (r_up - c_up)] += float(np.sum(block.real**2 + block.imag**2))
    return weights
