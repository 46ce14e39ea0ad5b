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
popcount-parity sectors, so both matrices are stored only as their two
parity blocks of dimension 2^(n-1).  The typicality streams propagate on
one block at a time, and the exact path's flip-symmetric blocks are
row/column slices of them.
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
    """Per-network operators, built once: H_0 and H_dd on each popcount-parity block.

    Pair k with bits {i, j} links every basis state s to its partner
    s ^ (2^i + 2^j) with amplitude -d_ij/2.  The partner lies in the same
    M_z sector exactly when the two bits are anti-aligned (flip-flop, in
    H_dd); otherwise M_z moves by +-2 (flip-flip, in H_0).  H_dd also holds
    the zz diagonal.  A pair flip keeps the popcount parity, so H(p) is the
    direct sum of its two parity blocks, and only those are stored:
    h0[q] and hdd[q] act on block q, whose row r is the state of parity q
    among 2r and 2r + 1 (which always differ in parity), so state s has
    rank s >> 1.  Each block's pair is filled from its (dim/2, pairs + 1)
    partner layout, column 0 the diagonal and column k + 1 the partner of
    pair k; row-major selection of that layout gives the CSR rows
    directly, and each row is then sorted by column, which orders it as
    the states themselves.
    """

    __slots__ = ("basis", "h0", "hdd")

    def __init__(self, network: CouplingNetwork):
        basis = build_basis(network.n_spins)
        self.basis = basis
        pairs = list(network.pairs())
        masks = np.array([(1 << i) | (1 << j) for i, j, _ in pairs], dtype=np.int32)
        amp = np.array([0.0] + [-0.5 * d for _, _, d in pairs])
        self.h0, self.hdd = zip(*(self._parity_block(self.block_states(q), masks, amp)
                                  for q in (0, 1)))

    def block_states(self, parity: int) -> np.ndarray:
        """The states of parity block `parity`, in rank order."""
        return np.flatnonzero(self.basis.parity == parity)

    def _parity_block(self, states: np.ndarray, masks: np.ndarray, amp: np.ndarray):
        n_up = self.basis.n_up
        cols = np.empty((states.size, amp.size), dtype=np.int32)
        cols[:, 0] = states
        np.bitwise_xor(cols[:, :1], masks, out=cols[:, 1:])
        same_sector = n_up[cols] == n_up[states, None]
        cols >>= 1
        hdd = self._csr(cols, amp, same_sector)
        # s_i s_j = 1 - 2 [anti-aligned], so the zz diagonal is
        # sum_k d_k / 2 plus twice the flip-flop row sum
        rows = hdd.indptr[:-1]
        zz = 2.0 * np.add.reduceat(hdd.data, rows) - amp.sum()
        hdd.data[rows] = zz
        # every other partner is two M_z steps away: the flip-flip terms
        np.logical_not(same_sector, out=same_sector)
        h0 = self._csr(cols, amp, same_sector)
        # in place, once the diagonal is written; the matvec adds each row
        # in this order
        hdd.sort_indices()
        h0.sort_indices()
        return h0, hdd

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
    entry of the parity blocks of H_0 and H_dd (2^n (pairs + 1) in all),
    the basis (18 B per state) and four indptr of 2^(n-1) + 1.  A block's
    partner layout and mask (5 B per entry of that block) are freed before,
    and stay below, any estimator's peak."""
    dim = 1 << n_spins
    index = 4 if (dim >> 1) * (n_pairs + 1) < 2**31 else 8  # as _Workspace._csr
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


def _apply_mixed_array(ws: _Workspace, p: float, v: np.ndarray, parity: int | None = None) -> np.ndarray:
    """out = [(1-p) H_0 + p H_dd] v for v of shape (d,) or (d, k).  With
    parity q, v holds block q by rank (d = 2^(n-1)); without, v spans the
    whole basis (d = 2^n) and each block is gathered and scattered."""
    if parity is None:
        out = np.empty(v.shape, np.result_type(v.dtype, np.float64))
        for q in (0, 1):
            states = ws.block_states(q)
            out[states] = _apply_mixed_array(ws, p, v[states], q)
        return out
    h0, hdd = ws.h0[parity], ws.hdd[parity]
    if p == 0.0:
        return _product(h0, v)
    if p == 1.0:
        return _product(hdd, v)
    out = _product(h0, v)
    out *= 1.0 - p
    out += p * _product(hdd, v)
    return out


def _mixed_rows(ws: _Workspace, p: float, parity: int, ranks: np.ndarray):
    """Rows `ranks` of H(p) on one parity block, sparse.  H_0 and H_dd
    share no entry, so each entry is a single product; the rows are taken
    before they are mixed, so no temporary spans the whole block."""
    return (1.0 - p) * ws.h0[parity][ranks] + p * ws.hdd[parity][ranks]


def dense_hamiltonian(network: CouplingNetwork, p: float, indices: np.ndarray | None = None) -> np.ndarray:
    """Dense real-symmetric H(p), or its block H[indices, indices] for
    indices inside one popcount-parity block.

    The block is the Hamiltonian of a subspace only for subsets closed
    under all pair flips present in the coupling network (the
    popcount-parity blocks are).
    """
    ws = workspace_for(network)
    if indices is None:
        return _apply_mixed_array(ws, p, np.eye(ws.basis.dimension))
    parity = ws.basis.parity[indices]
    if np.any(parity != parity[0]):
        raise ValueError("indices must lie in one popcount-parity block")
    ranks = np.asarray(indices) >> 1
    return _mixed_rows(ws, p, int(parity[0]), ranks)[:, ranks].toarray()


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
