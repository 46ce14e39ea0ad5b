"""Independent dense references built from explicit Kronecker products.

Everything here is deliberately naive: single-spin operators are written
out as 2x2 matrices, pair Hamiltonians are sums of Kronecker products,
evolution goes through scipy.linalg.expm, and coherence orders are binned
with a Python loop over matrix elements.  Nothing is shared with the
package implementation except the coupling list, so agreement is a real
cross-check rather than a tautology.

Convention: basis index bit i is spin i, a set bit means up, so the
2x2 single-spin matrices are written in the (down, up) ordering and
spin i sits at Kronecker position n-1-i (rightmost factor is spin 0).
"""

import numpy as np
from scipy.linalg import expm

IZ = np.array([[-0.5, 0.0], [0.0, 0.5]], dtype=complex)
IP = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)  # raising: |up><down|
IM = IP.conj().T
IX = 0.5 * (IP + IM)
IY = (IP - IM) / 2j
ID = np.eye(2, dtype=complex)


def op_on(op2: np.ndarray, i: int, n: int) -> np.ndarray:
    """Embed a single-spin operator on spin i into the n-spin space."""
    return np.kron(np.eye(1 << (n - 1 - i)), np.kron(op2, np.eye(1 << i)))


def pair_op(a2: np.ndarray, i: int, b2: np.ndarray, j: int, n: int) -> np.ndarray:
    return op_on(a2, i, n) @ op_on(b2, j, n)


def h_dd_dense(network) -> np.ndarray:
    """Secular dipolar Hamiltonian: sum d_ij (2 Iz Iz - Ix Ix - Iy Iy)."""
    n = network.n_spins
    h = np.zeros((1 << n, 1 << n), dtype=complex)
    for i, j, d in network.pairs():
        h += d * (2.0 * pair_op(IZ, i, IZ, j, n)
                  - pair_op(IX, i, IX, j, n) - pair_op(IY, i, IY, j, n))
    return h


def h0_dense(network) -> np.ndarray:
    """Double-quantum Hamiltonian: -sum d_ij (Ix Ix - Iy Iy)."""
    n = network.n_spins
    h = np.zeros((1 << n, 1 << n), dtype=complex)
    for i, j, d in network.pairs():
        h -= d * (pair_op(IX, i, IX, j, n) - pair_op(IY, i, IY, j, n))
    return h


def h_mixed_dense(network, p: float) -> np.ndarray:
    return (1.0 - p) * h0_dense(network) + p * h_dd_dense(network)


def iz_total_dense(n: int) -> np.ndarray:
    return sum(op_on(IZ, i, n) for i in range(n))


def basis_vector(n: int, index: int) -> np.ndarray:
    """The product state with bit pattern index, as a complex 2^n vector."""
    v = np.zeros(1 << n, dtype=complex)
    v[index] = 1.0
    return v


def rotate_about_axis(positions: np.ndarray, axis: np.ndarray, angle: float) -> np.ndarray:
    """Positions rotated rigidly by angle about the unit vector axis,
    through the matrix exponential of the axis' cross-product generator."""
    k = np.asarray(axis, dtype=float)
    gen = np.array([[0.0, -k[2], k[1]], [k[2], 0.0, -k[0]], [-k[1], k[0], 0.0]])
    return positions @ expm(angle * gen).T


def evolve_state_dense(h: np.ndarray, v: np.ndarray, t: float) -> np.ndarray:
    return expm(-1j * t * h) @ v


def evolve_rho_dense(h: np.ndarray, rho: np.ndarray, t: float) -> np.ndarray:
    u = expm(-1j * t * h)
    return u @ rho @ u.conj().T


def floquet_cycle_dense(network, tau_0: float, tau_dd: float) -> np.ndarray:
    """One drive cycle: free double-quantum leg first, then the dipolar leg."""
    u0 = expm(-1j * tau_0 * h0_dense(network))
    udd = expm(-1j * tau_dd * h_dd_dense(network))
    return udd @ u0


def mqc_weights_dense(rho: np.ndarray, n: int) -> np.ndarray:
    """Normalized squared-magnitude weight per coherence order, loop version.

    Returns w of length 2n+1 with w[n + order], order = popcount(row) -
    popcount(col).
    """
    dim = 1 << n
    w = np.zeros(2 * n + 1)
    for r in range(dim):
        for c in range(dim):
            order = bin(r).count("1") - bin(c).count("1")
            w[n + order] += abs(rho[r, c]) ** 2
    total = w.sum()
    if total <= 0:
        raise ValueError("zero density matrix")
    return w / total
