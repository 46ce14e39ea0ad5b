"""Time propagation under the quench generator H(p) = (1-p) H_0 + p H_dd.

Two modes:

  average   continuous evolution exp(-i H(p) t), the effective-Hamiltonian
            idealization of the pulse sequence;
  floquet   explicit alternation [exp(-i H_dd tau_dd) exp(-i H_0 tau_0)]^N,
            with p = tau_dd / (tau_0 + tau_dd) and t = N (tau_0 + tau_dd).

Propagator advances (dim,) or (dim, k) amplitude arrays with a Chebyshev
expansion of the exponential over a Gershgorin interval of H(p), whose
matvec reads the per-network sparse H_0 and H_dd.  The expansion
coefficients come from one FFT of exp(-i x cos theta).

The exact path, evolve_density_exact, starts from rho(0) = Iz and yields
the coherence-order weights of rho(t) at each grid time, never rho(t)
itself.  It works on the blocks that H(p) and the global spin flip F
leave invariant: the two popcount-parity blocks, which H(p) never mixes
(so odd orders vanish identically), and for even n their flip-even and
flip-odd halves of dimension 2^(n-2).  For odd n, F swaps the parity
blocks and only the even one is evolved.  Each block is diagonalized
densely, which caps the path at 14 spins (four blocks of 4096).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .errors import CapacityError
from .network import CouplingNetwork
from .operators import SpinBasis, _apply_mixed_array, dense_hamiltonian, workspace_for

MAX_DENSE_SPINS = 14
DEFAULT_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class QuenchProtocol:
    """Evolution recipe: mode, perturbation strength, grid, solver tolerance.

    In average mode time_grid holds sample times; in floquet mode it holds
    integer cycle counts and the physical time is count * (tau_0 + tau_dd).
    """

    mode: str
    p: float
    time_grid: np.ndarray
    tau_0: float = 0.0
    tau_dd: float = 0.0
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        if self.mode not in ("average", "floquet"):
            raise ValueError(f"mode must be 'average' or 'floquet', got {self.mode!r}")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"p must be in [0, 1], got {self.p}")
        grid = np.asarray(self.time_grid, dtype=np.float64)
        if grid.ndim != 1 or grid.size == 0:
            raise ValueError("time_grid must be a non-empty 1D sequence")
        if not np.all(np.isfinite(grid)):
            raise ValueError("time_grid must be finite")
        if grid[0] < 0 or (grid.size > 1 and np.any(np.diff(grid) <= 0)):
            raise ValueError("time_grid must be strictly increasing and non-negative")
        if self.mode == "floquet":
            if self.tau_0 < 0 or self.tau_dd < 0 or self.tau_0 + self.tau_dd <= 0:
                raise ValueError("floquet mode needs tau_0, tau_dd >= 0 with tau_0 + tau_dd > 0")
            if abs(self.p - self.tau_dd / (self.tau_0 + self.tau_dd)) >= 1e-12:
                raise ValueError("p must equal tau_dd / (tau_0 + tau_dd) to 1e-12")
            if np.any(grid != np.round(grid)):
                raise ValueError("floquet time_grid holds integer cycle counts")
        if not 0 < self.tol < 1e-2:
            raise ValueError("tol must be in (0, 1e-2)")
        grid.flags.writeable = False
        object.__setattr__(self, "time_grid", grid)

    @classmethod
    def average(cls, p: float, time_grid, tol: float = DEFAULT_TOL):
        return cls("average", p, np.asarray(time_grid, dtype=float), tol=tol)

    @classmethod
    def floquet(cls, p: float, tau_c: float, cycle_grid, tol: float = DEFAULT_TOL):
        """Cycle built from p and the total cycle time tau_c = tau_0 + tau_dd."""
        tau_dd = p * tau_c
        tau_0 = tau_c - tau_dd
        return cls("floquet", p, np.asarray(cycle_grid, dtype=float), tau_0=tau_0, tau_dd=tau_dd,
                   tol=tol)

    @property
    def times(self) -> np.ndarray:
        """Physical sample times for either mode."""
        if self.mode == "average":
            return self.time_grid
        return self.time_grid * (self.tau_0 + self.tau_dd)

    def digest(self) -> str:
        payload = "|".join([
            self.mode, repr(self.p), repr(self.tau_0), repr(self.tau_dd), repr(self.tol),
            ",".join(repr(t) for t in self.time_grid),
        ])
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


def expm_multiply_krylov(matvec, v: np.ndarray, dt: float, *, spectrum: tuple[float, float],
                         tol: float = DEFAULT_TOL) -> np.ndarray:
    """exp(-1j dt H) v for Hermitian H given as a matvec, v of shape (dim,) or (dim, k).

    Chebyshev expansion (Tal-Ezer & Kosloff, J. Chem. Phys. 81, 3967, 1984)
    on spectrum = (lo, hi), an interval that holds every eigenvalue of H.
    With H = c + r X, c and r the interval's center and half width,
    exp(-i dt H) = exp(-i c dt) sum_k (2 - delta_k0) (-i)^k J_k(r dt) T_k(X),
    and T_k(X) v follows the recurrence T_k+1 = 2 X T_k - T_k-1.  By the
    Jacobi-Anger expansion (-i)^k J_k(x) is the k-th Fourier coefficient of
    exp(-i x cos theta), so an FFT of 2 n samples gives the first n of them,
    aliased only by orders >= n, where J_k(x) < 1e-16.  The sum
    is cut where the dropped |coefficients| add up to less than tol / 100;
    as ||T_k(X)|| <= 1, each column is then off by less than tol / 100
    times its norm, whatever dt, so a hundred chained calls (grid steps,
    Floquet legs) stay within tol.  A negative dt runs backward, and one
    expansion covers any span.  The sum is a polynomial in H, so the result lies in
    the Krylov space of v; the name stays because perfbench/tracing.py
    wraps this function by name.
    """
    v = np.asarray(v, dtype=np.complex128)
    lo, hi = spectrum
    c, r = 0.5 * (hi + lo), 0.5 * (hi - lo)
    x = r * dt
    # J_k(x) is below 1e-16 well before k = |x| + 10 |x|^(1/3) + 20
    n = int(abs(x) + 10.0 * abs(x) ** (1.0 / 3.0) + 20)
    coef = np.fft.fft(np.exp(-1j * x * np.cos(np.pi * np.arange(2 * n) / n)))[:n] / (2 * n)
    coef[1:] *= 2.0
    tail = np.cumsum(np.abs(coef[::-1]))[::-1]
    coef = coef[: max(1, np.count_nonzero(tail >= 0.01 * tol))] * np.exp(-1j * c * dt)
    out = coef[0] * v
    if coef.size == 1:
        return out
    prev = v
    cur = matvec(v)
    cur -= c * v
    cur /= r
    out += coef[1] * cur
    for a in coef[2:]:
        nxt = matvec(cur)
        nxt -= c * cur
        nxt *= 2.0 / r
        nxt -= prev
        out += a * nxt
        prev, cur = cur, nxt
    return out


def _spectral_interval(ws, p: float) -> tuple[float, float]:
    """Union of the Gershgorin discs of H(p): (lo, hi) holds its spectrum.

    H_0 and H_dd share no off-diagonal entry (a pair partner lies either in
    the same M_z sector or two sectors away), so the radius of row s is
    (1-p) times its H_0 row sum plus p times its off-diagonal H_dd row sum.
    The row sums of |H| reuse the stored indices and indptr.
    """
    def abs_row_sums(h):
        return sparse.csr_array((np.abs(h.data), h.indices, h.indptr), shape=h.shape).sum(axis=1)

    zz = ws.hdd.diagonal()
    radius = (1.0 - p) * abs_row_sums(ws.h0) + p * (abs_row_sums(ws.hdd) - np.abs(zz))
    return float(np.min(p * zz - radius)), float(np.max(p * zz + radius))


class Propagator:
    """Binds (network, protocol); advances (dim,) or (dim, k) amplitude
    arrays across grid intervals.

    The spectral interval of each H(p) the protocol uses is computed once.
    Forward and backward steps are exact conjugates, so backward after
    forward over the same interval restores the input to solver tolerance.
    """

    def __init__(self, network: CouplingNetwork, protocol: QuenchProtocol):
        self.network = network
        self.protocol = protocol
        self._ws = workspace_for(network)
        ps = (protocol.p,) if protocol.mode == "average" else (0.0, 1.0)
        self._spectrum = {p: _spectral_interval(self._ws, p) for p in ps}

    def _exp(self, amp: np.ndarray, p: float, duration: float) -> np.ndarray:
        # perfbench/tracing.py wraps this by name and unpacks its arguments
        return expm_multiply_krylov(
            lambda x: _apply_mixed_array(self._ws, p, x), amp, duration,
            spectrum=self._spectrum[p], tol=self.protocol.tol,
        )

    def _cycles(self, amp: np.ndarray, count: int, backward: bool) -> np.ndarray:
        pr = self.protocol
        for _ in range(count):
            if backward:
                amp = self._exp(amp, 1.0, -pr.tau_dd)
                amp = self._exp(amp, 0.0, -pr.tau_0)
            else:
                amp = self._exp(amp, 0.0, pr.tau_0)
                amp = self._exp(amp, 1.0, pr.tau_dd)
        return amp

    def _interval(self, i: int) -> float:
        grid = self.protocol.time_grid
        return float(grid[i] - (grid[i - 1] if i > 0 else 0.0))

    def step_forward(self, amp: np.ndarray, i: int) -> np.ndarray:
        """Advance from grid point i-1 (or the origin for i=0) to point i."""
        pr = self.protocol
        if pr.mode == "average":
            return self._exp(amp, pr.p, self._interval(i))
        return self._cycles(amp, int(round(self._interval(i))), backward=False)

    def step_backward(self, amp: np.ndarray, i: int) -> np.ndarray:
        """Undo step_forward(., i)."""
        pr = self.protocol
        if pr.mode == "average":
            return self._exp(amp, pr.p, -self._interval(i))
        return self._cycles(amp, int(round(self._interval(i))), backward=True)

    def span_forward(self, amp: np.ndarray, i: int) -> np.ndarray:
        """Advance from the origin all the way to grid point i in one call."""
        pr = self.protocol
        if pr.mode == "average":
            return self._exp(amp, pr.p, float(pr.time_grid[i]))
        return self._cycles(amp, int(round(pr.time_grid[i])), backward=False)


class _Block:
    """One block of the exact path, with its coherence-order bookkeeping.

    Even n: one popcount-parity block, one representative s per flip pair
    {s, F s} (the one with the top spin down).  H(p) restricted to
    |+-_s> = (|s> +- |F s>)/sqrt(2) is H+- = H[R, R] +- H[R, F R].
    Odd n: the even-parity block itself, with the one Hamiltonian H[R, R].
    States are sorted by n_up, so each M_z sector is one run of rows.
    """

    def __init__(self, basis: SpinBasis, states: np.ndarray, flip: bool):
        up = basis.n_up[states].astype(np.intp)
        order = np.argsort(up, kind="stable")
        self.states = states[order]
        self.flip = flip
        self.mz = basis.mz_of[self.states]
        up = up[order]
        self.cuts = np.flatnonzero(np.r_[True, up[1:] != up[:-1]])
        u = up[self.cuts]
        n = basis.n_spins
        self.n_weights = 2 * n + 1
        # weight index n + order: rho[s, s'] has order u - u', rho[s, F s'] u + u' - n
        self.same = (n + u[:, None] - u).ravel()
        self.cross = (u[:, None] + u).ravel()

    def hamiltonians(self, network: CouplingNetwork, p: float) -> list[np.ndarray]:
        h = dense_hamiltonian(network, p, self.states)
        if not self.flip:
            return [h]
        # H[R, F R] is added sparse, so the two d x d results are the only dense arrays
        ws = workspace_for(network)
        flipped = self.states ^ ((1 << network.n_spins) - 1)
        cross = ((1.0 - p) * ws.h0[self.states] + p * ws.hdd[self.states])[:, flipped].tocoo()
        minus = h.copy()
        h[cross.row, cross.col] += cross.data
        minus[cross.row, cross.col] -= cross.data
        return [h, minus]

    def _sector_sums(self, sq: np.ndarray) -> np.ndarray:
        return np.add.reduceat(np.add.reduceat(sq, self.cuts, axis=0), self.cuts, axis=1).ravel()

    def weights(self, xr: np.ndarray, xi: np.ndarray) -> np.ndarray:
        """Order weights sum |rho_rc|^2 of this block and its flip image.

        Odd n: X = xr + i xi is the even-parity block of rho; the odd one
        is -F rho F, so its weights are these reversed.  Even n: X is
        <+|rho|->, the only nonzero block in the +- basis, and
        rho[s, s'] = (X + X^dag)/2, rho[s, F s'] = (X^dag - X)/2,
        rho[F s, F s'] = -rho[s, s'], rho[F s, s'] = -rho[s, F s'].
        """
        k = self.n_weights
        if not self.flip:
            w = np.bincount(self.same, self._sector_sums(xr * xr + xi * xi), k)
        else:
            same = self._sector_sums((xr + xr.T) ** 2 + (xi - xi.T) ** 2)
            cross = self._sector_sums((xr - xr.T) ** 2 + (xi + xi.T) ** 2)
            w = 0.25 * (np.bincount(self.same, same, k) + np.bincount(self.cross, cross, k))
        return w + w[::-1]


def _exact_blocks(basis: SpinBasis) -> list[_Block]:
    n = basis.n_spins
    if n % 2:
        return [_Block(basis, basis.states[basis.parity == 0], False)]
    low = basis.states < (1 << (n - 1))
    return [_Block(basis, basis.states[(basis.parity == par) & low], True) for par in (0, 1)]


def exact_peak_bytes(n_spins: int, mode: str) -> int:
    """Peak bytes evolve_density_exact allocates beyond the workspace: real
    d x d arrays alive at once, d = 2^(n-2) for even n (two parity blocks
    of +- halves), 2^(n-1) for odd n (one block), plus 48 MiB for BLAS
    buffers and freed arrays the allocator keeps (6-32 MiB at n = 10-14).
      average, even: 12 at a grid time = V+, V-, W of both blocks 6, the
        complex phases 2, Re X and Im X 2, weight temporaries 2; the
        second block's set-up stays below, 10 = the first block's V+, V-,
        W 3, H+ and H- 2, V+ 1, eigh's copy, work and output 4
      average, odd: 8 = V and W 2, phases 2, X 2, temporaries 2
      floquet, even: 16 = both blocks' u+ and u-^dag 8, their X 4, and in
        a cycle step the product u+ X and the new X 4 (weight temporaries
        and the second block's set-up, one half at a time, stay at or below)
      floquet, odd: 10 = u and u^dag 4, X 2, u X and the new X 4
    Raises CapacityError past MAX_DENSE_SPINS, before any allocation."""
    if n_spins > MAX_DENSE_SPINS:
        raise CapacityError(f"exact estimator capped at {MAX_DENSE_SPINS} spins, geometry has "
                            f"{n_spins}; use the typicality estimator")
    d = 1 << (n_spins - 2 + n_spins % 2)
    arrays = ((16, 10) if mode == "floquet" else (12, 8))[n_spins % 2]
    return 8 * d * d * arrays + 48 * 2**20


def evolve_density_exact(network: CouplingNetwork, protocol: QuenchProtocol):
    """Yield (time, w) at every grid point, w[n + order] = sum |rho_rc|^2 of rho(t).

    rho(0) = Iz.  H(p) keeps the two popcount-parity blocks apart and
    commutes with the global flip F, which maps Iz to -Iz.  For odd n, F
    swaps the parity blocks, so only the even one is evolved.  For even n,
    F splits each parity block into +- halves of dimension 2^(n-2) with
    Iz |+_s> = m_s |-_s>, so rho(t) = [[0, X], [X^dag, 0]] with
    X = U+ Iz U-^dag.  Average mode diagonalizes each half once,
    H+- = V+- E+- V+-^T, and forms X = V+ (Phi+ o W o Phi-^*) V-^T with
    W = V+^T diag(m) V- and Phi = exp(-i E t).  Floquet mode steps
    X <- u+ X u-^dag with the one-cycle unitaries u of each half.
    No 2^n x 2^n array is formed.
    """
    n = network.n_spins
    exact_peak_bytes(n, protocol.mode)
    blocks = _exact_blocks(workspace_for(network).basis)
    pr = protocol

    if pr.mode == "average":
        # per block: (E, V) of the left and right half (the same one for odd n), W
        setups = []
        for blk in blocks:
            eigs = [np.linalg.eigh(h) for h in blk.hamiltonians(network, pr.p)]
            (_, vl), (_, vr) = eigs[0], eigs[-1]
            setups.append((blk, eigs[0], eigs[-1], vl.T @ (blk.mz[:, None] * vr)))
        for t in pr.time_grid:
            w = np.zeros(2 * n + 1)
            for blk, (el, vl), (er, vr), wb in setups:
                ph = np.outer(np.exp(-1j * el * t), np.exp(1j * er * t))
                w += blk.weights(vl @ (wb * ph.real) @ vr.T, vl @ (wb * ph.imag) @ vr.T)
            yield float(t), w
    else:
        def unitary(h, tau):
            e, v = np.linalg.eigh(h)
            return (v * np.exp(-1j * e * tau)) @ v.T

        def cycle(blk):
            """(u+, u-^dag) of the one-cycle unitaries u = exp(-i tau_dd H1)
            exp(-i tau_0 H0) of the two halves, or (u, u^dag) for odd n.

            One half at a time, each Hamiltonian dropped once diagonalized,
            so the set-up stays within the cycle loop's peak."""
            h0s, h1s = blk.hamiltonians(network, 0.0), blk.hamiltonians(network, 1.0)
            us = []
            while h0s:
                us.append(unitary(h1s.pop(0), pr.tau_dd) @ unitary(h0s.pop(0), pr.tau_0))
            return us[0], us[-1].conj().T

        cycles = [(blk, *cycle(blk)) for blk in blocks]
        xs = [np.diag(blk.mz).astype(np.complex128) for blk in blocks]
        done = 0
        for count in pr.time_grid:
            for _ in range(int(round(count)) - done):
                # one block at a time, so only one old X outlives its update
                for i, (_, ul, ur_dag) in enumerate(cycles):
                    xs[i] = ul @ xs[i] @ ur_dag
            done = int(round(count))
            w = np.zeros(2 * n + 1)
            for i, (blk, _, _) in enumerate(cycles):
                w += blk.weights(xs[i].real, xs[i].imag)
            yield float(count) * (pr.tau_0 + pr.tau_dd), w
