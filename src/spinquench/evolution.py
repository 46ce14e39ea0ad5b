"""Time propagation under the quench generator H(p) = (1-p) H_0 + p H_dd.

Two modes:

  average   continuous evolution exp(-i H(p) t), the effective-Hamiltonian
            idealization of the pulse sequence;
  floquet   explicit alternation [exp(-i H_dd tau_dd) exp(-i H_0 tau_0)]^N,
            with p = tau_dd / (tau_0 + tau_dd) and t = N (tau_0 + tau_dd).

Propagator advances (dim,) or (dim, k) amplitude arrays, over the whole
basis or one popcount-parity block of it, with a Chebyshev expansion of
the exponential whose matvec reads the per-network sparse parity blocks
of H_0 and H_dd.  The expansion runs over an interval found by a few
Lanczos steps and padded, and its coefficients come from one FFT of
exp(-i x cos theta).

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

from .errors import CapacityError, NumericalError
from .network import CouplingNetwork
from .operators import SpinBasis, _apply_mixed_array, _mixed_rows, dense_hamiltonian, workspace_for

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
    on spectrum = (lo, hi), an interval that must hold every eigenvalue of H.
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
    expansion covers any span.  Outside the interval |T_k| grows
    exponentially, so an interval that misses an eigenvalue shows as a
    column whose norm moves by more than tol times its input norm, and
    raises NumericalError.  The sum is a polynomial in H, so the result
    lies in the Krylov space of v; the name stays because
    perfbench/tracing.py wraps this function by name.
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
    if coef.size > 1:
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
    moved = np.abs(np.linalg.norm(out, axis=0) - np.linalg.norm(v, axis=0))
    # written so that a NaN norm fails it too
    if not np.all(moved <= tol * np.linalg.norm(v, axis=0)):
        raise NumericalError(f"Chebyshev series diverged: a column norm moved by {np.max(moved):.3g}, "
                             f"more than tol = {tol:g} times its input norm; the interval "
                             f"{spectrum} misses the spectrum")
    return out


def _spectral_interval(ws, p: float, parity: int):
    """(lo, hi) holding the spectrum of H(p) on one parity block.

    k = min(20, d) Lanczos steps from a seeded random start; the extreme
    Ritz values lie inside the spectrum and converge to its edges first,
    from a random start with an error that is small with high probability
    (Kuczynski & Wozniakowski, SIAM J. Matrix Anal. Appl. 13, 1094, 1992).
    Each edge is moved out by 5% of their spread, several times the
    largest shortfall measured on the test and bench geometries (0.85%
    of the width).  The start is random, not the all-ones vector, which on a
    lattice stays in one symmetry sector.  The iteration stops at
    breakdown: the Krylov space is then invariant, and as the random start
    has a component in every eigenspace, its Ritz values are all the
    eigenvalues.
    """
    v = np.random.default_rng(parity).standard_normal(ws.basis.dimension >> 1)
    v /= np.linalg.norm(v)
    prev = np.zeros_like(v)
    alpha, beta = [], [0.0]
    for _ in range(min(20, v.size)):
        w = _apply_mixed_array(ws, p, v, parity)
        scale = np.linalg.norm(w)
        alpha.append(float(v @ w))
        w -= alpha[-1] * v + beta[-1] * prev
        b = float(np.linalg.norm(w))
        if b <= 1e-10 * scale:
            break
        beta.append(b)
        prev, v = v, w / b
    off = beta[1:len(alpha)]
    ritz = np.linalg.eigvalsh(np.diag(alpha) + np.diag(off, 1) + np.diag(off, -1))
    margin = 0.05 * (ritz[-1] - ritz[0])
    return float(ritz[0] - margin), float(ritz[-1] + margin)


class Propagator:
    """Binds (network, protocol) and a popcount-parity block; advances
    amplitude arrays across grid intervals.

    With parity q the arrays are (2^(n-1),) or (2^(n-1), k) and hold block
    q by rank; without, they span the whole basis.  The spectral interval
    of H(p) on each block the protocol uses is computed once (their hull
    for the whole basis).  Forward and backward steps are exact
    conjugates, so backward after forward over the same interval restores
    the input to solver tolerance.
    """

    def __init__(self, network: CouplingNetwork, protocol: QuenchProtocol, parity: int | None = None):
        self.network = network
        self.protocol = protocol
        self.parity = parity
        self._ws = workspace_for(network)
        ps = (protocol.p,) if protocol.mode == "average" else (0.0, 1.0)
        blocks = (0, 1) if parity is None else (parity,)
        self._spectrum = {}
        for p in ps:
            lo, hi = zip(*(_spectral_interval(self._ws, p, q) for q in blocks))
            self._spectrum[p] = (min(lo), max(hi))

    def _exp(self, amp: np.ndarray, p: float, duration: float) -> np.ndarray:
        # perfbench/tracing.py wraps this by name and unpacks its arguments
        return expm_multiply_krylov(
            lambda x: _apply_mixed_array(self._ws, p, x, self.parity), amp, duration,
            spectrum=self._spectrum[p], tol=self.protocol.tol,
        )

    def _interval(self, i: int) -> float:
        grid = self.protocol.time_grid
        return float(grid[i] - (grid[i - 1] if i > 0 else 0.0))

    def _advance(self, amp: np.ndarray, span: float, sign: int) -> np.ndarray:
        """Evolve over span grid units, a time or a cycle count, in legs of
        fixed H(p); sign -1 runs the legs backward in reverse order."""
        pr = self.protocol
        if pr.mode == "average":
            reps, legs = 1, ((pr.p, span),)
        else:
            reps, legs = int(round(span)), ((0.0, pr.tau_0), (1.0, pr.tau_dd))
        for _ in range(reps):
            for p, duration in legs[::sign]:
                amp = self._exp(amp, p, sign * duration)
        return amp

    def step_forward(self, amp: np.ndarray, i: int) -> np.ndarray:
        """Advance from grid point i-1 (or the origin for i=0) to point i."""
        return self._advance(amp, self._interval(i), 1)

    def step_backward(self, amp: np.ndarray, i: int) -> np.ndarray:
        """Undo step_forward(., i)."""
        return self._advance(amp, self._interval(i), -1)

    def span_forward(self, amp: np.ndarray, i: int) -> np.ndarray:
        """Advance from the origin all the way to grid point i in one call."""
        return self._advance(amp, float(self.protocol.time_grid[i]), 1)


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
        # H[R, F R] is added sparse, so the two d x d results are the only dense arrays;
        # F keeps the parity for even n, so both index sets are ranks in one block
        ws = workspace_for(network)
        flipped = self.states ^ ((1 << network.n_spins) - 1)
        rows = _mixed_rows(ws, p, int(ws.basis.parity[self.states[0]]), self.states >> 1)
        cross = rows[:, flipped >> 1].tocoo()
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
    d x d arrays of the one block alive at a time, d = 2^(n-2) for even n
    (two parity blocks of +- halves), 2^(n-1) for odd n (one block), plus
    48 MiB for BLAS buffers and freed arrays the allocator keeps (6-32 MiB
    at n = 10-14).
      average, even: 9 at a grid time = V+, V- and W 3, the complex phases
        2, Re X and Im X 2, weight temporaries 2; the set-up stays below
      average, odd: 8 = V and W 2, phases 2, X 2, temporaries 2
      floquet, even: 10 in the set-up's unitary(H0+) = exp(-i tau_dd H1+)
        2, H0+, H0- and H1- 3, V 1, V times the cosines or sines 1, their
        real product with V^T 1, the unitary 2; the - half's set-up and a
        cycle step (u+, u-^dag, X, u+ X, the new X) reach the same 10
      floquet, odd: 10 = u and u^dag 4, X 2, u X and the new X 4; the set-up stays below
    Raises CapacityError past MAX_DENSE_SPINS, before any allocation."""
    if n_spins > MAX_DENSE_SPINS:
        raise CapacityError(f"exact estimator capped at {MAX_DENSE_SPINS} spins, geometry has "
                            f"{n_spins}; use the typicality estimator")
    d = 1 << (n_spins - 2 + n_spins % 2)
    arrays = 10 if mode == "floquet" else (9, 8)[n_spins % 2]
    return 8 * d * d * arrays + 48 * 2**20


def _add_block_weights(network: CouplingNetwork, pr: QuenchProtocol, blk: _Block, w: np.ndarray):
    """Add the order weights of blk at grid point j into w[j], for every j.

    Average mode diagonalizes each half once, H+- = V+- E+- V+-^T, and
    forms X = V+ (Phi+ o W o Phi-^*) V-^T with W = V+^T diag(m) V- and
    Phi = exp(-i E t).  Floquet mode steps X <- u+ X u-^dag from diag(m)
    with the one-cycle unitaries u = exp(-i tau_dd H1) exp(-i tau_0 H0) of
    the two halves (u and u^dag for odd n).
    """
    if pr.mode == "average":
        # (E, V) of the left and right half, the same one for odd n
        eigs = [np.linalg.eigh(h) for h in blk.hamiltonians(network, pr.p)]
        (el, vl), (er, vr) = eigs[0], eigs[-1]
        wb = vl.T @ (blk.mz[:, None] * vr)
        for j, t in enumerate(pr.time_grid):
            ph = np.outer(np.exp(-1j * el * t), np.exp(1j * er * t))
            w[j] += blk.weights(vl @ (wb * ph.real) @ vr.T, vl @ (wb * ph.imag) @ vr.T)
        return

    def unitary(h, tau):
        # two real products: a complex @ real product would first cast v.T to complex
        e, v = np.linalg.eigh(h)
        u = np.empty(v.shape, np.complex128)
        u.real = (v * np.cos(e * tau)) @ v.T
        u.imag = (v * -np.sin(e * tau)) @ v.T
        return u

    h0s, h1s = blk.hamiltonians(network, 0.0), blk.hamiltonians(network, 1.0)
    # one half at a time, each Hamiltonian dropped once diagonalized
    us = [unitary(h1s.pop(0), pr.tau_dd) @ unitary(h0s.pop(0), pr.tau_0) for _ in range(len(h0s))]
    ul, ur_dag = us[0], us.pop().conj().T  # u- is dropped once its adjoint is formed
    x = np.diag(blk.mz).astype(np.complex128)
    done = 0
    for j, count in enumerate(pr.time_grid):
        for _ in range(int(round(count)) - done):
            x = ul @ x @ ur_dag
        done = int(round(count))
        w[j] += blk.weights(x.real, x.imag)


def evolve_density_exact(network: CouplingNetwork, protocol: QuenchProtocol):
    """Yield (time, w) at every grid point, w[n + order] = sum |rho_rc|^2 of rho(t).

    rho(0) = Iz.  H(p) keeps the two popcount-parity blocks apart and
    commutes with the global flip F, which maps Iz to -Iz.  For odd n, F
    swaps the parity blocks, so only the even one is evolved.  For even n,
    F splits each parity block into +- halves of dimension 2^(n-2) with
    Iz |+_s> = m_s |-_s>, so rho(t) = [[0, X], [X^dag, 0]] with
    X = U+ Iz U-^dag.  Each block is evolved over the whole grid before
    the next one starts, so one block's arrays are alive at a time; all
    the work is done before the first yield.  No 2^n x 2^n array is formed.
    """
    exact_peak_bytes(network.n_spins, protocol.mode)
    w = np.zeros((protocol.time_grid.size, 2 * network.n_spins + 1))
    for blk in _exact_blocks(workspace_for(network).basis):
        _add_block_weights(network, protocol, blk, w)
    for t, wt in zip(protocol.times, w):
        yield float(t), wt
