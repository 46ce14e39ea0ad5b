"""Time propagation under the quench generator H(p) = (1-p) H_0 + p H_dd.

Two modes:

  average   continuous evolution exp(-i H(p) t), the effective-Hamiltonian
            idealization of the pulse sequence;
  floquet   explicit alternation [exp(-i H_dd tau_dd) exp(-i H_0 tau_0)]^N,
            with p = tau_dd / (tau_0 + tau_dd) and t = N (tau_0 + tau_dd).

State vectors are advanced by Propagator, a short-iterative-Lanczos
exponential (full reorthogonalization, a-posteriori error estimate,
adaptive step halving) whose matvec reads the per-network sparse H_0 and
H_dd.

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
from scipy.linalg import eigh_tridiagonal

from .errors import CapacityError, ConvergenceError
from .network import CouplingNetwork
from .operators import SpinBasis, StateVector, _apply_mixed_array, dense_hamiltonian, workspace_for

MAX_DENSE_SPINS = 14
DEFAULT_KRYLOV_DIM = 30
DEFAULT_TOL = 1e-10


def default_time_grid(d_max: float, n_points: int = 40, span: tuple[float, float] = (0.1, 50.0)) -> np.ndarray:
    """Logarithmic grid over span/d_max; 1/d_max is the natural time unit."""
    if d_max <= 0:
        raise ValueError("d_max must be > 0 to set the time scale")
    lo, hi = span
    return np.geomspace(lo / d_max, hi / d_max, n_points)


@dataclass(frozen=True, eq=False)
class QuenchProtocol:
    """Evolution recipe: mode, perturbation strength, grid, solver knobs.

    In average mode time_grid holds sample times; in floquet mode it holds
    integer cycle counts and the physical time is count * (tau_0 + tau_dd).
    """

    mode: str
    p: float
    time_grid: np.ndarray
    tau_0: float = 0.0
    tau_dd: float = 0.0
    krylov_dim: int = DEFAULT_KRYLOV_DIM
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
        if self.krylov_dim < 2:
            raise ValueError("krylov_dim must be >= 2")
        if not 0 < self.tol < 1e-2:
            raise ValueError("tol must be in (0, 1e-2)")
        grid.flags.writeable = False
        object.__setattr__(self, "time_grid", grid)

    @classmethod
    def average(cls, p: float, time_grid, krylov_dim: int = DEFAULT_KRYLOV_DIM, tol: float = DEFAULT_TOL):
        return cls("average", p, np.asarray(time_grid, dtype=float), krylov_dim=krylov_dim, tol=tol)

    @classmethod
    def floquet(cls, p: float, tau_c: float, cycle_grid, krylov_dim: int = DEFAULT_KRYLOV_DIM, tol: float = DEFAULT_TOL):
        """Cycle built from p and the total cycle time tau_c = tau_0 + tau_dd."""
        tau_dd = p * tau_c
        tau_0 = tau_c - tau_dd
        return cls("floquet", p, np.asarray(cycle_grid, dtype=float), tau_0=tau_0, tau_dd=tau_dd,
                   krylov_dim=krylov_dim, tol=tol)

    @property
    def times(self) -> np.ndarray:
        """Physical sample times for either mode."""
        if self.mode == "average":
            return self.time_grid
        return self.time_grid * (self.tau_0 + self.tau_dd)

    def digest(self) -> str:
        payload = "|".join([
            self.mode, repr(self.p), repr(self.tau_0), repr(self.tau_dd),
            repr(self.krylov_dim), repr(self.tol),
            ",".join(repr(t) for t in self.time_grid),
        ])
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


def expm_multiply_krylov(matvec, v: np.ndarray, dt: float, *, tol: float = DEFAULT_TOL,
                         krylov_dim: int = DEFAULT_KRYLOV_DIM, max_depth: int = 40) -> np.ndarray:
    """exp(-1j dt H) v for Hermitian H given as a matvec callable.

    Lanczos with full reorthogonalization; a step is accepted when the
    residual estimate beta_{m+1} |y_m| clears tol with a safety factor,
    otherwise dt is halved recursively.  Signed dt gives the conjugate
    (backward) evolution.
    """
    v = np.asarray(v, dtype=np.complex128)
    if dt == 0.0:
        return v.copy()
    norm_v = np.linalg.norm(v)
    if norm_v == 0.0:
        return v.copy()
    dim = v.shape[0]
    m_max = min(krylov_dim, dim)
    # rough spectral scale from one Rayleigh quotient; only steers the
    # initial chunking, correctness rests on the residual test below
    h_scale = np.linalg.norm(matvec(v / norm_v))
    n_chunks = max(1, int(np.ceil(abs(dt) * h_scale / max(1.0, 0.5 * m_max))))

    def step(u: np.ndarray, h: float, depth: int) -> np.ndarray:
        nu = np.linalg.norm(u)
        V = np.empty((m_max + 1, dim), dtype=np.complex128)
        V[0] = u / nu
        alpha = np.empty(m_max)
        beta = np.empty(m_max)
        m_eff = m_max
        beta_next = 0.0
        for j in range(m_max):
            w = matvec(V[j])
            alpha[j] = np.vdot(V[j], w).real
            w -= alpha[j] * V[j]
            if j > 0:
                w -= beta[j - 1] * V[j - 1]
            # full reorthogonalization keeps the basis usable at tol ~ 1e-10;
            # conj(V w*) = V* w without a conjugated copy of the basis
            w -= V[: j + 1].T @ (V[: j + 1] @ w.conj()).conj()
            b = np.linalg.norm(w)
            if b <= 1e-14 * max(1.0, abs(alpha[: j + 1]).max()):
                m_eff = j + 1
                beta_next = 0.0
                break
            beta[j] = b
            beta_next = b
            if j + 1 < m_max:
                V[j + 1] = w / b
        else:
            m_eff = m_max
        evals, evecs = eigh_tridiagonal(alpha[:m_eff], beta[: m_eff - 1])
        y = evecs @ (np.exp(-1j * h * evals) * evecs[0, :])
        err = beta_next * abs(y[-1])
        if err <= 0.1 * tol or m_eff < m_max:
            return nu * (y @ V[:m_eff])
        if depth >= max_depth:
            raise ConvergenceError(
                f"Krylov exponential did not reach tol={tol:g} after {max_depth} halvings "
                f"(dim {m_eff}, last residual estimate {err:.3e}, dt {h:g})"
            )
        half = step(u, 0.5 * h, depth + 1)
        return step(half, 0.5 * h, depth + 1)

    out = v
    sub = float(dt) / n_chunks
    for _ in range(n_chunks):
        out = step(out, sub, 0)
    return out


class Propagator:
    """Binds (network, protocol); advances states across grid intervals.

    Forward and backward steps are exact conjugates, so backward after
    forward over the same interval restores the input to solver tolerance.
    """

    def __init__(self, network: CouplingNetwork, protocol: QuenchProtocol):
        self.network = network
        self.protocol = protocol
        self._ws = workspace_for(network)

    def _exp(self, amp: np.ndarray, p: float, duration: float) -> np.ndarray:
        return expm_multiply_krylov(
            lambda x: _apply_mixed_array(self._ws, p, x), amp, duration,
            tol=self.protocol.tol, krylov_dim=self.protocol.krylov_dim,
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

    def step_forward(self, v: StateVector, i: int) -> StateVector:
        """Advance from grid point i-1 (or the origin for i=0) to point i."""
        pr = self.protocol
        if pr.mode == "average":
            amp = self._exp(v.amplitudes, pr.p, self._interval(i))
        else:
            amp = self._cycles(v.amplitudes, int(round(self._interval(i))), backward=False)
        return StateVector(v.basis, amp)

    def step_backward(self, v: StateVector, i: int) -> StateVector:
        pr = self.protocol
        if pr.mode == "average":
            amp = self._exp(v.amplitudes, pr.p, -self._interval(i))
        else:
            amp = self._cycles(v.amplitudes, int(round(self._interval(i))), backward=True)
        return StateVector(v.basis, amp)

    def span_forward(self, v: StateVector, i: int) -> StateVector:
        """Advance from the origin all the way to grid point i in one call."""
        pr = self.protocol
        if pr.mode == "average":
            amp = self._exp(v.amplitudes, pr.p, float(pr.time_grid[i]))
        else:
            amp = self._cycles(v.amplitudes, int(round(pr.time_grid[i])), backward=False)
        return StateVector(v.basis, amp)




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
        if not self.flip:
            return [dense_hamiltonian(network, p, self.states)]
        d = self.states.size
        flipped = self.states ^ ((1 << network.n_spins) - 1)
        h = dense_hamiltonian(network, p, np.concatenate([self.states, flipped]))
        return [h[:d, :d] + h[:d, d:], h[:d, :d] - h[:d, d:]]

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
    if n > MAX_DENSE_SPINS:
        raise CapacityError(f"exact density evolution is capped at {MAX_DENSE_SPINS} spins, got {n}; "
                            "use the typicality estimator")
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
        def unitaries(blk, p, tau):
            out = []
            for h in blk.hamiltonians(network, p):
                e, v = np.linalg.eigh(h)
                out.append((v * np.exp(-1j * e * tau)) @ v.T)
            return out

        cycles = []
        for blk in blocks:
            us = [u1 @ u0 for u0, u1 in zip(unitaries(blk, 0.0, pr.tau_0),
                                            unitaries(blk, 1.0, pr.tau_dd))]
            cycles.append((blk, us[0], us[-1].conj().T))
        xs = [np.diag(blk.mz).astype(np.complex128) for blk in blocks]
        done = 0
        for count in pr.time_grid:
            for _ in range(int(round(count)) - done):
                xs = [ul @ x @ ur_dag for (_, ul, ur_dag), x in zip(cycles, xs)]
            done = int(round(count))
            w = np.zeros(2 * n + 1)
            for (blk, _, _), x in zip(cycles, xs):
                w += blk.weights(x.real, x.imag)
            yield float(count) * (pr.tau_0 + pr.tau_dd), w
