"""Time propagation under the quench generator H(p) = (1-p) H_0 + p H_dd.

Two modes:

  average   continuous evolution exp(-i H(p) t), the effective-Hamiltonian
            idealization of the pulse sequence;
  floquet   explicit alternation [exp(-i H_dd tau_dd) exp(-i H_0 tau_0)]^N,
            with p = tau_dd / (tau_0 + tau_dd) and t = N (tau_0 + tau_dd).

State vectors are advanced by Propagator, a short-iterative-Lanczos
exponential (full reorthogonalization, a-posteriori error estimate,
adaptive step halving) whose matvec reads the per-network sparse H_0 and
H_dd.  Densities up to 12 spins go through dense diagonalization of the
two popcount-parity blocks of the same matrices, which H(p) never mixes;
that block structure is what makes odd coherence orders vanish
identically on the exact path.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .errors import CapacityError, ConvergenceError
from .network import CouplingNetwork
from .operators import DensityMatrix, StateVector, _apply_mixed_array, dense_hamiltonian, workspace_for

MAX_DENSE_SPINS = 12
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


@dataclass
class _Block:
    idx: np.ndarray
    evals: np.ndarray
    evecs: np.ndarray


def _real_sandwich(left: np.ndarray, X: np.ndarray, right: np.ndarray) -> np.ndarray:
    """left @ X @ right for real side matrices and complex X, two real products each.

    The .real/.imag views are strided, which BLAS handles two orders of
    magnitude slower than contiguous input, hence the explicit copies.
    """
    xr = np.ascontiguousarray(X.real)
    xi = np.ascontiguousarray(X.imag)
    return (left @ xr @ right) + 1j * (left @ xi @ right)


def evolve_density_exact(network: CouplingNetwork, protocol: QuenchProtocol, rho0: DensityMatrix,
                         max_dense_spins: int = MAX_DENSE_SPINS):
    """Yield (time, DensityMatrix) at every grid point by dense spectral evolution.

    H(p) is block-diagonal in the two popcount-parity sectors, so each
    sector is diagonalized separately; the cross blocks of rho pick up
    only mixed phase factors.  Floquet mode composes the dense one-cycle
    unitary instead.
    """
    n = network.n_spins
    if n > max_dense_spins:
        raise CapacityError(f"dense density evolution is capped at {max_dense_spins} spins, got {n}")
    ws = workspace_for(network)
    basis = ws.basis
    if rho0.basis.n_spins != n:
        raise ValueError("rho0 basis does not match the network")
    even, odd = basis.parity_indices()
    sectors = [s for s in (even, odd) if s.size]
    pr = protocol

    if pr.mode == "average":
        blocks = []
        for idx in sectors:
            evals, evecs = np.linalg.eigh(dense_hamiltonian(network, pr.p, idx))
            blocks.append(_Block(idx, evals, evecs))
        # rho in each Hamiltonian eigenbasis, cross blocks included
        w_diag = []
        for blk in blocks:
            sub = rho0.entries[np.ix_(blk.idx, blk.idx)]
            w_diag.append(blk.evecs.T @ sub @ blk.evecs)
        w_cross = None
        if len(blocks) == 2:
            sub = rho0.entries[np.ix_(blocks[0].idx, blocks[1].idx)]
            if np.any(sub):
                w_cross = blocks[0].evecs.T @ sub @ blocks[1].evecs
        dim = basis.dimension
        for t in pr.time_grid:
            out = np.zeros((dim, dim), dtype=np.complex128)
            phases = [np.exp(-1j * blk.evals * t) for blk in blocks]
            for blk, ph, w in zip(blocks, phases, w_diag):
                x = (ph[:, None] * w) * ph.conj()[None, :]
                out[np.ix_(blk.idx, blk.idx)] = _real_sandwich(blk.evecs, x, blk.evecs.T)
            if w_cross is not None:
                x = (phases[0][:, None] * w_cross) * phases[1].conj()[None, :]
                cross = _real_sandwich(blocks[0].evecs, x, blocks[1].evecs.T)
                out[np.ix_(blocks[0].idx, blocks[1].idx)] = cross
                out[np.ix_(blocks[1].idx, blocks[0].idx)] = cross.conj().T
            yield float(t), DensityMatrix(basis, out)
    else:
        tau_c = pr.tau_0 + pr.tau_dd
        unitaries = []
        for idx in sectors:
            e0, v0 = np.linalg.eigh(dense_hamiltonian(network, 0.0, idx))
            e1, v1 = np.linalg.eigh(dense_hamiltonian(network, 1.0, idx))
            u0 = (v0 * np.exp(-1j * e0 * pr.tau_0)) @ v0.T
            u1 = (v1 * np.exp(-1j * e1 * pr.tau_dd)) @ v1.T
            unitaries.append(u1 @ u0)
        rho_blocks = [rho0.entries[np.ix_(i, i)].copy() for i in sectors]
        cross = rho0.entries[np.ix_(sectors[0], sectors[1])].copy() if len(sectors) == 2 else None
        done = 0
        dim = basis.dimension
        for count in pr.time_grid:
            steps = int(round(count)) - done
            for _ in range(steps):
                rho_blocks = [u @ r @ u.conj().T for u, r in zip(unitaries, rho_blocks)]
                if cross is not None:
                    cross = unitaries[0] @ cross @ unitaries[1].conj().T
            done = int(round(count))
            out = np.zeros((dim, dim), dtype=np.complex128)
            for idx, r in zip(sectors, rho_blocks):
                out[np.ix_(idx, idx)] = r
            if cross is not None:
                out[np.ix_(sectors[0], sectors[1])] = cross
                out[np.ix_(sectors[1], sectors[0])] = cross.conj().T
            yield float(count) * tau_c, DensityMatrix(basis, out)
