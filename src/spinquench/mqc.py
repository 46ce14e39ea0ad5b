"""Coherence-order spectra and the cluster sizes extracted from them.

Two estimators produce the spectrum A(n) at each time:

  exact        dense density evolution followed by direct squared-magnitude
               bookkeeping per coherence order (up to 12 spins);
  typicality   random-vector trace estimation of the phase response
               S(phi) = Tr[rho(t) e^{i phi Iz} rho(t) e^{-i phi Iz}],
               whose Fourier coefficients are exactly the A(n); error
               shrinks with both the number of seeds and 2^n.

The cluster size is K = sigma^2 with sigma the half width at which the
even-order envelope, log-linearly interpolated on the discrete order
grid, falls to a(0)/e; a least-squares Gaussian fit is available as an
alternative estimator and as the fallback when no unique crossing from
order 0 exists.  The half width reads the core of the envelope, so at
early times on small lattices it follows the coherent order 0 <-> +-2
oscillation of strongly coupled pairs (a(0) ~ cos^2(d t)) and is not
monotone there.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityError, EstimatorWarning, NumericalError
from .evolution import MAX_DENSE_SPINS, Propagator, QuenchProtocol, evolve_density_exact
from .network import CouplingNetwork
from .operators import (DensityMatrix, StateVector, coherence_order_decompose, gaussian_state,
                        workspace_for)

#: weights below this are fp dust on the exact path and do not count
#: toward the envelope (keeps K(t=0) pinned at 1)
EXACT_NOISE_FLOOR = 1e-12


@dataclass(eq=False)
class MqcSpectrum:
    """Normalized coherence-order distribution at one time point."""

    orders: np.ndarray
    weights: np.ndarray
    time: float
    p: float
    estimator: str
    n_samples: int = 0
    std_err: np.ndarray | None = None

    def __post_init__(self):
        orders = np.asarray(self.orders, dtype=int)
        weights = np.asarray(self.weights, dtype=float)
        n = orders.max() if orders.size else 0
        if not np.array_equal(orders, np.arange(-n, n + 1)):
            raise ValueError("orders must run contiguously from -n to n")
        if weights.shape != orders.shape:
            raise ValueError("weights and orders must have matching shapes")
        if np.any(weights < 0) or not np.all(np.isfinite(weights)):
            raise ValueError("weights must be finite and non-negative")
        if abs(weights.sum() - 1.0) > 1e-9:
            raise ValueError(f"weights must sum to 1, got {weights.sum()!r}")
        if self.estimator not in ("exact", "typicality"):
            raise ValueError(f"unknown estimator {self.estimator!r}")
        if self.std_err is not None:
            se = np.asarray(self.std_err, dtype=float)
            if se.shape != orders.shape or np.any(se < 0):
                raise ValueError("std_err must be non-negative and match orders")
            self.std_err = se
        self.orders = orders
        self.weights = weights

    @property
    def n_spins(self) -> int:
        return int(self.orders.max())

    def weight(self, order: int) -> float:
        return float(self.weights[self.n_spins + order])

    def even_envelope(self):
        """(k, a_k, floor_k) for even k >= 0, weights symmetrized over +-k.

        floor_k is the per-order noise floor: twice the standard error for
        typicality spectra, a fixed fp-dust threshold for exact ones.
        """
        n = self.n_spins
        ks = np.arange(0, n + 1, 2)
        w = self.weights
        a = np.array([w[n] if k == 0 else 0.5 * (w[n + k] + w[n - k]) for k in ks])
        if self.std_err is not None:
            se = self.std_err
            floor = np.array([2.0 * (se[n] if k == 0 else 0.5 * (se[n + k] + se[n - k])) for k in ks])
        else:
            floor = np.full(ks.shape, EXACT_NOISE_FLOOR)
        return ks, a, floor


@dataclass(eq=False)
class ClusterTrajectory:
    """K(t) for one perturbation strength, with run metadata."""

    p: float
    times: np.ndarray
    K: np.ndarray
    spectra: list | None = None
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        k = np.asarray(self.K, dtype=float)
        if t.shape != k.shape or t.ndim != 1:
            raise ValueError("times and K must be matching 1D arrays")
        if np.any(k < 1.0 - 1e-9):
            raise ValueError("cluster sizes must be >= 1")
        n_spins = self.metadata.get("n_spins")
        if n_spins is not None and np.any(k > n_spins + 1e-9):
            raise ValueError(f"cluster sizes must not exceed n_spins={n_spins}")
        if self.spectra is not None and len(self.spectra) != t.size:
            raise ValueError("one spectrum per time point expected")
        self.times = t
        self.K = k


@dataclass(frozen=True)
class PhaseEncodingPlan:
    """Phase grid and random-state seeds for the typicality estimator."""

    n_phases: int
    phases: tuple
    seeds: tuple

    def __post_init__(self):
        if self.n_phases < 2 or self.n_phases & (self.n_phases - 1):
            raise ValueError("n_phases must be a power of two >= 2")
        want = tuple(2.0 * math.pi * k / self.n_phases for k in range(self.n_phases))
        if len(self.phases) != self.n_phases or any(abs(a - b) > 1e-12 for a, b in zip(self.phases, want)):
            raise ValueError("phases must be the uniform grid 2 pi k / n_phases")
        if not self.seeds or len(set(self.seeds)) != len(self.seeds):
            raise ValueError("seeds must be non-empty and distinct")


def plan_phases(n_spins: int, n_samples: int = 8, base_seed: int = 0,
                max_order: int | None = None) -> PhaseEncodingPlan:
    """Smallest power-of-two phase grid resolving every order up to max_order."""
    if max_order is None:
        max_order = n_spins
    n_phases = 1 << max(1, math.ceil(math.log2(2 * max_order + 2)))
    phases = tuple(2.0 * math.pi * k / n_phases for k in range(n_phases))
    seeds = tuple(base_seed + k for k in range(n_samples))
    return PhaseEncodingPlan(n_phases, phases, seeds)


@dataclass(frozen=True)
class EstimatorConfig:
    """How spectra and K are produced along a trajectory."""

    kind: str = "exact"
    n_samples: int = 8
    base_seed: int = 0
    k_method: str = "halfwidth"
    keep_spectra: bool = False

    def __post_init__(self):
        if self.kind not in ("exact", "typicality"):
            raise ValueError(f"estimator kind must be 'exact' or 'typicality', got {self.kind!r}")
        if self.k_method not in ("halfwidth", "gaussian"):
            raise ValueError(f"k_method must be 'halfwidth' or 'gaussian', got {self.k_method!r}")
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")


def mqc_exact(rho_t: DensityMatrix, *, time: float = 0.0, p: float = 0.0) -> MqcSpectrum:
    """Spectrum of an explicitly evolved density matrix."""
    return coherence_order_decompose(rho_t, time=time, p=p)


def mqc_typicality_grid(network: CouplingNetwork, protocol: QuenchProtocol,
                        plan: PhaseEncodingPlan) -> list[MqcSpectrum]:
    """Typicality spectra at every grid time.

    Per seed r, the phase response at time t is estimated as
    S(phi) = <u, w> with u = U (Iz U'r) and w = e^{i phi Iz} U (Iz U'(e^{-i phi Iz} r)),
    U' the backward propagator.  The backward factors are advanced
    incrementally along the grid (one stream per phase), the forward
    factors span 0 -> t in one adaptive call.  Only half the phase grid is
    evaluated; the rest follows from S(-phi) = conj(S(phi)), which holds
    in expectation because the spectrum is real and symmetric.
    """
    ws = workspace_for(network)
    basis = ws.basis
    n = basis.n_spins
    if plan.n_phases < 2 * n + 2:
        raise ValueError(f"n_phases={plan.n_phases} aliases orders of a {n}-spin system")
    prop = Propagator(network, protocol)
    times = protocol.times
    n_t = times.size
    half = plan.n_phases // 2
    mz = basis.mz_of
    phase_vecs = [np.exp(1j * plan.phases[k] * mz) for k in range(half + 1)]
    n_orders = 2 * n + 1
    per_seed = np.empty((len(plan.seeds), n_t, n_orders))
    for s_i, seed in enumerate(plan.seeds):
        r = gaussian_state(basis, seed)
        streams = [r.copy()]  # phi = 0 stream doubles as the Iz stream
        streams += [StateVector(basis, phase_vecs[k].conj() * r.amplitudes) for k in range(1, half + 1)]
        S = np.empty((plan.n_phases, n_t), dtype=np.complex128)
        for j in range(n_t):
            streams = [prop.step_backward(st, j) for st in streams]
            u = prop.span_forward(StateVector(basis, mz * streams[0].amplitudes), j)
            S[0, j] = np.vdot(u.amplitudes, u.amplitudes)
            for k in range(1, half + 1):
                y = prop.span_forward(StateVector(basis, mz * streams[k].amplitudes), j)
                S[k, j] = np.vdot(u.amplitudes, phase_vecs[k] * y.amplitudes)
        for k in range(1, half):
            S[plan.n_phases - k, :] = S[k, :].conj()
        coeff = np.fft.ifft(S, axis=0).real
        spectra = np.concatenate([coeff[plan.n_phases - n:, :], coeff[: n + 1, :]], axis=0)
        totals = spectra.sum(axis=0)
        if np.any(totals <= 0) or not np.all(np.isfinite(totals)):
            raise NumericalError(f"typicality normalization failed for seed {seed}: totals {totals}")
        per_seed[s_i] = (spectra / totals).T
    mean = per_seed.mean(axis=0)
    if len(plan.seeds) > 1:
        std_err = per_seed.std(axis=0, ddof=1) / math.sqrt(len(plan.seeds))
    else:
        std_err = np.zeros_like(mean)
    orders = np.arange(-n, n + 1)
    out = []
    for j in range(n_t):
        w = mean[j]
        se = std_err[j]
        bad = w < -5.0 * np.where(se > 0, se, np.inf)
        if np.any(bad):
            worst = orders[bad][np.argmin(w[bad])]
            warnings.warn(
                f"negative coherence weight beyond 5 standard errors at order {worst} "
                f"(t={times[j]:g}): aliasing or too few samples", EstimatorWarning)
        w = np.clip(w, 0.0, None)
        w = w / w.sum()
        out.append(MqcSpectrum(orders=orders, weights=w, time=float(times[j]), p=protocol.p,
                               estimator="typicality", n_samples=len(plan.seeds), std_err=se))
    return out


def _gaussian_k(ks: np.ndarray, a: np.ndarray, n_spins: int) -> float:
    """ln a = c - k^2/K least squares over positive envelope points."""
    mask = a > 0
    if mask.sum() < 2:
        # a lone surviving order has no width
        return 1.0
    x = ks[mask].astype(float) ** 2
    y = np.log(a[mask])
    slope, _ = np.polyfit(x, y, 1)
    if slope >= 0:
        return float(n_spins)
    return -1.0 / slope


def cluster_size(spectrum: MqcSpectrum, method: str = "halfwidth") -> float:
    """Cluster size K = sigma^2 from the even-order envelope.

    sigma is where the envelope, log-linearly interpolated between
    adjacent even orders, first falls to a(0)/e, counting from order 0;
    a(2) may exceed a(0) on the way.  Returns 1 when a single order
    survives the noise floor and n_spins when the envelope never falls
    to a(0)/e; clamps to [1, n_spins].  Falls back to the Gaussian fit,
    with an EstimatorWarning, when a(0) is at the noise floor or the
    envelope rises back to a(0)/e beyond the crossing.

    On small lattices the half width follows the early coherent
    oscillation of strongly coupled pairs between orders 0 and +-2, so
    K(t) is not monotone within the first pair period pi/d_max.
    """
    if method not in ("halfwidth", "gaussian"):
        raise ValueError(f"method must be 'halfwidth' or 'gaussian', got {method!r}")
    n_spins = spectrum.n_spins
    if n_spins == 0:
        return 1.0
    ks, a, floor = spectrum.even_envelope()
    a = np.where(a > floor, a, 0.0)
    # a single surviving order has no width, wherever it sits
    if np.count_nonzero(a) <= 1:
        return 1.0
    if method == "gaussian":
        return float(np.clip(_gaussian_k(ks, a, n_spins), 1.0, n_spins))

    if a[0] == 0.0:
        warnings.warn("order 0 at the noise floor; using Gaussian-fit fallback", EstimatorWarning)
        return float(np.clip(_gaussian_k(ks, a, n_spins), 1.0, n_spins))
    target = a[0] / math.e
    below = a < target
    crossing = next((i for i in range(1, ks.size) if below[i]), None)
    if crossing is None:
        # envelope never decays to a(0)/e inside the order grid:
        # the spread is unresolved, pin K at the system size
        return float(n_spins)
    if np.any(~below[crossing + 1:]):
        warnings.warn("no unique 1/e crossing from order 0; using Gaussian-fit fallback",
                      EstimatorWarning)
        return float(np.clip(_gaussian_k(ks, a, n_spins), 1.0, n_spins))
    k_hi = ks[crossing]
    k_lo = ks[crossing - 1]
    a_lo = a[crossing - 1]
    a_hi = max(a[crossing], 1e-300)
    sigma = k_lo + (k_hi - k_lo) * (math.log(a_lo) - math.log(target)) / (math.log(a_lo) - math.log(a_hi))
    return float(np.clip(sigma * sigma, 1.0, n_spins))


def trajectory(network: CouplingNetwork, protocol: QuenchProtocol,
               estimator: EstimatorConfig = EstimatorConfig()) -> ClusterTrajectory:
    """K(t) over the protocol grid with the chosen estimator."""
    basis = workspace_for(network).basis
    meta = {
        "geometry": network.geometry.label,
        "seed": estimator.base_seed,
        "protocol_digest": protocol.digest(),
        "estimator": estimator.kind,
        "n_spins": basis.n_spins,
        "p": protocol.p,
    }
    if estimator.kind == "exact":
        if basis.n_spins > MAX_DENSE_SPINS:
            raise CapacityError(
                f"exact estimator is capped at {MAX_DENSE_SPINS} spins, got {basis.n_spins}; "
                "use the typicality estimator")
        rho0 = DensityMatrix.from_iz(basis)
        spectra = [mqc_exact(rho, time=t, p=protocol.p)
                   for t, rho in evolve_density_exact(network, protocol, rho0)]
    else:
        plan = plan_phases(basis.n_spins, n_samples=estimator.n_samples, base_seed=estimator.base_seed)
        spectra = mqc_typicality_grid(network, protocol, plan)
    ks = np.array([cluster_size(s, method=estimator.k_method) for s in spectra])
    return ClusterTrajectory(p=protocol.p, times=protocol.times, K=ks,
                             spectra=spectra if estimator.keep_spectra else None, metadata=meta)
