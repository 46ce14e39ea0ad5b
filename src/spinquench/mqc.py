"""Coherence-order spectra and the cluster sizes extracted from them.

Two estimators produce the spectrum A(n) at each time:

  exact        the order weights sum |rho_rc|^2 of rho(t), summed per M_z
               sector pair on the parity and spin-flip blocks that
               evolve_density_exact yields them from (up to 14 spins);
  typicality   random-vector (Hutchinson) trace estimation of the
               sector-resolved weights ||P_m rho(t) P_m'||_F^2, whose sums
               over m - m' = n are the A(n); one vector slice per M_z
               sector m' >= 0, non-negative by construction, with error
               shrinking with both the number of samples and 2^n.

The cluster size is K = sigma^2 with sigma the half width at which the
even-order envelope, log-linearly interpolated on the discrete order
grid, falls to a(0)/e.  A least-squares Gaussian fit of ln a = c - k^2/K
is only the fallback, used when no unique crossing from order 0 exists;
a Gaussian envelope A(n) ~ exp(-n^2/K) gives the same K either way, as
it falls to a(0)/e at n = sqrt(K).  The half width reads the core of the
envelope, so at early times on small lattices it follows the coherent
order 0 <-> +-2 oscillation of strongly coupled pairs (a(0) ~ cos^2(d t))
and is not monotone there.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import EstimatorWarning, NumericalError, UndefinedSpectrumError
from .evolution import Propagator, QuenchProtocol, evolve_density_exact
from .network import CouplingNetwork
from .operators import gaussian_state, workspace_for

#: weights below this are fp dust on the exact path and do not count
#: toward the envelope (keeps K(t=0) pinned at 1)
EXACT_NOISE_FLOOR = 1e-12


@dataclass(eq=False)
class MqcSpectrum:
    """Normalized coherence-order distribution at one time point."""

    orders: np.ndarray
    weights: np.ndarray
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
class EstimatorConfig:
    """How spectra and K are produced along a trajectory.

    For the typicality estimator n_samples counts vector sets: sample s
    draws one Gaussian vector from seed base_seed + s and propagates one
    slice of it per M_z sector m' >= 0.
    """

    kind: str = "exact"
    n_samples: int = 8
    base_seed: int = 0
    keep_spectra: bool = False

    def __post_init__(self):
        if self.kind not in ("exact", "typicality"):
            raise ValueError(f"estimator kind must be 'exact' or 'typicality', got {self.kind!r}")
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")


def mqc_exact(weights: np.ndarray) -> MqcSpectrum:
    """Spectrum from unnormalized order weights w[n + order] = sum |rho_rc|^2.

    The squared-magnitude total is Tr[rho rho^dag], which unitary
    evolution conserves, so the normalization is defined at every time.
    """
    weights = np.asarray(weights, dtype=float)
    total = weights.sum()
    if not np.isfinite(total) or total <= 0.0:
        raise UndefinedSpectrumError("zero (or non-finite) density matrix has no coherence distribution")
    n = (weights.size - 1) // 2
    return MqcSpectrum(orders=np.arange(-n, n + 1), weights=weights / total)


def _parity_sectors(n_spins: int) -> list[np.ndarray]:
    """The propagated sectors m' >= 0, as spins-up counts, of each parity block."""
    ups = np.arange((n_spins + 1) // 2, n_spins + 1)
    return [ups[ups % 2 == q] for q in (0, 1)]


def typicality_peak_bytes(n_spins: int, n_samples: int) -> int:
    """Peak bytes mqc_typicality_grid allocates beyond the workspace.  The
    grid loop peaks in span_forward with 8 complex (2^(n-1), c) blocks
    alive, c the columns of the wider parity block of a sample pair (of the
    one sample if n_samples is 1): block 1, mz * block 1, the Chebyshev
    out, prev, cur, nxt 4 and the two products of a mixed matvec 2 (one
    temporary at p = 0 or 1); the previous grid time's y and |y|^2 are
    released before it.  Beside them live the pair's two Gaussian vectors
    and the block's spins-up counts and M_z values, 73 B per block row.
    1 MiB more covers the Python objects, weight tables and first-call
    caches (10-35 KiB measured at n = 10-12).  The workspace build and the
    Lanczos steps precede the loop and stay below it."""
    cols = min(2, n_samples) * max(s.size for s in _parity_sectors(n_spins))
    return (128 * cols + 73) * (1 << (n_spins - 1)) + 2**20


def mqc_typicality_grid(network: CouplingNetwork, protocol: QuenchProtocol,
                        estimator: EstimatorConfig) -> list[MqcSpectrum]:
    """Typicality spectra at every grid time, one Hutchinson stream per M_z sector.

    A(k) is proportional to the sum over m - m' = k of ||P_m rho(t) P_m'||_F^2.
    Per sample, one Gaussian vector r is cut into its sector slices r_m',
    and each slice is carried to y = rho(t) r_m' = U (Iz U' r_m'), with U'
    the backward propagator advanced incrementally along the grid and U
    one expansion from 0 to t; |P_m y|^2 estimates the (m, m') term.
    Global spin flip maps rho to -rho, so ||P_-m rho P_-m'|| = ||P_m rho P_m'||
    and only the sectors m' >= 0 are propagated, each adding its weights
    to order m - m' and, for m' != 0, to the mirrored order m' - m.
    H(p) keeps the popcount parity, so the slice of sector m' lives in the
    parity block of its spins-up count, of dimension 2^(n-1): samples go
    two at a time, and each block carries the slices of both samples that
    lie in it as the columns of one (2^(n-1), c) array.
    H(p) moves M_z by 0 or +-2, so every weight is non-negative and odd
    orders are exactly zero.  Reads n_samples and base_seed of estimator;
    each sample is normalized on its own.
    """
    ws = workspace_for(network)
    basis = ws.basis
    n = basis.n_spins
    n_t = protocol.time_grid.size
    blocks = [(Propagator(network, protocol, q), ws.block_states(q), ups)
              for q, ups in enumerate(_parity_sectors(n)) if ups.size]
    n_samples = estimator.n_samples
    per_sample = np.zeros((n_samples, n_t, 2 * n + 1))
    for first in range(0, n_samples, 2):
        pair = range(first, min(first + 2, n_samples))
        rs = [gaussian_state(basis, estimator.base_seed + s) for s in pair]
        for prop, states, ups in blocks:
            n_up = basis.n_up[states]
            mz = basis.mz_of[states]
            # column i * ups.size + c keeps sample pair[i]'s slice of sector ups[c]
            block = np.concatenate([np.where(n_up[:, None] == ups, r[states, None], 0.0) for r in rs],
                                   axis=1)
            for j in range(n_t):
                block = prop.step_backward(block, j)
                y = prop.span_forward(mz[:, None] * block, j)
                sq = y.real ** 2 + y.imag ** 2
                for col in range(sq.shape[1]):
                    acc = per_sample[pair[col // ups.size], j]
                    up = ups[col % ups.size]
                    # w[k] = |P_k y|^2, k spins up; order k - up sits at index n + k - up
                    w = np.bincount(n_up, sq[:, col], minlength=n + 1)
                    acc[n - up: 2 * n - up + 1] += w
                    if 2 * up != n:
                        acc[up: up + n + 1] += w[::-1]
                # not alive through the next grid time's propagation
                del y, sq
    for s_i, acc in enumerate(per_sample):
        totals = acc.sum(axis=1)
        if np.any(totals <= 0) or not np.all(np.isfinite(totals)):
            raise NumericalError(f"typicality normalization failed for seed {estimator.base_seed + s_i}: "
                                 f"totals {totals}")
        acc /= totals[:, None]
    mean = per_sample.mean(axis=0)
    if n_samples > 1:
        std_err = per_sample.std(axis=0, ddof=1) / math.sqrt(n_samples)
    else:
        std_err = np.zeros_like(mean)
    return [MqcSpectrum(np.arange(-n, n + 1), m, se) for m, se in zip(mean, std_err)]


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


def cluster_size(spectrum: MqcSpectrum) -> float:
    """Cluster size K = sigma^2 from the even-order envelope.

    sigma is where the envelope, log-linearly interpolated between
    adjacent even orders, first falls to a(0)/e, counting from order 0;
    a(2) may exceed a(0) on the way.  Returns 1 when a single order
    survives the noise floor and n_spins when the envelope never falls
    to a(0)/e; clamps to [1, n_spins].  The Gaussian fit is only the
    fallback, taken with an EstimatorWarning when a(0) is at the noise
    floor or the envelope rises back to a(0)/e beyond the crossing; a
    Gaussian envelope gives the same K either way.

    On small lattices the half width follows the early coherent
    oscillation of strongly coupled pairs between orders 0 and +-2, so
    K(t) is not monotone within the first pair period pi/d_max.
    """
    n_spins = spectrum.n_spins
    if n_spins == 0:
        return 1.0
    ks, a, floor = spectrum.even_envelope()
    a = np.where(a > floor, a, 0.0)
    # a single surviving order has no width, wherever it sits
    if np.count_nonzero(a) <= 1:
        return 1.0
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
    meta = {
        "geometry": network.geometry.label,
        "seed": estimator.base_seed,
        "protocol_digest": protocol.digest(),
        "estimator": estimator.kind,
        "n_spins": network.n_spins,
        "p": protocol.p,
    }
    if estimator.kind == "exact":
        spectra = [mqc_exact(w) for _, w in evolve_density_exact(network, protocol)]
    else:
        spectra = mqc_typicality_grid(network, protocol, estimator)
    ks = np.array([cluster_size(s) for s in spectra])
    return ClusterTrajectory(p=protocol.p, times=protocol.times, K=ks,
                             spectra=spectra if estimator.keep_spectra else None, metadata=meta)
