"""Finite-time scaling: growth fit, rescaling, collapse, xi fit, beta scan.

The analysis treats evolution time the way finite-size scaling treats
system size.  With l^2 ~ K^{2/3} ~ D t^alpha at the unperturbed point,
curves K(t, p) are rescaled as

    y = log(K^{2/3} / t^{k1})      x = -k2' log t
    k1 = 2 alpha'/3,  k2' = alpha'/3,  alpha' = 3 alpha / (2 + beta)

and collapsed onto one another by horizontal shifts; exp(shift) is the
raw scaling factor xi(p) up to one overall gauge constant, fixed by
anchoring xi at a perturbation strength whose K(t) plateau K_loc is
measurable (xi(anchor) = K_loc^(1/3)).  Only adjacent curves are
compared, and a pair's mismatch depends only on the difference of its
two shifts, so the collapse is solved one pair at a time.  Each pair must
overlap over at least half the shorter curve's span; that floor is a hard
window on the shift difference, not a penalty, and _pair_mismatch scores
a whole array of shift differences in one call.  The
normalized xi(p) is fitted with gamma^{[p < p_c]} (A |p - p_c|^nu + B)^(-1)
to locate the transition: the fit bounds p_c to one gap of the p grid at
a time and profiles out, as gamma, the unknown common normalization of
the curves below that gap.  The exponent ratio
beta = s/nu is not assumed: a scan re-runs the collapse per beta and
keeps the residual-minimizing value.

Note the factor nu is absorbed into the shift variable: x uses k2' =
k2 nu, so the shifts recover log xi directly rather than log xi^(1/nu).
Synthetic families generated by synth_trajectories plant a known
(p_c, nu, s, alpha, A, B) and serve as the end-to-end oracle.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import CollapseError, FitError, InsufficientDataError, SaturationError
from .mqc import ClusterTrajectory

# scipy.interpolate and scipy.optimize are imported inside the functions
# that call them: they take ~0.2 s to load, and `simulate` never needs them.

#: beta values swept when no grid is given; 1 corresponds to s = nu
DEFAULT_BETA_GRID = (6.6, 5.70, 1.0, 0.58, 0.15, 0.0, -0.39, -0.71)

#: local log-log slope at or above this counts as still growing
GROWTH_SLOPE_MIN = 0.1

#: local log-log slope below this (in magnitude) counts as saturated
PLATEAU_SLOPE_MAX = 0.05

#: fewest distinct p the xi fit takes: one per parameter of its model
XI_FIT_MIN_P = 5
_XI_PARAMS = ("A", "B", "nu", "p_c")


@dataclass(frozen=True)
class GrowthFit:
    """Power-law fit K^{2/3} = D t^alpha over the asserted long-time window."""

    alpha: float
    D: float
    t_min: float
    r2: float
    n_points: int

    @property
    def alpha_K(self) -> float:
        """Growth exponent of K itself."""
        return 1.5 * self.alpha

    def __post_init__(self):
        if self.n_points < 5:
            raise ValueError("growth fit window must contain at least 5 points")


@dataclass(frozen=True, eq=False)
class RescaledCurve:
    """One K(t) curve in collapse coordinates; x ascends (time descends)."""

    p: float
    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if x.shape != y.shape or x.ndim != 1:
            raise ValueError("x and y must be matching 1D arrays")
        if x.size > 1 and np.any(np.diff(x) <= 0):
            raise ValueError("x must be strictly increasing")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @functools.cached_property
    def interpolant(self):
        """Cubic interpolant of the curve in its own (unshifted) coordinates.

        Cubic rather than linear: the scaling function bends through the
        crossover, and linear interpolation on a log grid biases the shift
        optimum by O(grid spacing squared).  Curves of fewer than 4 points
        are interpolated linearly.
        """
        if self.x.size >= 4:
            from scipy.interpolate import CubicSpline
            return CubicSpline(self.x, self.y)
        return functools.partial(np.interp, xp=self.x, fp=self.y)


@dataclass(frozen=True, eq=False)
class ScalingFunctionSample:
    """Pooled empirical scaling function: shifted x, y, and source p per point."""

    x: np.ndarray
    y: np.ndarray
    p: np.ndarray


@dataclass(frozen=True, eq=False)
class CollapseResult:
    """Per-curve shifts (log units, reference curve at 0) plus diagnostics.

    pair_stats maps each consecutive (p_lo, p_hi) pair to its
    (sum of squared deviations, sample count) at the optimum.
    """

    shifts: dict
    pooled: ScalingFunctionSample
    pair_stats: dict

    @property
    def residual(self) -> float:
        """RMS deviation over every pair."""
        return self._rms_without(None)

    def _rms_without(self, excluded) -> float:
        stats = [sc for k, sc in self.pair_stats.items() if k != excluded]
        sq = sum(s for s, _ in stats)
        cnt = sum(c for _, c in stats)
        return math.sqrt(sq / cnt) if cnt else 0.0

    @property
    def xi_raw(self) -> dict:
        return {p: math.exp(s) for p, s in self.shifts.items()}

    def excluded_pair(self):
        """The (p_lo, p_hi) pair with the largest RMS mismatch when there are
        >= 3 pairs, else None: the pair trimmed_residual leaves out."""
        if len(self.pair_stats) < 3:
            return None
        return max(self.pair_stats,
                   key=lambda k: self.pair_stats[k][0] / max(self.pair_stats[k][1], 1))

    def trimmed_residual(self) -> float:
        """RMS deviation excluding the single worst pair (when >= 3 pairs).

        Curves adjacent to a critical point never truly overlap (they sit
        on opposite branches of the scaling function), so one pair can
        carry an irreducible mismatch that says nothing about the overall
        collapse quality.  collapse solves every pair on its own, so that
        mismatch has moved no other shift; it is only left out here.
        """
        return self._rms_without(self.excluded_pair())


@dataclass(frozen=True)
class XiFit:
    """Bounded least-squares fit of xi(p) = gamma^{[p < p_c]} (A |p - p_c|^nu + B)^(-1).

    gap is the pair of sampled p that bounds p_c; n_free counts the
    parameters the fit leaves off their bounds; gamma multiplies the
    factors below the gap and is left out of model, which is the critical
    form (A |p - p_c|^nu + B)^(-1) alone.
    """

    A: float
    B: float
    nu: float
    p_c: float
    std_err: dict
    residual: float
    gap: tuple
    n_free: int
    gamma: float

    def model(self, p) -> np.ndarray:
        delta = np.abs(np.asarray(p, dtype=float) - self.p_c)
        return 1.0 / (self.A * delta**self.nu + self.B)


@dataclass(frozen=True, eq=False)
class BetaScan:
    """Residual per beta; best holds the collapse at best_beta."""

    best_beta: float
    residuals: dict
    best: CollapseResult


@dataclass(frozen=True, eq=False)
class ScalingResult:
    """The stage results of the finite-time scaling pipeline.

    scan.best is the winning collapse, fit the gauged xi fit and xi the
    gauge-corrected factors it describes; t_min starts the scaling window
    the collapse ran on (t >= t_min); bootstrap is None when disabled.
    """

    growth: GrowthFit
    scan: BetaScan
    fit: XiFit
    xi: dict
    t_min: float
    bootstrap: dict | None

    @property
    def s(self) -> float:
        """Exponent s = beta * nu."""
        return self.scan.best_beta * self.fit.nu


def fit_growth_exponent(traj: ClusterTrajectory, t_min: float | None = None) -> GrowthFit:
    """Regress log K^{2/3} on log t over the growing, unsaturated window.

    The window ends where the trailing local log-log slope of K drops
    below GROWTH_SLOPE_MIN (finite-size saturation) and starts at t_min,
    or at the growth onset when t_min is omitted.
    """
    mask = traj.times > 0
    t = traj.times[mask]
    K = traj.K[mask]
    if t.size < 2:
        raise InsufficientDataError("need at least two positive-time points")
    slopes = np.diff(np.log(K)) / np.diff(np.log(t)) * (2.0 / 3.0)
    end = t.size
    while end >= 2 and slopes[end - 2] < GROWTH_SLOPE_MIN:
        end -= 1
    if t_min is None:
        # asserted window: trailing run where the local slope has settled
        # to within 10% of its late value; early sub-power-law growth and
        # crossover curvature are excluded
        n_ref = min(5, end - 1)
        if n_ref < 1:
            raise InsufficientDataError("trajectory saturates before any growth window")
        ref = float(np.median(slopes[end - 1 - n_ref:end - 1]))
        start = end - 1
        while start >= 1 and slopes[start - 1] >= 0.9 * ref:
            start -= 1
        if end - start < 5:
            growing = np.nonzero(slopes >= GROWTH_SLOPE_MIN)[0]
            start = int(growing[0]) if growing.size else end
    else:
        start = int(np.searchsorted(t, t_min))
    if end - start < 5:
        raise InsufficientDataError(
            f"growth window [{start}, {end}) has {max(0, end - start)} points, need 5; "
            "trajectory may be saturated or too short")
    x = np.log(t[start:end])
    y = (2.0 / 3.0) * np.log(K[start:end])
    alpha, intercept = np.polyfit(x, y, 1)
    resid = y - (alpha * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - float(np.sum(resid**2)) / ss_tot
    return GrowthFit(alpha=float(alpha), D=float(np.exp(intercept)), t_min=float(t[start]),
                     r2=r2, n_points=end - start)


def scaling_exponents(alpha: float, beta: float) -> tuple[float, float]:
    """(k1, k2') from the growth exponent and the ratio beta = s/nu."""
    if 2.0 + beta <= 1e-9:
        raise ValueError(f"beta={beta} makes the exponent relation singular (need beta > -2)")
    alpha_prime = 3.0 * alpha / (2.0 + beta)
    return 2.0 * alpha_prime / 3.0, alpha_prime / 3.0


def rescale(trajs: list[ClusterTrajectory], growth: GrowthFit, beta: float,
            t_min: float | None = None) -> list[RescaledCurve]:
    """Collapse coordinates for every trajectory, keeping only t >= t_min."""
    k1, k2p = scaling_exponents(growth.alpha, beta)
    if t_min is None:
        t_min = growth.t_min
    curves = []
    for traj in sorted(trajs, key=lambda tr: tr.p):
        mask = (traj.times >= t_min) & (traj.times > 0)
        logt = np.log(traj.times[mask])
        x = -k2p * logt
        y = (2.0 / 3.0) * np.log(traj.K[mask]) - k1 * logt
        order = np.argsort(x)
        curves.append(RescaledCurve(p=traj.p, x=x[order], y=y[order]))
    return curves


def _pair_mismatch(c1: RescaledCurve, c2: RescaledCurve, deltas):
    """(sq, cnt), two arrays over the 1-D array deltas: the sum of squared
    y-deviations and the sample count over the closed x-overlap of c1 and
    c2 shifted by delta.

    One convention for any number of deltas: arrays in, arrays out.  All
    deltas are scored in one pass, with (deltas x samples) overlap masks
    and one interpolant call per curve.  Disjoint curves give sq = cnt = 0;
    curves that only touch count their shared end point once from each
    side.  collapse scores only deltas inside its overlap window, so
    neither case needs a barrier or a marker.
    """
    deltas = np.asarray(deltas, dtype=float)
    n = deltas.size
    lo = np.maximum(c1.x[0], c2.x[0] + deltas)
    hi = np.minimum(c1.x[-1], c2.x[-1] + deltas)
    sq = np.zeros(n)
    cnt = np.zeros(n, dtype=int)
    # one curve's samples at a time, against the other curve's interpolant,
    # so that only one (deltas x samples) set of arrays is alive at once
    for x, y, other, back in ((np.broadcast_to(c1.x, (n, c1.x.size)), c1.y, c2, deltas),
                              (c2.x + deltas[:, None], c2.y, c1, np.zeros(n))):
        rows, cols = np.nonzero((x >= lo[:, None]) & (x <= hi[:, None]))
        d = y[cols] - other.interpolant(x[rows, cols] - back[rows])
        sq += np.bincount(rows, d * d, minlength=n)
        cnt += np.bincount(rows, minlength=n)
    return sq, cnt


def collapse(curves: list[RescaledCurve]) -> CollapseResult:
    """Find per-curve horizontal shifts minimizing adjacent-pair mismatch.

    Curves are ordered by p and only consecutive pairs enter the
    objective: distant pairs can sit on opposite asymptotic branches of
    the scaling function, where forcing overlap would bias the shifts.
    Each adjacent pair must keep at least m, half the shorter curve's
    span, in overlap; without that floor, a pair with any irreducible
    mismatch could shed comparison points by sliding apart, which would
    fake a good collapse.

    A pair's mismatch depends only on the difference delta of its two
    shifts, so the objective is a sum of independent one-dimensional
    terms and each pair is solved on its own.  The overlap is a trapezoid
    in delta, so the floor is a hard window: delta lies in
    [c1.x[0] - c2.x[-1] + m, c1.x[-1] - c2.x[0] - m], and nothing outside
    it is ever scored.  Inside, the mismatch jumps at every delta where a
    sample enters or leaves the overlap and is smooth in between, so the
    window's ends and those cuts bound smooth pieces: each is probed at
    its lower end, just inside both ends and at its middle, and a bounded
    scalar search polishes the three pieces with the lowest probes.
    _pair_mismatch scores all probes of a pair in one batched call, each
    polish step and the final pair_stats.  The shifts are the cumulative
    sums of the deltas, with the lowest-p curve the fixed reference.  A
    pair bracketing a transition, whose mismatch no shift can reconcile,
    therefore moves no other pair's delta; it slides to the overlap floor
    and trimmed_residual names it afterwards.  Deterministic given the
    data, but the bounded polish stops at about sqrt(eps) |delta| +
    xatol/3: each delta is fixed to ~1.5e-8 relative, not to 1e-12.
    """
    from scipy.optimize import minimize_scalar
    curves = sorted(curves, key=lambda c: c.p)
    for c in curves:
        if c.x.size < 2:
            raise CollapseError(f"curve at p={c.p} has fewer than 2 points in the scaling window")

    deltas = []
    pair_stats = {}
    for c1, c2 in zip(curves, curves[1:]):
        m = 0.5 * min(c1.x[-1] - c1.x[0], c2.x[-1] - c2.x[0])
        first, last = c1.x[0] - c2.x[-1] + m, c1.x[-1] - c2.x[0] - m
        cuts = np.concatenate([c1.x - c2.x[0], c1.x - c2.x[-1], c1.x[0] - c2.x, c1.x[-1] - c2.x])
        edges = np.unique(np.concatenate([[first, last], cuts[(cuts > first) & (cuts < last)]]))
        lo, hi = edges[:-1], edges[1:]
        inset = 1e-9 * (hi - lo)
        probes = np.stack([lo, lo + inset, 0.5 * (lo + hi), hi - inset])
        values = _pair_mismatch(c1, c2, probes.ravel())[0].reshape(probes.shape)
        best = np.unravel_index(np.argmin(values), values.shape)
        delta, value = probes[best], values[best]
        for k in np.argsort(values.min(axis=0))[:3]:
            res = minimize_scalar(lambda d: _pair_mismatch(c1, c2, [d])[0][0],
                                  bounds=(lo[k], hi[k]), method="bounded",
                                  options={"xatol": 1e-12})
            if res.fun < value:
                delta, value = res.x, res.fun
        sq, cnt = _pair_mismatch(c1, c2, [delta])
        deltas.append(delta)
        pair_stats[(c1.p, c2.p)] = (float(sq[0]), int(cnt[0]))
    shifts = np.concatenate([[0.0], np.cumsum(deltas)])
    xs = np.concatenate([c.x + s for c, s in zip(curves, shifts)])
    ys = np.concatenate([c.y for c in curves])
    ps = np.concatenate([np.full(c.x.size, c.p) for c in curves])
    order = np.argsort(xs, kind="stable")
    pooled = ScalingFunctionSample(xs[order], ys[order], ps[order])
    return CollapseResult({c.p: float(s) for c, s in zip(curves, shifts)}, pooled, pair_stats)


def estimate_k_loc(traj: ClusterTrajectory) -> float:
    """Mean K over the saturated tail (trailing |log-log slope| < 0.05).

    The tail slope is a regression slope over the trailing window, grown
    point by point while it stays flat; pairwise difference slopes would
    inherit noise amplified by the grid spacing and misclassify noisy
    plateaus.
    """
    mask = traj.times > 0
    t = traj.times[mask]
    K = traj.K[mask]
    if t.size < 5:
        raise SaturationError("need at least 5 points to detect a plateau")
    lt, lk = np.log(t), np.log(K)

    def tail_slope(w):
        return np.polyfit(lt[-w:], lk[-w:], 1)[0]

    if abs(tail_slope(5)) >= PLATEAU_SLOPE_MAX:
        raise SaturationError(
            f"no saturation plateau: trailing 5-point slope "
            f"{tail_slope(5):.3f} exceeds the threshold {PLATEAU_SLOPE_MAX}")
    w = 5
    while w < t.size and abs(tail_slope(w + 1)) < PLATEAU_SLOPE_MAX:
        w += 1
    return float(K[-w:].mean())


def matches_anchor(p: float, anchor_p: float) -> bool:
    """Whether the sampled p is anchor_p up to rounding, 1e-9 max(1, |anchor_p|)."""
    return abs(p - anchor_p) <= 1e-9 * max(1.0, abs(anchor_p))


def normalize_xi(xi_raw: dict, anchor_p: float, k_loc: float) -> dict:
    """Rescale all raw factors so xi(anchor_p) = k_loc^(1/3)."""
    if k_loc <= 0:
        raise ValueError("k_loc must be positive")
    key = next((p for p in xi_raw if matches_anchor(p, anchor_p)), None)
    if key is None:
        raise ValueError(f"anchor p={anchor_p} not among collapsed curves {sorted(xi_raw)}")
    factor = k_loc ** (1.0 / 3.0) / xi_raw[key]
    return {p: v * factor for p, v in xi_raw.items()}


def _xi_inner_fit(ps: np.ndarray, inv_xi: np.ndarray, p_c: float, nu: float):
    """Best (A, B) >= 0 for fixed (p_c, nu); returns (A, B, ssr in 1/xi)."""
    from scipy.optimize import nnls
    design = np.column_stack([np.abs(ps - p_c) ** nu, np.ones_like(ps)])
    coef, rnorm = nnls(design, inv_xi)
    return coef[0], coef[1], rnorm**2


def _xi_residuals(theta, ps, log_vals, below) -> np.ndarray:
    """ln gamma [below] - log(A |p - p_c|^nu + B) - log xi at theta =
    (A, B, nu, p_c, ln gamma)."""
    a, b, nu, pc, lng = theta
    return lng * below - np.log(a * np.abs(ps - pc) ** nu + b) - log_vals


def _xi_jacobian(theta, ps, log_vals, below) -> np.ndarray:
    """Derivatives of _xi_residuals by theta, one row per p.

    At a sampled p equal to p_c, Delta = p - p_c = 0 and |Delta|^(nu-1)
    diverges, so the nu and p_c entries of that row are set to 0:
    |Delta|^nu ln|Delta| tends to 0, and 0 is the symmetric value of the
    p_c slope, which is +-inf from the two sides when nu < 1.
    """
    a, b, nu, pc, _ = theta
    delta = ps - pc
    u = np.abs(delta) ** nu
    # 1 where Delta = 0, so that u = 0 alone zeroes the nu and p_c entries
    mag = np.where(delta == 0.0, 1.0, np.abs(delta))
    denom = a * u + b
    return np.column_stack([-u / denom, -1.0 / denom, -a * u * np.log(mag) / denom,
                            a * nu * np.sign(delta) * u / mag / denom, below.astype(float)])


def _polish(x0, ps: np.ndarray, log_vals: np.ndarray, k: int):
    """Bounded least squares with the analytic Jacobian from x0 = (A, B, nu,
    p_c, ln gamma): p_c in [p_{k-1}, p_k], gamma on the k lowest-p factors.
    Returns the least_squares result, or None unless it converged."""
    from scipy.optimize import least_squares
    bounds = ([1e-12, 0.0, 1e-3, ps[k - 1], -5.0], [np.inf, np.inf, 10.0, ps[k], 5.0])
    try:
        res = least_squares(_xi_residuals, x0, jac=_xi_jacobian, bounds=bounds,
                            args=(ps, log_vals, np.arange(ps.size) < k),
                            xtol=1e-15, ftol=1e-15, gtol=1e-15)
    except ValueError:  # non-finite residuals at x0; LinAlgError is one too
        return None
    return res if res.success or res.cost < 1e-20 else None


def fit_xi_branch_gauged(xi: dict) -> XiFit:
    """Critical fit with the below-p_c normalization profiled out.

    Horizontal-shift collapse cannot fix the relative normalization of
    scaling factors across the transition: curves on opposite sides sit
    on different asymptotic branches whose near-crossover shapes are
    mirror images, so the one linking shift is a soft mode of any
    overlap objective.  The factors below p_c therefore carry one
    unknown common multiplier, and the model, fitted in log space, is

        xi(p) = gamma^{[p < p_c]} * (A |p - p_c|^nu + B)^(-1)

    Per gap of the p grid with at least two curves on each side (so gamma
    stays identifiable), gamma multiplies the curves below the gap and p_c
    is bounded to it, so the model stays smooth in p_c (a gamma switched
    on by p < p_c would jump whenever p_c crossed a sampled p, and the
    fit would stop on a sample).  Each gap scores 5 interior p_c values
    times ln gamma in {0, 1, 2, 3}, with (A, B, nu) seeded by the linear
    inner fit on the gamma-corrected factors and a bounded search over
    nu, and polishes the start of least initial cost once (_polish).  Of
    the polishes that converge (FitError when none does), the one of
    least cost wins; standard errors come from its Jacobian and are NaN
    when the fit has no degrees of freedom left.
    """
    from scipy.optimize import minimize_scalar
    ps = np.array(sorted(xi))
    if ps.size < XI_FIT_MIN_P:
        raise InsufficientDataError(f"xi fit needs >= {XI_FIT_MIN_P} distinct p values, got {ps.size}")
    vals = np.array([xi[p] for p in ps])
    if np.any(vals <= 0):
        raise FitError("scaling factors must be positive")
    log_vals = np.log(vals)

    def initial(pc0, lng0, below):
        inv = np.exp(lng0 * below) / vals
        inner = minimize_scalar(lambda nu: _xi_inner_fit(ps, inv, pc0, nu)[2],
                                bounds=(0.05, 5.0), method="bounded", options={"xatol": 1e-8})
        a0, b0, _ = _xi_inner_fit(ps, inv, pc0, inner.x)
        return [max(a0, 1e-8), max(b0, 1e-10), float(inner.x), pc0, lng0]

    gaps = range(2, ps.size - 1)
    best, best_k = None, None
    for k in gaps:
        below = np.arange(ps.size) < k
        x0 = min((initial(pc0, lng0, below) for pc0 in np.linspace(ps[k - 1], ps[k], 7)[1:-1]
                  for lng0 in (0.0, 1.0, 2.0, 3.0)),
                 key=lambda x: float(np.sum(_xi_residuals(np.array(x), ps, log_vals, below) ** 2)))
        res = _polish(x0, ps, log_vals, k)
        if res is not None and (best is None or res.cost < best.cost):
            best, best_k = res, k
    if best is None:
        raise FitError(f"xi fit converged from no start in gaps {list(gaps)}")
    dof = ps.size - best.x.size
    if dof > 0:
        cov = (2.0 * best.cost / dof) * np.linalg.pinv(best.jac.T @ best.jac)
        se = np.sqrt(np.maximum(np.diag(cov), 0.0))
    else:
        se = np.full(best.x.size, np.nan)
    a, b, nu, pc, lng = best.x
    return XiFit(A=float(a), B=float(b), nu=float(nu), p_c=float(pc),
                 std_err=dict(zip(_XI_PARAMS, se[:4].tolist())),
                 residual=float(np.sqrt(2.0 * best.cost / ps.size)),
                 gap=(float(ps[best_k - 1]), float(ps[best_k])),
                 n_free=int(np.count_nonzero(best.active_mask == 0)),
                 gamma=float(np.exp(lng)))


# kept for the benchmark tracer's WRAPPED row ("spinquench.scaling", "fit_xi",
# "scaling.xi_fit") in perfbench/tracing.py; the alias goes with that row
fit_xi = fit_xi_branch_gauged


def bootstrap_fit_xi(xi: dict, base: XiFit, n_resamples: int = 100, seed: int = 0) -> dict:
    """Residual bootstrap (multiplicative residuals) around base, the fit of xi.

    Each resample is base's own model, gamma on the curves below its gap
    included, times log residuals drawn with replacement, polished once in
    base's gap from base's parameters (_polish).  Returns the number of
    resamples whose polish converged (n_effective) plus std and central
    95% interval per parameter over those.  A base fit with as many free
    parameters as points interpolates, so every resample would reproduce
    the data: none is drawn, n_effective is 0 and the statistics are NaN.
    """
    ps = np.array(sorted(xi))
    k = int(np.searchsorted(ps, base.gap[1]))
    log_fitted = np.log(base.model(ps))
    log_fitted[:k] += math.log(base.gamma)
    start = [base.A, base.B, base.nu, base.p_c, math.log(base.gamma)]
    log_res = np.log([xi[p] for p in ps]) - log_fitted
    rng = np.random.default_rng(seed)
    fits = []
    for _ in range(n_resamples if ps.size > base.n_free else 0):
        res = _polish(start, ps, log_fitted + rng.choice(log_res, size=ps.size, replace=True), k)
        if res is not None:
            fits.append(res.x[:4])
    samples = np.reshape(fits, (-1, 4))
    out = {"n_effective": len(samples)}
    for name, arr in zip(_XI_PARAMS, samples.T):
        out[name] = {
            "std": float(arr.std(ddof=1)) if arr.size > 1 else float("nan"),
            "ci_low": float(np.percentile(arr, 2.5)) if arr.size else float("nan"),
            "ci_high": float(np.percentile(arr, 97.5)) if arr.size else float("nan"),
        }
    return out


def beta_scan(trajs: list[ClusterTrajectory], growth: GrowthFit,
              beta_grid=None, t_min: float | None = None) -> BetaScan:
    """Collapse quality per beta; smallest residual wins.

    Selection uses the trimmed residual (worst adjacent pair excluded):
    when the p grid brackets a transition, the bracketing pair cannot
    collapse for any beta and would otherwise drown the comparison.
    """
    if beta_grid is None:
        beta_grid = DEFAULT_BETA_GRID
    residuals = {}
    results = {}
    failures = {}
    for beta in beta_grid:
        try:
            curves = rescale(trajs, growth, beta, t_min)
            result = collapse(curves)
            results[float(beta)] = result
            residuals[float(beta)] = result.trimmed_residual()
        except (CollapseError, ValueError) as exc:
            residuals[float(beta)] = float("inf")
            failures[float(beta)] = str(exc)
    finite = {b: r for b, r in residuals.items() if np.isfinite(r)}
    if not finite:
        raise CollapseError(f"collapse failed for every beta in the grid: {failures}")
    best = min(finite, key=finite.get)
    return BetaScan(best_beta=best, residuals=residuals, best=results[best])


def _soft_log_branch(z: np.ndarray) -> np.ndarray:
    """Smooth interpolation between 0 (z -> -inf) and log z (z -> +inf)."""
    return np.log1p(0.5 * (z + np.hypot(z, 2.0)))


def synth_trajectories(p_list, p_c: float, nu: float, s: float, alpha: float, t_grid,
                       noise_level: float = 0.0, seed: int = 0,
                       A: float = 1.0, B: float = 0.0) -> list[ClusterTrajectory]:
    """Trajectories drawn from an explicit single-parameter scaling form.

    The generator is K^{2/3}(t, p) = t^{k1} F(z) with

        z    = sign(p_c - p) * [(A |p - p_c|^nu + B) t^{k2'}]^{1/nu}
        F(z) = exp(s g(z) - 2 nu g(-z)),  g(z) = log(1 + (z + sqrt(z^2+4))/2)

    so F(z) -> z^s for z -> +inf (growth side) and F(z) -> |z|^{-2 nu}
    with unit prefactor for z -> -inf, which makes the long-time plateau
    K -> xi(p)^3 exactly, with xi(p) = (A |p - p_c|^nu + B)^(-1) the
    planted scaling factor.  With the default A=1, B=0 the two branches
    reduce to the plain power laws (p_c - p)^s t^alpha and
    (p - p_c)^{-3 nu}.  At p = p_c exactly, the growth-side branch is
    used.  Multiplicative log-normal noise of the given level is applied,
    and K is clipped at 1.
    """
    planted = {"p_c": p_c, "nu": nu, "s": s, "alpha": alpha, "A": A, "B": B}
    bad = next((k for k, v in planted.items() if not math.isfinite(v)), None)
    if bad is not None:
        raise ValueError(f"planted {bad} must be finite, got {planted[bad]}")
    if not 0.0 <= noise_level < math.inf:
        raise ValueError(f"noise_level must be finite and >= 0, got {noise_level}")
    if nu <= 0 or alpha <= 0:
        raise ValueError("nu and alpha must be positive")
    if A < 0 or B < 0 or A + B == 0:
        raise ValueError("need A, B >= 0 with A + B > 0")
    beta = s / nu
    k1, k2p = scaling_exponents(alpha, beta)
    t = np.asarray(t_grid, dtype=float)
    if not np.all((t > 0) & np.isfinite(t)):
        raise ValueError("synthetic time grid must be finite and positive")
    rng = np.random.default_rng(seed)
    out = []
    for p in p_list:
        delta_nu = abs(p - p_c) ** nu
        zeta = (A * delta_nu + B) * t**k2p
        sign = 1.0 if p <= p_c else -1.0
        z = sign * zeta ** (1.0 / nu)
        log_f = s * _soft_log_branch(z) - 2.0 * nu * _soft_log_branch(-z)
        log_k = 1.5 * (k1 * np.log(t) + log_f)
        if noise_level > 0:
            log_k = log_k + noise_level * rng.standard_normal(t.size)
        K = np.maximum(np.exp(log_k), 1.0)
        meta = {"geometry": "synthetic", "seed": seed, "estimator": "synthetic",
                "planted": {**planted, "noise_level": noise_level}, "p": float(p)}
        out.append(ClusterTrajectory(p=float(p), times=t.copy(), K=K, metadata=meta))
    return out


def full_scaling_analysis(trajs: list[ClusterTrajectory], anchor_p: float,
                          beta_grid=None, t_min: float | None = None,
                          growth_t_min: float | None = None,
                          n_bootstrap: int = 100, bootstrap_seed: int = 0) -> ScalingResult:
    """Growth fit, beta scan, collapse, anchoring, xi fit; one call end to end.

    growth_t_min controls only the exponent-fit window on the lowest-p
    trajectory; t_min controls the scaling window fed to the collapse,
    which solves each adjacent pair of curves on its own (see collapse).
    The xi fit profiles out the cross-transition normalization, trying
    every gap of the p grid with at least two curves on each side and
    bounding p_c to the gap (see fit_xi_branch_gauged).  That one fit
    gives the reported parameters, p_c_bounds (its gap) and the
    gauge-corrected xi, and the bootstrap resamples around it.
    """
    trajs = sorted(trajs, key=lambda tr: tr.p)
    if len({tr.p for tr in trajs}) < XI_FIT_MIN_P:
        raise InsufficientDataError(f"scaling analysis needs >= {XI_FIT_MIN_P} distinct p values")
    growth = fit_growth_exponent(trajs[0], t_min=growth_t_min)
    eff_t_min = growth.t_min if t_min is None else t_min
    scan = beta_scan(trajs, growth, beta_grid, eff_t_min)
    anchor_traj = next((tr for tr in trajs if matches_anchor(tr.p, anchor_p)), None)
    if anchor_traj is None:
        raise ValueError(f"anchor p={anchor_p} has no trajectory (have {[tr.p for tr in trajs]})")
    k_loc = estimate_k_loc(anchor_traj)
    xi = normalize_xi(scan.best.xi_raw, anchor_p, k_loc)
    fit = fit_xi_branch_gauged(xi)
    xi_fitted = {p: v / fit.gamma if p < fit.gap[1] else v for p, v in xi.items()}
    boot = (bootstrap_fit_xi(xi, fit, n_resamples=n_bootstrap, seed=bootstrap_seed)
            if n_bootstrap > 0 else None)
    return ScalingResult(growth=growth, scan=scan, fit=fit, xi=xi_fitted, t_min=eff_t_min,
                         bootstrap=boot)
