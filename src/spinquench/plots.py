"""Figure builders emitting standalone SVG text.

Plots here are diagnostics, not publication graphics, so the axis logic
is deliberately small: decade ticks on log axes, a handful of round
ticks on linear ones. Every builder is a pure function of its inputs
and returns the same bytes for the same data.
"""

from __future__ import annotations

import math

import numpy as np

WIDTH, HEIGHT = 640, 440
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 64, 150, 18, 46

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
           "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf")


class _Frame:
    """Data-to-pixel mapping for one plot area, optionally log per axis."""

    def __init__(self, xs, ys, xlog=False, ylog=False):
        xs = np.asarray(xs, float)
        ys = np.asarray(ys, float)
        if xlog:
            xs = xs[xs > 0]
        if ylog:
            ys = ys[ys > 0]
        if xs.size == 0 or ys.size == 0:
            raise ValueError("no plottable points")
        self.xlog, self.ylog = xlog, ylog
        self.x0, self.x1 = self._padded(xs, xlog)
        self.y0, self.y1 = self._padded(ys, ylog)

    @staticmethod
    def _padded(v, log):
        lo, hi = float(v.min()), float(v.max())
        if log:
            lo, hi = math.log10(lo), math.log10(hi)
        if hi == lo:
            hi = lo + 1.0
        pad = 0.04 * (hi - lo)
        return lo - pad, hi + pad

    def px(self, x):
        x = math.log10(x) if self.xlog else x
        frac = (x - self.x0) / (self.x1 - self.x0)
        return MARGIN_L + frac * (WIDTH - MARGIN_L - MARGIN_R)

    def py(self, y):
        y = math.log10(y) if self.ylog else y
        frac = (y - self.y0) / (self.y1 - self.y0)
        return HEIGHT - MARGIN_B - frac * (HEIGHT - MARGIN_T - MARGIN_B)

    def ticks(self, axis):
        lo, hi = (self.x0, self.x1) if axis == "x" else (self.y0, self.y1)
        log = self.xlog if axis == "x" else self.ylog
        if log:
            lo_d, hi_d = math.ceil(lo), math.floor(hi)
            decades = range(lo_d, hi_d + 1)
            if len(range(lo_d, hi_d + 1)) >= 2:
                return [(10.0**d, f"1e{d}") for d in decades]
            # under one decade: fall back to a few linear ticks in log space
            vals = np.linspace(lo, hi, 4)
            return [(10.0**v, f"{10.0 ** v:.3g}") for v in vals]
        step = _nice_step((hi - lo) / 5)
        first = math.ceil(lo / step) * step
        out = []
        v = first
        while v <= hi + 1e-12 * abs(step):
            out.append((v, f"{v:.4g}"))
            v += step
        return out


def _nice_step(raw):
    mag = 10.0 ** math.floor(math.log10(abs(raw)))
    for mult in (1, 2, 5, 10):
        if raw <= mult * mag:
            return mult * mag
    return 10 * mag


def _axes(frame, xlabel, ylabel):
    x_px0, x_px1 = MARGIN_L, WIDTH - MARGIN_R
    y_px0, y_px1 = HEIGHT - MARGIN_B, MARGIN_T
    parts = [f'<rect x="{x_px0}" y="{y_px1}" width="{x_px1 - x_px0}" '
             f'height="{y_px0 - y_px1}" fill="none" stroke="#333"/>']
    for v, label in frame.ticks("x"):
        px = frame.px(v)
        parts.append(f'<line x1="{px:.1f}" y1="{y_px0}" x2="{px:.1f}" y2="{y_px0 + 5}" stroke="#333"/>')
        parts.append(f'<text x="{px:.1f}" y="{y_px0 + 18}" text-anchor="middle">{label}</text>')
    for v, label in frame.ticks("y"):
        py = frame.py(v)
        parts.append(f'<line x1="{x_px0 - 5}" y1="{py:.1f}" x2="{x_px0}" y2="{py:.1f}" stroke="#333"/>')
        parts.append(f'<text x="{x_px0 - 8}" y="{py + 4:.1f}" text-anchor="end">{label}</text>')
    parts.append(f'<text x="{(x_px0 + x_px1) / 2:.1f}" y="{HEIGHT - 8}" '
                 f'text-anchor="middle">{xlabel}</text>')
    parts.append(f'<text x="16" y="{(y_px0 + y_px1) / 2:.1f}" text-anchor="middle" '
                 f'transform="rotate(-90 16 {(y_px0 + y_px1) / 2:.1f})">{ylabel}</text>')
    return parts


def _polyline(frame, xs, ys, color, dashed=False):
    pts = []
    for x, y in zip(xs, ys):
        if (frame.xlog and x <= 0) or (frame.ylog and y <= 0):
            continue
        pts.append(f"{frame.px(x):.2f},{frame.py(y):.2f}")
    dash = ' stroke-dasharray="5,4"' if dashed else ""
    return f'<polyline points="{" ".join(pts)}" fill="none" stroke="{color}" stroke-width="1.5"{dash}/>'


def _legend(entries):
    parts = []
    x = WIDTH - MARGIN_R + 12
    for i, (color, label) in enumerate(entries):
        y = MARGIN_T + 14 + 16 * i
        parts.append(f'<line x1="{x}" y1="{y - 4}" x2="{x + 18}" y2="{y - 4}" '
                     f'stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{x + 24}" y="{y}">{label}</text>')
    return parts


def _document(parts, title):
    head = (f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
            f'viewBox="0 0 {WIDTH} {HEIGHT}" font-family="sans-serif" font-size="11">'
            f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>'
            f'<text x="{MARGIN_L}" y="{MARGIN_T - 4}" font-size="13">{title}</text>')
    return head + "".join(parts) + "</svg>"


def plot_trajectories(trajs) -> str:
    """log-log K(t), one curve per perturbation strength."""
    all_t = np.concatenate([tr.times for tr in trajs])
    all_k = np.concatenate([tr.K for tr in trajs])
    frame = _Frame(all_t[all_t > 0], all_k, xlog=True, ylog=True)
    parts = _axes(frame, "t", "K(t)")
    legend = []
    for i, tr in enumerate(sorted(trajs, key=lambda tr: tr.p)):
        color = PALETTE[i % len(PALETTE)]
        parts.append(_polyline(frame, tr.times, tr.K, color))
        legend.append((color, f"p = {tr.p:g}"))
    parts += _legend(legend)
    return _document(parts, "cluster growth")


def plot_rescaled(curves) -> str:
    """Rescaled coordinates before shifting; collapse quality by eye."""
    frame = _Frame(np.concatenate([c.x for c in curves]),
                   np.concatenate([c.y for c in curves]))
    parts = _axes(frame, "-k2' ln t", "ln K^(2/3) - k1 ln t")
    legend = []
    for i, c in enumerate(sorted(curves, key=lambda c: c.p)):
        color = PALETTE[i % len(PALETTE)]
        parts.append(_polyline(frame, c.x, c.y, color))
        legend.append((color, f"p = {c.p:g}"))
    parts += _legend(legend)
    return _document(parts, "rescaled curves")


def plot_collapsed(rows) -> str:
    """Pooled scaling-function samples after the per-curve shifts."""
    xs = np.array([r[0] for r in rows])
    ys = np.array([r[1] for r in rows])
    ps = [r[2] for r in rows]
    frame = _Frame(xs, ys)
    parts = _axes(frame, "ln xi_p - k2' ln t", "ln K^(2/3) - k1 ln t")
    order = sorted(set(ps))
    legend = []
    for i, p in enumerate(order):
        color = PALETTE[i % len(PALETTE)]
        for x, y, q in rows:
            if q == p:
                parts.append(f'<circle cx="{frame.px(x):.2f}" cy="{frame.py(y):.2f}" '
                             f'r="2.2" fill="{color}"/>')
        legend.append((color, f"p = {p:g}"))
    parts += _legend(legend)
    return _document(parts, "collapsed scaling function")


def plot_xi_fit(report) -> str:
    """Normalized scaling factors with the fitted critical form."""
    ps = np.array([row["p"] for row in report["xi"]])
    xis = np.array([row["xi"] for row in report["xi"]])
    fit = report["fit"]
    grid = np.linspace(ps.min(), ps.max(), 240)
    model = 1.0 / (fit["A"] * np.abs(grid - fit["p_c"]) ** fit["nu"] + fit["B"])
    frame = _Frame(np.concatenate([ps, grid]), np.concatenate([xis, model]), ylog=True)
    parts = _axes(frame, "p", "xi(p)")
    parts.append(_polyline(frame, grid, model, "#333", dashed=True))
    if frame.x0 < fit["p_c"] < frame.x1:
        px = frame.px(fit["p_c"])
        parts.append(f'<line x1="{px:.1f}" y1="{MARGIN_T}" x2="{px:.1f}" '
                     f'y2="{HEIGHT - MARGIN_B}" stroke="#aaa" stroke-dasharray="2,3"/>')
    for p, xi in zip(ps, xis):
        parts.append(f'<circle cx="{frame.px(p):.2f}" cy="{frame.py(xi):.2f}" '
                     f'r="3" fill="{PALETTE[0]}"/>')
    parts += _legend([("#333", f"fit: p_c = {fit['p_c']:.4g}"),
                      (PALETTE[0], f"nu = {fit['nu']:.3g}")])
    return _document(parts, "scaling factor vs perturbation")


def plot_spectrum_heatmap(traj) -> str:
    """Coherence order vs time, cell shade = log10 weight."""
    if not traj.spectra:
        raise ValueError("trajectory carries no spectra")
    times = traj.times
    n = traj.spectra[0].n_spins
    orders = np.arange(-n, n + 1)
    x0, x1 = MARGIN_L, WIDTH - MARGIN_R
    y0, y1 = HEIGHT - MARGIN_B, MARGIN_T
    cw = (x1 - x0) / len(times)
    ch = (y0 - y1) / len(orders)
    parts = [f'<rect x="{x0}" y="{y1}" width="{x1 - x0}" height="{y0 - y1}" '
             f'fill="none" stroke="#333"/>']
    for i, spec in enumerate(traj.spectra):
        for j, o in enumerate(orders):
            w = spec.weight(int(o))
            # 6 decades of dynamic range, white at/below 1e-6
            level = 0.0 if w <= 1e-6 else min(1.0, 1.0 + math.log10(w) / 6.0)
            shade = int(round(255 * (1.0 - level)))
            parts.append(f'<rect x="{x0 + i * cw:.2f}" y="{y0 - (j + 1) * ch:.2f}" '
                         f'width="{cw + 0.5:.2f}" height="{ch + 0.5:.2f}" '
                         f'fill="rgb({shade},{shade},255)"/>')
    for i in range(0, len(times), max(1, len(times) // 6)):
        parts.append(f'<text x="{x0 + (i + 0.5) * cw:.1f}" y="{y0 + 18}" '
                     f'text-anchor="middle">{times[i]:.3g}</text>')
    step = max(1, len(orders) // 8)
    for j in range(0, len(orders), step):
        parts.append(f'<text x="{x0 - 8}" y="{y0 - (j + 0.5) * ch + 4:.1f}" '
                     f'text-anchor="end">{int(orders[j])}</text>')
    parts.append(f'<text x="{(x0 + x1) / 2:.1f}" y="{HEIGHT - 8}" text-anchor="middle">t</text>')
    parts.append(f'<text x="16" y="{(y0 + y1) / 2:.1f}" text-anchor="middle" '
                 f'transform="rotate(-90 16 {(y0 + y1) / 2:.1f})">coherence order</text>')
    return _document(parts, f"coherence spectrum, p = {traj.p:g}")
