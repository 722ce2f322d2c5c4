"""Parametric noise sweeps over waiting time, transition finding, CSV and SVG output."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .causality import CAUSAL, SPACELIKE, causal_margin, spectrum_verdict
from .channels import DensityState, NoiseModel, choi_stack, noise_kraus, state_from_bloch
from .errors import UsageError
from .linalg import hermitian_eig
from .schedule import two_event_pdm_from_choi

CSV_HEADER = "t,lambda1,lambda2,lambda3,lambda4,f_tr,classification"
#: Equally spaced times ``find_transition`` scans in [t_min, t_max].
_SCAN_POINTS = 256
#: Interior points evaluated per refinement round of ``find_transition``.
_REFINE_POINTS = 63
#: The most grid points a sweep config may ask for. ``run_sweep`` holds the
#: whole grid at once, ~1.3 KB per point, so this caps it near 130 MB.
MAX_SWEEP_POINTS = 100_000


@dataclass(frozen=True)
class SweepConfig:
    """Two-event single-qubit sweep: PDM of {event, wait under noise, event} vs time."""

    bloch: tuple
    noise: NoiseModel
    t_min: float
    t_max: float
    points: int
    grid: str = "linear"
    csv_path: str | None = None
    svg_path: str | None = None

    def __post_init__(self):
        for name in ("t_min", "t_max"):
            if not math.isfinite(getattr(self, name)):
                raise UsageError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.t_min < 0:
            raise UsageError("t_min must be >= 0")
        if not self.t_min < self.t_max:
            raise UsageError("t_min must be strictly less than t_max")
        if isinstance(self.points, (bool, np.bool_)) or not isinstance(self.points, (int, np.integer)):
            raise UsageError(f"points must be an integer, got {self.points!r}")
        if self.points < 2:
            raise UsageError("points must be >= 2")
        if self.points > MAX_SWEEP_POINTS:
            raise UsageError(f"points must be at most {MAX_SWEEP_POINTS}, got {self.points}")
        if self.grid not in ("linear", "log"):
            raise UsageError(f"grid must be 'linear' or 'log', got {self.grid!r}")
        if self.grid == "log" and self.t_min <= 0:
            raise UsageError("log grid requires t_min > 0")


@dataclass(frozen=True)
class SweepRow:
    t: float
    eigenvalues: tuple
    f_tr: float
    classification: str


def time_grid(cfg: SweepConfig) -> np.ndarray:
    if cfg.grid == "log":
        return np.geomspace(cfg.t_min, cfg.t_max, cfg.points)
    return np.linspace(cfg.t_min, cfg.t_max, cfg.points)


def pdm_stack(state: DensityState, noise: NoiseModel, ts) -> np.ndarray:
    """Closed-form two-event PDMs of the state at the waiting times ts, as one (T, 4, 4) stack.

    The noise model is evaluated at all times by one ``noise_kraus`` call,
    and its Choi stack comes from one contraction; no channel object is
    made per time.
    """
    return two_event_pdm_from_choi(state, choi_stack(noise_kraus(noise, ts)))


def _spectra(state: DensityState, noise: NoiseModel, ts) -> np.ndarray:
    """Ascending PDM eigenvalues at each waiting time: one stack, one eigensolve."""
    return hermitian_eig(pdm_stack(state, noise, ts))


def run_sweep(cfg: SweepConfig) -> list[SweepRow]:
    ts = time_grid(cfg)
    W = _spectra(state_from_bloch(cfg.bloch), cfg.noise, ts)
    values, causal = spectrum_verdict(W)
    return [
        SweepRow(float(t), tuple(w.tolist()), float(v), CAUSAL if c else SPACELIKE)
        for t, w, v, c in zip(ts, W, values, causal)
    ]


def _first_crossing(vals: np.ndarray) -> int | None:
    """Index i of the first pair (vals[i], vals[i + 1]) with a sign change or vals[i] == 0."""
    signs = np.sign(vals)
    hits = np.flatnonzero((vals[:-1] == 0.0) | (signs[:-1] != signs[1:]))
    return int(hits[0]) if hits.size else None


def find_transition(cfg: SweepConfig) -> float | None:
    """First waiting time where the minimum PDM eigenvalue crosses the causal threshold.

    Evaluates h(t) = ``causal_margin`` of the PDM spectrum, negative exactly
    where the PDM is causal, on 256 equally spaced times in [t_min, t_max]
    as one batched stack, and takes the *first* adjacent pair of scan points
    across which h changes sign (or where h is exactly 0). That bracket is
    refined in rounds: each evaluates 63 equally spaced interior points as
    one stack, reuses the endpoint values, and keeps the first subinterval
    with a sign change or an exact zero, until the bracket is at most
    1e-9 * (t_max - t_min) wide (about 4 rounds) or can no longer shrink in
    floating point. Returns the bracket's midpoint, or its left end when h
    is exactly 0 there. Later crossings are not reported. Returns None when
    the scan shows no sign change, so a pair of crossings closer together
    than the scan step can be missed. The initial state is built and checked
    once per call; every round reuses it.
    """
    state = state_from_bloch(cfg.bloch)

    def h(ts) -> np.ndarray:
        return causal_margin(_spectra(state, cfg.noise, ts))

    ts = np.linspace(cfg.t_min, cfg.t_max, _SCAN_POINTS)
    vals = h(ts)
    tol, width = 1e-9 * (cfg.t_max - cfg.t_min), math.inf
    while (i := _first_crossing(vals)) is not None:
        lo, hi = float(ts[i]), float(ts[i + 1])
        if vals[i] == 0.0:
            return lo
        if hi - lo <= tol or hi - lo >= width:
            return (lo + hi) / 2
        width = hi - lo
        inner = np.linspace(lo, hi, _REFINE_POINTS + 2)[1:-1]
        ts = np.concatenate([[lo], inner, [hi]])
        vals = np.concatenate([vals[i : i + 1], h(inner), vals[i + 1 : i + 2]])
    return None


def rows_to_csv(rows) -> str:
    """CSV with shortest round-trip float formatting; eigenvalues ascending."""
    lines = [CSV_HEADER]
    for r in rows:
        if len(r.eigenvalues) != 4:
            raise UsageError("CSV output expects two-event (4-eigenvalue) rows")
        vals = [r.t, *r.eigenvalues, r.f_tr]
        lines.append(",".join([*(repr(float(v)) for v in vals), r.classification]))
    return "\n".join(lines) + "\n"


# SVG layout constants.
_W, _PANEL_H, _MARGIN, _GAP = 640, 210, 46, 28


def _fmt(x: float) -> str:
    return f"{x:.3f}".rstrip("0").rstrip(".")


def _panel(rows, series, colors, y0, title, causal_spans, t_span):
    t_lo, t_hi = t_span
    all_vals = [v for ys in series for v in ys]
    v_lo, v_hi = min(all_vals), max(all_vals)
    if v_hi - v_lo < 1e-12:
        v_lo, v_hi = v_lo - 0.5, v_hi + 0.5
    pad = 0.05 * (v_hi - v_lo)
    v_lo, v_hi = v_lo - pad, v_hi + pad
    x_px = lambda t: _MARGIN + (t - t_lo) / (t_hi - t_lo) * (_W - 2 * _MARGIN)
    y_px = lambda v: y0 + _PANEL_H - (v - v_lo) / (v_hi - v_lo) * _PANEL_H
    out = []
    for a, b in causal_spans:
        out.append(
            f'<rect x="{_fmt(x_px(a))}" y="{_fmt(y0)}" width="{_fmt(x_px(b) - x_px(a))}" '
            f'height="{_fmt(_PANEL_H)}" fill="#fdd" stroke="none"/>'
        )
    out.append(
        f'<rect x="{_fmt(_MARGIN)}" y="{_fmt(y0)}" width="{_fmt(_W - 2 * _MARGIN)}" '
        f'height="{_fmt(_PANEL_H)}" fill="none" stroke="#333" stroke-width="1"/>'
    )
    for ys, color in zip(series, colors):
        pts = " ".join(f"{_fmt(x_px(r.t))},{_fmt(y_px(v))}" for r, v in zip(rows, ys))
        out.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
    out.append(
        f'<text x="{_fmt(_MARGIN)}" y="{_fmt(y0 - 8)}" font-family="sans-serif" '
        f'font-size="13" fill="#000">{title}</text>'
    )
    return out


def emit_svg(rows) -> str:
    """Two stacked panels: eigenvalues vs t and f_tr vs t, causal region shaded."""
    rows = list(rows)
    if len(rows) < 2:
        raise UsageError("SVG output requires at least 2 rows")
    t_span = (rows[0].t, rows[-1].t)
    spans, start = [], None
    for r in rows:
        if r.classification == "causal" and start is None:
            start = r.t
        elif r.classification != "causal" and start is not None:
            spans.append((start, r.t))
            start = None
    if start is not None:
        spans.append((start, rows[-1].t))
    k = len(rows[0].eigenvalues)
    eig_series = [[r.eigenvalues[i] for r in rows] for i in range(k)]
    colors = ["#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b"][:k]
    height = 2 * (_PANEL_H + _GAP) + 2 * _MARGIN
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{height}" '
        f'viewBox="0 0 {_W} {height}">',
        f'<rect x="0" y="0" width="{_W}" height="{height}" fill="#fff"/>',
    ]
    y1 = _MARGIN
    parts += _panel(rows, eig_series, colors, y1, "eigenvalues vs t", spans, t_span)
    y2 = _MARGIN + _PANEL_H + 2 * _GAP
    parts += _panel(rows, [[r.f_tr for r in rows]], ["#000"], y2, "f_tr vs t", spans, t_span)
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
