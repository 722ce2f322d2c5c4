"""Parametric noise sweeps over waiting time, transition finding, CSV and SVG output."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .causality import CAUSAL, SPACELIKE, causal_margin, spectrum_verdict
from .channels import DensityState, NoiseModel, noise_kraus, state_from_bloch
from .errors import UsageError
from .linalg import hermitian_eig, read_only
from .schedule import two_event_pdm_stack

CSV_HEADER = "t,lambda1,lambda2,lambda3,lambda4,f_tr,classification"
#: Equally spaced times ``find_transition`` scans in [t_min, t_max].
_SCAN_POINTS = 256
#: Interior points evaluated per refinement round of ``find_transition``.
_REFINE_POINTS = 63
#: The most grid points a sweep config may ask for. ``run_sweep`` holds the
#: whole grid at once, ~1.3 KB per point, so this caps it near 130 MB.
MAX_SWEEP_POINTS = 100_000


@dataclass(frozen=True, eq=False)
class SweepConfig:
    """Two-event single-qubit sweep: PDM of {event, wait under noise, event} vs time.

    ``bloch`` is kept as a tuple of floats, a copy of the caller's numbers.
    Equality is identity, so a config hashes.
    """

    bloch: tuple
    noise: NoiseModel
    t_min: float
    t_max: float
    points: int
    grid: str = "linear"
    csv_path: str | None = None
    svg_path: str | None = None

    def __post_init__(self):
        try:
            bloch = tuple(self.bloch)
        except TypeError:
            bloch = None
        if bloch is None or not all(isinstance(x, numbers.Real) and not isinstance(x, bool) for x in bloch):
            raise UsageError(f"bloch must be a sequence of real numbers, got {self.bloch!r}")
        try:
            object.__setattr__(self, "bloch", tuple(float(x) for x in bloch))
        except OverflowError:
            raise UsageError("Bloch vector components must be finite, got an int too large for a float") from None
        if not isinstance(self.noise, NoiseModel):
            raise UsageError(f"noise must be a NoiseModel, got {self.noise!r}")
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


@dataclass(frozen=True, eq=False)
class Sweep:
    """A sweep as one record of arrays, one row per grid time.

    ``t`` (T,), ``eigenvalues`` (T, k) ascending along each row, ``f_tr`` (T,)
    and ``causal`` (T,) flags, each held as a read-only copy. Equality is
    identity, so a sweep hashes.
    """

    t: np.ndarray
    eigenvalues: np.ndarray
    f_tr: np.ndarray
    causal: np.ndarray

    def __post_init__(self):
        t = read_only(np.array(self.t, dtype=float))
        fields = {
            "t": t,
            "eigenvalues": read_only(np.array(self.eigenvalues, dtype=float)),
            "f_tr": read_only(np.array(self.f_tr, dtype=float)),
            "causal": read_only(np.array(self.causal, dtype=bool)),
        }
        if t.ndim != 1 or any(len(a) != len(t) for a in fields.values()) or fields["eigenvalues"].ndim != 2:
            shapes = ", ".join(f"{k} {a.shape}" for k, a in fields.items())
            raise UsageError(f"a sweep needs arrays of shapes (T,), (T, k), (T,) and (T,), got {shapes}")
        for name, a in fields.items():
            object.__setattr__(self, name, a)


def time_grid(cfg: SweepConfig) -> np.ndarray:
    if cfg.grid == "log":
        return np.geomspace(cfg.t_min, cfg.t_max, cfg.points)
    return np.linspace(cfg.t_min, cfg.t_max, cfg.points)


def _spectra(state: DensityState, noise: NoiseModel, ts) -> np.ndarray:
    """Ascending PDM eigenvalues at each waiting time: one Kraus array, one stack, one eigensolve."""
    return hermitian_eig(two_event_pdm_stack(state, noise_kraus(noise, ts)))


def run_sweep(cfg: SweepConfig) -> Sweep:
    """The PDM spectrum, f_tr and verdict at every grid time: one stack, one eigensolve."""
    ts = time_grid(cfg)
    W = _spectra(state_from_bloch(cfg.bloch), cfg.noise, ts)
    values, causal = spectrum_verdict(W)
    return Sweep(ts, W, values, causal)


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


def rows_to_csv(sweep: Sweep) -> str:
    """CSV with shortest round-trip float formatting; eigenvalues ascending.

    The body is one ``%`` format over the rows' Python floats and labels.
    """
    if sweep.eigenvalues.shape[1] != 4:
        raise UsageError("CSV output expects two-event (4-eigenvalue) rows")
    cells = np.empty((len(sweep.t), 7), dtype=object)
    cells[:, 0], cells[:, 1:5], cells[:, 5] = sweep.t, sweep.eigenvalues, sweep.f_tr
    cells[:, 6] = np.where(sweep.causal, CAUSAL, SPACELIKE)
    return CSV_HEADER + "\n" + "%r,%r,%r,%r,%r,%r,%s\n" * len(sweep.t) % tuple(cells.ravel().tolist())


# SVG layout constants.
_W, _PANEL_H, _MARGIN, _GAP = 640, 210, 46, 28
#: One colour per eigenvalue curve; ``emit_svg`` refuses a sweep with more columns.
_EIGEN_COLORS = ("#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b")


def _fmt(x: float) -> str:
    return f"{x:.3f}".rstrip("0").rstrip(".")


def _points(xs: np.ndarray, ys: np.ndarray) -> str:
    """``x,y x,y ...`` with each coordinate written as ``_fmt`` writes it.

    One ``%.3f`` format writes every coordinate with three decimals and a
    separator after it; three replace passes then drop trailing zeros. Each
    pass sees one token end per separator: "00" drops the last two decimals
    when both are zero, "0" the last one left, and a bare "." goes.
    """
    coords = np.column_stack([xs, ys]).ravel().tolist()
    text = "%.3f,%.3f " * len(xs) % tuple(coords)
    for sep in ", ":
        for tail in ("00", "0", "."):
            text = text.replace(tail + sep, sep)
    return text[:-1]


def _panel(ts, series, colors, y0, title, causal_spans):
    """One panel: the causal bands, a frame, a polyline per column of ``series`` and a title."""
    t_lo, t_hi = float(ts[0]), float(ts[-1])
    v_lo, v_hi = float(series.min()), float(series.max())
    if v_hi - v_lo < 1e-12:
        v_lo, v_hi = v_lo - 0.5, v_hi + 0.5
    pad = 0.05 * (v_hi - v_lo)
    v_lo, v_hi = v_lo - pad, v_hi + pad
    # Both maps take a band edge's float or a whole column of the sweep.
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
    xs = x_px(ts)
    for ys, color in zip(y_px(series).T, colors):
        out.append(f'<polyline points="{_points(xs, ys)}" fill="none" stroke="{color}" stroke-width="1.5"/>')
    out.append(
        f'<text x="{_fmt(_MARGIN)}" y="{_fmt(y0 - 8)}" font-family="sans-serif" '
        f'font-size="13" fill="#000">{title}</text>'
    )
    return out


def _causal_spans(sweep: Sweep) -> list[tuple[float, float]]:
    """``(start, end)`` times of each run of causal rows.

    A run starts at its first row's time and ends at the time of the next
    row, or of the last row when it runs to the end of the grid.
    """
    edges = np.flatnonzero(np.diff(sweep.causal, prepend=False, append=False))
    t = sweep.t[np.minimum(edges, len(sweep.t) - 1)].tolist()
    return list(zip(t[0::2], t[1::2]))


def emit_svg(sweep: Sweep) -> str:
    """Two stacked panels: eigenvalues vs t and f_tr vs t, causal region shaded.

    The x axis runs from the first time to the last, so the sweep needs at
    least 2 rows, finite entries and a last time after the first; ``run_sweep``
    output always has them.
    """
    if len(sweep.t) < 2:
        raise UsageError("SVG output requires at least 2 rows")
    if not all(np.isfinite(a).all() for a in (sweep.t, sweep.eigenvalues, sweep.f_tr)):
        raise UsageError("SVG output requires finite times, eigenvalues and f_tr values")
    t_first, t_last = float(sweep.t[0]), float(sweep.t[-1])
    if not t_last > t_first:
        raise UsageError(f"SVG output requires the last time after the first, got {t_first!r} and {t_last!r}")
    spans = _causal_spans(sweep)
    k = sweep.eigenvalues.shape[1]
    if k > len(_EIGEN_COLORS):
        raise UsageError(f"SVG output draws at most {len(_EIGEN_COLORS)} eigenvalue columns, got {k}")
    colors = _EIGEN_COLORS[:k]
    height = 2 * (_PANEL_H + _GAP) + 2 * _MARGIN
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{height}" '
        f'viewBox="0 0 {_W} {height}">',
        f'<rect x="0" y="0" width="{_W}" height="{height}" fill="#fff"/>',
    ]
    y1 = _MARGIN
    parts += _panel(sweep.t, sweep.eigenvalues, colors, y1, "eigenvalues vs t", spans)
    y2 = _MARGIN + _PANEL_H + 2 * _GAP
    parts += _panel(sweep.t, sweep.f_tr[:, None], ["#000"], y2, "f_tr vs t", spans)
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
