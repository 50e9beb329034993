"""Dependency-free SVG renderers for sweep results.

Line charts cover the single-axis sweeps (optionally with a log x-axis
for the multiplier sweep or a log error axis for the bits sweep); the
grid sweep renders as a heatmap with a blue-to-yellow ramp. Output is a
plain text function of the input data, byte-identical across runs.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .sweeps import COLUMN_FIELDS, SweepResult

__all__ = [
    "ChartKind",
    "ChartStyle",
    "EmptyChart",
    "render_line_chart",
    "render_heatmap",
    "render_sweep",
]

WIDTH = 800
HEIGHT = 600
MARGIN_LEFT = 80
MARGIN_RIGHT = 150
MARGIN_TOP = 40
MARGIN_BOTTOM = 70

SERIES_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd")

BLUE_ANCHOR = (0, 0, 255)
YELLOW_ANCHOR = (255, 255, 0)
MISSING_FILL = "#bbbbbb"


class EmptyChart(ValueError):
    """The selected metric has no plottable value in the sweep."""


class ChartKind(enum.Enum):
    LINEAR_LINE = "linear-line"
    LOG_X_LINE = "log-x-line"
    HEATMAP = "heatmap"


@dataclass(frozen=True)
class ChartStyle:
    kind: ChartKind
    x_label: str = ""
    y_label: str = ""
    log_y: bool = False


# The metrics a chart plots: the renamed error and bound columns of a
# sweep's CSV, and the report's THD and bound fields.
_METRICS = frozenset((*COLUMN_FIELDS, "thd_ratio", "thd_db", "paper_bound", "strict_bound"))


def _metric(result: SweepResult, name: str) -> list:
    """The metric ``name`` of each distinct report of the sweep."""
    if name not in _METRICS:
        raise ValueError(f"unknown metric {name!r}")
    return result.report_column(name)


def _on_axis(values: list, log: bool) -> np.ndarray:
    """Each value as a float on a linear or a log axis; NaN where it has
    no place there (None, or not positive on a log axis)."""
    if log:
        return np.array([math.log10(v) if v is not None and v > 0 else math.nan for v in values])
    return np.array([math.nan if v is None else float(v) for v in values])


def _nice_ticks(lo: float, hi: float, target: int = 6) -> list[float]:
    if hi <= lo:
        return [lo]
    raw = (hi - lo) / target
    magnitude = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        step = mult * magnitude
        if raw <= step:
            break
    first = math.ceil(lo / step) * step
    ticks = []
    value = first
    while value <= hi + step * 1e-9:
        ticks.append(round(value / step) * step)
        value += step
    return ticks


def _fmt_tick(v: float) -> str:
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return f"{v:.6g}"


def _ticks(lo: float, hi: float, log: bool) -> list[tuple[float, str]]:
    """Each tick of an axis from ``lo`` to ``hi`` and its label: the
    powers 10^k on a log axis, nice steps on a linear one."""
    if log:
        return [
            (float(k), f"10^{k}")
            for k in range(math.ceil(lo - 1e-9), math.floor(hi + 1e-9) + 1)
        ]
    return [(v, _fmt_tick(v)) for v in _nice_ticks(lo, hi)]


def _coordinates(values: np.ndarray) -> np.ndarray:
    """The SVG text of each pixel coordinate, as an object array, which
    picks the texts of many points without copying them."""
    return np.array(list(map("{:.2f}".format, values.tolist())), dtype=object)


def _svg_open(lines: list[str]) -> None:
    lines.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">'
    )
    lines.append(f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>')


def _axis_labels(lines: list[str], style: ChartStyle, left: int, right: int,
                 top: int, bottom: int) -> None:
    cx = (left + right) / 2
    cy = (top + bottom) / 2
    if style.x_label:
        lines.append(
            f'<text x="{cx:.1f}" y="{HEIGHT - 15}" text-anchor="middle" '
            f'font-size="15" font-family="sans-serif">{style.x_label}</text>'
        )
    if style.y_label:
        lines.append(
            f'<text x="22" y="{cy:.1f}" text-anchor="middle" font-size="15" '
            f'font-family="sans-serif" transform="rotate(-90 22 {cy:.1f})">'
            f"{style.y_label}</text>"
        )


def render_line_chart(
    result: SweepResult, style: ChartStyle, series: Sequence[str]
) -> str:
    """Self-contained SVG with one polyline per selected metric."""
    if result.kind not in ("bits", "multiplier"):
        raise ValueError(f"line charts need a bits or multiplier sweep, got {result.kind!r}")
    if not series:
        raise ValueError("series selection is empty")
    if not result.report_index:
        raise ValueError("sweep result has no rows")

    log_x = style.kind is ChartKind.LOG_X_LINE
    row_x = _on_axis(
        result.row_column("bits") if result.kind == "bits" else result.requested_multipliers,
        log_x,
    )
    index = np.array(result.report_index, dtype=np.intp)
    # each series' y per distinct report, the rows that are its points, and
    # the range of their x and y
    points: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    ranges = []
    for name in series:
        report_y = _on_axis(_metric(result, name), style.log_y)
        rows = np.flatnonzero(~np.isnan(row_x) & ~np.isnan(report_y[index]))
        points[name] = report_y, rows
        if len(rows):
            xs, ys = row_x[rows], report_y[index[rows]]
            ranges.append((xs.min(), xs.max(), ys.min(), ys.max()))
    if not ranges:
        raise EmptyChart("selected series contain no plottable values")

    x_lo, x_hi, y_lo, y_hi = (
        float(extreme(values)) for extreme, values in zip((min, max, min, max), zip(*ranges))
    )
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5
    pad = 0.05 * (y_hi - y_lo)
    y_lo -= pad
    y_hi += pad

    left, right = MARGIN_LEFT, WIDTH - MARGIN_RIGHT
    top, bottom = MARGIN_TOP, HEIGHT - MARGIN_BOTTOM

    def px(x: float) -> float:
        return left + (x - x_lo) / (x_hi - x_lo) * (right - left)

    def py(y: float) -> float:
        return bottom - (y - y_lo) / (y_hi - y_lo) * (bottom - top)

    lines: list[str] = []
    _svg_open(lines)

    for v, label in _ticks(y_lo, y_hi, style.log_y):
        y = py(v)
        lines.append(
            f'<line x1="{left}" y1="{y:.2f}" x2="{right}" y2="{y:.2f}" '
            f'stroke="#dddddd" stroke-width="1"/>'
        )
        lines.append(
            f'<text x="{left - 8}" y="{y + 4:.2f}" text-anchor="end" '
            f'font-size="12" font-family="sans-serif">{label}</text>'
        )
    for v, label in _ticks(x_lo, x_hi, log_x):
        x = px(v)
        lines.append(
            f'<line x1="{x:.2f}" y1="{bottom}" x2="{x:.2f}" y2="{bottom + 5}" '
            f'stroke="#000000" stroke-width="1"/>'
        )
        lines.append(
            f'<text x="{x:.2f}" y="{bottom + 20}" text-anchor="middle" '
            f'font-size="12" font-family="sans-serif">{label}</text>'
        )

    lines.append(
        f'<line x1="{left}" y1="{bottom}" x2="{right}" y2="{bottom}" '
        f'stroke="#000000" stroke-width="1.5"/>'
    )
    lines.append(
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{bottom}" '
        f'stroke="#000000" stroke-width="1.5"/>'
    )

    # the text of px of each row, and of py of each distinct report, once
    # each: px and py over arrays, with the same float operations
    x_text = _coordinates(left + (row_x - x_lo) / (x_hi - x_lo) * (right - left))
    for idx, name in enumerate(series):
        color = SERIES_COLORS[idx % len(SERIES_COLORS)]
        report_y, rows = points[name]
        y_text = _coordinates(bottom - (report_y - y_lo) / (y_hi - y_lo) * (bottom - top))
        coords = " ".join(map(",".join, zip(x_text[rows], y_text[index[rows]])))
        lines.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="2" '
            f'points="{coords}"/>'
        )
        ly = top + 16 + idx * 20
        lines.append(
            f'<line x1="{right + 10}" y1="{ly}" x2="{right + 32}" y2="{ly}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        lines.append(
            f'<text x="{right + 38}" y="{ly + 4}" text-anchor="start" '
            f'font-size="12" font-family="sans-serif">{name}</text>'
        )

    _axis_labels(lines, style, left, right, top, bottom)
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def _ramp_color(t: float) -> str:
    t = min(1.0, max(0.0, t))
    (r0, g0, b0), (r1, g1, b1) = BLUE_ANCHOR, YELLOW_ANCHOR
    return (
        f"#{round(r0 + t * (r1 - r0)):02x}{round(g0 + t * (g1 - g0)):02x}"
        f"{round(b0 + t * (b1 - b0)):02x}"
    )


def render_heatmap(result: SweepResult, style: ChartStyle, metric: str) -> str:
    """One filled cell per (bits, multiplier) pair of a grid sweep.

    The max-error ramp is anchored at 0 (blue) and 1.0 (yellow); other
    metrics anchor to the observed finite range, and the anchors are
    recorded in the SVG metadata either way.
    """
    if result.kind != "grid":
        raise ValueError(f"heatmaps need a grid sweep, got {result.kind!r}")
    if not result.report_index:
        raise ValueError("sweep result has no rows")

    row_bits = result.row_column("bits")
    multipliers = result.requested_multipliers
    bits_axis = sorted(set(row_bits))
    mult_axis = sorted(set(multipliers))
    cells: dict[tuple[int, float], int] = {}  # the row of each cell
    for row, key in enumerate(zip(row_bits, multipliers)):
        if key in cells:
            raise ValueError(f"duplicate grid cell {key}")
        cells[key] = row
    if len(cells) != len(bits_axis) * len(mult_axis):
        raise ValueError("ragged grid: not every (bits, multiplier) pair is present")

    column, index = _metric(result, metric), result.report_index
    values = {key: column[index[row]] for key, row in cells.items()}

    present = [v for v in values.values() if v is not None]
    if not present:
        raise EmptyChart(f"metric {metric!r} has no values on this grid")
    if metric in ("max_err", "max_err_pct"):
        lo = 0.0
        hi = 1.0 if metric == "max_err" else 100.0
    else:
        lo = min(present)
        hi = max(present)

    left, right = MARGIN_LEFT, WIDTH - MARGIN_RIGHT
    top, bottom = MARGIN_TOP, HEIGHT - MARGIN_BOTTOM
    cell_w = (right - left) / len(mult_axis)
    cell_h = (bottom - top) / len(bits_axis)

    lines: list[str] = []
    _svg_open(lines)
    meta = {"metric": metric, "low": lo, "high": hi,
            "low_color": _ramp_color(0.0), "high_color": _ramp_color(1.0)}
    lines.append(f"<metadata>{json.dumps(meta, sort_keys=True)}</metadata>")

    # every cell of a column shares its x text, of a row its y text
    xs = [f"{left + mi * cell_w:.2f}" for mi in range(len(mult_axis))]
    size = f'width="{cell_w:.2f}" height="{cell_h:.2f}"'
    for bi, bits in enumerate(bits_axis):
        # bits increase upward
        y = f"{bottom - (bi + 1) * cell_h:.2f}"
        for x, mult in zip(xs, mult_axis):
            v = values[(bits, mult)]
            if v is None:
                fill = MISSING_FILL
            elif hi == lo:
                fill = _ramp_color(0.0)
            else:
                fill = _ramp_color((v - lo) / (hi - lo))
            lines.append(f'<rect class="cell" x="{x}" y="{y}" {size} fill="{fill}"/>')

    max_x_labels = 12
    stride = max(1, math.ceil(len(mult_axis) / max_x_labels))
    for mi, mult in enumerate(mult_axis):
        if mi % stride:
            continue
        x = left + (mi + 0.5) * cell_w
        lines.append(
            f'<text x="{x:.2f}" y="{bottom + 18}" text-anchor="middle" '
            f'font-size="11" font-family="sans-serif">{_fmt_tick(mult)}</text>'
        )
    for bi, bits in enumerate(bits_axis):
        y = bottom - (bi + 0.5) * cell_h
        lines.append(
            f'<text x="{left - 8}" y="{y + 4:.2f}" text-anchor="end" '
            f'font-size="11" font-family="sans-serif">{bits}</text>'
        )

    _axis_labels(lines, style, left, right, top, bottom)
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


# The chart of each (sweep kind, metric), as the CLI and the figure script
# draw it: its style, and the series of a line chart or the metric of a
# heatmap.
_SWEEP_CHARTS = {
    ("bits", "error"): (
        ChartStyle(ChartKind.LINEAR_LINE, "bits", "max abs error", log_y=True),
        ("max_err", "eq5_bound"),
    ),
    ("bits", "thd"): (ChartStyle(ChartKind.LINEAR_LINE, "bits", "THD [dB]"), ("thd_db",)),
    ("multiplier", "error"): (
        ChartStyle(ChartKind.LOG_X_LINE, "frequency multiplier", "max abs error"),
        ("max_err", "eq14_bound", "strict_bound"),
    ),
    ("multiplier", "thd"): (
        ChartStyle(ChartKind.LOG_X_LINE, "frequency multiplier", "THD [dB]"),
        ("thd_db",),
    ),
    ("grid", "error"): (
        ChartStyle(ChartKind.HEATMAP, "frequency multiplier", "bits"), "max_err"
    ),
    ("grid", "thd"): (ChartStyle(ChartKind.HEATMAP, "frequency multiplier", "bits"), "thd_db"),
}


def render_sweep(result: SweepResult, metric: str) -> str:
    """The standard chart of a sweep's ``metric``, ``"error"`` (max error
    against its bounds) or ``"thd"``: a line chart of a bits or multiplier
    sweep, a heatmap of a grid sweep."""
    style, selection = _SWEEP_CHARTS[result.kind, metric]
    if style.kind is ChartKind.HEATMAP:
        return render_heatmap(result, style, selection)
    return render_line_chart(result, style, selection)
