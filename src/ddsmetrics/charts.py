"""Dependency-free SVG charts of sweep results.

:func:`render_sweep` draws the two charts of each sweep, its max error
against its bounds and its THD: a line chart of a bits sweep (with a log
error axis) or of a multiplier sweep (with a log x axis), and a heatmap
with a blue-to-yellow ramp of a grid sweep. Output is a plain text
function of the input data, byte-identical across runs.
"""

from __future__ import annotations

import json
import math
from itertools import compress
from typing import Sequence

from .sweeps import SweepResult

__all__ = ["EmptyChart", "render_sweep"]

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


def _on_axis(values: list, log: bool) -> list[float]:
    """Each value as a float on a linear or a log axis; NaN where it has
    no place there (None, or not positive on a log axis)."""
    if log:
        return [math.log10(v) if v is not None and v > 0 else math.nan for v in values]
    return [math.nan if v is None else float(v) for v in values]


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


def _svg_open(lines: list[str]) -> None:
    lines.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">'
    )
    lines.append(f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>')


def _axis_labels(lines: list[str], labels: tuple[str, str], left: int, right: int,
                 top: int, bottom: int) -> None:
    cx = (left + right) / 2
    cy = (top + bottom) / 2
    x_label, y_label = labels
    lines.append(
        f'<text x="{cx:.1f}" y="{HEIGHT - 15}" text-anchor="middle" '
        f'font-size="15" font-family="sans-serif">{x_label}</text>'
    )
    lines.append(
        f'<text x="22" y="{cy:.1f}" text-anchor="middle" font-size="15" '
        f'font-family="sans-serif" transform="rotate(-90 22 {cy:.1f})">'
        f"{y_label}</text>"
    )


def render_line_chart(
    result: SweepResult, labels: tuple[str, str], log_y: bool, series: Sequence[str]
) -> str:
    """Self-contained SVG of a bits or multiplier sweep with one polyline
    per metric of ``series``; the x axis of a multiplier sweep is log."""
    log_x = result.kind == "multiplier"
    # the rows of a bits sweep are its reports, of a multiplier sweep its
    # axis points
    if result.kind == "bits":
        row_x, index = _on_axis(result.report_column("bits"), log_x), range(result.width)
    else:
        row_x, index = _on_axis(result.axis, log_x), result.index
    # each series' y per distinct report, which rows are its points (those
    # with an x and a y), and the range of their x and y
    points: dict[str, tuple[list[float], list[bool]]] = {}
    ranges = []
    for name in series:
        report_y = _on_axis(result.report_column(name), log_y)
        keep = [not (math.isnan(x) or math.isnan(report_y[i])) for x, i in zip(row_x, index)]
        points[name] = report_y, keep
        if any(keep):
            xs = list(compress(row_x, keep))
            ys = list(compress(map(report_y.__getitem__, index), keep))
            ranges.append((min(xs), max(xs), min(ys), max(ys)))
    if not ranges:
        raise EmptyChart("selected series contain no plottable values")

    x_lo, x_hi, y_lo, y_hi = (
        extreme(values) for extreme, values in zip((min, max, min, max), zip(*ranges))
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

    for v, label in _ticks(y_lo, y_hi, log_y):
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
    # each, with the float operations of px and py
    x_span, y_span = x_hi - x_lo, y_hi - y_lo
    width, height = right - left, bottom - top
    x_text = [f"{left + (x - x_lo) / x_span * width:.2f}" for x in row_x]
    for idx, name in enumerate(series):
        color = SERIES_COLORS[idx % len(SERIES_COLORS)]
        report_y, keep = points[name]
        y_text = [f"{bottom - (y - y_lo) / y_span * height:.2f}" for y in report_y]
        row_text = zip(compress(x_text, keep), compress(map(y_text.__getitem__, index), keep))
        coords = " ".join(map(",".join, row_text))
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

    _axis_labels(lines, labels, left, right, top, bottom)
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def _ramp_color(t: float) -> str:
    t = min(1.0, max(0.0, t))
    (r0, g0, b0), (r1, g1, b1) = BLUE_ANCHOR, YELLOW_ANCHOR
    return (
        f"#{round(r0 + t * (r1 - r0)):02x}{round(g0 + t * (g1 - g0)):02x}"
        f"{round(b0 + t * (b1 - b0)):02x}"
    )


def render_heatmap(result: SweepResult, labels: tuple[str, str], metric: str) -> str:
    """One filled cell per (bits, multiplier) pair of a grid sweep.

    The max-error ramp is anchored at 0 (blue) and 1.0 (yellow); other
    metrics anchor to the observed finite range, and the anchors are
    recorded in the SVG metadata either way.
    """
    # the axis points in ascending order, one column each; the cell of
    # bit count b at axis point i has report index[i]*width + b
    axis, width = result.axis, result.width
    order = sorted(range(len(axis)), key=axis.__getitem__)
    for i, j in zip(order, order[1:]):
        if axis[i] == axis[j]:
            raise ValueError(f"the grid chart needs multiplier {axis[i]!r} only once")
    mult_axis = [axis[i] for i in order]
    bits_axis = result.report_column("bits")[:width]
    column = result.report_column(metric)
    columns = [result.index[i] * width for i in order]

    present = [v for v in column if v is not None]
    if not present:
        raise EmptyChart(f"metric {metric!r} has no values on this grid")
    if metric == "max_err":
        lo, hi = 0.0, 1.0
    else:
        lo, hi = min(present), max(present)

    left, right = MARGIN_LEFT, WIDTH - MARGIN_RIGHT
    top, bottom = MARGIN_TOP, HEIGHT - MARGIN_BOTTOM
    cell_w = (right - left) / len(mult_axis)
    cell_h = (bottom - top) / width

    lines: list[str] = []
    _svg_open(lines)
    meta = {"metric": metric, "low": lo, "high": hi,
            "low_color": _ramp_color(0.0), "high_color": _ramp_color(1.0)}
    lines.append(f"<metadata>{json.dumps(meta, sort_keys=True)}</metadata>")

    # every cell of a column shares its x text, of a row its y text
    xs = [f"{left + mi * cell_w:.2f}" for mi in range(len(mult_axis))]
    size = f'width="{cell_w:.2f}" height="{cell_h:.2f}"'
    for bi in range(width):
        # bits increase upward
        y = f"{bottom - (bi + 1) * cell_h:.2f}"
        for x, first in zip(xs, columns):
            v = column[first + bi]
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

    _axis_labels(lines, labels, left, right, top, bottom)
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


# The chart of each (sweep kind, metric), as the CLI and the figure script
# draw it: its x and y labels, whether its y axis is log, and the series
# of a line chart or the metric of a heatmap.
_SWEEP_CHARTS = {
    ("bits", "error"): (("bits", "max abs error"), True, ("max_err", "eq5_bound")),
    ("bits", "thd"): (("bits", "THD [dB]"), False, ("thd_db",)),
    ("multiplier", "error"): (
        ("frequency multiplier", "max abs error"), False,
        ("max_err", "eq14_bound", "strict_bound"),
    ),
    ("multiplier", "thd"): (("frequency multiplier", "THD [dB]"), False, ("thd_db",)),
    ("grid", "error"): (("frequency multiplier", "bits"), False, "max_err"),
    ("grid", "thd"): (("frequency multiplier", "bits"), False, "thd_db"),
}


def render_sweep(result: SweepResult, metric: str) -> str:
    """The chart of a sweep's ``metric``, ``"error"`` (max error against
    its bounds) or ``"thd"``: a line chart of a bits or multiplier sweep,
    a heatmap of a grid sweep. Raises :class:`EmptyChart` when no row has
    a value to draw."""
    if not result.axis:
        raise ValueError("sweep result has no rows")
    if metric not in ("error", "thd"):
        raise ValueError(f"chart must be 'error' or 'thd', got {metric!r}")
    labels, log_y, selection = _SWEEP_CHARTS[result.kind, metric]
    if result.kind == "grid":
        return render_heatmap(result, labels, selection)
    return render_line_chart(result, labels, log_y, selection)
