"""Deterministic parameter-sweep harness.

Three sweeps cover the experiment space: bit count alone (quantized
model), frequency multiplier alone (held model, the infinite-resolution
limit), and the full two-dimensional grid (digitized model). Frequency
is fixed at 1 Hz, which loses no generality: the engines read the
multiplier p/q alone, so every reported metric and bound is the same
float at any frequency and times scale as 1/f, as tests check bit for bit.

Requested multipliers are snapped to the nearest rational p/q with
q <= q_max, the best rational approximation found from the continued
fraction in O(log q_max) steps, so spectra stay coherent; both the
requested and the snapped values are reported. A sweep snaps its axis
once, to integer pairs (p, q), before any row runs, and refuses the
whole sweep if a snapped multiplier has more pieces than
``MAX_PIECES``. An axis given by decades and points per decade holds at
most ``MAX_AXIS_POINTS`` points. Each distinct snapped multiplier is
evaluated once, and its report (or column) serves every axis point that
snaps to it. Each sweep is one call of an engine of
:mod:`~ddsmetrics.metrics`, which decides how its rows are batched: the
bits sweep :func:`~ddsmetrics.metrics.quantized_columns`, the multiplier
sweep and the grid :func:`~ddsmetrics.metrics.evaluate_columns`, of held
rows and of digitized ones.

A :class:`SweepResult` holds its rows as columns: the distinct reports,
one list per report field, the requested axis once, and each axis
point's position among the distinct snapped multipliers; every row's
report follows by arithmetic. There is no row view: a sweep builds no
report, row or timing object per point, and the CSV writer and the
charts read the columns.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Iterator

from .metrics import evaluate_columns, quantized_columns
from .signals import MAX_BITS, QuantizationMode, QuantizerConfig, SignalSpec, TimingConfig

__all__ = [
    "SCHEMA_VERSION",
    "FLAG_SUBNYQUIST",
    "SweepSpec",
    "SweepResult",
    "MAX_AXIS_POINTS",
    "snap_multiplier",
    "axis_length",
    "multiplier_axis",
    "sweep_bits",
    "sweep_multiplier",
    "sweep_grid",
]

SCHEMA_VERSION = 1

FLAG_SUBNYQUIST = "subnyquist"

# All sweeps run at 1 Hz; the metrics depend on the multiplier p/q only.
_SWEEP_FREQUENCY_HZ = 1.0

# Longest multiplier axis built from decades and points per decade.
MAX_AXIS_POINTS = 1 << 20


@dataclass(frozen=True)
class SweepSpec:
    """Axis definitions for one sweep."""

    bits_from: int = 1
    bits_to: int = 16
    bits_step: int = 1
    decades_from: float = 0.5
    decades_to: float = 4.0
    points_per_decade: int = 30
    multipliers: tuple[float, ...] | None = None
    mode: QuantizationMode = QuantizationMode.FLOOR
    q_max: int = 16

    def __post_init__(self) -> None:
        if not 1 <= self.bits_from <= self.bits_to <= MAX_BITS:
            raise ValueError(
                f"bit range [{self.bits_from}, {self.bits_to}] must lie within [1, {MAX_BITS}]"
            )
        if self.bits_step < 1:
            raise ValueError("bits_step must be >= 1")
        if self.points_per_decade < 1:
            raise ValueError("points_per_decade must be >= 1")
        if not 1 <= self.q_max <= sys.float_info.max:
            raise ValueError(f"q_max must be in [1, {sys.float_info.max!r}]")
        if self.multipliers is None and self.decades_to < self.decades_from:
            raise ValueError("decades_to must be >= decades_from")

    def bits_axis(self) -> list[int]:
        return list(range(self.bits_from, self.bits_to + 1, self.bits_step))

    def multiplier_axis(self) -> list[float]:
        if self.multipliers is not None:
            return [float(m) for m in self.multipliers]
        return multiplier_axis(
            self.decades_from, self.decades_to, self.points_per_decade
        )


def axis_length(
    decades_from: float, decades_to: float, points_per_decade: int
) -> int:
    """Number of points :func:`multiplier_axis` gives, found without
    building them."""
    span = decades_to - decades_from
    try:
        return round(span * points_per_decade) + 1
    except OverflowError:  # points_per_decade is past the float range
        return round(Fraction(span) * points_per_decade) + 1


def multiplier_axis(
    decades_from: float, decades_to: float, points_per_decade: int
) -> list[float]:
    """Log-spaced multiplier values, endpoints inclusive. Raises
    ``ValueError`` before building anything if there would be more than
    ``MAX_AXIS_POINTS`` of them."""
    count = axis_length(decades_from, decades_to, points_per_decade)
    if count > MAX_AXIS_POINTS:
        raise ValueError(
            f"the multiplier axis would have more than {MAX_AXIS_POINTS} points"
        )
    return [10.0 ** (decades_from + k / points_per_decade) for k in range(count)]


# The report field that a column of a sweep's CSV reads, where the two
# names differ; max_err_pct is max_abs_error in percent.
COLUMN_FIELDS = {
    "max_err": "max_abs_error",
    "max_err_pct": "max_abs_error",
    "eq5_bound": "paper_bound",
    "eq14_bound": "paper_bound",
    "eq16_bound": "paper_bound",
}


class SweepResult:
    """The rows of one sweep, held as columns.

    ``reports`` holds the sweep's distinct reports, one list per field of
    :data:`~ddsmetrics.metrics.REPORT_FIELDS`, ``width`` reports per
    distinct snapped multiplier: one per bit count (1 for held rows).
    ``axis`` holds the requested multipliers (``[None]`` in a bits sweep)
    and ``index`` the position of each among the distinct snapped
    multipliers. Row ``b*len(axis) + i`` is bit count b at axis point i,
    with report ``index[i]*width + b``; its flags are those of its report
    (see :meth:`report_column`).
    """

    schema_version = SCHEMA_VERSION

    def __init__(
        self,
        kind: str,  # "bits" | "multiplier" | "grid"
        spec: SweepSpec,
        reports: dict[str, list],
        axis: list[float | None],
        index: list[int],
        width: int,
    ):
        self.kind, self.spec, self.reports = kind, spec, reports
        self.axis, self.index, self.width = axis, index, width

    def row_reports(self) -> Iterator[int]:
        """The position of each row's report among the distinct reports,
        in row order, computed as it is read."""
        scaled = [k * self.width for k in self.index]
        return chain.from_iterable(map(b.__add__, scaled) for b in range(self.width))

    def report_column(self, name: str) -> list:
        """Column ``name`` of each distinct report, in the order of
        :attr:`reports`: a report field, a CSV column name of
        :data:`COLUMN_FIELDS`, or ``"flags"``, the flags of its snapped
        multiplier p/q (:data:`FLAG_SUBNYQUIST` when p < 2q)."""
        if name == "flags":
            return [
                (FLAG_SUBNYQUIST,) if p is not None and p < 2 * q else ()
                for p, q in zip(self.reports["m_num"], self.reports["m_den"])
            ]
        column = self.reports[COLUMN_FIELDS.get(name, name)]
        if name == "max_err_pct":
            return [100.0 * error for error in column]
        return column


def _snap(requested: float, q_max: int) -> tuple[int, int]:
    """Nearest rational p/q with p >= 1 and q <= q_max to the requested
    multiplier, as the integers (p, q) in lowest terms: the best rational
    approximation by continued fractions, in O(log q_max) steps.

    The nearest p/q is one of two one-sided bounds: the last convergent
    p1/q1 of the request with q1 <= q_max, and the semiconvergent
    (p0 + k*p1)/(q0 + k*q1) with the largest k that keeps the denominator
    within q_max, which lies on the other side. Ties go to the smaller
    denominator, then the smaller numerator. A request below
    1/(2*q_max) snaps to 1/q_max, since p is at least 1. The distances
    are compared in exact integer arithmetic, so the winner never depends
    on float rounding.
    """
    if q_max < 1:
        raise ValueError("q_max must be >= 1")
    # the exact value n/d in lowest terms, d > 0: the integers Fraction
    # would hold
    n, d = requested.as_integer_ratio()
    if n <= 0:
        raise ValueError(f"requested multiplier must be positive, got {requested!r}")
    if d <= q_max:
        return n, d
    # convergents p0/q0 and p1/q1 of n/d; the loop ends before the
    # denominator passes q_max, which happens before the expansion ends
    p0, q0, p1, q1 = 0, 1, 1, 0
    num, den = n, d
    while True:
        a, rest = divmod(num, den)
        if q0 + a * q1 > q_max:
            break
        p0, q0, p1, q1 = p1, q1, p0 + a * p1, q0 + a * q1
        num, den = den, rest
    k = (q_max - q0) // q1
    ps, qs = p0 + k * p1, q0 + k * q1
    if p1 == 0:  # p >= 1 excludes the lower bound 0/1
        return ps, qs
    # |p1/q1 - r| against |ps/qs - r|, both scaled by d*q1*qs
    gap1, gaps = abs(p1 * d - n * q1) * qs, abs(ps * d - n * qs) * q1
    if (gap1, q1, p1) < (gaps, qs, ps):
        return p1, q1
    return ps, qs


def snap_multiplier(requested: float, q_max: int) -> TimingConfig:
    """The timing of the nearest rational p/q with p >= 1 and q <= q_max
    to the requested multiplier (see :func:`_snap`)."""
    return TimingConfig(*_snap(requested, q_max))


def _snapped_axis(spec: SweepSpec) -> tuple[list[float], list[tuple[int, int]], list[int]]:
    """The requested multipliers of the axis; the distinct snapped
    multipliers (p, q), in order of first appearance; and the position
    of each requested multiplier's among them. Repeated and snapped-equal
    multipliers share one row evaluation. The engine checks the piece cap
    of these pairs before it evaluates a single row."""
    requested = spec.multiplier_axis()
    positions: dict[tuple[int, int], int] = {}
    index = []
    for value in requested:
        index.append(positions.setdefault(_snap(value, spec.q_max), len(positions)))
    return requested, list(positions), index


def sweep_bits(spec: SweepSpec) -> SweepResult:
    """One row per bit count for the quantized model, bits ascending."""
    quantizers = [QuantizerConfig(bits, spec.mode) for bits in spec.bits_axis()]
    return SweepResult(
        "bits", spec, quantized_columns(SignalSpec(_SWEEP_FREQUENCY_HZ), quantizers),
        [None], [0], len(quantizers),
    )


def sweep_multiplier(spec: SweepSpec) -> SweepResult:
    """One row per requested multiplier for the held model, ascending.
    The distinct snapped multipliers are evaluated in one call of
    :func:`~ddsmetrics.metrics.evaluate_columns`, without quantizers."""
    requested, pairs, index = _snapped_axis(spec)
    return SweepResult(
        "multiplier", spec, evaluate_columns(SignalSpec(_SWEEP_FREQUENCY_HZ), pairs),
        requested, index, 1,
    )


def sweep_grid(spec: SweepSpec) -> SweepResult:
    """One row per (bits, multiplier) pair for the digitized model,
    row-major with bits outermost, both axes ascending. Each distinct
    snapped multiplier's column of bit counts is evaluated once, in one
    call of :func:`~ddsmetrics.metrics.evaluate_columns`."""
    signal = SignalSpec(_SWEEP_FREQUENCY_HZ)
    quantizers = [QuantizerConfig(bits, spec.mode) for bits in spec.bits_axis()]
    requested, pairs, index = _snapped_axis(spec)
    return SweepResult(
        "grid", spec, evaluate_columns(signal, pairs, quantizers),
        requested, index, len(quantizers),
    )
