"""Deterministic parameter-sweep harness.

Three sweeps cover the experiment space: bit count alone (quantized
model), frequency multiplier alone (held model, the infinite-resolution
limit), and the full two-dimensional grid (digitized model). Frequency
is fixed at 1 Hz; every metric depends on the product f*dt only, so this
loses no generality and scale invariance is covered by tests.

Requested multipliers are snapped to the nearest rational p/q with
q <= q_max, the best rational approximation found from the continued
fraction in O(log q_max) steps, so spectra stay coherent; both the
requested and the snapped values are reported. A sweep snaps its axis
once, before any row runs, and refuses the whole sweep if a snapped
multiplier has more pieces than ``MAX_PIECES``. An axis given by decades
and points per decade holds at most ``MAX_AXIS_POINTS`` points. Each
distinct snapped multiplier is evaluated once, and its report (or
column) serves every axis point that snaps to it. The bits sweep
evaluates one row per task; the multiplier sweep a batch of up to
``_HELD_CHUNK`` held rows per task, whose candidate pieces share one
pass of array operations; the grid a batch of consecutive multipliers'
columns of bit counts per task (see
:func:`~ddsmetrics.metrics.column_batches`), whose pieces likewise share
one pass, the work that depends on the multipliers alone included. Tasks
are independent and may be run by a thread pool, but the result order is
fixed by the parameter axes, never by completion order.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .metrics import (
    MetricsReport,
    check_pieces,
    column_batches,
    evaluate,
    evaluate_columns,
    evaluate_held,
)
from .signals import (
    QuantizationMode,
    QuantizerConfig,
    SignalSpec,
    TimingConfig,
    WaveformModel,
)

__all__ = [
    "SCHEMA_VERSION",
    "FLAG_SUBNYQUIST",
    "SweepSpec",
    "SweepRow",
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

# All sweeps run at 1 Hz; the metrics depend on f*dt = 1/M only.
_SWEEP_FREQUENCY_HZ = 1.0

# Longest multiplier axis built from decades and points per decade.
MAX_AXIS_POINTS = 1 << 20

# Held rows per task of a multiplier sweep. A batch's temporaries take
# about 1.6 KB per row, so a task holds about 1.6 MB at most, whatever the
# length of the axis.
_HELD_CHUNK = 1024


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
        if not 1 <= self.bits_from <= self.bits_to <= 52:
            raise ValueError(
                f"bit range [{self.bits_from}, {self.bits_to}] must lie within [1, 52]"
            )
        if self.bits_step < 1:
            raise ValueError("bits_step must be >= 1")
        if self.points_per_decade < 1:
            raise ValueError("points_per_decade must be >= 1")
        if self.q_max < 1:
            raise ValueError("q_max must be >= 1")
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


@dataclass(frozen=True)
class SweepRow:
    requested_multiplier: float | None
    report: MetricsReport
    flags: tuple[str, ...] = ()


@dataclass(frozen=True)
class SweepResult:
    kind: str  # "bits" | "multiplier" | "grid"
    rows: tuple[SweepRow, ...]
    spec: SweepSpec
    schema_version: int = SCHEMA_VERSION


def snap_multiplier(requested: float, q_max: int) -> TimingConfig:
    """Nearest rational p/q with p >= 1 and q <= q_max to the requested
    multiplier: the best rational approximation by continued fractions,
    in O(log q_max) steps.

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
        return TimingConfig(n, d)
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
        return TimingConfig(ps, qs)
    # |p1/q1 - r| against |ps/qs - r|, both scaled by d*q1*qs
    gap1, gaps = abs(p1 * d - n * q1) * qs, abs(ps * d - n * qs) * q1
    if (gap1, q1, p1) < (gaps, qs, ps):
        return TimingConfig(p1, q1)
    return TimingConfig(ps, qs)


def _run_ordered(
    tasks: Sequence, worker: Callable, workers: int
) -> list:
    if workers > 1 and len(tasks) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(worker, tasks))
    return [worker(t) for t in tasks]


# (requested multiplier, snapped timing, row flags)
_AxisPoint = tuple[float, TimingConfig, tuple[str, ...]]


def _snapped_axis(spec: SweepSpec) -> list[_AxisPoint]:
    """One point per requested multiplier; raises
    :class:`~ddsmetrics.metrics.CapExceeded` if any snapped multiplier is
    over the piece cap, before a single row is evaluated."""
    axis = []
    for requested in spec.multiplier_axis():
        timing = snap_multiplier(requested, spec.q_max)
        p, q = timing.multiplier_num, timing.multiplier_den
        check_pieces(p, q)
        axis.append((requested, timing, (FLAG_SUBNYQUIST,) if p < 2 * q else ()))
    return axis


def sweep_bits(spec: SweepSpec, workers: int = 1) -> SweepResult:
    """One row per bit count for the quantized model, bits ascending."""
    signal = SignalSpec(_SWEEP_FREQUENCY_HZ)

    def one(bits: int) -> SweepRow:
        model = WaveformModel.quantized(signal, QuantizerConfig(bits, spec.mode))
        return SweepRow(requested_multiplier=None, report=evaluate(model))

    rows = _run_ordered(spec.bits_axis(), one, workers)
    return SweepResult("bits", tuple(rows), spec)


def _distinct_timings(axis: list[_AxisPoint]) -> list[TimingConfig]:
    """The snapped timings of the axis, each once, in order of first
    appearance: repeated and snapped-equal multipliers share one row
    evaluation."""
    return list(dict.fromkeys(timing for _, timing, _ in axis))


def sweep_multiplier(spec: SweepSpec, workers: int = 1) -> SweepResult:
    """One row per requested multiplier for the held model, ascending.
    The distinct snapped timings are evaluated in batches of
    ``_HELD_CHUNK`` rows, one batch per task."""
    signal = SignalSpec(_SWEEP_FREQUENCY_HZ)
    axis = _snapped_axis(spec)
    timings = _distinct_timings(axis)
    chunks = [timings[i:i + _HELD_CHUNK] for i in range(0, len(timings), _HELD_CHUNK)]
    batches = _run_ordered(chunks, lambda chunk: evaluate_held(signal, chunk), workers)
    reports = dict(zip(timings, (report for batch in batches for report in batch)))
    rows = [SweepRow(requested, reports[timing], flags) for requested, timing, flags in axis]
    return SweepResult("multiplier", tuple(rows), spec)


def sweep_grid(spec: SweepSpec, workers: int = 1) -> SweepResult:
    """One row per (bits, multiplier) pair for the digitized model,
    row-major with bits outermost, both axes ascending. Each distinct
    snapped multiplier's column of bit counts is evaluated once; a task
    is a batch of consecutive columns (see
    :func:`~ddsmetrics.metrics.column_batches`) whose pieces share one
    pass of array operations."""
    signal = SignalSpec(_SWEEP_FREQUENCY_HZ)
    quantizers = [QuantizerConfig(bits, spec.mode) for bits in spec.bits_axis()]
    axis = _snapped_axis(spec)
    timings = _distinct_timings(axis)
    batches = _run_ordered(
        column_batches(timings),
        lambda batch: evaluate_columns(signal, batch, quantizers),
        workers,
    )
    by_timing = dict(zip(timings, (column for batch in batches for column in batch)))
    rows = [
        SweepRow(requested_multiplier=requested, report=by_timing[timing][i], flags=flags)
        for i in range(len(quantizers))
        for requested, timing, flags in axis
    ]
    return SweepResult("grid", tuple(rows), spec)
