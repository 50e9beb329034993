"""Deterministic parameter-sweep harness.

Three sweeps cover the experiment space: bit count alone (quantized
model), frequency multiplier alone (held model, the infinite-resolution
limit), and the full two-dimensional grid (digitized model). Frequency
is fixed at 1 Hz; every metric depends on the product f*dt only, so this
loses no generality and scale invariance is covered by tests.

Requested multipliers are snapped to nearby rationals with a bounded
denominator so spectra stay coherent; both the requested and the snapped
values are reported. A sweep snaps its axis once, before any row runs,
and refuses the whole sweep if a snapped multiplier has more pieces than
``MAX_PIECES``. Rows are independent and may be evaluated by a thread
pool, but the result order is fixed by the parameter axes, never by
completion order.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .metrics import MetricsReport, check_pieces, evaluate
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
    "snap_multiplier",
    "multiplier_axis",
    "sweep_bits",
    "sweep_multiplier",
    "sweep_grid",
]

SCHEMA_VERSION = 1

FLAG_SUBNYQUIST = "subnyquist"

# All sweeps run at 1 Hz; the metrics depend on f*dt = 1/M only.
_SWEEP_FREQUENCY_HZ = 1.0


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


def multiplier_axis(
    decades_from: float, decades_to: float, points_per_decade: int
) -> list[float]:
    """Log-spaced multiplier values, endpoints inclusive."""
    count = round((decades_to - decades_from) * points_per_decade)
    return [
        10.0 ** (decades_from + k / points_per_decade) for k in range(count + 1)
    ]


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
    """Nearest rational p/q with q <= q_max to the requested multiplier.

    Ties go to the smaller denominator, then the smaller numerator. The
    comparison runs in exact rational arithmetic, so the winner never
    depends on float rounding.
    """
    if q_max < 1:
        raise ValueError("q_max must be >= 1")
    r = Fraction(requested)
    if r <= 0:
        raise ValueError(f"requested multiplier must be positive, got {requested!r}")
    best_key: tuple[Fraction, int, int] | None = None
    for q in range(1, q_max + 1):
        floor_p = (r.numerator * q) // r.denominator
        for p in {max(1, floor_p), max(1, floor_p + 1)}:
            key = (abs(Fraction(p, q) - r), q, p)
            if best_key is None or key < best_key:
                best_key = key
    return TimingConfig(best_key[2], best_key[1])


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
        check_pieces(timing.multiplier_num, timing.multiplier_den)
        subnyquist = timing.multiplier < 2
        axis.append((requested, timing, (FLAG_SUBNYQUIST,) if subnyquist else ()))
    return axis


def sweep_bits(spec: SweepSpec, workers: int = 1) -> SweepResult:
    """One row per bit count for the quantized model, bits ascending."""
    signal = SignalSpec(_SWEEP_FREQUENCY_HZ)

    def one(bits: int) -> SweepRow:
        model = WaveformModel.quantized(signal, QuantizerConfig(bits, spec.mode))
        return SweepRow(requested_multiplier=None, report=evaluate(model))

    rows = _run_ordered(spec.bits_axis(), one, workers)
    return SweepResult("bits", tuple(rows), spec)


def sweep_multiplier(spec: SweepSpec, workers: int = 1) -> SweepResult:
    """One row per requested multiplier for the held model, ascending."""
    signal = SignalSpec(_SWEEP_FREQUENCY_HZ)

    def one(point: _AxisPoint) -> SweepRow:
        requested, timing, flags = point
        report = evaluate(WaveformModel.held(signal, timing))
        return SweepRow(requested_multiplier=requested, report=report, flags=flags)

    rows = _run_ordered(_snapped_axis(spec), one, workers)
    return SweepResult("multiplier", tuple(rows), spec)


def sweep_grid(spec: SweepSpec, workers: int = 1) -> SweepResult:
    """One row per (bits, multiplier) pair for the digitized model,
    row-major with bits outermost, both axes ascending."""
    signal = SignalSpec(_SWEEP_FREQUENCY_HZ)
    axis = _snapped_axis(spec)
    cells = [(bits, point) for bits in spec.bits_axis() for point in axis]

    def one(cell: tuple[int, _AxisPoint]) -> SweepRow:
        bits, (requested, timing, flags) = cell
        model = WaveformModel.digitized(
            signal, timing, QuantizerConfig(bits, spec.mode)
        )
        report = evaluate(model)
        return SweepRow(requested_multiplier=requested, report=report, flags=flags)

    rows = _run_ordered(cells, one, workers)
    return SweepResult("grid", tuple(rows), spec)
