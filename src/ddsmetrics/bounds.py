"""Closed-form worst-case error bounds for the degraded sine models.

Each bound is asked for at rows p/q, whose phase f*dt per update is the
float q/p, and comes as two columns. The paper column reproduces the
published formulas verbatim: one quantization level for amplitude error,
and the small-gap estimate sin(2*pi*f*dt) for the hold error. The strict
column replaces the hold estimate with a provable supremum over every
step alignment, 2*sin(pi*f*dt). The estimate is the supremum only for
an even integer number of steps per period, and is exceeded on most rows
of the default sweeps, so soundness tests use the strict column.
"""

from __future__ import annotations

import math
from typing import Iterable

from .signals import MAX_BITS, TimingConfig, sin_turns

__all__ = [
    "quantization_error_bound",
    "full_scale_range",
    "min_clock_frequency",
    "max_phase_shift",
    "held_bounds",
    "digitized_bounds",
    "report",
]

# Absolute error between two points of a unit sine can never exceed the
# peak-to-peak span of 2, whatever the time gap does.
ERROR_CAP = 2.0


def _check_positive(name: str, value: float) -> None:
    if not (isinstance(value, (int, float)) and math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


def _check_bits(bits: int) -> None:
    if not isinstance(bits, int) or isinstance(bits, bool) or not 1 <= bits <= MAX_BITS:
        raise ValueError(f"bits must be an integer in [1, {MAX_BITS}], got {bits!r}")


def quantization_error_bound(bits: int) -> float:
    """One quantization level, 2**-(bits-1); halves exactly per added bit."""
    _check_bits(bits)
    return 2.0 ** (1 - bits)


def full_scale_range() -> float:
    """Peak-to-peak span of the unit sine, exactly 2."""
    return 2.0


def min_clock_frequency(dt: float) -> float:
    """Slowest clock that can sustain an update gap of ``dt`` seconds."""
    _check_positive("dt", dt)
    return 1.0 / dt


def max_phase_shift(frequency_hz: float, dt: float) -> float:
    """Largest phase lag (radians) the hold introduces: 2*pi*f*dt."""
    _check_positive("frequency_hz", frequency_hz)
    if not (isinstance(dt, (int, float)) and math.isfinite(dt) and dt >= 0):
        raise ValueError(f"dt must be nonnegative and finite, got {dt!r}")
    shift = 2.0 * math.pi * frequency_hz * dt
    # 2*pi*f alone overflows past about 2.9e307 Hz, where f*dt may not
    return shift if shift < math.inf else 2.0 * math.pi * (frequency_hz * dt)


def _sin_two_pi(x: float) -> float:
    """sin(2*pi*x) with the argument reduced exactly, any x >= 0: the
    fractional part of a float is a float, so the difference is exact."""
    return sin_turns(x - math.floor(x))


def _bounds(
    rows: Iterable[tuple[int, int]], bits: Iterable[int] | None = None
) -> tuple[list, list]:
    """The paper and strict bounds at the phase f*dt = q/p of each row p/q,
    as two columns: of the hold when ``bits`` is None, else of each bit
    count of ``bits`` at each phase, one phase after another. The bit terms
    are computed once, and no pair is made per entry."""
    turns = [q / p for p, q in rows]
    holds = [min(ERROR_CAP, 2.0 * sin_turns(x / 2.0)) if x <= 0.5 else ERROR_CAP for x in turns]
    if bits is None:
        return [sin_turns(x) if x <= 0.25 else ERROR_CAP for x in turns], holds
    levels = [(quantization_error_bound(b), 1 << (b - 1)) for b in bits]
    paper: list[float] = []
    strict: list[float] = []
    for hold, x in zip(holds, turns):
        s = _sin_two_pi(x)
        paper += [(1.0 + abs(scale * s)) / scale for _, scale in levels]
        strict += [level + hold for level, _ in levels]
    return paper, strict


def held_bounds(rows: Iterable[tuple[int, int]]) -> tuple[list[float], list[float]]:
    """Worst-case amplitude error of the sample-hold model at each
    multiplier p/q of ``rows``, at f*dt = q/p, as two columns.

    Paper: sin(2*pi*f*dt) while f*dt <= 1/4, else the cap of 2. The sine
    estimate peaks at f*dt = 1/4 and is misleading past it, so the cap
    takes over there.

    Strict: min(2, 2*sin(pi*f*dt)) for f*dt <= 1/2, else 2. This is the
    true supremum of |sin(theta + delta) - sin(theta)| over all phases for
    lags delta up to 2*pi*f*dt, hence sound for every step alignment. It
    doubles the very float of the engine's half swing.
    """
    return _bounds(rows)


def digitized_bounds(
    rows: Iterable[tuple[int, int]], bits: Iterable[int]
) -> tuple[list[float], list[float]]:
    """Worst-case error with quantization and hold combined, for each bit
    count of ``bits`` at each multiplier p/q of ``rows``, at f*dt = q/p, as
    two columns: entry ``i*len(bits) + b`` is that of row i and bit count b.

    Paper: (1 + |2**(bits-1) * sin(2*pi*f*dt)|) / 2**(bits-1), the printed
    combined formula. Strict: the quantization level plus the strict hold
    bound, sound for any alignment.
    """
    return _bounds(rows, bits)


def report(
    frequency_hz: float, timing: TimingConfig | None = None, bits: int | None = None
) -> dict:
    """Every closed-form figure of a parameter point, keyed and ordered as
    the ``bounds`` command prints them: the quantization bound when
    ``bits`` is given, the clock, phase and hold figures when ``timing``
    is, and the combined bounds when both are, from its p/q alone."""
    f = frequency_hz
    data: dict = {"freq_hz": f, "full_scale_range": full_scale_range()}
    if bits is not None:
        data["bits"] = bits
        data["quantization_bound"] = quantization_error_bound(bits)
    if timing is None:
        return data
    dt = timing.time_gap_s(f)
    data["m_num"] = timing.multiplier_num
    data["m_den"] = timing.multiplier_den
    data["dt_s"] = dt
    data["min_clock_hz"] = min_clock_frequency(dt)
    data["max_phase_shift_rad"] = max_phase_shift(f, dt)
    rows = [(timing.multiplier_num, timing.multiplier_den)]
    for column, [value] in zip(("paper", "strict"), held_bounds(rows)):
        data[f"held_bound_{column}"] = value
    if bits is not None:
        for column, [value] in zip(("paper", "strict"), digitized_bounds(rows, [bits])):
            data[f"digitized_bound_{column}"] = value
    return data
