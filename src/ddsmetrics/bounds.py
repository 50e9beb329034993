"""Closed-form worst-case error bounds for the degraded sine models.

Two families are exposed. The ``PAPER`` variant reproduces the published
formulas verbatim: one quantization level for amplitude error, and the
small-gap estimate sin(2*pi*f*dt) for the hold error. The ``STRICT``
variant replaces the hold estimate with a provable supremum over every
step alignment, 2*sin(pi*f*dt): the estimate is exact only when the
number of steps per period is an even integer, and is exceeded for odd
integers, so tests that assert soundness must use the strict form.
"""

from __future__ import annotations

import enum
import math
from fractions import Fraction

from .signals import MAX_BITS, TimingConfig, sin_turns

__all__ = [
    "BoundVariant",
    "quantization_error_bound",
    "full_scale_range",
    "min_clock_frequency",
    "max_phase_shift",
    "held_error_bound",
    "digitized_error_bound",
    "variant_bounds",
    "report",
]

# Absolute error between two points of a unit sine can never exceed the
# peak-to-peak span of 2, whatever the time gap does.
ERROR_CAP = 2.0


class BoundVariant(enum.Enum):
    PAPER = "paper"
    STRICT = "strict"


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
    return 2.0 * math.pi * frequency_hz * dt


def _sin_two_pi(x: float) -> float:
    """sin(2*pi*x) with the argument reduced exactly, any x >= 0."""
    frac = Fraction(x)
    frac -= frac.numerator // frac.denominator
    return sin_turns(float(frac))


def held_error_bound(frequency_hz: float, dt: float, variant: BoundVariant) -> float:
    """Worst-case amplitude error of the sample-hold model.

    PAPER: sin(2*pi*f*dt) while f*dt <= 1/4, else the cap of 2. The sine
    estimate peaks at f*dt = 1/4 and is misleading past it, so the cap
    takes over there.

    STRICT: min(2, 2*sin(pi*f*dt)) for f*dt <= 1/2, else 2. This is the
    true supremum of |sin(theta + delta) - sin(theta)| over all phases for
    lags delta up to 2*pi*f*dt, hence sound for every step alignment.
    """
    _check_positive("frequency_hz", frequency_hz)
    _check_positive("dt", dt)
    x = frequency_hz * dt
    if variant is BoundVariant.PAPER:
        if x <= 0.25:
            return sin_turns(x)
        return ERROR_CAP
    if variant is BoundVariant.STRICT:
        if x <= 0.5:
            return min(ERROR_CAP, 2.0 * sin_turns(x / 2.0))
        return ERROR_CAP
    raise ValueError(f"unknown bound variant {variant!r}")


def digitized_error_bound(
    frequency_hz: float, dt: float, bits: int, variant: BoundVariant
) -> float:
    """Worst-case error with quantization and hold combined.

    PAPER: (1 + |2**(bits-1) * sin(2*pi*f*dt)|) / 2**(bits-1), the printed
    combined formula. STRICT: the quantization level plus the strict hold
    bound, sound for any alignment.
    """
    _check_positive("frequency_hz", frequency_hz)
    _check_positive("dt", dt)
    _check_bits(bits)
    if variant is BoundVariant.PAPER:
        scale = 1 << (bits - 1)
        s = _sin_two_pi(frequency_hz * dt)
        return (1.0 + abs(scale * s)) / scale
    if variant is BoundVariant.STRICT:
        return quantization_error_bound(bits) + held_error_bound(
            frequency_hz, dt, BoundVariant.STRICT
        )
    raise ValueError(f"unknown bound variant {variant!r}")


def variant_bounds(
    frequency_hz: float, dt: float, bits: int | None = None
) -> dict[BoundVariant, float]:
    """Each variant's hold bound, or its combined bound when ``bits`` is
    given."""
    if bits is None:
        return {v: held_error_bound(frequency_hz, dt, v) for v in BoundVariant}
    return {v: digitized_error_bound(frequency_hz, dt, bits, v) for v in BoundVariant}


def report(
    frequency_hz: float, timing: TimingConfig | None = None, bits: int | None = None
) -> dict:
    """Every closed-form figure of a parameter point, keyed and ordered as
    the ``bounds`` command prints them: the quantization bound when
    ``bits`` is given, the clock, phase and hold figures when ``timing``
    is, and the combined bounds when both are."""
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
    for variant, value in variant_bounds(f, dt).items():
        data[f"held_bound_{variant.value}"] = value
    if bits is not None:
        for variant, value in variant_bounds(f, dt, bits).items():
            data[f"digitized_bound_{variant.value}"] = value
    return data
