"""Waveform models for a clocked sine-wave synthesizer.

The ideal output is a unit-amplitude, zero-phase sine wave. Real hardware
degrades it in two independent ways: the converter's finite bit count
quantizes the amplitude onto a grid of levels, and the update clock holds
each computed value constant for a fixed time gap. The four models here
(target, quantized, held, digitized) evaluate those effects pointwise.

A held or digitized model is a step function: the step that starts at
phase r/p holds the sine's value there, quantized for the digitized
model. :func:`step_levels` is the one definition of those levels and
:func:`quantize` the one definition of the three level rules; the
pointwise models and the exact engine in :mod:`ddsmetrics.metrics` both
read them, so the two cannot disagree.

All evaluators are pure functions of their arguments. Phase is reduced
modulo one period in exact rational arithmetic before the sine is
evaluated, so probe times placed nanoseconds before a step boundary keep
their full precision even when t spans many periods, and the step index
of the hold model is never misclassified by a float division.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

import numpy as np

__all__ = [
    "MAX_BITS",
    "QuantizationMode",
    "QuantizerConfig",
    "SignalSpec",
    "TimingConfig",
    "ModelKind",
    "WaveformModel",
    "sin_turns",
    "sin_turns_array",
    "quantize",
    "step_levels",
    "target_sample",
    "quantize_sample",
    "held_sample",
    "digitized_sample",
]

# 2**(bits-1) and every level value must stay exactly representable in a
# 64-bit float; this keeps quantization idempotent and composition bit-exact.
MAX_BITS = 52

TimeLike = Union[int, float, Fraction]


def _as_fraction(value: TimeLike, name: str) -> Fraction:
    """Exact rational view of a time or frequency; rejects non-finite input."""
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    try:
        return Fraction(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{name} must be a finite number, got {value!r}") from exc


def sin_turns(x: float) -> float:
    """sin(2*pi*x) for x in [0, 1), exact at the quarter-turn points.

    Folding the argument into [0, 1/4] before calling ``math.sin`` makes
    x = 0 and x = 1/2 return exactly 0.0 and x = 1/4, 3/4 return exactly
    +/-1.0; both subtractions are exact by Sterbenz's lemma.
    """
    if x >= 0.5:
        return 0.0 - sin_turns(x - 0.5)
    if x > 0.25:
        x = 0.5 - x
    return math.sin(2.0 * math.pi * x)


def sin_turns_array(x: np.ndarray) -> np.ndarray:
    """Vectorized :func:`sin_turns` for arrays with entries in [0, 1)."""
    x = np.asarray(x, dtype=np.float64)
    hi = x >= 0.5
    y = np.where(hi, x - 0.5, x)
    y = np.where(y > 0.25, 0.5 - y, y)
    s = np.sin(2.0 * np.pi * y)
    return np.where(hi, 0.0 - s, s)


@dataclass(frozen=True)
class SignalSpec:
    """The target sine: unit amplitude, zero phase, a single frequency."""

    frequency_hz: float = 1.0

    def __post_init__(self) -> None:
        f = self.frequency_hz
        if not (isinstance(f, (int, float)) and math.isfinite(f) and f > 0):
            raise ValueError(f"frequency_hz must be positive and finite, got {f!r}")


class QuantizationMode(enum.Enum):
    """How an amplitude is mapped to the nearest converter level."""

    FLOOR = "floor"
    ROUND = "round"
    CEILING = "ceiling"


@dataclass(frozen=True)
class QuantizerConfig:
    """Converter resolution: ``bits`` input bits, one of three level rules."""

    bits: int
    mode: QuantizationMode = QuantizationMode.FLOOR

    def __post_init__(self) -> None:
        if not isinstance(self.bits, int) or isinstance(self.bits, bool):
            raise ValueError(f"bits must be an integer, got {self.bits!r}")
        if not 1 <= self.bits <= MAX_BITS:
            raise ValueError(f"bits must be in [1, {MAX_BITS}], got {self.bits}")
        if not isinstance(self.mode, QuantizationMode):
            raise ValueError(f"mode must be a QuantizationMode, got {self.mode!r}")

    @property
    def scale(self) -> int:
        """Levels per unit amplitude, 2**(bits-1); exact in float64."""
        return 1 << (self.bits - 1)

    @property
    def step(self) -> float:
        """Width of one level, 2**-(bits-1)."""
        return 1.0 / self.scale


@dataclass(frozen=True)
class TimingConfig:
    """Update timing as an exact rational frequency multiplier.

    The multiplier M = p/q is the ratio of the sine period to the update
    gap, so the gap is q/(p*f) seconds. Storing p and q (reduced to lowest
    terms) instead of a raw float gap keeps step-boundary arithmetic and
    the combined period q*T exact.
    """

    multiplier_num: int
    multiplier_den: int = 1

    def __post_init__(self) -> None:
        p, q = self.multiplier_num, self.multiplier_den
        for name, v in (("multiplier_num", p), ("multiplier_den", q)):
            if not isinstance(v, int) or isinstance(v, bool) or v < 1:
                raise ValueError(f"{name} must be a positive integer, got {v!r}")
        g = math.gcd(p, q)
        if g > 1:
            object.__setattr__(self, "multiplier_num", p // g)
            object.__setattr__(self, "multiplier_den", q // g)
        # time_gap_s converts both to floats
        if max(self.multiplier_num, self.multiplier_den) > sys.float_info.max:
            raise ValueError("numerator and denominator must each fit a float")

    @classmethod
    def from_exact(cls, value: Union[int, str, Fraction]) -> "TimingConfig":
        """Build from an exactly-representable multiplier (int, Fraction,
        or a ``"p/q"`` string). Floats should go through rational snapping
        instead (see the sweeps module)."""
        frac = Fraction(value)
        return cls(frac.numerator, frac.denominator)

    @property
    def multiplier(self) -> Fraction:
        return Fraction(self.multiplier_num, self.multiplier_den)

    def time_gap_s(self, frequency_hz: float) -> float:
        """Update gap in seconds for the given target frequency."""
        return self.multiplier_den / (self.multiplier_num * frequency_hz)


class ModelKind(enum.Enum):
    TARGET = "target"
    QUANTIZED = "quantized"
    HELD = "held"
    DIGITIZED = "digitized"


@dataclass(frozen=True)
class WaveformModel:
    """One of the four waveforms, bundled with its parameters."""

    kind: ModelKind
    spec: SignalSpec
    quantizer: QuantizerConfig | None = None
    timing: TimingConfig | None = None

    def __post_init__(self) -> None:
        needs_q = self.kind in (ModelKind.QUANTIZED, ModelKind.DIGITIZED)
        needs_t = self.kind in (ModelKind.HELD, ModelKind.DIGITIZED)
        if needs_q != (self.quantizer is not None):
            raise ValueError(f"{self.kind.value} model quantizer mismatch")
        if needs_t != (self.timing is not None):
            raise ValueError(f"{self.kind.value} model timing mismatch")

    @classmethod
    def target(cls, spec: SignalSpec) -> "WaveformModel":
        return cls(ModelKind.TARGET, spec)

    @classmethod
    def quantized(cls, spec: SignalSpec, quantizer: QuantizerConfig) -> "WaveformModel":
        return cls(ModelKind.QUANTIZED, spec, quantizer=quantizer)

    @classmethod
    def held(cls, spec: SignalSpec, timing: TimingConfig) -> "WaveformModel":
        return cls(ModelKind.HELD, spec, timing=timing)

    @classmethod
    def digitized(
        cls, spec: SignalSpec, timing: TimingConfig, quantizer: QuantizerConfig
    ) -> "WaveformModel":
        return cls(ModelKind.DIGITIZED, spec, quantizer=quantizer, timing=timing)

    def sample(self, t: TimeLike) -> float:
        if self.kind is ModelKind.TARGET:
            return target_sample(self.spec, t)
        if self.kind is ModelKind.QUANTIZED:
            return quantize_sample(target_sample(self.spec, t), self.quantizer)
        if self.kind is ModelKind.HELD:
            return held_sample(self.spec, self.timing, t)
        return digitized_sample(self.spec, self.timing, self.quantizer, t)


def _phase_frac(spec: SignalSpec, t: TimeLike) -> Fraction:
    """Exact fractional part of f*t (phase in turns)."""
    tf = _as_fraction(t, "t")
    if tf < 0:
        raise ValueError(f"t must be nonnegative, got {t!r}")
    x = _as_fraction(spec.frequency_hz, "frequency_hz") * tf
    return x - (x.numerator // x.denominator)


def target_sample(spec: SignalSpec, t: TimeLike) -> float:
    """Ideal sine sample sin(2*pi*f*t), phase-reduced exactly first."""
    return sin_turns(float(_phase_frac(spec, t)))


def quantize(
    x: np.ndarray, config: QuantizerConfig, out: np.ndarray | None = None
) -> np.ndarray:
    """Map amplitudes onto the converter's level grid, elementwise.

    Floor, half-up rounding (floor(y + 1/2)), and ceiling are applied to
    y = x * 2**(bits-1); each result is an exact multiple of 2**-(bits-1).
    There is no clamping to a signed code range, so x = 1.0 maps to 1.0.
    The levels are written to ``out`` (a float64 array of x's shape) when
    it is given, and to a new array otherwise.
    """
    scale = config.scale
    if out is None:
        out = np.empty(np.shape(x))
    y = np.multiply(np.asarray(x, dtype=np.float64), scale, out=out)
    if config.mode is QuantizationMode.ROUND:
        np.add(y, 0.5, out=y)
    if config.mode is QuantizationMode.CEILING:
        np.ceil(y, out=y)
    else:
        np.floor(y, out=y)
    np.divide(y, scale, out=y)
    # + 0.0 turns the -0.0 of, say, ceil(-0.3) into the code-0 level 0.0
    return np.add(y, 0.0, out=y)


def step_levels(
    residues: np.ndarray, p: int, quantizer: QuantizerConfig | None = None
) -> np.ndarray:
    """Level of each hold step that starts at phase r/p turns, for the
    residues r in [0, p): the sine there, quantized when ``quantizer`` is
    given.

    The phase r/p is rounded once: int64 residues are exact in float64
    while p <= 2**53, and an object array of Python ints divides exactly
    at any size.
    """
    levels = sin_turns_array(np.true_divide(residues, p))
    return levels if quantizer is None else quantize(levels, quantizer)


def quantize_sample(x: float, config: QuantizerConfig) -> float:
    """:func:`quantize` for one amplitude, which must lie in [-1, 1]."""
    if not math.isfinite(x):
        raise ValueError(f"amplitude must be finite, got {x!r}")
    if abs(x) > 1.0:
        raise ValueError(f"amplitude must lie in [-1, 1], got {x!r}")
    return float(quantize(x, config))


def _step_level(
    spec: SignalSpec,
    timing: TimingConfig,
    quantizer: QuantizerConfig | None,
    t: TimeLike,
) -> float:
    """:func:`step_levels` at the step that holds at time t.

    The step index k = floor(t/dt) is computed through the exact rational
    multiplier, so a t sitting exactly on a boundary always lands in the
    new step, and the step's residue k*q mod p is an exact integer.
    """
    p, q = timing.multiplier_num, timing.multiplier_den
    tf = _as_fraction(t, "t")
    if tf < 0:
        raise ValueError(f"t must be nonnegative, got {t!r}")
    ft = _as_fraction(spec.frequency_hz, "frequency_hz") * tf
    ratio = ft * p / q  # = t / dt, exact
    k = ratio.numerator // ratio.denominator
    residue = np.array([k * q % p], dtype=object)
    return float(step_levels(residue, p, quantizer)[0])


def held_sample(spec: SignalSpec, timing: TimingConfig, t: TimeLike) -> float:
    """Sample-hold model: the sine value at the most recent update instant.

    Constant on every interval [k*dt, (k+1)*dt).
    """
    return _step_level(spec, timing, None, t)


def digitized_sample(
    spec: SignalSpec,
    timing: TimingConfig,
    quantizer: QuantizerConfig,
    t: TimeLike,
) -> float:
    """Both effects combined: the held sample, quantized. Equal to the
    composition ``quantize_sample(held_sample(...))``."""
    return _step_level(spec, timing, quantizer, t)
