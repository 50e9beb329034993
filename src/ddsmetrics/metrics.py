"""The two comparison metrics, exact, plus the numerical oracles that
check them.

:func:`evaluate` reports both metrics in closed form. Every degraded
model is a step function over one combined period, so a row costs
O(pieces) and needs no FFT and no probe grid:

* maximum absolute error is the exact supremum, taken piece by piece:
  on each piece the larger of the two one-sided endpoint limits, or the
  distance to a sine extremum (phase 1/4 or 3/4) inside the piece;
* THD follows from Parseval's theorem. Harmonic power is the AC power of
  the levels less the fundamental's, and the fundamental is one DFT bin
  of the step levels times the zero-order-hold factor (held and
  digitized models), or a sum over the quantizer thresholds (quantized
  model).

The numerical estimators stay as independent oracles for the tests.
:func:`max_abs_error` samples a probe grid that combines uniform coverage
of one combined period with probes a hair before and after every
discontinuity, so it approaches the supremum from below.
:func:`spectrum_dft` takes a coherent capture of exactly one combined
period, so the DFT has no leakage and needs no window, and
:func:`spectrum_exact_staircase` is the truncated continuous-time Fourier
series of a staircase. :func:`evaluate` falls back on the DFT only for
the THD of a quantizer above ``_MAX_CROSSING_BITS`` bits, where there are
too many level intervals to enumerate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import bounds
from .signals import (
    ModelKind,
    QuantizationMode,
    QuantizerConfig,
    WaveformModel,
    sin_turns,
    sin_turns_array,
)

__all__ = [
    "DFT_SIZE_CAP",
    "MAX_PIECES",
    "SamplingPlan",
    "Spectrum",
    "MetricsReport",
    "CapExceeded",
    "DegenerateSignalError",
    "probe_times",
    "max_abs_error",
    "staircase_values",
    "spectrum_dft",
    "spectrum_exact_staircase",
    "thd",
    "check_pieces",
    "evaluate",
]

DFT_SIZE_CAP = 1 << 24
# evaluate() holds about 140 bytes per piece at its peak, so a row stays
# under about 2.4 GB.
MAX_PIECES = 1 << 24

# Level-crossing probes and the exact quantized THD enumerate every
# quantizer level; beyond this many bits the enumeration is intractable,
# so the probe grid goes uniform and THD comes from the DFT.
_MAX_CROSSING_BITS = 20


class CapExceeded(RuntimeError):
    """A multiplier needs more work than a cap allows: more pieces than
    ``MAX_PIECES`` in :func:`evaluate`, or more samples than the DFT cap
    in :func:`spectrum_dft`."""

    def __init__(self, p: int, q: int, count: int, cap: int, unit: str):
        super().__init__(
            f"multiplier {p}/{q} needs {count} {unit}, exceeding the cap of {cap}"
        )
        self.p = p
        self.q = q
        self.count = count
        self.cap = cap


class DegenerateSignalError(ValueError):
    """The spectrum has no energy at the fundamental; THD is undefined."""


@dataclass(frozen=True)
class SamplingPlan:
    """Probe-grid controls for the max-error estimator."""

    samples_per_period: int = 100_000
    epsilon_fraction: float = 1e-9
    probe_discontinuities: bool = True

    def __post_init__(self) -> None:
        n = self.samples_per_period
        if not isinstance(n, int) or isinstance(n, bool) or n < 64:
            raise ValueError(f"samples_per_period must be an integer >= 64, got {n!r}")
        eps = self.epsilon_fraction
        if not (isinstance(eps, (int, float)) and 0 < eps <= 1e-6):
            raise ValueError(f"epsilon_fraction must lie in (0, 1e-6], got {eps!r}")


@dataclass(frozen=True)
class Spectrum:
    """DC plus harmonic peak amplitudes on the combined-period grid.

    Bin n corresponds to frequency n * base_frequency_hz; the target sine
    sits at ``fundamental_index``. Amplitudes are peak values, so
    dc**2 + sum(A**2)/2 reproduces the signal's mean square.
    """

    base_frequency_hz: float
    fundamental_index: int
    dc: float
    bins: np.ndarray
    amplitudes: np.ndarray
    method: str
    # mean square of the captured samples (DFT) or step values (exact),
    # accumulated in the time domain so Parseval checks stay independent
    sample_mean_square: float

    def fundamental_amplitude(self) -> float:
        idx = np.searchsorted(self.bins, self.fundamental_index)
        if idx >= len(self.bins) or self.bins[idx] != self.fundamental_index:
            return 0.0
        return float(self.amplitudes[idx])


@dataclass(frozen=True)
class MetricsReport:
    """Single-point metric outputs with the model parameters echoed."""

    model: str
    freq_hz: float
    bits: int | None
    mode: str | None
    m_num: int | None
    m_den: int | None
    max_abs_error: float
    argmax_time_s: float
    thd_ratio: float | None
    thd_db: float | None
    paper_bound: float
    strict_bound: float

    @property
    def max_err_pct(self) -> float:
        """Percent error relative to the unit peak amplitude."""
        return 100.0 * self.max_abs_error


def _model_pq(model: WaveformModel) -> tuple[int, int]:
    if model.timing is not None:
        return model.timing.multiplier_num, model.timing.multiplier_den
    return 1, 1


@dataclass(frozen=True)
class _ProbeSet:
    times: np.ndarray  # seconds, sorted, unique, within [0, q*T)
    fracs: np.ndarray  # exact-reduced phase of f*t, in [0, 1)
    steps: np.ndarray | None  # hold-step index for stepped models


def _quantize_array(x: np.ndarray, config: QuantizerConfig) -> np.ndarray:
    scale = config.scale
    y = x * scale
    if config.mode is QuantizationMode.FLOOR:
        levels = np.floor(y)
    elif config.mode is QuantizationMode.ROUND:
        levels = np.floor(y + 0.5)
    else:
        levels = np.ceil(y)
    return levels / scale


def staircase_values(model: WaveformModel) -> np.ndarray:
    """Step values of a held or digitized model over one combined period.

    Step k spans [k*dt, (k+1)*dt); there are exactly p steps when the
    multiplier is p/q in lowest terms.
    """
    if model.kind not in (ModelKind.HELD, ModelKind.DIGITIZED):
        raise ValueError(f"model kind {model.kind.value!r} has no staircase")
    p, q = _model_pq(model)
    k = np.arange(p, dtype=np.int64)
    values = sin_turns_array(_turns(k * (q % p), p))
    if model.kind is ModelKind.DIGITIZED:
        values = _quantize_array(values, model.quantizer)
    return values


def _probe_set(model: WaveformModel, plan: SamplingPlan) -> _ProbeSet:
    f = model.spec.frequency_hz
    n = plan.samples_per_period
    p, q = _model_pq(model)
    stepped = model.kind in (ModelKind.HELD, ModelKind.DIGITIZED)

    i = np.arange(n, dtype=np.int64)
    times = [(i * q).astype(np.float64) / n / f]
    fracs = [((i * q) % n).astype(np.float64) / n]
    steps = [(i * p) // n] if stepped else None

    if stepped and plan.probe_discontinuities:
        # One probe at each boundary k*dt, one just inside the step's end.
        k = np.arange(p, dtype=np.int64)
        times.append((k * q).astype(np.float64) / p / f)
        fracs.append(((k * q) % p).astype(np.float64) / p)
        steps.append(k)
        # Keep the offset strictly inside the step even for extreme plans.
        eps = min(plan.epsilon_fraction * q, 0.5 * q / p)
        r_next = ((k + 1) * q) % p
        times.append((((k + 1) * q).astype(np.float64) / p - eps) / f)
        fracs.append(np.where(r_next == 0, 1.0 - eps, r_next.astype(np.float64) / p - eps))
        steps.append(k)

    if (
        model.kind is ModelKind.QUANTIZED
        and plan.probe_discontinuities
        and model.quantizer.bits <= _MAX_CROSSING_BITS
    ):
        scale = model.quantizer.scale
        j = np.arange(-scale, scale + 1, dtype=np.int64)
        x0 = np.arcsin(j.astype(np.float64) / scale) / (2.0 * np.pi)
        crossings = np.concatenate([np.mod(x0, 1.0), np.mod(0.5 - x0, 1.0)])
        eps = plan.epsilon_fraction
        x = np.mod(
            np.concatenate([crossings - eps, crossings + eps]), 1.0
        )
        times.append(x / f)
        fracs.append(x)

    all_times = np.concatenate(times)
    all_fracs = np.concatenate(fracs)
    uniq_times, idx = np.unique(all_times, return_index=True)
    probe = _ProbeSet(
        times=uniq_times,
        fracs=all_fracs[idx],
        steps=np.concatenate(steps)[idx] if stepped else None,
    )
    return probe


def probe_times(model: WaveformModel, plan: SamplingPlan) -> np.ndarray:
    """Sorted, deduplicated probe times covering one combined period."""
    return _probe_set(model, plan).times


def _model_values(model: WaveformModel, probes: _ProbeSet, target: np.ndarray) -> np.ndarray:
    if model.kind is ModelKind.TARGET:
        return target
    if model.kind is ModelKind.QUANTIZED:
        return _quantize_array(target, model.quantizer)
    return staircase_values(model)[probes.steps]


def max_abs_error(model: WaveformModel, plan: SamplingPlan) -> tuple[float, float]:
    """Supremum estimate of |model(t) - target(t)| and the first probe
    achieving it. Deterministic for fixed inputs; exactly 0 for the
    target model."""
    probes = _probe_set(model, plan)
    target = sin_turns_array(probes.fracs)
    values = _model_values(model, probes, target)
    errors = np.abs(values - target)
    i = int(np.argmax(errors))
    return float(errors[i]), float(probes.times[i])


def _dft_size(model: WaveformModel, samples_per_step: int) -> int:
    p, q = _model_pq(model)
    if model.kind in (ModelKind.HELD, ModelKind.DIGITIZED):
        return p * samples_per_step
    return max(1 << 18, 4096 * q)


def spectrum_dft(
    model: WaveformModel,
    samples_per_step: int = 64,
    dft_cap: int = DFT_SIZE_CAP,
) -> Spectrum:
    """Coherent DFT spectrum over exactly one combined period.

    Stepped models are sampled ``samples_per_step`` times per hold step
    (must be even so the Nyquist bin is exactly empty); the smooth models
    get a fixed dense grid. No window is applied: the capture is coherent,
    so leakage is identically zero.
    """
    m = samples_per_step
    if not isinstance(m, int) or isinstance(m, bool) or m < 16 or m % 2:
        raise ValueError(f"samples_per_step must be an even integer >= 16, got {m!r}")
    f = model.spec.frequency_hz
    p, q = _model_pq(model)
    n_total = _dft_size(model, m)
    if n_total > dft_cap:
        raise CapExceeded(p, q, n_total, dft_cap, "DFT samples")

    if model.kind in (ModelKind.HELD, ModelKind.DIGITIZED):
        samples = np.repeat(staircase_values(model), m)
        base = f / q
        fundamental = q
    else:
        i = np.arange(n_total, dtype=np.int64)
        samples = sin_turns_array(i.astype(np.float64) / n_total)
        if model.kind is ModelKind.QUANTIZED:
            samples = _quantize_array(samples, model.quantizer)
        base = f
        fundamental = 1

    transform = np.fft.rfft(samples)
    dc = float(transform[0].real) / n_total
    amplitudes = 2.0 * np.abs(transform[1 : n_total // 2]) / n_total
    return Spectrum(
        base_frequency_hz=base,
        fundamental_index=fundamental,
        dc=dc,
        bins=np.arange(1, n_total // 2, dtype=np.int64),
        amplitudes=amplitudes,
        method="dft",
        sample_mean_square=float(np.mean(samples * samples)),
    )


def spectrum_exact_staircase(
    model: WaveformModel, n_max: int | None = None
) -> Spectrum:
    """Closed-form Fourier series of a piecewise-constant model.

    With step values v_k on [k/p, (k+1)/p) of the combined period, the
    n-th coefficient is V[n mod p] * (1 - exp(-2i*pi*n/p)) / (2i*pi*n)
    where V is the length-p DFT of the step values. Emission stops at
    ``n_max`` (default max(8192*q, 128*p), sized so the truncated tail
    cannot disturb THD comparisons at the 0.05 dB level) or as soon as
    the captured power reaches (1 - 1e-10) of the time-domain mean
    square, whichever comes first.
    """
    if model.kind not in (ModelKind.HELD, ModelKind.DIGITIZED):
        raise ValueError(
            f"exact staircase spectrum requires a held or digitized model, "
            f"got {model.kind.value!r}"
        )
    p, q = _model_pq(model)
    if n_max is None:
        n_max = max(8192 * q, 128 * p)
    values = staircase_values(model)
    mean_square = float(np.mean(values * values))
    dc = float(np.mean(values))
    base = model.spec.frequency_hz / q

    if mean_square == 0.0:
        return Spectrum(
            base_frequency_hz=base,
            fundamental_index=q,
            dc=dc,
            bins=np.arange(1, 1, dtype=np.int64),
            amplitudes=np.zeros(0),
            method="exact_staircase",
            sample_mean_square=mean_square,
        )

    v_dft = np.abs(np.fft.fft(values))
    n = np.arange(1, n_max + 1, dtype=np.int64)
    residue = n % p
    # |sin(pi*n/p)| evaluated from the residue so multiples of p are exact zeros
    gain = np.sin(np.pi * residue.astype(np.float64) / p)
    amplitudes = 2.0 * v_dft[residue] * gain / (np.pi * n.astype(np.float64))

    captured = dc * dc + np.cumsum(amplitudes * amplitudes) / 2.0
    reached = np.nonzero(captured >= (1.0 - 1e-10) * mean_square)[0]
    stop = int(reached[0]) + 1 if len(reached) else n_max
    return Spectrum(
        base_frequency_hz=base,
        fundamental_index=q,
        dc=dc,
        bins=n[:stop],
        amplitudes=amplitudes[:stop],
        method="exact_staircase",
        sample_mean_square=mean_square,
    )


def thd(spectrum: Spectrum) -> tuple[float, float | None]:
    """Total distortion ratio and its dB value (None when the ratio is 0).

    The numerator gathers every non-DC bin except the fundamental,
    including sub- and inter-harmonics that appear when the combined
    period spans several sine periods.
    """
    fundamental = spectrum.fundamental_amplitude()
    if fundamental == 0.0:
        raise DegenerateSignalError(
            "spectrum has no fundamental component; THD is undefined"
        )
    mask = spectrum.bins != spectrum.fundamental_index
    ratio = float(np.sqrt(np.sum(spectrum.amplitudes[mask] ** 2))) / fundamental
    if ratio > 0.0:
        return ratio, 20.0 * math.log10(ratio)
    return 0.0, None


def _turns(num: np.ndarray, den: int) -> np.ndarray:
    """Phase num/den in turns, reduced modulo 1 in integers first."""
    return (num % den).astype(np.float64) / den


def check_pieces(p: int, q: int) -> None:
    """Raise :class:`CapExceeded` when the multiplier p/q has more than
    ``MAX_PIECES`` pieces per combined period."""
    if p > MAX_PIECES:
        raise CapExceeded(p, q, p, MAX_PIECES, "pieces")


def _parseval_thd(
    mean: float, mean_square: float, fundamental: float
) -> tuple[float | None, float | None]:
    """THD from the signal's mean, mean square and fundamental peak
    amplitude: harmonic power is the AC power less the fundamental's.
    Both fields are None when there is no fundamental."""
    if fundamental == 0.0:
        return None, None
    harmonic = 2.0 * (mean_square - mean * mean) - fundamental * fundamental
    ratio = math.sqrt(max(harmonic, 0.0)) / fundamental
    if ratio > 0.0:
        return ratio, 20.0 * math.log10(ratio)
    return 0.0, None


def _stepped_exact(
    model: WaveformModel,
) -> tuple[float, float, tuple[float | None, float | None]]:
    """Exact supremum, its earliest time, and THD of a held or digitized
    model: p pieces of q/p turns each, piece k starting at phase r/p with
    r = k*q mod p."""
    f = model.spec.frequency_hz
    p, q = _model_pq(model)
    k = np.arange(p, dtype=np.int64)
    # q meets the int64 arrays only reduced, so any exact multiplier fits
    r = (k * (q % p)) % p
    level = staircase_values(model)
    # the sine at the start of each piece; the levels themselves when held
    start = level if model.kind is ModelKind.HELD else sin_turns_array(_turns(r, p))

    # sin(pi*q/p), half the sine's swing across a piece. Up to f*dt = 1/2
    # it is the very float the strict bound doubles, so that the swing
    # 2*cos(...)*half below can never round above the bound.
    x = f * model.timing.time_gap_s(f)
    half = sin_turns(x / 2.0) if x <= 0.5 else sin_turns(q % (2 * p) / (2 * p))
    # sin(a + w) - sin(a) = 2*cos(a + w/2)*sin(w/2): the sine's change
    # from the start of each piece to the end, without cancellation.
    swing = 2.0 * sin_turns_array(_turns(4 * r + 2 * (q % (2 * p)) + p, 4 * p)) * half
    offset = level - start  # 0 for held; the quantization error at the start
    # Phase 1/4 (3/4) lies in [r/p, (r+q)/p] iff (p - 4r) mod 4p <= 4q
    # (resp. 3p - 4r), exact in integers; the offsets put it in time.
    to_peak = (p - 4 * r) % (4 * p)
    to_trough = (3 * p - 4 * r) % (4 * p)
    reach = 4 * min(q, p)  # both offsets are below 4p
    # Candidate suprema per piece, and their offsets into the piece in
    # units of 1/(4*p*f).
    errors = np.stack([
        np.abs(offset),
        np.abs(offset - swing),
        np.where(to_peak <= reach, np.abs(level - 1.0), 0.0),
        np.where(to_trough <= reach, np.abs(level + 1.0), 0.0),
    ])
    sup = float(np.max(errors))
    # Pieces follow each other in time, so the earliest attainment lies in
    # the first piece that attains the supremum at all.
    hit = errors == sup
    first = int(np.argmax(hit.any(axis=0)))
    offsets = (0, 4 * q, int(to_peak[first]), int(to_trough[first]))
    tick = 4 * first * q + min(o for o, h in zip(offsets, hit[:, first]) if h)
    argmax_t = tick / (4 * p) / f

    # One DFT bin of the levels at their start phases, times the
    # zero-order-hold factor |sin(pi*q/p)|/(pi*q), gives the fundamental.
    cosine = sin_turns_array(_turns(4 * r + p, 4 * p))
    bin_1 = math.hypot(float(level @ cosine), float(level @ start))
    fundamental = 2.0 * bin_1 * abs(half) / (math.pi * q)
    thd_result = _parseval_thd(
        float(np.mean(level)), float(np.mean(level * level)), fundamental
    )
    return sup, argmax_t, thd_result


def _quantized_supremum(quantizer: QuantizerConfig, f: float) -> tuple[float, float]:
    """Exact supremum of the quantizer's error and the earliest time it is
    approached. Floor: one level, as the rising sine nears the first level
    above 0 (the peak, for 1 bit). Round: half a level, reached where the
    sine first equals half a level. Ceiling: one level, just after t = 0."""
    step = quantizer.step
    if quantizer.mode is QuantizationMode.FLOOR:
        return step, math.asin(step) / (2.0 * math.pi) / f
    if quantizer.mode is QuantizationMode.ROUND:
        return step / 2.0, math.asin(step / 2.0) / (2.0 * math.pi) / f
    return step, 0.0


def _quantized_thd(quantizer: QuantizerConfig) -> tuple[float | None, float | None]:
    """Parseval THD of the quantized sine, summed over its thresholds.

    The level rises by one step at each threshold c inside (-1, 1); the
    sine lies above c for acos(c)/pi of the period, and the step it adds
    contributes 2*sqrt(1 - c**2)/pi, in phase with the sine, to the
    fundamental's peak amplitude.
    """
    scale, step = quantizer.scale, quantizer.step
    if quantizer.mode is QuantizationMode.ROUND:
        thresholds = (np.arange(1 - scale, scale + 1) - 0.5) / scale
    else:
        thresholds = np.arange(1 - scale, scale) / scale
    # the level just above the sine's trough
    bottom = -1.0 + step if quantizer.mode is QuantizationMode.CEILING else -1.0
    below = bottom + step * np.arange(len(thresholds))
    above_share = np.arccos(thresholds) / np.pi
    mean = bottom + step * float(np.sum(above_share))
    mean_square = bottom * bottom + step * float(np.sum((2.0 * below + step) * above_share))
    root = np.sqrt((1.0 - thresholds) * (1.0 + thresholds))
    fundamental = 2.0 * step / math.pi * float(np.sum(root))
    return _parseval_thd(mean, mean_square, fundamental)


def _bounds_for(model: WaveformModel) -> tuple[float, float]:
    """The paper and strict bounds of the model's own kind."""
    if model.kind is ModelKind.TARGET:
        return 0.0, 0.0
    if model.kind is ModelKind.QUANTIZED:
        b = bounds.quantization_error_bound(model.quantizer.bits)
        return b, b
    f = model.spec.frequency_hz
    bits = model.quantizer.bits if model.quantizer else None
    pair = bounds.variant_bounds(f, model.timing.time_gap_s(f), bits)
    return pair[bounds.BoundVariant.PAPER], pair[bounds.BoundVariant.STRICT]


def evaluate(model: WaveformModel) -> MetricsReport:
    """Run both metrics on one model and attach the matching bounds.

    Max error is the exact supremum and THD the exact Parseval value,
    both in O(pieces); ``thd_db`` is None when the ratio is 0 (target
    model) and both THD fields are None when the signal has no
    fundamental. :class:`CapExceeded` is raised before anything is
    allocated when the model has more than ``MAX_PIECES`` pieces. A
    quantizer above ``_MAX_CROSSING_BITS`` bits takes its THD from the
    DFT oracle.
    """
    check_pieces(*_model_pq(model))
    f = model.spec.frequency_hz
    if model.kind is ModelKind.TARGET:
        err, argmax_t, (ratio, db) = 0.0, 0.0, (0.0, None)
    elif model.kind is ModelKind.QUANTIZED:
        err, argmax_t = _quantized_supremum(model.quantizer, f)
        if model.quantizer.bits <= _MAX_CROSSING_BITS:
            ratio, db = _quantized_thd(model.quantizer)
        else:
            ratio, db = thd(spectrum_dft(model))
    else:
        err, argmax_t, (ratio, db) = _stepped_exact(model)
    paper, strict = _bounds_for(model)
    timing = model.timing
    quantizer = model.quantizer
    return MetricsReport(
        model=model.kind.value,
        freq_hz=f,
        bits=quantizer.bits if quantizer else None,
        mode=quantizer.mode.value if quantizer else None,
        m_num=timing.multiplier_num if timing else None,
        m_den=timing.multiplier_den if timing else None,
        max_abs_error=err,
        argmax_time_s=argmax_t,
        thd_ratio=ratio,
        thd_db=db,
        paper_bound=paper,
        strict_bound=strict,
    )
