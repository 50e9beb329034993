"""Numerical estimators of the two metrics, kept as oracles for the tests.

:func:`max_abs_error` samples a probe grid that combines uniform coverage
of one combined period with probes a hair before and after every
discontinuity, so it approaches the supremum from below.
:func:`spectrum_dft` takes a coherent capture of exactly one combined
period, so the DFT has no leakage and needs no window, and
:func:`spectrum_exact_staircase` is the truncated continuous-time Fourier
series of a staircase; :func:`thd` reads either spectrum. The exact
engine, :func:`ddsmetrics.metrics.evaluate`, calls none of them.
:func:`column_rows` is the exact engine's digitized column one quantizer
at a time, the byte reference for its suprema, with THD from the
Parseval difference of the levels' unit-size terms; :func:`held_rows`
its held batch one row at a time, from the candidate pieces of
:func:`held_pieces_by_row`, the supremum of :func:`held_supremum` and
the scalar THD of :func:`held_thd_by_row`. :func:`held_supremum` takes a
held model's supremum over any set of its pieces one piece at a time, in
Python floats, and calls no part of the engine but its scalar helpers.
:func:`snap_by_fraction` snaps a multiplier from its
``Fraction``, :func:`result_from_rows` builds a sweep result from rows,
:func:`row_table` reads a sweep result's columns in row order and
:func:`rows_table` lays out rows given one by one the same way, and
:func:`parse_csv` splits emitted CSV into its parts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ddsmetrics import bounds
from ddsmetrics.metrics import (
    REPORT_FIELDS,
    CapExceeded,
    MetricsReport,
    _half_swing,
    _parseval_thd,
    _Pieces,
    _turns,
    _windows,
    check_pieces,
)
from ddsmetrics.signals import (
    ModelKind,
    TimingConfig,
    WaveformModel,
    quantize,
    sin_turns,
    sin_turns_array,
    step_levels,
)
from ddsmetrics.sweeps import SweepResult

DFT_SIZE_CAP = 1 << 24

# The probe grid of max_abs_error adds probes beside every quantizer
# level up to this many bits; beyond, it stays uniform.
_MAX_CROSSING_BITS = 20


def _model_pq(model: WaveformModel) -> tuple[int, int]:
    if model.timing is not None:
        return model.timing.multiplier_num, model.timing.multiplier_den
    return 1, 1


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
class _ProbeSet:
    times: np.ndarray  # seconds, sorted, unique, within [0, q*T)
    fracs: np.ndarray  # exact-reduced phase of f*t, in [0, 1)
    steps: np.ndarray | None  # hold-step index for stepped models


def staircase_values(model: WaveformModel) -> np.ndarray:
    """Step values of a held or digitized model over one combined period.

    Step k spans [k*dt, (k+1)*dt); there are exactly p steps when the
    multiplier is p/q in lowest terms.
    """
    if model.kind not in (ModelKind.HELD, ModelKind.DIGITIZED):
        raise ValueError(f"model kind {model.kind.value!r} has no staircase")
    p, q = _model_pq(model)
    k = np.arange(p, dtype=np.int64)
    return step_levels(k * (q % p) % p, p, model.quantizer)


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
        return quantize(target, model.quantizer)
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
        raise CapExceeded(p, q, dft_cap, "DFT samples")

    if model.kind in (ModelKind.HELD, ModelKind.DIGITIZED):
        samples = np.repeat(staircase_values(model), m)
        base = f / q
        fundamental = q
    else:
        i = np.arange(n_total, dtype=np.int64)
        samples = sin_turns_array(i.astype(np.float64) / n_total)
        if model.kind is ModelKind.QUANTIZED:
            samples = quantize(samples, model.quantizer)
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


def _row_supremum(pieces: _Pieces, level: np.ndarray, at_peak, at_trough) -> list[tuple[float, float]]:
    """The exact supremum of one digitized row of every piece and the
    earliest time it is attained, in periods: the four candidate errors of every
    piece stacked, with the pieces that hold phase 1/4 (3/4) marked by
    ``at_peak`` (``at_trough``), and the first piece that attains their
    maximum."""
    offset = level - pieces.start
    errors = np.stack([
        np.abs(offset),
        np.abs(offset - pieces.swing),
        np.where(at_peak, np.abs(level - 1.0), 0.0),
        np.where(at_trough, np.abs(level + 1.0), 0.0),
    ])
    largest = errors.max(axis=0)
    sup = float(largest.max())
    [(p, q)] = pieces.rows
    k = int((largest == sup).nonzero()[0][0])
    offsets = (0, 4 * q, *_windows(k * q % p, p))
    candidates = errors[:, k].tolist()
    tick = 4 * k * q + min(o for o, e in zip(offsets, candidates) if e == sup)
    return [(sup, tick / (4 * p))]


def _report(model, err, argmax_t, thd_result):
    """The engine's report with the model's digitized bounds, each
    variant taken alone at f = 1, where dt = q/p."""
    f, timing, quantizer = model.spec.frequency_hz, model.timing, model.quantizer
    dt, bits = timing.multiplier_den / timing.multiplier_num, quantizer.bits
    pair = tuple(bounds.digitized_error_bound(1.0, dt, bits, v) for v in bounds.BoundVariant)
    return MetricsReport(
        model.kind.value, f, bits, quantizer.mode.value, timing.multiplier_num,
        timing.multiplier_den, err, argmax_t, *thd_result, *pair,
    )


def column_rows(spec, timing, quantizers) -> list:
    """The digitized reports of one timing, one quantizer at a time: the
    byte reference for the suprema and bounds of
    :func:`ddsmetrics.metrics.evaluate_columns`. THD is the AC power of
    the levels less the fundamental's, both of unit size, so it loses
    digits as THD falls: about 1e-7 relative near p = 2**15 at 52 bits."""
    p, q = timing.multiplier_num, timing.multiplier_den
    check_pieces([(p, q)])
    pieces = _Pieces([(p, q)])
    # The residue of each piece, and which pieces hold phase 1/4 and 3/4:
    # their offsets from the piece's start are at most 4q.
    r = np.arange(p, dtype=np.int64) * (q % p) % p
    at_peak, at_trough = (window <= 4 * min(q, p) for window in _windows(r, p))
    # One DFT bin of the levels at their start phases, times the
    # zero-order-hold factor |sin(pi*q/p)|/(pi*q), gives the fundamental.
    cosine = sin_turns_array(_turns(4 * r + p, 4 * p))
    half = _half_swing(p, q)
    reports = []
    for quantizer in quantizers:
        level = quantize(pieces.start, quantizer)
        [(err, periods)] = _row_supremum(pieces, level, at_peak, at_trough)
        bin_1 = math.hypot(float(level @ cosine), float(level @ pieces.start))
        fundamental = 2.0 * bin_1 * abs(half) / (math.pi * q)
        # p <= 2 holds every level at Q(0): no fundamental
        thd_result = (None, None) if p < 3 else _parseval_thd(
            float(np.mean(level)), float(np.mean(level * level)), fundamental
        )
        model = WaveformModel.digitized(spec, timing, quantizer)
        reports.append(_report(model, err, periods / spec.frequency_hz, thd_result))
    return reports


def held_pieces_by_row(p: int, q: int) -> np.ndarray:
    """The held candidate pieces of one row p/q, ascending, gathered as a
    set of residues (see :func:`ddsmetrics.metrics._held_candidates`):
    the window residues, and every residue r whose 2r + (q mod 2p) lies
    within 2 of a multiple of p. Residues that differ by p land on one
    piece, which then appears twice."""
    twice_q = q % (2 * p)
    reach = min(q, p)
    residues = {
        (p - 4 * reach + 3) // 4,
        (3 * p - 4 * reach + 3) // 4,
        p // 4, (p + 3) // 4, 3 * p // 4, (3 * p + 3) // 4,
    }
    for multiple in range(0, 4 * p + 1, p):
        for gap in range(-2, 3):
            twice_r = multiple + gap - twice_q
            if twice_r % 2 == 0 and 0 <= twice_r < 2 * p:
                residues.add(twice_r // 2)
    inverse = pow(q % p, -1, p)
    return np.array(sorted(r % p * inverse % p for r in residues), dtype=np.int64)


def x_minus_sin_by_loop(x: float) -> float:
    """x - sin(x) from the Taylor terms, each divisor n*(n + 1) formed in
    the loop."""
    terms, term = [], x
    for n in range(2, 22, 2):
        term *= -x * x / (n * (n + 1))
        terms.append(term)
    return -math.fsum(terms)


def held_thd_by_row(p: int, q: int) -> tuple[float | None, float | None]:
    """The held THD closed form sqrt(1/sinc(q/p)**2 - 1) of one row p/q
    in Python floats: the reference for ``metrics._held_thd``."""
    if p < 3:
        return None, None
    x = math.pi * (q / p)
    h = sin_turns(min(q % p, -q % p) / (2 * p))
    ratio = math.sqrt((x_minus_sin_by_loop(x) if x < 1.0 else x - h) * (x + h)) / h
    return ratio, 20.0 * math.log10(ratio)


def held_supremum(model: WaveformModel, k) -> tuple[float, float]:
    """The supremum of a held model over its pieces ``k`` (ascending),
    whose levels are the sine at their starts, and the earliest time it
    is attained, one piece at a time in Python floats: the first piece
    that reaches the largest of its four candidate errors (start, end,
    peak, trough), and its earliest candidate that does."""
    f, (p, q) = model.spec.frequency_hz, _model_pq(model)
    half = _half_swing(p, q)
    best, best_tick = -1.0, None
    for k in map(int, k):
        r = k * q % p
        start = sin_turns(r / p)
        # the sine's change across the piece, 2*cos(pi*(2r + q)/p)*half
        swing = sin_turns((4 * r + 2 * (q % (2 * p)) + p) % (4 * p) / (4 * p)) * 2.0 * half
        to_peak, to_trough = _windows(r, p)
        candidates = [
            (0.0, 0), (abs(0.0 - swing), 4 * q),
            (abs(start - 1.0) if to_peak <= 4 * q else 0.0, to_peak),
            (abs(start + 1.0) if to_trough <= 4 * q else 0.0, to_trough),
        ]
        error = max(e for e, _ in candidates)
        if error > best:
            best = error
            best_tick = 4 * q * k + min(offset for e, offset in candidates if e == error)
    return best, best_tick / (4 * p) / f


def held_rows(spec, timings) -> list:
    """The held reports of the timings one row at a time, each from the
    pieces of :func:`held_pieces_by_row` and its bounds taken a variant
    at a time: the byte reference for the held rows of
    :func:`ddsmetrics.metrics.evaluate_columns`."""
    f = spec.frequency_hz
    reports = []
    for timing in timings:
        p, q = timing.multiplier_num, timing.multiplier_den
        check_pieces([(p, q)])
        model = WaveformModel.held(spec, timing)
        err, argmax_t = held_supremum(model, held_pieces_by_row(p, q))
        # the bounds at f = 1, where dt = q/p
        pair = tuple(bounds.held_error_bound(1.0, q / p, v) for v in bounds.BoundVariant)
        reports.append(MetricsReport(
            ModelKind.HELD.value, f, None, None, p, q, err, argmax_t, *held_thd_by_row(p, q), *pair
        ))
    return reports


def snap_by_fraction(requested, q_max: int) -> TimingConfig:
    """The continued-fraction snap of
    :func:`ddsmetrics.sweeps.snap_multiplier`, on ``Fraction(requested)``."""
    if q_max < 1:
        raise ValueError("q_max must be >= 1")
    r = Fraction(requested)
    if r <= 0:
        raise ValueError(f"requested multiplier must be positive, got {requested!r}")
    n, d = r.numerator, r.denominator
    if d <= q_max:
        return TimingConfig(n, d)
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
    if p1 == 0:
        return TimingConfig(ps, qs)
    gap1, gaps = abs(p1 * d - n * q1) * qs, abs(ps * d - n * qs) * q1
    if (gap1, q1, p1) < (gaps, qs, ps):
        return TimingConfig(p1, q1)
    return TimingConfig(ps, qs)


def report_columns(reports) -> dict[str, list]:
    """The reports as columns, one list per field of ``REPORT_FIELDS``."""
    return {name: [getattr(r, name) for r in reports] for name in REPORT_FIELDS}


def result_from_rows(kind: str, rows, spec) -> SweepResult:
    """The sweep result whose rows are ``rows``, (requested multiplier,
    report) pairs given in a sweep's shape: row ``b*n + i`` is bit count b
    at point i of the n points of ``spec``'s multiplier axis (``[None]``
    in a bits sweep). Axis points whose column of reports is the same
    objects share one position, and each distinct column's reports are
    stored once. The reference that a sweep's own columns are compared
    against."""
    rows = tuple(rows)
    axis = [None] if kind == "bits" else spec.multiplier_axis()
    n = len(axis)
    width = len(rows) // n
    assert [requested for requested, _ in rows] == axis * width, "not a sweep's shape"
    column_rows = [rows[i::n] for i in range(n)]
    keys = [tuple(id(report) for _, report in column) for column in column_rows]
    distinct = dict(zip(keys, column_rows))  # in order of first appearance
    position = {key: k for k, key in enumerate(distinct)}
    return SweepResult(
        kind, spec,
        report_columns([report for column in distinct.values() for _, report in column]),
        axis, [position[key] for key in keys], width,
    )


def row_column(result: SweepResult, name: str) -> list:
    """Column ``name`` of :meth:`SweepResult.report_column` for each row
    of the sweep, in row order."""
    return list(map(result.report_column(name).__getitem__, result.row_reports()))


def row_table(result: SweepResult) -> dict[str, list]:
    """Every row of the sweep as columns in row order: its requested
    multiplier (``m_requested``), each report field and its flags."""
    table = {name: row_column(result, name) for name in (*REPORT_FIELDS, "flags")}
    return dict(table, m_requested=result.axis * result.width)


def rows_table(rows) -> dict[str, list]:
    """The :func:`row_table` of rows given one by one, as (requested
    multiplier, report, flags) triples."""
    requested, reports, flags = zip(*rows)
    return dict(report_columns(reports), flags=list(flags), m_requested=list(requested))


def parse_csv(text: str) -> tuple[list[str], list[str], list[list[str]]]:
    """Split emitted CSV into comment lines, header fields, and data rows."""
    comments: list[str] = []
    header: list[str] = []
    rows: list[list[str]] = []
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("#"):
            comments.append(line)
        elif not header:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return comments, header, rows
