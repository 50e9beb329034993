"""The two comparison metrics, computed exactly.

:func:`evaluate` reports both metrics in closed form. Every degraded
model is a step function over one combined period, so no row needs an
FFT or a probe grid. A quantized or held row costs O(1); a digitized row
O(pieces):

* maximum absolute error is the exact supremum, taken piece by piece:
  on each piece the larger of the two one-sided endpoint limits, or the
  distance to a sine extremum (phase 1/4 or 3/4) inside the piece. A
  digitized row examines all p pieces; a held row only the few that can
  attain it, with the same floats, so it reports the all-piece values
  bit for bit;
* THD follows from Parseval's theorem. The held model's start phases
  k*q mod p run over every residue mod p, which leaves the
  zero-order-hold closed form sqrt(1/sinc(q/p)**2 - 1). A digitized
  model's THD composes that closed form exactly with the discrete THD of
  its levels, taken from sums of their quantization errors, so no term of
  unit size cancels (see :func:`_evaluate_batch`). The quantized model's
  error is a sawtooth in the sine, whose power and fundamental are Bessel
  series (Blachman, 1985); at the quantizer's whole-turn arguments
  Hankel's expansion sums them into a few zeta values.

Apart from the target model, :func:`evaluate` is a batch of one of three
engines, each of which takes a whole sweep axis in one call and returns
one list per report field (see ``REPORT_FIELDS``): :func:`quantized_columns`,
O(1) per quantizer; :func:`held_columns`, held rows p/q in chunks whose
candidate pieces form one matrix; :func:`evaluate_columns`, digitized rows,
one column of quantizers per multiplier p/q. The last lays consecutive
columns' pieces end to end in batches, so what depends on the multipliers
alone, bounds included, is built once per batch, and takes the quantizers
through whole-matrix calls; its batches are the only tasks that may run on
a thread pool. The held and digitized engines take integer pairs (p, q)
and their suprema from one segmented pass, :meth:`_Pieces.supremum`, so a
row of a sweep costs a few Python-level steps, not a few dozen numpy calls.

The step levels come from :func:`ddsmetrics.signals.step_levels`, the
definition the pointwise models use. The probe-grid and DFT estimators
that check this engine live with the tests, in ``tests/oracles.py``.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields
from functools import partial
from itertools import accumulate, chain
from typing import Sequence

import numpy as np

from . import bounds
from .signals import (
    ModelKind,
    QuantizationMode,
    QuantizerConfig,
    SignalSpec,
    WaveformModel,
    quantize,
    sin_turns,
    sin_turns_array,
    step_levels,
)

__all__ = [
    "MAX_PIECES",
    "MetricsReport",
    "REPORT_FIELDS",
    "CapExceeded",
    "check_pieces",
    "column_batches",
    "evaluate",
    "evaluate_columns",
    "held_columns",
    "quantized_columns",
    "reports_from_columns",
]

# A column this long is a batch of its own and runs one row per group;
# evaluate_columns() then holds about 75 bytes per piece at its peak, one
# row's temporaries beside the arrays its rows share, so it stays under
# about 1.3 GB.
MAX_PIECES = 1 << 24

# evaluate_columns() evaluates its quantizers in groups of at most this
# many level-matrix elements, at least one row per group: a group of
# small rows costs a few whole-matrix calls instead of a few per row.
_COLUMN_CHUNK = 1 << 16

# evaluate_columns() lays the pieces of consecutive timings end to end,
# up to this many in all (see column_batches), so that a batch of small
# columns shares one set of array calls and a group holds at least 4 rows.
_BATCH_PIECES = _COLUMN_CHUNK // 4

# held_columns() takes its rows in chunks of this many, one pass of array
# operations each: about 1.6 KB of temporaries per row, 1.6 MB per chunk.
_HELD_CHUNK = 1024

# Up to this many bits quantized THD sums over the at most 8 thresholds:
# the Hankel series of _bessel_sums is only asymptotic and falls short
# there (3e-7 off at 1 bit). From the next bit on it is exact to float
# precision.
_MAX_THRESHOLD_BITS = 3

# zeta(s) at s = 3/2, 5/2, ..., 27/2, correctly rounded: _bessel_sums
# keeps the 12 terms of Hankel's expansion that these cover.
_ZETA_HALF_INTEGERS = (
    2.612375348685488, 1.341487257250917, 1.1267338673170566,
    1.0547075107614543, 1.0252045799546856, 1.0120058998885249,
    1.005826727536523, 1.0028592508824157, 1.0014125906121736,
    1.000700842641736, 1.0003486558834918, 1.000173751733643,
    1.0000866867274623,
)


class CapExceeded(RuntimeError):
    """A multiplier needs more work than a cap allows, such as more
    pieces than ``MAX_PIECES`` in :func:`evaluate`."""

    def __init__(self, p: int, q: int, count: int, cap: int, unit: str):
        super().__init__(
            f"multiplier {p}/{q} needs {count} {unit}, exceeding the cap of {cap}"
        )
        self.p = p
        self.q = q
        self.count = count
        self.cap = cap


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


# The fields of a MetricsReport, in order. A set of reports can be held as
# columns: a dict of one list per field, position i of every list
# belonging to report i.
REPORT_FIELDS = tuple(field.name for field in fields(MetricsReport))


def reports_from_columns(columns: dict[str, list]) -> list[MetricsReport]:
    """The reports that ``columns`` holds, one per position."""
    return list(map(MetricsReport, *(columns[name] for name in REPORT_FIELDS)))


def _turns(num: np.ndarray, den: int) -> np.ndarray:
    """Phase num/den in turns, reduced modulo 1 in integers first."""
    return (num % den).astype(np.float64) / den


def check_pieces(p: int, q: int) -> None:
    """Raise :class:`CapExceeded` when the multiplier p/q has more than
    ``MAX_PIECES`` pieces per combined period."""
    if p > MAX_PIECES:
        raise CapExceeded(p, q, p, MAX_PIECES, "pieces")


def _parseval_thd(mean: float, mean_square: float, fundamental: float) -> tuple[float, float]:
    """THD from the signal's mean, mean square and fundamental peak
    amplitude: harmonic power is the AC power less the fundamental's."""
    harmonic = 2.0 * (mean_square - mean * mean) - fundamental * fundamental
    ratio = math.sqrt(harmonic) / fundamental
    return ratio, 20.0 * math.log10(ratio)


def _gap(f: float, p: int, q: int) -> float:
    """The update gap q/(p*f) of the multiplier p/q, in seconds: the float
    of :meth:`~ddsmetrics.signals.TimingConfig.time_gap_s`."""
    return q / (p * f)


def _half_swing(f: float, p: int, q: int) -> float:
    """sin(pi*q/p), half the sine's swing across a piece of the multiplier
    p/q. Up to f*dt = 1/2 it is the very float the strict bound doubles,
    so that the swing 2*cos(...)*half can never round above the bound."""
    x = f * _gap(f, p, q)
    return sin_turns(x / 2.0) if x <= 0.5 else sin_turns(q % (2 * p) / (2 * p))


def _windows(r, p: int):
    """Offsets from residue r (an int or an int64 array) to phase 1/4 and
    3/4, in units of 1/(4*p) turn."""
    four_r, four_p = 4 * r, 4 * p
    return (p - four_r) % four_p, (3 * p - four_r) % four_p


def _errors(level, start, swing, at_peak, at_trough) -> tuple:
    """The candidate suprema of pieces that hold ``level``: at their two
    ends and at the sine extrema inside them."""
    offset = level - start  # 0 for held; the quantization error at the start
    return (
        np.abs(offset),
        np.abs(offset - swing),
        np.where(at_peak, np.abs(level - 1.0), 0.0),
        np.where(at_trough, np.abs(level + 1.0), 0.0),
    )


class _Pieces:
    """The pieces of one or more held or digitized rows p/q at frequency
    f, and what every quantizer shares about them. ``k`` holds the piece
    indices of every row end to end: row ``rows[i]`` has the next
    ``counts[i]`` of them (ascending), its segment. Piece k of a
    row p/q starts at residue r = k*q mod p, where the sine is ``start``;
    the sine changes by ``swing`` across it; it holds phase 1/4 (3/4) iff
    ``at_peak`` (``at_trough``)."""

    def __init__(
        self,
        f: float,
        rows: Sequence[tuple[int, int]],
        k: np.ndarray,
        counts: list[int],
    ):
        self.f, self.rows, self.k, self.counts = f, rows, k, counts
        self.starts = np.cumsum([0, *counts[:-1]])
        # q meets the int64 arrays only reduced, so any exact multiplier
        # fits; both window offsets below are below 4p, so 4*min(q, p)
        # reaches as far as 4q
        p, q_mod_p, twice_q, reach = self._spread(
            [(p, q % p, q % (2 * p), 4 * min(q, p)) for p, q in rows]
        )
        self.p, self.reach = p, reach
        self.r = (self.k * q_mod_p) % p
        self.start = step_levels(self.r, p)
        self.half = self._spread([_half_swing(f, p, q) for p, q in rows])
        # sin(a + w) - sin(a) = 2*cos(a + w/2)*sin(w/2): the sine's change
        # from the start of each piece to the end, without cancellation.
        cosine = sin_turns_array(_turns(4 * self.r + 2 * twice_q + p, 4 * p))
        self.swing = 2.0 * cosine * self.half
        # Phase 1/4 (3/4) lies in [r/p, (r+q)/p] iff its offset from r/p
        # is at most 4q, exact in integers.
        to_peak, to_trough = _windows(self.r, p)
        self.at_peak, self.at_trough = to_peak <= reach, to_trough <= reach

    def _spread(self, values: list):
        """One value (or tuple of values) per row, repeated for each of its
        pieces: an array (or one array per tuple position). The value of a
        single row stays a scalar (or tuple of scalars)."""
        if len(self.counts) == 1:
            return values[0]
        return np.repeat(np.array(values), self.counts, axis=0).T

    def supremum(self, level: np.ndarray, error: np.ndarray) -> tuple[list, list]:
        """Exact supremum of each segment of each row of ``level`` (a
        matrix, or one row, of one level per piece), and the earliest time
        it is attained: two lists, with one entry per row and segment, row
        by row. A held batch is one row of many segments, a column many
        rows of one, and a batch of columns many rows of many. ``error``
        holds ``level - start`` (zeros for held rows) and is overwritten."""
        level = level.reshape(-1, len(self.k))
        # The largest of each piece's _errors, folded in place into one
        # array: the same floats, without four arrays alive at once.
        buffer = error.reshape(level.shape)
        largest = np.abs(buffer)
        np.subtract(buffer, self.swing, out=buffer)
        np.maximum(largest, np.abs(buffer, out=buffer), out=largest)
        np.subtract(level, 1.0, out=buffer)
        np.maximum(largest, np.abs(buffer, out=buffer), out=largest, where=self.at_peak)
        np.add(level, 1.0, out=buffer)
        np.maximum(largest, np.abs(buffer, out=buffer), out=largest, where=self.at_trough)
        del buffer  # so the comparison below does not add to the peak
        # max is exact in any order, so the segments reduce side by side
        sups = np.maximum.reduceat(largest, self.starts, axis=1)
        spread = sups if len(self.counts) == 1 else np.repeat(sups, self.counts, axis=1)
        # Pieces follow each other in time, so a segment's earliest
        # attainment lies in the first of its pieces that attains its
        # supremum at all: the first flat hit at or after its start.
        attaining = np.flatnonzero(largest == spread)
        width = len(self.k)
        segment_starts = (np.arange(len(level))[:, None] * width + self.starts).ravel()
        rows, firsts = np.divmod(attaining[attaining.searchsorted(segment_starts)], width)
        sups = sups.ravel()
        # The earliest of the four candidates at the first attaining piece
        # that equals the supremum. Their offsets into the piece, in units
        # of 1/(4*p*f), are 0, 4q and the windows to phase 1/4 and 3/4;
        # 4*min(q, p) stands in for 4q, which may pass int64, and orders
        # alike, since both windows lie below 4p.
        at = (lambda values: values[firsts]) if len(self.counts) > 1 else (lambda value: value)
        candidates = _errors(
            level[rows, firsts], self.start[firsts], self.swing[firsts],
            self.at_peak[firsts], self.at_trough[firsts],
        )
        offsets = np.zeros((4, len(sups)), dtype=np.int64)
        offsets[1] = at(self.reach)
        offsets[2:] = _windows(self.r[firsts], at(self.p))
        offsets[np.array(candidates) != sups] = np.iinfo(np.int64).max
        # the end of the piece is tick 4*(k + 1)*q, in Python ints
        at_end = offsets.argmin(axis=0) == 1
        times = [
            (4 * q * (k + end) + offset) / (4 * p) / self.f
            for (p, q), k, end, offset in zip(
                self.rows * len(level), self.k[firsts].tolist(), at_end.tolist(),
                np.where(at_end, 0, offsets.min(axis=0)).tolist(),
            )
        ]
        return sups.tolist(), times


# The candidate residues of a held row p/q (see _held_pieces). Its six
# window residues are (a*p - b*min(q, p) + c) // 4 for these (a, b, c):
# ceil(p/4 - q), ceil(3p/4 - q), and the floor and ceiling of p/4 and 3p/4.
_WINDOW_P = np.array([1, 3, 1, 1, 3, 3], dtype=np.int64)
_WINDOW_REACH = np.array([4, 4, 0, 0, 0, 0], dtype=np.int64)
_WINDOW_CEIL = np.array([3, 3, 0, 3, 0, 3], dtype=np.int64)
# Beside its swing maxima 2r + (q mod 2p) is at most 2 from a multiple m*p
# of p, m = 0..4, so 2r is m*p + gap - (q mod 2p) for these (m, gap).
_SWING_MULTIPLES = np.repeat(np.arange(5, dtype=np.int64), 5)
_SWING_GAPS = np.tile(np.arange(-2, 3, dtype=np.int64), 5)


def _held_pieces(rows: Sequence[tuple[int, int]]) -> tuple[np.ndarray, list[int]]:
    """Indices of the few held pieces of each row p/q that can attain the
    supremum, ascending and each once, the rows end to end, and how many
    each row has; for each row a superset of every piece whose candidate
    error (see :class:`_Pieces`) equals the maximum of its kind.

    * The swing 2*cos(pi*(2r + q)/p)*sin(pi*q/p) is largest where 2r + q
      is nearest a multiple of p; residues within 2 of one are kept.
    * The peak error 1 - level grows with the distance back from phase
      1/4, so within the pieces that contain 1/4 it is largest at the far
      end of that window, r = ceil(p/4 - q), or, if the window reaches
      past 3/4, beside 3p/4. Likewise for the trough, mirrored.

    Piece k starts at residue r = k*q mod p, so k = r * q**-1 mod p. The
    candidates of all rows form one int64 matrix, 6 window residues and
    25 swing candidates a row: p <= 2**24 keeps 4*p and every product
    r * q**-1 far inside int64, and q meets the arrays only reduced.
    """
    table = np.array(
        [(p, q % (2 * p), min(q, p), pow(q % p, -1, p)) for p, q in rows], dtype=np.int64
    )
    p, twice_q, reach, inverse = table.T[:, :, None]
    # (n + 3) // 4 is ceil(n/4), negative n included
    windows = (_WINDOW_P * p - _WINDOW_REACH * reach + _WINDOW_CEIL) // 4
    # 2r + (q mod 2p) lies in [0, 4p), so the multiples 0..4p bracket it;
    # an odd or out-of-range 2r gives way to the first window residue, a
    # repeat that is dropped below
    r, odd = np.divmod(_SWING_MULTIPLES * p + _SWING_GAPS - twice_q, 2)
    swing = np.where((odd == 0) & (r >= 0) & (r < p), r, windows[:, :1])
    k = np.hstack((windows, swing)) % p * inverse % p
    k.sort(axis=1)
    kept = np.ones(k.shape, dtype=bool)
    kept[:, 1:] = k[:, 1:] != k[:, :-1]
    return k[kept], kept.sum(axis=1).tolist()


# n*(n + 1) for n = 2, 4, ..., 20: term n + 1 of the sine's Taylor series
# is term n - 1 times -x**2/(n*(n + 1)).
_TAYLOR_DIVISORS = np.array([n * (n + 1) for n in range(2, 22, 2)], dtype=np.float64)


def _x_minus_sin(x: np.ndarray) -> list[float]:
    """x - sin(x) for each 0 <= x < 1 of ``x`` from its Taylor series, free
    of the cancellation of the direct difference; the terms past
    x**21/21! are below an ulp. The terms are the products of a scalar
    loop, term = term * (-x*x / divisor), in its order: accumulate
    multiplies along a row one factor at a time. Each sum is
    ``math.fsum``'s, correctly rounded."""
    factors = np.empty((len(x), len(_TAYLOR_DIVISORS) + 1))
    factors[:, 0] = x
    np.divide((-x * x)[:, None], _TAYLOR_DIVISORS, out=factors[:, 1:])
    terms = np.multiply.accumulate(factors, axis=1)[:, 1:]
    return [-math.fsum(row) for row in terms.tolist()]


def _held_thd(rows: Sequence[tuple[int, int]]) -> tuple[list, list]:
    """THD of the held model of each row p/q in closed form,
    sqrt(1/sinc(q/p)**2 - 1): the ratios and their dB values.

    Since gcd(p, q) = 1 the start residues k*q mod p run over 0..p-1, so
    for p >= 3 the levels have mean 0, mean square 1/2 and fundamental
    bin p/2; Parseval then leaves sqrt((x - h)*(x + h))/h with
    x = pi*q/p and h = |sin x|. Below p = 3 every level is 0, and both
    fields are None. The arithmetic is a row's own, elementwise: only
    correctly rounded operations run on arrays, and the sine and the
    logarithm stay ``math``'s.
    """
    ratios, dbs = [None] * len(rows), [None] * len(rows)
    live = [i for i, (p, _) in enumerate(rows) if p >= 3]
    if not live:
        return ratios, dbs
    # |sin x| = sin(pi*near/p), near the distance from q to the closest
    # multiple of p: a turn below 1/4, so a sine near its zero keeps its
    # digits
    x, h = map(np.array, zip(*(
        (math.pi * (q / p), sin_turns(min(q % p, -q % p) / (2 * p)))
        for p, q in map(rows.__getitem__, live)
    )))
    gap = x - h
    small = x < 1.0
    gap[small] = _x_minus_sin(x[small])
    for i, ratio in zip(live, (np.sqrt(gap * (x + h)) / h).tolist()):
        ratios[i], dbs[i] = ratio, 20.0 * math.log10(ratio)
    return ratios, dbs


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


def _threshold_thd(quantizer: QuantizerConfig) -> tuple[float, float]:
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


def _bessel_sums(scale: int, alternating: bool) -> tuple[float, float]:
    """sum_n s_n*J0(2*pi*n*S)/n**2 and sum_n s_n*J1(2*pi*n*S)/n over
    n >= 1, with S = ``scale`` and s_n = (-1)**n if ``alternating``, else 1.

    z = 2*pi*n*S is a whole number of turns, so Hankel's expansion
    collapses to J0(z) = (P0 + Q0)/sqrt(pi*z) and J1(z) = (Q1 - P1)/sqrt(pi*z).
    Its term a_k(nu)/z**k, summed over n, leaves zeta(5/2 + k) for J0 and
    zeta(3/2 + k) for J1, or -(1 - 2**(1 - s))*zeta(s) when alternating.
    """
    z = 2.0 * math.pi * scale
    a0 = a1 = 1.0  # Hankel's a_k(0) and a_k(1)
    terms0, terms1 = [], []
    for k in range(len(_ZETA_HALF_INTEGERS) - 1):
        zeta0, zeta1 = _ZETA_HALF_INTEGERS[k + 1], _ZETA_HALF_INTEGERS[k]
        if alternating:
            zeta0 *= 2.0 ** (-1.5 - k) - 1.0
            zeta1 *= 2.0 ** (-0.5 - k) - 1.0
        # P + Q has the signs + + - - + + ...; Q - P flips the even terms
        weight = (-1.0 if k & 2 else 1.0) / z**k
        terms0.append(weight * a0 * zeta0)
        terms1.append((weight if k % 2 else -weight) * a1 * zeta1)
        a0 *= -(2 * k + 1) ** 2 / (8 * (k + 1))
        a1 *= (4 - (2 * k + 1) ** 2) / (8 * (k + 1))
    root = math.pi * math.sqrt(2.0 * scale)  # sqrt(pi*z) at n = 1
    return math.fsum(terms0) / root, math.fsum(terms1) / root


def _quantized_thd(quantizer: QuantizerConfig) -> tuple[float | None, float | None]:
    """Parseval THD of the quantized sine from its error u = Q(s) - s.

    With S = 2**(bits-1) levels per unit and step h = 1/S, u is a
    sawtooth in S*s whose Fourier series, averaged over s = sin(theta),
    gives var(u) = h**2*(1/12 + sum_n s_n*J0(2*pi*n*S)/(pi*n)**2) and the
    fundamental E1 = (2*h/pi)*sum_n s_n*J1(2*pi*n*S)/n, with s_n = 1 for
    floor and ceiling and (-1)**n for round; the mean of u drops out.
    THD is sqrt(2*var(u) - E1**2)/(1 + E1), whose terms are all O(h**2),
    so nothing cancels. Up to ``_MAX_THRESHOLD_BITS`` bits the thresholds
    are summed instead.
    """
    if quantizer.bits <= _MAX_THRESHOLD_BITS:
        return _threshold_thd(quantizer)
    sum0, sum1 = _bessel_sums(
        quantizer.scale, quantizer.mode is QuantizationMode.ROUND
    )
    step = quantizer.step
    error_1 = 2.0 / math.pi * sum1  # E1 in steps
    harmonic = 2.0 * (1.0 / 12.0 + sum0 / math.pi**2) - error_1 * error_1
    ratio = step * math.sqrt(harmonic) / (1.0 + step * error_1)
    return ratio, 20.0 * math.log10(ratio)


def evaluate(model: WaveformModel) -> MetricsReport:
    """Run both metrics on one model and attach the matching bounds.

    Max error is the exact supremum and THD the exact Parseval value: in
    O(1) for a quantized model (a closed-form supremum and Bessel-series
    THD), which is a batch of one quantizer (:func:`quantized_columns`),
    and a held one (closed-form THD, a constant-size set of candidate
    pieces), which is a batch of one row (:func:`held_columns`), in
    O(pieces) for a digitized one, which is a batch of one column of one
    row (:func:`evaluate_columns`). ``thd_db`` is None when the ratio is
    0 (target model) and both THD fields are None when the signal has no
    fundamental (such as a held model with p <= 2, whose levels are all
    0). :class:`CapExceeded` is raised before anything is allocated when
    the model has more than ``MAX_PIECES`` pieces, held rows included.
    """
    spec = model.spec
    if model.kind is ModelKind.TARGET:
        return MetricsReport(
            ModelKind.TARGET.value, spec.frequency_hz,
            None, None, None, None, 0.0, 0.0, 0.0, None, 0.0, 0.0,
        )
    if model.kind is ModelKind.QUANTIZED:
        return reports_from_columns(quantized_columns(spec, [model.quantizer]))[0]
    rows = [(model.timing.multiplier_num, model.timing.multiplier_den)]
    columns = (
        held_columns(spec, rows) if model.kind is ModelKind.HELD
        else evaluate_columns(spec, rows, [model.quantizer])
    )
    return reports_from_columns(columns)[0]


def quantized_columns(spec: SignalSpec, quantizers: Sequence[QuantizerConfig]) -> dict[str, list]:
    """The quantized reports of the quantizers, as columns (see
    ``REPORT_FIELDS``), in their order: :func:`_quantized_supremum`,
    :func:`_quantized_thd` and the bound of each, O(1) apiece."""
    f, n = spec.frequency_hz, len(quantizers)
    suprema = [_quantized_supremum(quantizer, f) for quantizer in quantizers]
    thds = [_quantized_thd(quantizer) for quantizer in quantizers]
    bound = [bounds.quantization_error_bound(quantizer.bits) for quantizer in quantizers]
    return {
        "model": [ModelKind.QUANTIZED.value] * n, "freq_hz": [f] * n,
        "bits": [quantizer.bits for quantizer in quantizers],
        "mode": [quantizer.mode.value for quantizer in quantizers],
        "m_num": [None] * n, "m_den": [None] * n,
        "max_abs_error": [error for error, _ in suprema],
        "argmax_time_s": [t for _, t in suprema],
        "thd_ratio": [ratio for ratio, _ in thds], "thd_db": [db for _, db in thds],
        "paper_bound": bound, "strict_bound": bound.copy(),
    }


# The fields of a held or digitized report that the pieces give.
_COMPUTED = ("max_abs_error", "argmax_time_s", "thd_ratio", "thd_db")


def held_columns(spec: SignalSpec, rows: Sequence[tuple[int, int]]) -> dict[str, list]:
    """The held reports of the multipliers p/q of ``rows``, each in lowest
    terms, as columns (see ``REPORT_FIELDS``), in their order. The rows
    go in chunks of ``_HELD_CHUNK``: the candidate pieces of every row of
    a chunk (see :func:`_held_pieces`) are built as one matrix and go
    through one pass of array operations, and so does the THD (see
    :func:`_held_thd`); the modular inverse, the sines, the argmax tick
    and the bounds stay per row, in Python integers and floats.
    :class:`CapExceeded` is raised before any pieces are built when some
    row has more than ``MAX_PIECES`` pieces.
    """
    for p, q in rows:
        check_pieces(p, q)
    f, n = spec.frequency_hz, len(rows)
    filled = (*_COMPUTED, "paper_bound", "strict_bound")
    columns = {
        "model": [ModelKind.HELD.value] * n, "freq_hz": [f] * n,
        "bits": [None] * n, "mode": [None] * n,
        "m_num": [p for p, _ in rows], "m_den": [q for _, q in rows],
        **{name: [] for name in filled},
    }
    for first in range(0, n, _HELD_CHUNK):
        chunk = rows[first:first + _HELD_CHUNK]
        pieces = _Pieces(f, chunk, *_held_pieces(chunk))
        values = (
            *pieces.supremum(pieces.start, np.zeros(len(pieces.k))), *_held_thd(chunk),
            *zip(*bounds.held_bounds(f, [_gap(f, p, q) for p, q in chunk])),
        )
        for name, chunk_values in zip(filled, values):
            columns[name] += chunk_values
    return columns


def column_batches(rows: Sequence[tuple[int, int]]) -> list[list[tuple[int, int]]]:
    """The multipliers p/q of ``rows`` in order, cut into runs of
    consecutive rows whose pieces number at most ``_BATCH_PIECES`` in
    all; a row of more pieces is a batch of its own."""
    batches, size = [], 0
    for row in rows:
        p = row[0]
        if not batches or size + p > _BATCH_PIECES:
            batches.append([])
            size = 0
        batches[-1].append(row)
        size += p
    return batches


def evaluate_columns(
    spec: SignalSpec,
    rows: Sequence[tuple[int, int]],
    quantizers: Sequence[QuantizerConfig],
    workers: int = 1,
) -> dict[str, list]:
    """:func:`evaluate` of the digitized models of each multiplier p/q of
    ``rows``, each in lowest terms, and each quantizer, as columns (see
    ``REPORT_FIELDS``): one multiplier after another, so that report
    ``i*len(quantizers) + b`` is that of row i and quantizer b. The
    bounds' bit terms are taken once for all rows, and their sine and
    hold terms once per row. The rows go in the batches of
    :func:`column_batches`, their pieces end to end, so that what else
    depends on the multipliers alone (see :class:`_Pieces`, the cosines,
    the held THD) is a few array calls per batch. The quantizers then go
    in groups of up to ``_COLUMN_CHUNK`` level-matrix elements, at least
    one row each: a group's levels, candidate errors, suprema and THD sums
    are whole-matrix calls, and only the argmax tick and the logarithm
    stay per row and column.

    The batches run on a pool of ``min(workers, batches, os.cpu_count())``
    threads where that is above 1, each filling its own slice of the
    columns. :class:`CapExceeded` is raised before anything is allocated
    when some row has more than ``MAX_PIECES`` pieces.
    """
    for p, q in rows:
        check_pieces(p, q)
    if not rows or not quantizers:
        return {name: [] for name in REPORT_FIELDS}
    f, n = spec.frequency_hz, len(quantizers)
    size = len(rows) * n
    bits = [quantizer.bits for quantizer in quantizers]
    bound_pairs = bounds.digitized_bounds(f, [_gap(f, p, q) for p, q in rows], bits)
    paper, strict = zip(*chain.from_iterable(bound_pairs))
    columns = {
        "model": [ModelKind.DIGITIZED.value] * size, "freq_hz": [f] * size,
        "bits": bits * len(rows),
        "mode": [quantizer.mode.value for quantizer in quantizers] * len(rows),
        "m_num": [p for p, _ in rows for _ in bits], "m_den": [q for _, q in rows for _ in bits],
        **{name: [None] * size for name in _COMPUTED},
        "paper_bound": list(paper), "strict_bound": list(strict),
    }
    batches = column_batches(rows)
    # the position of each batch's first report
    firsts = accumulate((len(batch) * n for batch in batches[:-1]), initial=0)
    run = partial(_evaluate_batch, f, quantizers, columns)
    workers = min(workers, len(batches), os.cpu_count() or 1)
    if workers > 1:
        # imported here, so that importing the package loads no pool
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(run, batches, firsts))
    else:
        list(map(run, batches, firsts))
    return columns


def _evaluate_batch(
    f: float,
    quantizers: Sequence[QuantizerConfig],
    columns: dict[str, list],
    rows: list[tuple[int, int]],
    first: int,
) -> None:
    """Fill the computed fields (see ``_COMPUTED``) of the reports of
    :func:`evaluate_columns` of one batch of rows p/q, whose first report
    is at position ``first`` of ``columns``.

    THD**2 = THD_held**2 + THD_seq**2*(1 + THD_held**2) exactly: the hold
    scales the fundamental by sinc(q/p) and keeps the AC power of the
    levels L, whose discrete THD in residue order is THD_seq. For p >= 3
    the sine's DFT is -1j*p/2 at bin 1 and 0 elsewhere below p/2, so with
    E = L - sine, a = mean(E*cos) and b = mean(E*sin) over the residues,
    THD_seq**2 = (mean(E**2) - mean(E)**2 - 2*(a*a + b*b)) /
    (2*(a*a + (1/2 + b)**2)), which subtracts no term of unit size. Each
    mean is one segmented sum, whose order depends on its segment alone.
    """
    counts = [p for p, _ in rows]
    width = sum(counts)
    starts = np.cumsum([0, *counts[:-1]])
    pieces = _Pieces(f, rows, np.arange(width) - np.repeat(starts, counts), counts)
    cosine = sin_turns_array(_turns(4 * pieces.r + pieces.p, 4 * pieces.p))
    held = _held_thd(rows)[0]
    # THD_held**2 of each column; a column of p < 3 has no fundamental
    held_square = np.array([0.0 if ratio is None else ratio * ratio for ratio in held])
    errors, times, ratios, dbs = map(columns.__getitem__, _COMPUTED)
    n = len(quantizers)
    group_rows = max(1, _COLUMN_CHUNK // width)
    for offset in range(0, n, group_rows):
        group = quantizers[offset:offset + group_rows]
        level = np.empty((len(group), width))
        for i, quantizer in enumerate(group):
            quantize(pieces.start, quantizer, out=level[i])
        error = level - pieces.start
        product = np.empty_like(error)
        sums = [np.add.reduceat(error, starts, axis=1)] + [
            np.add.reduceat(np.multiply(error, factor, out=product), starts, axis=1)
            for factor in (error, cosine, pieces.start)
        ]
        del product
        mean, mean_square, a, b = (total / counts for total in sums)
        harmonic = mean_square - mean * mean - 2.0 * (a * a + b * b)
        fundamental = 2.0 * (a * a + (0.5 + b) * (0.5 + b))
        sequence = np.maximum(harmonic, 0.0) / fundamental
        thd = np.sqrt(held_square + sequence * (1.0 + held_square)).T.tolist()
        # entry i*len(rows) + c of the suprema is quantizer i of column c
        suprema, argmax_times = pieces.supremum(level, error)
        # free the group's levels before the next group's are allocated
        del level, error
        for c, ratio in enumerate(held):
            start = first + c * n + offset
            at = slice(start, start + len(group))
            errors[at] = suprema[c::len(rows)]
            times[at] = argmax_times[c::len(rows)]
            if ratio is not None:
                ratios[at] = thd[c]
                dbs[at] = [20.0 * math.log10(value) for value in thd[c]]
