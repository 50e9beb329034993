"""The two comparison metrics, computed exactly.

:func:`evaluate` reports both metrics in closed form. Every degraded
model is a step function over one combined period, so no row needs an
FFT or a probe grid. A quantized or held row costs O(1); a digitized row
O(pieces):

* maximum absolute error is the exact supremum, taken piece by piece:
  on each piece the larger of the two one-sided endpoint limits, or the
  distance to a sine extremum (phase 1/4 or 3/4) inside the piece. A
  digitized row examines all p pieces; a held row a fixed-width row of
  candidates that covers every piece that can attain it, with the same
  floats, so it reports the all-piece values bit for bit;
* THD follows from Parseval's theorem. The held model's start phases
  k*q mod p run over every residue mod p, which leaves the
  zero-order-hold closed form sqrt(1/sinc(q/p)**2 - 1). A digitized
  model's THD composes that closed form exactly with the discrete THD of
  its levels, taken from sums of their quantization errors, so no term of
  unit size cancels (see :func:`_evaluate_batch`). The quantized model's
  error is a sawtooth in the sine, whose power and fundamental are Bessel
  series (Blachman, 1985); at the quantizer's whole-turn arguments
  Hankel's expansion sums them into a few zeta values.

Apart from the target model, :func:`evaluate` is a batch of one of two
engines, each of which takes a whole sweep axis in one call and returns
one list per report field (see ``REPORT_FIELDS``): :func:`quantized_columns`,
O(1) per quantizer, and :func:`evaluate_columns`, rows p/q held (without
quantizers) or digitized (a column of quantizers each), in the batches of
:func:`column_batches`. A batch of held rows is one fixed-width int64
matrix of candidate residues, a row per p/q (:func:`_held_candidates`),
whose suprema are row maxima (:func:`_held_suprema`). A batch of
digitized rows lays their pieces end to end, so that what depends on the
multipliers alone is built once per batch: per piece only the start sine,
its swing and its cosine (see :class:`_Pieces`). The quantizers then go
in groups through one working set, matrices allocated once per batch that
every whole-matrix step writes into (:meth:`_Pieces.quantized`); each
group leaves a few values per report, and the THD, the argmax times and
the logarithms are taken from them once per batch. Digitized rows take
their suprema from one segmented pass, :meth:`_Pieces.supremum`, so a row
of a sweep costs a few Python-level steps, not a few dozen numpy calls.
Both kinds of row take the time of a supremum from :func:`_times`, in
periods: no field but ``argmax_time_s`` depends on the frequency.

The step levels come from :func:`ddsmetrics.signals.step_levels`, the
definition the pointwise models use. The probe-grid and DFT estimators
that check this engine live with the tests, in ``tests/oracles.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import partial, reduce
from operator import add
from typing import Iterable, Sequence

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
    "quantized_columns",
    "reports_from_columns",
]

# A column this long is a batch of its own and runs one row per group;
# evaluate_columns() then holds about 56 bytes per piece at its peak
# (tracemalloc at p = 2**22 - 3: 235 MB): the three arrays its rows share
# and the temporaries of the last sine that builds them, or one group's
# working set beside them, so it stays under about 0.95 GB.
MAX_PIECES = 1 << 24

# evaluate_columns() evaluates its quantizers in groups of at most this
# many level-matrix elements, at least one row per group, through one
# working set of about 25 bytes per element (three float matrices and a
# bool one), 0.8 MB: a group of small rows costs a few whole-matrix calls
# instead of a few per row. Measured in pairs on the benchmark's
# digitized grid, 2**16 slowed the engine's first call by about 10 % and
# 2**14 the whole command by about 4 %.
_COLUMN_CHUNK = 1 << 15

# evaluate_columns() lays the pieces of consecutive rows end to end, up
# to this many in all (see column_batches), so that a batch of small rows
# shares one set of array calls and a group holds at least 2 rows.
_BATCH_PIECES = _COLUMN_CHUNK // 2

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

# The terms of Hankel's expansion that _bessel_sums keeps.
_HANKEL_TERMS = len(_ZETA_HALF_INTEGERS) - 1


def _hankel_factors(alternating: bool) -> tuple[list[float], ...]:
    """The factors of the k-th terms of :func:`_bessel_sums` that do not
    depend on the bit count, k = 0, 1, ...: Hankel's a_k(0), with the
    signs + + - - + + ... of P + Q, and its zeta value; a_k(1), with the
    signs of Q - P (those of P + Q, the even terms flipped), and its zeta
    value. A sign is exact in any factor, so it rides on a_k."""
    a0 = a1 = 1.0  # Hankel's a_k(0) and a_k(1)
    factors = ([], [], [], [])
    for k in range(_HANKEL_TERMS):
        zeta0, zeta1 = _ZETA_HALF_INTEGERS[k + 1], _ZETA_HALF_INTEGERS[k]
        if alternating:
            zeta0 *= 2.0 ** (-1.5 - k) - 1.0
            zeta1 *= 2.0 ** (-0.5 - k) - 1.0
        sign = -1.0 if k & 2 else 1.0
        values = (sign * a0, zeta0, (sign if k % 2 else -sign) * a1, zeta1)
        for column, value in zip(factors, values):
            column.append(value)
        a0 *= -(2 * k + 1) ** 2 / (8 * (k + 1))
        a1 *= (4 - (2 * k + 1) ** 2) / (8 * (k + 1))
    return factors


# _hankel_factors of the floor and ceiling rules, then of the round rule.
_HANKEL_FACTORS = (_hankel_factors(False), _hankel_factors(True))


class CapExceeded(RuntimeError):
    """A multiplier needs more work than a cap allows, such as more
    pieces than ``MAX_PIECES`` in :func:`evaluate`."""

    def __init__(self, p: int, q: int, cap: int, unit: str):
        super().__init__(f"multiplier {p}/{q} needs more than {cap} {unit}")
        self.p = p
        self.q = q
        self.cap = cap

    @property
    def rounds_under_cap(self) -> bool:
        """Whether p/q rounded to an integer, about what it snaps to at a
        denominator limit of 1, is within the cap."""
        return _rounded(self.p, self.q) <= self.cap


def _rounded(p: int, q: int) -> int:
    """p/q rounded to the nearest integer, ties up."""
    return (2 * p + q) // (2 * q)


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


def _row_table(rows: Sequence[tuple[int, int]]) -> np.ndarray:
    """One int64 column per row p/q: p, q mod p, 4*min(q, p) and q mod 2p;
    held rows add q**-1 mod p (see :func:`_held_candidates`). q meets the
    int64 arrays only reduced, so any exact multiplier fits, and
    p <= ``MAX_PIECES`` keeps 4*p and every product r * q**-1 far inside
    int64."""
    return np.array([(p, q % p, 4 * min(q, p), q % (2 * p)) for p, q in rows], dtype=np.int64).T


def _turns(num: np.ndarray, den: int) -> np.ndarray:
    """Phase num/den in turns, reduced modulo 1 in integers first."""
    return np.true_divide(num % den, den)


def check_pieces(rows: Iterable[tuple[int, int]]) -> None:
    """Raise :class:`CapExceeded` when some multiplier p/q of ``rows`` has
    more than ``MAX_PIECES`` pieces per combined period: for the first
    one that stays over the cap rounded to an integer, if there is one,
    else for the first one (see :attr:`CapExceeded.rounds_under_cap`)."""
    over = [(p, q) for p, q in rows if p > MAX_PIECES]
    if over:
        p, q = min(over, key=lambda pair: _rounded(*pair) <= MAX_PIECES)
        raise CapExceeded(p, q, MAX_PIECES, "pieces")


def _parseval_thd(mean: float, mean_square: float, fundamental: float) -> tuple[float, float]:
    """THD from the signal's mean, mean square and fundamental peak
    amplitude: harmonic power is the AC power less the fundamental's."""
    harmonic = 2.0 * (mean_square - mean * mean) - fundamental * fundamental
    ratio = math.sqrt(harmonic) / fundamental
    return ratio, 20.0 * math.log10(ratio)


def _half_swing(p: int, q: int) -> float:
    """sin(pi*q/p), half the sine's swing across a piece of the multiplier
    p/q. Up to q/p = 1/2 it is the very float the strict bound doubles,
    so that the swing 2*cos(...)*half can never round above the bound."""
    x = q / p
    return sin_turns(x / 2.0) if x <= 0.5 else sin_turns(q % (2 * p) / (2 * p))


def _windows(r, p: int):
    """Offsets from residue r (an int or an int64 array) to phase 1/4 and
    3/4, in units of 1/(4*p) turn: p - 4r and 3p - 4r modulo 4p, which
    add 4p once where 4r passes p or 3p, since 0 <= r < p."""
    four_r, four_p = 4 * r, 4 * p
    return (
        p - four_r + four_p * (four_r > p),
        3 * p - four_r + four_p * (four_r > 3 * p),
    )


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
    """The pieces of one or more digitized rows p/q, and what every
    quantizer shares about them. Row ``rows[i]`` has the next
    p pieces, its segment, in time order. Piece k of a row p/q starts at
    residue r = k*q mod p, where the sine is ``start`` and its quadrature
    is ``cosine``; the sine changes by ``swing`` across it. These three
    are the only arrays over every piece. The pieces that hold phase 1/4
    (3/4) are the positions ``peak`` (``trough``); r and the windows are
    taken again only at the pieces that attain a supremum (see
    :meth:`times`)."""

    def __init__(self, rows: Sequence[tuple[int, int]]):
        self.rows = rows
        counts = [p for p, _ in rows]
        self.starts = np.cumsum([0, *counts[:-1]])
        self.table = _row_table(rows)
        halves = np.array([_half_swing(p, q) for p, q in rows])
        # each piece's segment, or None for a single row, whose values
        # broadcast
        self.segment = None
        spread = lambda column: column
        if len(rows) > 1:
            spread = partial(np.repeat, repeats=np.array(counts))
            self.segment = spread(np.arange(len(rows)))
        p = spread(self.table[0])
        r = np.arange(sum(counts))
        if self.segment is not None:
            r -= spread(self.starts)
        r *= spread(self.table[1])
        r %= p
        self.start = step_levels(r, p)
        # Phase 1/4 (3/4) lies in [r/p, (r+q)/p] iff its offset from r/p
        # is at most 4q, exact in integers; 4*min(q, p) reaches as far,
        # since both offsets lie below 4p.
        reach = spread(self.table[2])
        self.peak, self.trough = (np.flatnonzero(window <= reach) for window in _windows(r, p))
        del reach  # freed before the sines' temporaries
        # sin(a + w) - sin(a) = 2*cos(a + w/2)*sin(w/2): the sine's change
        # from the start of each piece to the end, without cancellation.
        # Both cosines are sines a quarter turn on, in units of 1/(4*p).
        four_r, four_p = np.multiply(r, 4, out=r), 4 * p
        self.cosine = sin_turns_array(_turns(four_r + p, four_p))
        p_row, _, _, twice_q = self.table  # 2*(q mod 2p) + p per row
        swing = sin_turns_array(_turns(four_r + spread(2 * twice_q + p_row), four_p))
        self.swing = np.multiply(np.multiply(swing, 2.0, out=swing), spread(halves), out=swing)

    def supremum(
        self,
        level: np.ndarray,
        error: np.ndarray,
        largest: np.ndarray,
        equal: np.ndarray,
        sups: np.ndarray,
    ) -> np.ndarray:
        """Exact supremum of each segment of each row of ``level`` (a
        matrix of one level per piece), written to ``sups`` (rows by
        segments), and the flat index into ``level`` of the first piece
        of each that attains it, row by row. ``error`` holds
        ``level - start`` and is overwritten; ``largest`` and ``equal``
        (bool) are scratch of the same shape. A column is many rows of
        one segment, a batch of columns many rows of many."""
        # The largest of each piece's _errors, folded in place: the same
        # floats, without four arrays alive at once; the extrema only on
        # the pieces that hold them.
        np.abs(error, out=largest)
        np.subtract(error, self.swing, out=error)
        np.maximum(largest, np.abs(error, out=error), out=largest)
        for pieces, extremum in ((self.peak, np.subtract), (self.trough, np.add)):
            current = largest[:, pieces]
            largest[:, pieces] = np.maximum(current, np.abs(extremum(level[:, pieces], 1.0)))
        # max is exact in any order, so the segments reduce side by side
        np.maximum.reduceat(largest, self.starts, axis=1, out=sups)
        # Pieces follow each other in time, so a segment's earliest
        # attainment lies in the first of its pieces that attains its
        # supremum at all: the first flat hit at or after its start.
        # (mode "clip" writes straight to ``out``; every index is in range)
        spread = sups if self.segment is None else np.take(
            sups, self.segment, axis=1, out=error, mode="clip"
        )
        attaining = np.flatnonzero(np.equal(largest, spread, out=equal))
        width = largest.shape[1]
        segment_starts = (np.arange(len(level))[:, None] * width + self.starts).ravel()
        return attaining[attaining.searchsorted(segment_starts)]

    def quantized(self, quantizers: Sequence[QuantizerConfig]) -> tuple[np.ndarray, ...]:
        """What the reports of the digitized rows need of their levels
        under each quantizer, as arrays of quantizers by segments: the
        sums of E, E**2, E*cosine and E*start over each segment, with
        E = level - start (stacked in that order), the suprema, and the
        position in its row and the level of each supremum's first
        attaining piece. The quantizers go in groups of up to
        ``_COLUMN_CHUNK`` level-matrix elements, at least one row each,
        through one working set of three float matrices and one bool
        matrix of a group's size, allocated here once: every
        whole-matrix step writes into them, and each group's results
        into the arrays returned."""
        n, shape = len(quantizers), (len(quantizers), len(self.rows))
        width = len(self.start)
        group_rows = max(1, min(n, _COLUMN_CHUNK // width))
        level, error, scratch = np.empty((3, group_rows, width))
        equal = np.empty((group_rows, width), dtype=bool)
        sums, sups, levels = np.empty((4, *shape)), np.empty(shape), np.empty(shape)
        firsts = np.empty(shape, dtype=np.int64)
        for offset in range(0, n, group_rows):
            group = quantizers[offset:offset + group_rows]
            at, rows = slice(offset, offset + len(group)), slice(len(group))
            for i, quantizer in enumerate(group):
                quantize(self.start, quantizer, out=level[i])
            np.subtract(level[rows], self.start, out=error[rows])
            np.add.reduceat(error[rows], self.starts, axis=1, out=sums[0, at])
            for total, factor in zip(sums[1:], (error[rows], self.cosine, self.start)):
                np.multiply(error[rows], factor, out=scratch[rows])
                np.add.reduceat(scratch[rows], self.starts, axis=1, out=total[at])
            hits = self.supremum(level[rows], error[rows], scratch[rows], equal[rows], sups[at])
            np.remainder(hits, width, out=firsts[at].reshape(-1))
            np.take(level[rows], hits, out=levels[at].reshape(-1), mode="clip")
        return sums, sups, firsts, levels

    def times(self, sups: np.ndarray, at: np.ndarray, levels: np.ndarray) -> tuple[list, list]:
        """The suprema ``sups`` (quantizers by segments) as a list, and
        the earliest time each is attained, in periods, segment by segment
        (see :func:`_times`): at is the first attaining piece (its
        position in its row) and levels its level."""
        n = len(sups)
        sups, at, levels = (values.T.ravel() for values in (sups, at, levels))
        return sups.tolist(), _times(
            [row for row in self.rows for _ in range(n)],
            np.repeat(self.table[:3], n, axis=1), at - np.repeat(self.starts, n),
            sups, levels, self.start[at], self.swing[at],
        )


# Above every candidate offset of _times: the windows lie below 4p.
_NEVER = 2**63 - 1


def _times(rows, table, k, sups, levels, start, swing) -> list[float]:
    """The earliest time each supremum of ``sups`` is attained, in periods
    of the sine, at piece ``k`` of its row p/q, the first piece that
    attains it: ``rows`` holds that p/q per supremum, ``table`` its p,
    q mod p and 4*min(q, p) as int64 columns, and ``levels``, ``start``
    and ``swing`` the piece's level, start sine and swing."""
    p, q_mod_p, reach = table
    to_peak, to_trough = _windows(k * q_mod_p % p, p)
    # The earliest of the four candidates at the piece that equals the
    # supremum. Their offsets into the piece, in units of 1/(4*p) period,
    # are 0, 4q and the windows to phase 1/4 and 3/4; 4*min(q, p) stands
    # in for 4q, which may pass int64, and orders alike, since both
    # windows lie below 4p.
    candidates = _errors(levels, start, swing, to_peak <= reach, to_trough <= reach)
    offsets = np.array((np.zeros_like(reach), reach, to_peak, to_trough))
    offsets[np.array(candidates) != sups] = _NEVER
    # the end of the piece is tick 4*(k + 1)*q, in Python ints
    at_end = offsets.argmin(axis=0) == 1
    return [
        (4 * q * (k + end) + offset) / (4 * p)
        for (p, q), k, end, offset in zip(
            rows, k.tolist(), at_end.tolist(), np.where(at_end, 0, offsets.min(axis=0)).tolist()
        )
    ]


# The candidate residues of a held row p/q (see _held_candidates), one
# column each. Its six window residues are (a*p - b*4*min(q, p) + c) // 4
# for these (a, b, c): ceil(p/4 - q), ceil(3p/4 - q), and the floor and
# ceiling of p/4 and 3p/4.
_WINDOW_P = np.array([1, 3, 1, 1, 3, 3], dtype=np.int64)
_WINDOW_REACH = np.array([1, 1, 0, 0, 0, 0], dtype=np.int64)
_WINDOW_CEIL = np.array([3, 3, 0, 3, 0, 3], dtype=np.int64)
# Its six swing residues are (m*p - (q mod 2p) + o) // 2 for these (m, o):
# both classes m of the multiple of p, whose offsets o floor to every even
# 2r within 2 of m*p - (q mod 2p).
_SWING_CLASS = np.array([0, 0, 0, 1, 1, 1], dtype=np.int64)
_SWING_OFFSET = np.array([-1, 1, 2, -1, 1, 2], dtype=np.int64)

# The width of the candidate matrix of _held_candidates(). A batch holds
# _BATCH_PIECES // _HELD_CANDIDATES = 1365 held rows, with about 0.8 KB of
# temporaries each (tracemalloc, beside the reports), 1.1 MB a batch.
_HELD_CANDIDATES = len(_WINDOW_P) + len(_SWING_OFFSET)


def _held_candidates(rows: Sequence[tuple[int, int]]) -> tuple[np.ndarray, np.ndarray]:
    """The candidate residues of each held row p/q, one row each of a
    matrix ``_HELD_CANDIDATES`` wide: as a set, a superset of the residue
    of every piece whose candidate error (see :func:`_errors`) equals the
    maximum of its kind. Also the rows' :func:`_row_table`, with
    q**-1 mod p as a fifth column.

    * The swing 2*cos(pi*(2r + q)/p)*sin(pi*q/p) is largest where 2r + q
      is nearest a multiple of p; residues within 2 of one are kept.
      Multiples m*p and (m + 2)*p give residues p apart, one piece, so
      only m mod 2 counts.
    * The peak error 1 - level grows with the distance back from phase
      1/4, so within the pieces that contain 1/4 it is largest at the far
      end of that window, r = ceil(p/4 - q), or, if the window reaches
      past 3/4, beside 3p/4. Likewise for the trough, mirrored.

    ``% p`` brings every floor into [0, p).
    """
    table = np.vstack((_row_table(rows), [[pow(q % p, -1, p) for p, q in rows]]))
    p, _, reach, twice_q, _ = table[:, :, None]
    # (n + 3) // 4 is ceil(n/4), negative n included
    windows = (_WINDOW_P * p - _WINDOW_REACH * reach + _WINDOW_CEIL) // 4
    swing = (_SWING_CLASS * p - twice_q + _SWING_OFFSET) // 2
    return table, np.hstack((windows, swing)) % p


def _held_suprema(rows: Sequence[tuple[int, int]]) -> tuple[list, list]:
    """The supremum of each held row p/q, whose levels are the sine at
    the starts of its pieces, and the earliest time it is attained, in
    periods: the largest candidate error of its row of
    :func:`_held_candidates`, exact in any order, so a repeated residue
    does no harm, and of the pieces that attain it the earliest,
    k = r * q**-1 mod p least (see :func:`_times`)."""
    table, r = _held_candidates(rows)
    p, _, reach, twice_q, inverse = table[:, :, None]
    start = step_levels(r, p)
    at_peak, at_trough = (window <= reach for window in _windows(r, p))
    # the swing of _Pieces, in the same floats
    swing = sin_turns_array(_turns(4 * r + 2 * twice_q + p, 4 * p))
    swing *= 2.0
    swing *= np.array([_half_swing(p, q) for p, q in rows])[:, None]
    largest = reduce(np.maximum, _errors(start, start, swing, at_peak, at_trough))
    sups = largest.max(axis=1)
    k = r * inverse % p
    at = np.arange(len(rows)), np.where(largest == sups[:, None], k, p).argmin(axis=1)
    return sups.tolist(), _times(rows, table[:3], k[at], sups, start[at], start[at], swing[at])


def _held_thd(rows: Sequence[tuple[int, int]]) -> tuple[list, list]:
    """THD of the held model of each row p/q in closed form,
    sqrt(1/sinc(q/p)**2 - 1): the ratios and their dB values.

    Since gcd(p, q) = 1 the start residues k*q mod p run over 0..p-1, so
    for p >= 3 the levels have mean 0, mean square 1/2 and fundamental
    bin p/2; Parseval then leaves sqrt((x - h)*(x + h))/h with
    x = pi*q/p and h = |sin x|. Below x = 1, x - h is the sine's Taylor
    series, free of the cancellation of the direct difference: the terms
    past x**21/21! are below an ulp, and ``math.fsum`` rounds their sum
    correctly. Below p = 3 every level is 0, and both fields are None.
    """
    ratios = []
    for p, q in rows:
        x = math.pi * (q / p)
        # |sin x| = sin(pi*near/p), near the distance from q to the
        # closest multiple of p: a turn below 1/4, so a sine near its zero
        # keeps its digits
        h = sin_turns(min(q % p, -q % p) / (2 * p))
        gap = x - h
        if x < 1.0:
            terms, term = [], x
            for n in range(2, 22, 2):
                term *= -x * x / (n * (n + 1))
                terms.append(term)
            gap = -math.fsum(terms)
        ratios.append(None if p < 3 else math.sqrt(gap * (x + h)) / h)
    return ratios, [None if ratio is None else 20.0 * math.log10(ratio) for ratio in ratios]


def _quantized_supremum(quantizer: QuantizerConfig) -> tuple[float, float]:
    """Exact supremum of the quantizer's error and the earliest time it is
    approached, in periods. Floor: one level, as the rising sine nears the
    first level above 0 (the peak, for 1 bit). Round: half a level,
    reached where the sine first equals half a level. Ceiling: one level,
    just after t = 0."""
    step = quantizer.step
    if quantizer.mode is QuantizationMode.FLOOR:
        return step, math.asin(step) / (2.0 * math.pi)
    if quantizer.mode is QuantizationMode.ROUND:
        return step / 2.0, math.asin(step / 2.0) / (2.0 * math.pi)
    return step, 0.0


# The sum of a list of floats, left to right: builtin sum compensates
# float sums from Python 3.12 on, and the output corpus records these.
_fold = partial(reduce, add)


def _threshold_thd(quantizer: QuantizerConfig) -> tuple[float, float]:
    """Parseval THD of the quantized sine, summed over its thresholds.

    The level rises by one step at each threshold c inside (-1, 1); the
    sine lies above c for acos(c)/pi of the period, and the step it adds
    contributes 2*sqrt(1 - c**2)/pi, in phase with the sine, to the
    fundamental's peak amplitude. ``math.acos`` is correctly rounded at
    every threshold of up to ``_MAX_THRESHOLD_BITS`` bits.
    """
    scale, step = quantizer.scale, quantizer.step
    if quantizer.mode is QuantizationMode.ROUND:
        thresholds = [(i - 0.5) / scale for i in range(1 - scale, scale + 1)]
    else:
        thresholds = [i / scale for i in range(1 - scale, scale)]
    # the level just above the sine's trough
    bottom = -1.0 + step if quantizer.mode is QuantizationMode.CEILING else -1.0
    above_share = [math.acos(c) / math.pi for c in thresholds]
    mean = bottom + step * _fold(above_share)
    mean_square = bottom * bottom + step * _fold([
        (2.0 * (bottom + step * j) + step) * share for j, share in enumerate(above_share)
    ])
    root = [math.sqrt((1.0 - c) * (1.0 + c)) for c in thresholds]
    fundamental = 2.0 * step / math.pi * _fold(root)
    return _parseval_thd(mean, mean_square, fundamental)


def _bessel_sums(scale: int, alternating: bool) -> tuple[float, float]:
    """sum_n s_n*J0(2*pi*n*S)/n**2 and sum_n s_n*J1(2*pi*n*S)/n over
    n >= 1, with S = ``scale`` and s_n = (-1)**n if ``alternating``, else 1.

    z = 2*pi*n*S is a whole number of turns, so Hankel's expansion
    collapses to J0(z) = (P0 + Q0)/sqrt(pi*z) and J1(z) = (Q1 - P1)/sqrt(pi*z).
    Its term a_k(nu)/z**k, summed over n, leaves zeta(5/2 + k) for J0 and
    zeta(3/2 + k) for J1, or -(1 - 2**(1 - s))*zeta(s) when alternating:
    the factors of ``_HANKEL_FACTORS``, so that a row takes only its
    weights 1/z**k at n = 1.
    """
    z = 2.0 * math.pi * scale
    weights = [1.0 / z**k for k in range(_HANKEL_TERMS)]
    a0, zeta0, a1, zeta1 = _HANKEL_FACTORS[alternating]
    root = math.pi * math.sqrt(2.0 * scale)  # sqrt(pi*z) at n = 1
    return (
        math.fsum([w * a * zeta for w, a, zeta in zip(weights, a0, zeta0)]) / root,
        math.fsum([w * a * zeta for w, a, zeta in zip(weights, a1, zeta1)]) / root,
    )


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
    pieces), in O(pieces) for a digitized one; either is a batch of one
    row of :func:`evaluate_columns`. ``thd_db`` is None when the ratio is
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
    quantizers = None if model.quantizer is None else [model.quantizer]
    return reports_from_columns(evaluate_columns(spec, rows, quantizers))[0]


def _report_columns(
    kind: ModelKind,
    f: float,
    rows: Sequence[tuple],
    quantizers: Sequence[QuantizerConfig | None],
    values: Sequence[list],
) -> dict[str, list]:
    """The columns (see ``REPORT_FIELDS``) of the reports of each row p/q
    of ``rows`` and each quantizer, one row after another: the model
    parameters echoed, then ``values``, the columns from max_abs_error on,
    whose argmax times are in periods; the frequency ``f`` divides them
    here, the one place where a reported field reads it. A quantized
    report has the row (None, None), a held one the quantizer None."""
    n = len(rows) * len(quantizers)
    bits = [None if quantizer is None else quantizer.bits for quantizer in quantizers]
    modes = [None if quantizer is None else quantizer.mode.value for quantizer in quantizers]
    error, periods, *rest = values
    return dict(zip(REPORT_FIELDS, (
        [kind.value] * n, [f] * n, bits * len(rows), modes * len(rows),
        [p for p, _ in rows for _ in quantizers], [q for _, q in rows for _ in quantizers],
        error, [t / f for t in periods], *rest,
    )))


def quantized_columns(spec: SignalSpec, quantizers: Sequence[QuantizerConfig]) -> dict[str, list]:
    """The quantized reports of the quantizers, as columns (see
    ``REPORT_FIELDS``), in their order: :func:`_quantized_supremum`,
    :func:`_quantized_thd` and the bound of each, O(1) apiece."""
    suprema = [_quantized_supremum(quantizer) for quantizer in quantizers]
    thds = [_quantized_thd(quantizer) for quantizer in quantizers]
    bound = [bounds.quantization_error_bound(quantizer.bits) for quantizer in quantizers]
    return _report_columns(ModelKind.QUANTIZED, spec.frequency_hz, [(None, None)], quantizers, (
        [error for error, _ in suprema], [t for _, t in suprema],
        [ratio for ratio, _ in thds], [db for _, db in thds], bound, bound.copy(),
    ))


def column_batches(
    rows: Sequence[tuple[int, int]], held: bool = False
) -> list[list[tuple[int, int]]]:
    """The multipliers p/q of ``rows`` in order, cut into runs of
    consecutive rows whose pieces number at most ``_BATCH_PIECES`` in
    all: ``_HELD_CANDIDATES`` per row if ``held``, else p. A row of more
    pieces is a batch of its own."""
    batches, size = [], 0
    for row in rows:
        pieces = _HELD_CANDIDATES if held else row[0]
        if not batches or size + pieces > _BATCH_PIECES:
            batches.append([])
            size = 0
        batches[-1].append(row)
        size += pieces
    return batches


def evaluate_columns(
    spec: SignalSpec,
    rows: Sequence[tuple[int, int]],
    quantizers: Sequence[QuantizerConfig] | None = None,
) -> dict[str, list]:
    """:func:`evaluate` of the models of each multiplier p/q of ``rows``,
    each in lowest terms, as columns (see ``REPORT_FIELDS``): the held
    models when ``quantizers`` is None, else the digitized model of each
    quantizer, one multiplier after another, so that report
    ``i*len(quantizers) + b`` is that of row i and quantizer b. The
    bounds are taken once for all rows, and the frequency only divides
    the argmax times. The rows go in the batches of :func:`column_batches`,
    so that what else depends on the multipliers is a few array calls per
    batch: of held rows one matrix of candidate residues
    (:func:`_held_suprema`), of digitized rows every piece, end to end
    (see :class:`_Pieces`, :func:`_evaluate_batch`), one batch after
    another. :class:`CapExceeded` is raised before anything is allocated
    when some row has more than ``MAX_PIECES`` pieces.
    """
    check_pieces(rows)
    held = quantizers is None
    kind, each = (ModelKind.HELD, [None]) if held else (ModelKind.DIGITIZED, quantizers)
    if not rows or not each:
        return {name: [] for name in REPORT_FIELDS}
    paper, strict = (
        bounds.held_bounds(rows) if held
        else bounds.digitized_bounds(rows, [quantizer.bits for quantizer in quantizers])
    )
    values = error, periods, ratio, db = [], [], [], []  # argmax in periods
    for batch in column_batches(rows, held):
        # a batch's pieces are freed before the next batch builds its own
        batch_values = (
            (*_held_suprema(batch), *_held_thd(batch)) if held
            else _evaluate_batch(_Pieces(batch), quantizers)
        )
        for column, batch_column in zip(values, batch_values):
            column += batch_column
    return _report_columns(
        kind, spec.frequency_hz, rows, each, (error, periods, ratio, db, paper, strict)
    )


def _evaluate_batch(pieces: _Pieces, quantizers: Sequence[QuantizerConfig]) -> tuple[list, ...]:
    """The max_abs_error, argmax time (in periods), thd_ratio and thd_db
    columns of the digitized reports of :func:`evaluate_columns` of one
    batch of rows p/q, whose ``pieces`` are all of theirs.

    THD**2 = THD_held**2 + THD_seq**2*(1 + THD_held**2) exactly: the hold
    scales the fundamental by sinc(q/p) and keeps the AC power of the
    levels L, whose discrete THD in residue order is THD_seq. For p >= 3
    the sine's DFT is -1j*p/2 at bin 1 and 0 elsewhere below p/2, so with
    E = L - sine, a = mean(E*cos) and b = mean(E*sin) over the residues,
    THD_seq**2 = (mean(E**2) - mean(E)**2 - 2*(a*a + b*b)) /
    (2*(a*a + (1/2 + b)**2)), which subtracts no term of unit size. Each
    mean is one segmented sum, whose order depends on its segment alone.
    """
    sums, sups, firsts, levels = pieces.quantized(quantizers)
    held = _held_thd(pieces.rows)[0]
    # THD_held**2 of each column; a column of p < 3 has no fundamental
    held_square = np.array([0.0 if ratio is None else ratio * ratio for ratio in held])
    mean, mean_square, a, b = sums / pieces.table[0]  # p pieces a row
    harmonic = mean_square - mean * mean - 2.0 * (a * a + b * b)
    fundamental = 2.0 * (a * a + (0.5 + b) * (0.5 + b))
    sequence = np.maximum(harmonic, 0.0) / fundamental
    thd = np.sqrt(held_square + sequence * (1.0 + held_square)).T.tolist()
    ratios, dbs, none = [], [], [None] * len(quantizers)
    for ratio, column in zip(held, thd):
        ratios += none if ratio is None else column
        dbs += none if ratio is None else [20.0 * math.log10(value) for value in column]
    return (*pieces.times(sups, firsts, levels), ratios, dbs)
