"""Closed-form reference values for the ddsmetrics sweeps.

Independent of the package: nothing here imports ``ddsmetrics``. Every
degraded model is treated as constant pieces over one combined period
(``q`` sine periods for a multiplier ``p/q`` in lowest terms), and both
metrics are derived from those pieces:

* the exact supremum of ``|model - sine|`` is, on each piece, the larger
  of the two one-sided endpoint limits, or the distance to a sine
  extremum when phase 1/4 or 3/4 falls inside the piece;
* THD comes from Parseval on the error signal ``e = model - sine``:
  harmonic power is ``mean(e**2) - mean(e)**2 - |E1|**2 / 2``, where
  ``E1`` is the fundamental component of ``e``. Working on ``e`` avoids
  subtracting two numbers near 1/2 when the THD is near -120 dB. The
  piece integrals use Gauss-Legendre quadrature, exact to far below the
  tolerances the benchmark applies, because the integrands are analytic
  on each piece.

Stepped models (held, digitized) place step ``k`` at phase
``((k*q) % p) / p`` turns, computed in exact integers. Step levels follow
the package's documented model: the sine of the exactly reduced phase,
folded into the first quadrant before the float sine is taken. Where
``sin`` is exactly +-1/2 (phases 1/12, 5/12, 7/12, 11/12) the level sits on
a quantizer threshold, so it depends on the last bit of the float sine;
following the same convention makes both sides pick the same level.
Everything after the level is exact piece analysis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

TWO_PI = 2.0 * math.pi

# Gauss-Legendre nodes per piece, chosen by the piece's width in radians.
_GL_BUCKETS = ((0.05, 4), (0.5, 8), (math.inf, 16))
_GL = {n: np.polynomial.legendre.leggauss(n) for _, n in _GL_BUCKETS}
_CHUNK = 1 << 16


@dataclass(frozen=True)
class Reference:
    """Exact supremum and THD of one model configuration."""

    max_err: float
    thd_ratio: float
    thd_db: float


def snap(requested: float, q_max: int) -> tuple[int, int]:
    """Nearest p/q to ``requested`` with q <= q_max, by exhaustion over q;
    ties go to the smaller q, then the smaller p."""
    r = Fraction(requested)
    best = None
    for q in range(1, q_max + 1):
        lo = (r.numerator * q) // r.denominator
        for p in {max(1, lo), lo + 1}:
            key = (abs(Fraction(p, q) - r), q, p)
            if best is None or key < best:
                best = key
    return best[2], best[1]


def _level_sine(r: np.ndarray, p: int) -> np.ndarray:
    """Float sine of phase r/p turns, folded into [0, 1/4] first."""
    x = r.astype(np.float64) / p
    hi = x >= 0.5
    y = np.where(hi, x - 0.5, x)
    y = np.where(y > 0.25, 0.5 - y, y)
    s = np.sin(TWO_PI * y)
    return np.where(hi, 0.0 - s, s)


def _quantize(x: np.ndarray, bits: int, mode: str) -> np.ndarray:
    scale = float(1 << (bits - 1))
    if mode == "floor":
        return np.floor(x * scale) / scale
    if mode == "round":
        return np.floor(x * scale + 0.5) / scale
    return np.ceil(x * scale) / scale


def _error_moments(a: np.ndarray, w: np.ndarray, level: np.ndarray) -> np.ndarray:
    """Integrals of e, e**2, e*cos, e*sin over pieces [a, a+w] (turns)
    where e(x) = level - sin(2*pi*x); summed over all pieces."""
    totals = np.zeros(4)
    width_rad = TWO_PI * w
    lower = 0.0
    for upper, n in _GL_BUCKETS:
        sel = np.nonzero((width_rad > lower) & (width_rad <= upper))[0]
        lower = upper
        nodes, weights = _GL[n]
        for start in range(0, len(sel), _CHUNK):
            idx = sel[start : start + _CHUNK]
            half = 0.5 * w[idx, None]
            x = a[idx, None] + half * (nodes + 1.0)
            gw = half * weights
            arg = TWO_PI * x
            e = level[idx, None] - np.sin(arg)
            totals += (
                np.sum(gw * e),
                np.sum(gw * e * e),
                np.sum(gw * e * np.cos(arg)),
                np.sum(gw * e * np.sin(arg)),
            )
    return totals


def _thd(moments: np.ndarray, periods: int) -> tuple[float, float]:
    s1, s2, sc, ss = moments / periods
    # Fundamental of the model: the sine's own (-1j) plus the error's.
    e1_re, e1_im = 2.0 * sc, -2.0 * ss
    a1 = math.hypot(e1_re, -1.0 + e1_im)
    harmonic_power = s2 - s1 * s1 - (e1_re * e1_re + e1_im * e1_im) / 2.0
    # Peak amplitudes: a harmonic of peak A carries power A**2 / 2.
    ratio = math.sqrt(2.0 * max(harmonic_power, 0.0)) / a1
    return ratio, 20.0 * math.log10(ratio)


def _supremum(level, s_lo, s_hi) -> float:
    return float(np.max(np.maximum(np.abs(level - s_lo), np.abs(level - s_hi))))


def stepped(p: int, q: int, bits: int | None = None, mode: str = "floor") -> Reference:
    """Held (``bits`` None) or digitized model with multiplier p/q."""
    k = np.arange(p, dtype=np.int64)
    r = (k * q) % p
    start = _level_sine(r, p)
    level = start if bits is None else _quantize(start, bits, mode)
    end = np.roll(start, -1)  # step k ends where step k+1 starts
    # Phase 1/4 (3/4) lies in [r/p, (r+q)/p] iff (p - 4r) mod 4p <= 4q
    # (resp. 3p - 4r); exact in integers.
    has_max = (p - 4 * r) % (4 * p) <= 4 * q
    has_min = (3 * p - 4 * r) % (4 * p) <= 4 * q
    s_hi = np.where(has_max, 1.0, np.maximum(start, end))
    s_lo = np.where(has_min, -1.0, np.minimum(start, end))
    sup = _supremum(level, s_lo, s_hi)
    a = r.astype(np.float64) / p
    w = np.full(p, q / p)
    ratio, db = _thd(_error_moments(a, w, level), q)
    return Reference(sup, ratio, db)


def quantized(bits: int, mode: str) -> Reference:
    """Quantized model: pieces split at the quantizer's level crossings."""
    scale = 1 << (bits - 1)
    j = np.arange(-scale + 1, scale + (mode == "round"), dtype=np.float64)
    # Thresholds strictly inside (-1, 1): the level changes where sin crosses them.
    c = (j - 0.5) / scale if mode == "round" else j / scale
    x0 = np.arcsin(c) / TWO_PI
    x = np.concatenate([np.mod(x0, 1.0), 0.5 - x0])
    cross = np.concatenate([c, c])
    order = np.argsort(x, kind="stable")
    a, s_a = x[order], cross[order]
    b = np.append(a[1:], a[0] + 1.0)
    s_b = np.roll(s_a, -1)
    has_max = ((a < 0.25) & (b > 0.25)) | ((a < 1.25) & (b > 1.25))
    has_min = (a < 0.75) & (b > 0.75)
    s_hi = np.where(has_max, 1.0, np.maximum(s_a, s_b))
    s_lo = np.where(has_min, -1.0, np.minimum(s_a, s_b))
    # Mid-range value lies strictly between two thresholds: unambiguous level.
    level = _quantize(0.5 * (s_lo + s_hi), bits, mode)
    sup = _supremum(level, s_lo, s_hi)
    ratio, db = _thd(_error_moments(a, b - a, level), 1)
    return Reference(sup, ratio, db)


def self_check(conftest) -> list[str]:
    """Compare this module with the test suite's independent oracles for
    integer multipliers; returns one message per disagreement.

    A brute-force grid of n points can fall short of the supremum by at
    most the error's slope (2*pi) times the grid spacing, and never
    exceed it.
    """
    grid = 1_000_000
    slack = TWO_PI / grid
    problems = []
    for m in (3, 4, 5, 7, 16, 100, 1000):
        ref = stepped(m, 1)
        _, db = conftest.held_thd_closed_form(m)
        if abs(ref.thd_db - db) > 1e-9:
            problems.append(f"held M={m}: thd_db {ref.thd_db!r} vs closed form {db!r}")
        brute = conftest.brute_force_held_max_error(m, grid)
        if not brute - 1e-12 <= ref.max_err <= brute + slack:
            problems.append(f"held M={m}: sup {ref.max_err!r} vs brute force {brute!r}")
    for bits in (1, 2, 3, 8):
        for mode in ("floor", "round", "ceiling"):
            ref = quantized(bits, mode)
            brute = conftest.brute_force_quantized_max_error(bits, mode, grid)
            if not brute - 1e-12 <= ref.max_err <= brute + slack:
                problems.append(
                    f"quantized {bits} bits {mode}: sup {ref.max_err!r} vs brute force {brute!r}"
                )
    return problems
