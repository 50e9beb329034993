import math
import random
import struct
import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import brute_force_held_max_error
from ddsmetrics.bounds import (
    _sin_two_pi,
    digitized_bounds,
    full_scale_range,
    held_bounds,
    max_phase_shift,
    min_clock_frequency,
    quantization_error_bound,
)
from ddsmetrics.signals import sin_turns
from oracles import digitized_bounds_by_row, held_bounds_by_row


def row(x):
    """The row p/q whose phase q/p is the float ``x`` itself: the
    denominator and numerator of its exact ratio."""
    n, d = x.as_integer_ratio()
    return d, n


def held(pq):
    """The paper and strict held bounds of one row ``pq`` = (p, q)."""
    [paper], [strict] = held_bounds([pq])
    return paper, strict


def digitized(pq, bits):
    """The paper and strict digitized bounds of one row ``pq`` = (p, q) at
    ``bits``."""
    [paper], [strict] = digitized_bounds([pq], [bits])
    return paper, strict


class TestQuantizationErrorBound:
    def test_eight_bits(self):
        assert quantization_error_bound(8) == 0.0078125

    def test_one_bit(self):
        assert quantization_error_bound(1) == 1.0

    def test_twelve_bits(self):
        assert quantization_error_bound(12) == 4.8828125e-4

    def test_halves_exactly_per_bit(self):
        for bits in range(1, 52):
            assert quantization_error_bound(bits + 1) == quantization_error_bound(bits) / 2

    def test_rejects_out_of_range(self):
        for bits in (0, 53, -3):
            with pytest.raises(ValueError):
                quantization_error_bound(bits)


class TestFullScaleRange:
    def test_value(self):
        assert full_scale_range() == 2.0

    def test_percent_denominator(self):
        assert full_scale_range() / 2 == 1.0

    def test_consistency_with_one_bit_bound(self):
        assert full_scale_range() == quantization_error_bound(1) * 2


class TestMinClockFrequency:
    def test_microsecond_gap(self):
        assert min_clock_frequency(1e-6) == 1e6

    def test_quarter_second(self):
        assert min_clock_frequency(0.25) == 4.0

    def test_half_second(self):
        assert min_clock_frequency(0.5) == 2.0

    def test_rejects_nonpositive(self):
        for dt in (0.0, -1.0):
            with pytest.raises(ValueError):
                min_clock_frequency(dt)


class TestMaxPhaseShift:
    def test_quarter_period(self):
        assert max_phase_shift(1.0, 0.25) == pytest.approx(math.pi / 2, abs=1e-12)

    def test_half_period_is_pi(self):
        # 2*f*dt = 1 puts the lag at 180 degrees
        assert max_phase_shift(1.0, 0.5) == pytest.approx(math.pi, abs=0)

    def test_zero_gap(self):
        assert max_phase_shift(1.0, 0.0) == 0.0

    def test_rejects_negative_gap(self):
        with pytest.raises(ValueError):
            max_phase_shift(1.0, -0.1)

    def test_finite_where_two_pi_f_overflows(self):
        # 2*pi*1e308 is past the float range; the shift is 2*pi*16
        assert max_phase_shift(1e308, 1.6e-307) == pytest.approx(32 * math.pi, rel=1e-15)


class TestHeldErrorBound:
    def test_estimate_small_gap(self):
        paper, _ = held((100, 1))
        assert paper == pytest.approx(0.0627905, abs=1e-7)

    def test_estimate_caps_at_two(self):
        paper, _ = held((2, 1))
        assert paper == 2.0

    def test_strict_odd_multiplier_value(self):
        expected = 2 * math.sin(math.pi / 5)  # 1.1755705...
        _, strict = held((5, 1))
        assert strict == pytest.approx(expected, abs=1e-12)
        assert strict == pytest.approx(1.1755705, abs=1e-7)

    def test_strict_to_estimate_ratio(self):
        paper, strict = held((100, 1))
        assert strict / paper == pytest.approx(1.0 / math.cos(math.pi * 0.01), rel=1e-12)

    def test_strict_dominates_brute_force_sup(self):
        for multiplier in (3, 5, 7, 8, 16):
            observed = brute_force_held_max_error(multiplier, grid_points=400_000)
            assert observed <= held((multiplier, 1))[1]

    def test_estimate_matches_even_multiplier_sup(self):
        for multiplier in (8, 16, 64):
            observed = brute_force_held_max_error(multiplier, grid_points=400_000)
            assert observed <= held((multiplier, 1))[0]

    def test_estimate_fails_odd_multiplier_sup(self):
        # the published estimate is not a sound bound for odd step counts
        observed = brute_force_held_max_error(5, grid_points=400_000)
        assert observed > held((5, 1))[0]

    @given(fdt=st.floats(min_value=1e-9, max_value=10.0, allow_nan=False))
    def test_cap_never_exceeded(self, fdt):
        paper, strict = held(row(fdt))
        assert paper <= 2.0
        assert strict <= 2.0

    @given(
        fdt=st.floats(min_value=1e-9, max_value=0.25, allow_nan=False),
    )
    def test_strict_dominates_estimate(self, fdt):
        paper, strict = held(row(fdt))
        assert strict >= paper

    def test_ratio_decreases_with_multiplier(self):
        ratios = []
        for multiplier in (4, 8, 16, 32, 64, 256, 1024):
            paper, strict = held((multiplier, 1))
            ratios.append(strict / paper)
        assert all(a > b for a, b in zip(ratios, ratios[1:]))
        assert ratios[-1] == pytest.approx(1.0, abs=1e-5)


class TestDigitizedErrorBound:
    def test_printed_formula_value(self):
        expected = (1 + 128 * math.sin(2 * math.pi / 64)) / 128
        paper, _ = digitized((64, 1), 8)
        assert paper == pytest.approx(expected, abs=1e-12)
        assert paper == pytest.approx(0.1058296, abs=1e-6)

    def test_vanishing_gap_recovers_quantization_bound(self):
        paper, _ = digitized((10**12, 1), 8)
        assert paper == pytest.approx(quantization_error_bound(8), rel=1e-6)

    def test_strict_value(self):
        # one level plus the strict hold bound: 1/128 + 2 sin(pi/64)
        expected = 0.0078125 + 2 * math.sin(math.pi / 64)
        _, strict = digitized((64, 1), 8)
        assert strict == pytest.approx(expected, abs=1e-12)
        assert strict == pytest.approx(0.1059478, abs=1e-7)

    @given(
        fdt=st.floats(min_value=1e-9, max_value=2.0, allow_nan=False),
        bits=st.integers(min_value=1, max_value=52),
    )
    def test_dominates_quantization_bound(self, fdt, bits):
        paper, _ = digitized(row(fdt), bits)
        assert paper >= quantization_error_bound(bits)


# Multipliers p/q whose f*dt = q/p runs from 1e-12 past 1/4, 1/2 and 1
# to 1e9, a few of them not in lowest terms, by set.
ROWS = {
    "integers": [(10**12, 1), (100, 1), (64, 1), (5, 1), (4, 1), (2, 1), (1, 1), (3, 1)],
    "fractions": [(10, 3), (10, 7), (7, 2), (20, 5), (1000, 1001), (10, 33), (4, 2)],
    "extremes": [(1, 10**9), (16777213, 100000000000000000001), (2**70 + 1, 3), (1, 2**53 + 1)],
}


class TestBatchBounds:
    """held_bounds and digitized_bounds take multipliers p/q and give the
    bytes of the formulas written out one row at a time, at the phase
    f*dt = q/p (see ``oracles.held_bounds_by_row``)."""

    @pytest.mark.parametrize("rows", list(ROWS.values()), ids=list(ROWS))
    def test_held_pairs_equal_each_variant(self, rows):
        pairs = [held_bounds_by_row(p, q) for p, q in rows]
        assert held_bounds(rows) == tuple(map(list, zip(*pairs)))

    @given(p=st.integers(1, 10**20), q=st.integers(1, 10**20))
    def test_digitized_pairs_equal_each_variant(self, p, q):
        bits = list(range(1, 53))
        rows = [(p, q), (4, 1), (p, 3 * q)]
        pairs = [digitized_bounds_by_row(p, q, b) for p, q in rows for b in bits]
        assert digitized_bounds(rows, bits) == tuple(map(list, zip(*pairs)))

    def test_refuses_bits_out_of_range(self):
        # a bit count of 0 among valid ones, as quantization_error_bound
        # refuses it
        with pytest.raises(ValueError) as single:
            quantization_error_bound(0)
        with pytest.raises(ValueError) as other:
            digitized_bounds([(10, 1)], [8, 0])
        assert str(other.value) == str(single.value)


def sin_two_pi_by_fraction(x):
    """sin(2*pi*x) with x reduced modulo 1 as a Fraction."""
    frac = Fraction(x)
    frac -= frac.numerator // frac.denominator
    return sin_turns(float(frac))


class TestSinTwoPi:
    """The paper bound's sine reduces its argument in floats, with the
    bytes of the exact Fraction reduction."""

    def test_equals_the_fraction_reduction(self):
        rng = random.Random(11)
        bits = (rng.getrandbits(63) for _ in range(20000))  # sign bit 0: x >= 0
        xs = [x for x in (struct.unpack("<d", struct.pack("<Q", b))[0] for b in bits)
              if math.isfinite(x)]
        xs += [rng.uniform(0.0, 8.0) for _ in range(20000)] + [1 / m for m in range(1, 5000)]
        xs += [0.0, 5e-324, 0.25, 0.5, 0.75, 1.0, 2.0**52 + 0.5, 2.0**53, sys.float_info.max]
        xs += [2.0**e for e in range(-1074, 1024, 7)]
        assert [_sin_two_pi(x) for x in xs] == [sin_two_pi_by_fraction(x) for x in xs]

    @pytest.mark.parametrize("x", [math.inf, math.nan])
    def test_refuses_what_the_fraction_refuses(self, x):
        with pytest.raises((ValueError, OverflowError)) as exact:
            sin_two_pi_by_fraction(x)
        with pytest.raises(exact.type):
            _sin_two_pi(x)
