import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddsmetrics.signals import (
    MAX_BITS,
    ModelKind,
    QuantizationMode,
    QuantizerConfig,
    SignalSpec,
    TimingConfig,
    WaveformModel,
    digitized_sample,
    held_sample,
    quantize,
    quantize_sample,
    sin_turns,
    sin_turns_array,
    step_levels,
    target_sample,
)

MODES = list(QuantizationMode)

amplitudes = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)
bit_counts = st.integers(min_value=1, max_value=MAX_BITS)
small_bits = st.integers(min_value=1, max_value=16)


def qc(bits, mode=QuantizationMode.FLOOR):
    return QuantizerConfig(bits, mode)


class TestTargetSample:
    def test_zero_time(self):
        assert target_sample(SignalSpec(1.0), 0) == 0.0

    def test_quarter_period_peak(self):
        assert target_sample(SignalSpec(1.0), 0.25) == 1.0

    def test_peak_after_phase_reduction(self):
        assert target_sample(SignalSpec(50.0), 0.005) == 1.0

    def test_large_time_keeps_precision(self):
        # one million periods plus a quarter
        t = Fraction(10**6) + Fraction(1, 4)
        assert target_sample(SignalSpec(1.0), t) == 1.0

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            target_sample(SignalSpec(1.0), -0.1)

    def test_rejects_non_finite_time(self):
        with pytest.raises(ValueError):
            target_sample(SignalSpec(1.0), float("nan"))
        with pytest.raises(ValueError):
            target_sample(SignalSpec(1.0), float("inf"))


class TestQuantizeSample:
    def test_floor_example(self):
        assert quantize_sample(0.7, qc(3)) == 0.5

    def test_round_example(self):
        assert quantize_sample(0.7, qc(3, QuantizationMode.ROUND)) == 0.75

    def test_ceiling_example(self):
        assert quantize_sample(-0.7, qc(3, QuantizationMode.CEILING)) == -0.5

    def test_exact_level_is_fixed_point(self):
        assert quantize_sample(0.5, qc(2)) == 0.5

    def test_zero_maps_to_zero(self):
        assert quantize_sample(0.0, qc(8, QuantizationMode.ROUND)) == 0.0

    def test_no_clamping_at_positive_rail(self):
        for mode in MODES:
            assert quantize_sample(1.0, qc(8, mode)) == 1.0

    def test_round_ties_go_up(self):
        # floor(y + 1/2) taken literally: y = -1.5 -> level -1
        assert quantize_sample(-0.75, qc(2, QuantizationMode.ROUND)) == -0.5

    def test_domain_error(self):
        with pytest.raises(ValueError):
            quantize_sample(1.0000001, qc(4))
        with pytest.raises(ValueError):
            quantize_sample(-2.0, qc(4))

    def test_bits_out_of_range(self):
        with pytest.raises(ValueError):
            QuantizerConfig(0)
        with pytest.raises(ValueError):
            QuantizerConfig(53)

    @given(x=amplitudes, bits=bit_counts, mode=st.sampled_from(MODES))
    def test_idempotent(self, x, bits, mode):
        config = qc(bits, mode)
        once = quantize_sample(x, config)
        assert quantize_sample(once, config) == once

    @given(x=amplitudes, bits=bit_counts)
    def test_mode_ordering(self, x, bits):
        lo = quantize_sample(x, qc(bits, QuantizationMode.FLOOR))
        mid = quantize_sample(x, qc(bits, QuantizationMode.ROUND))
        hi = quantize_sample(x, qc(bits, QuantizationMode.CEILING))
        assert lo <= mid <= hi

    @given(x=amplitudes, bits=bit_counts, mode=st.sampled_from(MODES))
    def test_error_below_one_level(self, x, bits, mode):
        # the quantizer's arithmetic is exact, so measure the error
        # exactly too; a float subtraction can round up to the bound
        err = abs(Fraction(quantize_sample(x, qc(bits, mode))) - Fraction(x))
        assert err < Fraction(1, 1 << (bits - 1))

    @given(x=amplitudes, bits=bit_counts)
    def test_round_error_below_half_level(self, x, bits):
        err = abs(
            Fraction(quantize_sample(x, qc(bits, QuantizationMode.ROUND)))
            - Fraction(x)
        )
        assert err <= Fraction(1, 1 << bits)

    @given(x=amplitudes, bits=bit_counts, mode=st.sampled_from(MODES))
    def test_output_is_exact_level_in_range(self, x, bits, mode):
        value = quantize_sample(x, qc(bits, mode))
        assert -1.0 <= value <= 1.0
        scaled = value * (1 << (bits - 1))
        assert scaled == int(scaled)


def quantize_by_division(x, config):
    """The three level rules with the division by the scale: the
    reference for :func:`quantize`, which multiplies by the step."""
    y = x * config.scale
    if config.mode is QuantizationMode.ROUND:
        y = y + 0.5
    y = np.ceil(y) if config.mode is QuantizationMode.CEILING else np.floor(y)
    return y / config.scale + 0.0


def threshold_amplitudes(bits):
    """Amplitudes in [-1, 1] at and beside the level thresholds of
    ``bits``: each k/scale and (k + 1/2)/scale one ulp either side, for
    every code k up to 12 bits and a seeded sample of codes beyond, with
    +-0.0, +-1.0 and subnormals."""
    scale = 1 << (bits - 1)
    if bits <= 12:
        codes = np.arange(-scale, scale + 1, dtype=np.float64)
    else:
        sample = np.random.default_rng(bits).integers(-scale, scale, 2000, endpoint=True)
        edges = [-scale, -scale + 1, -1, 0, 1, scale - 1, scale]
        codes = np.concatenate((sample, edges)).astype(np.float64)
    thresholds = np.concatenate((codes / scale, (codes + 0.5) / scale))
    tiny = np.array([5e-324, 1e-320, 2.2250738585072009e-308, 2.2250738585072014e-308])
    x = np.concatenate((
        thresholds, np.nextafter(thresholds, -2.0), np.nextafter(thresholds, 2.0),
        tiny, -tiny, [0.0, -0.0, 1.0, -1.0],
    ))
    return x[np.abs(x) <= 1.0]


class TestQuantizeByStep:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("bits", range(1, MAX_BITS + 1))
    def test_product_with_the_step_is_the_quotient_by_the_scale(self, bits, mode):
        # the scale is a power of two and every code is 0 or at least 1 in
        # magnitude, so code*step never rounds: the same floats, signed
        # zeros included
        config = qc(bits, mode)
        x = threshold_amplitudes(bits)
        expected = quantize_by_division(x, config)
        assert quantize(x, config).view(np.int64).tolist() == expected.view(np.int64).tolist()
        out = np.empty_like(x)
        assert quantize(x, config, out=out) is out
        assert out.view(np.int64).tolist() == expected.view(np.int64).tolist()


class TestHeldSample:
    def test_holds_previous_update(self):
        assert held_sample(SignalSpec(1.0), TimingConfig(4), 0.3) == 1.0

    def test_last_step_of_period(self):
        assert held_sample(SignalSpec(1.0), TimingConfig(4), 0.999) == -1.0

    def test_two_steps_per_period_is_identically_zero(self):
        spec, timing = SignalSpec(1.0), TimingConfig(2)
        for t in [0.0, 0.1, 0.25, 0.5, 0.7, 0.999, 3.14]:
            assert held_sample(spec, timing, t) == 0.0

    def test_exact_boundary_lands_in_new_step(self):
        # t = 0.25 starts the k=1 step; a float division could misplace it
        assert held_sample(SignalSpec(1.0), TimingConfig(4), 0.25) == 1.0

    @given(
        p=st.integers(min_value=1, max_value=64),
        q=st.integers(min_value=1, max_value=8),
        k=st.integers(min_value=0, max_value=200),
        offsets=st.lists(
            st.fractions(min_value=0, max_value=Fraction(999, 1000)),
            min_size=1,
            max_size=5,
        ),
    )
    def test_constant_within_step(self, p, q, k, offsets):
        spec = SignalSpec(1.0)
        timing = TimingConfig(p, q)
        gap = Fraction(timing.multiplier_den, timing.multiplier_num)
        start = held_sample(spec, timing, k * gap)
        for lam in offsets:
            assert held_sample(spec, timing, (k + lam) * gap) == start


class TestComposition:
    @given(
        p=st.integers(min_value=1, max_value=64),
        q=st.integers(min_value=1, max_value=8),
        bits=small_bits,
        mode=st.sampled_from(MODES),
        t=st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
    )
    def test_digitized_is_quantize_of_held(self, p, q, bits, mode, t):
        spec = SignalSpec(1.0)
        timing = TimingConfig(p, q)
        config = qc(bits, mode)
        direct = digitized_sample(spec, timing, config, t)
        composed = quantize_sample(held_sample(spec, timing, t), config)
        assert direct == composed

    def test_digitized_example(self):
        value = digitized_sample(SignalSpec(1.0), TimingConfig(8), qc(2), 0.2)
        assert value == 0.5

    def test_digitized_exact_level(self):
        value = digitized_sample(SignalSpec(1.0), TimingConfig(4), qc(8), 0.3)
        assert value == 1.0

    def test_digitized_zero(self):
        value = digitized_sample(SignalSpec(1.0), TimingConfig(2), qc(5), 0.7)
        assert value == 0.0


class TestPeriodicity:
    @given(
        p=st.integers(min_value=1, max_value=40),
        q=st.integers(min_value=1, max_value=8),
        bits=small_bits,
        t=st.fractions(min_value=0, max_value=10),
        f=st.sampled_from([Fraction(1), Fraction(1, 2), Fraction(5), Fraction(3, 7)]),
    )
    @settings(max_examples=60)
    def test_all_models_repeat_with_combined_period(self, p, q, bits, t, f):
        spec = SignalSpec(float(f))
        timing = TimingConfig(p, q)
        config = qc(bits)
        # q*T in exact arithmetic; float(f) is exact for these choices
        shift = Fraction(timing.multiplier_den) / Fraction(spec.frequency_hz)
        t2 = t + shift
        assert target_sample(spec, t) == target_sample(spec, t2)
        assert held_sample(spec, timing, t) == held_sample(spec, timing, t2)
        assert digitized_sample(spec, timing, config, t) == digitized_sample(
            spec, timing, config, t2
        )


class TestConfigs:
    def test_timing_reduces_to_lowest_terms(self):
        timing = TimingConfig(6, 4)
        assert (timing.multiplier_num, timing.multiplier_den) == (3, 2)

    def test_timing_multiplier_identity(self):
        timing = TimingConfig(19, 6)
        f = 2.5
        assert timing.time_gap_s(f) * f * float(timing.multiplier) == pytest.approx(1.0)

    def test_timing_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            TimingConfig(0)
        with pytest.raises(ValueError):
            TimingConfig(3, 0)

    def test_timing_rejects_values_past_the_float_range(self):
        for p, q in ((1, 10**400), (10**400, 1)):
            with pytest.raises(ValueError, match="must each fit a float"):
                TimingConfig(p, q)
        # the check applies to the reduced fraction
        timing = TimingConfig(10**400, 3 * 10**400)
        assert (timing.multiplier_num, timing.multiplier_den) == (1, 3)
        assert timing.time_gap_s(1.0) == 3.0

    def test_timing_from_exact(self):
        timing = TimingConfig.from_exact("41/13")
        assert (timing.multiplier_num, timing.multiplier_den) == (41, 13)

    def test_signal_spec_rejects_bad_frequency(self):
        for f in (0.0, -1.0, float("inf"), float("nan")):
            with pytest.raises(ValueError):
                SignalSpec(f)

    def test_model_kind_validation(self):
        spec = SignalSpec(1.0)
        with pytest.raises(ValueError):
            WaveformModel(ModelKind.TARGET, spec, quantizer=qc(4))
        with pytest.raises(ValueError):
            WaveformModel(ModelKind.DIGITIZED, spec, quantizer=qc(4))

    def test_model_sample_dispatch(self):
        spec = SignalSpec(1.0)
        timing = TimingConfig(8)
        config = qc(2)
        assert WaveformModel.target(spec).sample(0.25) == 1.0
        assert WaveformModel.quantized(spec, config).sample(0.2) == 0.5
        assert WaveformModel.held(spec, timing).sample(0.2) == pytest.approx(
            math.sin(math.pi / 4)
        )
        assert WaveformModel.digitized(spec, timing, config).sample(0.2) == 0.5


class TestSinTurns:
    def test_exact_quarter_points(self):
        assert sin_turns(0.0) == 0.0
        assert sin_turns(0.25) == 1.0
        assert sin_turns(0.5) == 0.0
        assert sin_turns(0.75) == -1.0

    @given(x=st.floats(min_value=0.0, max_value=1.0, exclude_max=True))
    def test_matches_library_sine(self, x):
        assert sin_turns(x) == pytest.approx(math.sin(2 * math.pi * x), abs=1e-12)


def sin_turns_by_selection(x):
    """sin_turns for arrays, folding by selection: the reference for the
    arithmetic folds of :func:`sin_turns_array`."""
    x = np.asarray(x, dtype=np.float64)
    hi = x >= 0.5
    y = np.where(hi, x - 0.5, x)
    y = np.where(y > 0.25, 0.5 - y, y)
    s = np.sin(2.0 * np.pi * y)
    return np.where(hi, 0.0 - s, s)


class TestSinTurnsArray:
    def test_folds_equal_the_selections(self):
        # every phase j/(4p) of the engine's pieces up to p = 400, a
        # sample at large p, the fold points and their neighbours
        rng = np.random.default_rng(0)
        phases = [np.arange(4 * p) / (4 * p) for p in range(1, 401)]
        for p in rng.integers(1 << 20, 1 << 24, 8).tolist():
            phases.append(rng.integers(0, 4 * p, 20000) / (4 * p))
        folds = np.array([0.0, 0.25, 0.5, 0.75])
        phases += [
            rng.random(100000), folds, np.nextafter(folds, 1.0),
            np.nextafter(folds[1:], 0.0), [np.nextafter(1.0, 0.0), 5e-324],
        ]
        x = np.concatenate(phases)
        expected = sin_turns_by_selection(x)
        assert sin_turns_array(x).view(np.int64).tolist() == expected.view(np.int64).tolist()

    def test_numpy_sine_equals_the_scalar_sine(self):
        # the held supremum reads array sines and the held THD and half
        # swing scalar ones, so numpy's np.sin must give math.sin's bits:
        # every phase j/(4p) up to p = 400, and 200,000 random phases
        rng = np.random.default_rng(27)
        x = np.concatenate(
            [np.arange(4 * p) / (4 * p) for p in range(1, 401)] + [rng.random(200_000)]
        )
        assert len(x) == 520_800
        scalar = np.array([sin_turns(v) for v in x.tolist()])
        assert sin_turns_array(x).view(np.int64).tolist() == scalar.view(np.int64).tolist()

    def test_exact_quarter_points(self):
        assert sin_turns_array(np.array([0.0, 0.25, 0.5, 0.75])).tolist() == [0.0, 1.0, 0.0, -1.0]
        assert math.copysign(1.0, sin_turns_array(np.array([0.5]))[0]) == 1.0

    def test_keeps_its_input(self):
        x = np.array([0.1, 0.6, 0.9])
        sin_turns_array(x)
        assert x.tolist() == [0.1, 0.6, 0.9]


class TestStepLevels:
    @pytest.mark.parametrize("freq", [1.0, 7.0])
    @pytest.mark.parametrize(
        "bits,mode",
        [(None, None)] + [(bits, mode) for bits in (1, 4, 12) for mode in MODES],
    )
    def test_pointwise_models_match_the_engine_levels(self, bits, mode, freq):
        # the scalar models against the array levels the exact engine reads
        spec = SignalSpec(freq)
        quantizer = None if bits is None else qc(bits, mode)
        for p in range(1, 33):
            for q in range(1, 33):
                if math.gcd(p, q) != 1:
                    continue
                timing = TimingConfig(p, q)
                model = (
                    WaveformModel.held(spec, timing)
                    if quantizer is None
                    else WaveformModel.digitized(spec, timing, quantizer)
                )
                levels = step_levels(np.arange(p) * q % p, p, quantizer)
                half_step = Fraction(q, 2 * p) / Fraction(freq)
                for k in range(p):
                    assert model.sample((2 * k + 1) * half_step) == levels[k], (p, q, k)
