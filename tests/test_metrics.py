import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    brute_force_held_max_error,
    brute_force_quantized_max_error,
    fourier_peak_amplitude_by_quadrature,
    held_thd_closed_form,
)
from ddsmetrics.metrics import (
    MAX_PIECES,
    CapExceeded,
    DegenerateSignalError,
    SamplingPlan,
    evaluate,
    max_abs_error,
    probe_times,
    spectrum_dft,
    spectrum_exact_staircase,
    staircase_values,
    thd,
)
from ddsmetrics.signals import (
    QuantizationMode,
    QuantizerConfig,
    SignalSpec,
    TimingConfig,
    WaveformModel,
)

SPEC = SignalSpec(1.0)


def target_model():
    return WaveformModel.target(SPEC)


def quantized_model(bits, mode=QuantizationMode.FLOOR):
    return WaveformModel.quantized(SPEC, QuantizerConfig(bits, mode))


def held_model(p, q=1, spec=SPEC):
    return WaveformModel.held(spec, TimingConfig(p, q))


def digitized_model(p, bits, q=1, mode=QuantizationMode.FLOOR):
    return WaveformModel.digitized(SPEC, TimingConfig(p, q), QuantizerConfig(bits, mode))


def stepped_model(p, q, bits, mode, spec=SPEC):
    """Held when ``bits`` is None, else digitized."""
    if bits is None:
        return WaveformModel.held(spec, TimingConfig(p, q))
    return WaveformModel.digitized(spec, TimingConfig(p, q), QuantizerConfig(bits, mode))


def parseval_residual(spectrum, mean_square):
    captured = spectrum.dc**2 + float(np.sum(spectrum.amplitudes**2)) / 2.0
    return abs(captured - mean_square) / mean_square


class TestSamplingPlan:
    def test_defaults(self):
        plan = SamplingPlan()
        assert plan.samples_per_period == 100_000
        assert plan.epsilon_fraction == 1e-9
        assert plan.probe_discontinuities

    def test_validation(self):
        with pytest.raises(ValueError):
            SamplingPlan(samples_per_period=32)
        with pytest.raises(ValueError):
            SamplingPlan(epsilon_fraction=0.0)
        with pytest.raises(ValueError):
            SamplingPlan(epsilon_fraction=1e-3)


class TestProbeTimes:
    def test_target_gets_only_uniform_probes(self):
        times = probe_times(target_model(), SamplingPlan(samples_per_period=64))
        assert len(times) == 64
        assert times[0] == 0.0
        assert np.all(np.diff(times) > 0)

    def test_held_includes_boundary_and_left_probe(self):
        plan = SamplingPlan(samples_per_period=64)
        times = probe_times(held_model(4), plan)
        assert 0.25 in times
        assert 0.25 - 1e-9 in times

    def test_quantized_includes_level_crossing_probes(self):
        plan = SamplingPlan(samples_per_period=64)
        times = set(probe_times(quantized_model(2), plan))
        crossing = math.asin(0.5) / (2 * math.pi)  # 1/12 of the period
        assert any(abs(t - (crossing - 1e-9)) < 1e-15 for t in times)
        assert any(abs(t - (crossing + 1e-9)) < 1e-15 for t in times)

    def test_all_probes_inside_combined_period(self):
        for model in (held_model(7, 3), quantized_model(5), digitized_model(6, 3, q=5)):
            q = model.timing.multiplier_den if model.timing else 1
            times = probe_times(model, SamplingPlan(samples_per_period=128))
            assert times[0] >= 0.0
            assert times[-1] < q * 1.0
            assert len(np.unique(times)) == len(times)

    def test_discontinuity_probes_can_be_disabled(self):
        plan = SamplingPlan(samples_per_period=64, probe_discontinuities=False)
        assert len(probe_times(held_model(4), plan)) == 64


class TestMaxAbsError:
    def test_target_is_exactly_zero(self):
        err, argmax = max_abs_error(target_model(), SamplingPlan())
        assert err == 0.0
        assert argmax == 0.0

    def test_held_two_steps(self):
        err, argmax = max_abs_error(held_model(2), SamplingPlan())
        assert err == 1.0
        assert argmax == 0.25

    def test_quantized_floor_approaches_one_level(self):
        bound = 2.0 ** (1 - 8)
        err, _ = max_abs_error(quantized_model(8), SamplingPlan())
        assert 0.99 * bound <= err < bound

    def test_held_approaches_step_sine(self):
        expected = math.sin(2 * math.pi / 8)
        err, _ = max_abs_error(held_model(8), SamplingPlan())
        assert 0.999 * expected <= err <= expected

    def test_matches_brute_force_on_held(self):
        # the epsilon probe sits 1e-9 period before each jump, so it can
        # trail the closed-endpoint limit by at most 2*pi*1e-9
        for multiplier in (5, 8, 12):
            err, _ = max_abs_error(held_model(multiplier), SamplingPlan())
            brute = brute_force_held_max_error(multiplier, grid_points=500_000)
            assert err == pytest.approx(brute, abs=5e-5)
            assert err >= brute - 1e-7

    def test_matches_brute_force_on_quantized(self):
        for bits in (3, 6):
            err, _ = max_abs_error(quantized_model(bits), SamplingPlan())
            brute = brute_force_quantized_max_error(bits, grid_points=500_000)
            assert err >= brute - 1e-7
            assert err == pytest.approx(brute, abs=5e-5)

    def test_error_at_most_strict_bound(self):
        from ddsmetrics.bounds import BoundVariant, held_error_bound

        for multiplier in (3, 5, 6, 9, 17):
            err, _ = max_abs_error(held_model(multiplier), SamplingPlan())
            assert err <= held_error_bound(1.0, 1.0 / multiplier, BoundVariant.STRICT)

    def test_refinement_stability(self):
        for model in (held_model(8), quantized_model(8), digitized_model(16, 6)):
            base, _ = max_abs_error(model, SamplingPlan())
            fine, _ = max_abs_error(model, SamplingPlan(samples_per_period=200_000))
            assert abs(fine - base) < 1e-6

    def test_scale_invariance(self):
        # every metric depends on f*dt only, so frequency scales out exactly
        hi = SignalSpec(50.0)
        err_1, argmax_1 = max_abs_error(held_model(8), SamplingPlan())
        err_50, argmax_50 = max_abs_error(held_model(8, spec=hi), SamplingPlan())
        assert err_50 == err_1
        assert argmax_50 == pytest.approx(argmax_1 / 50.0, rel=1e-12)
        low_spectrum = spectrum_dft(held_model(8), 64)
        hi_spectrum = spectrum_dft(held_model(8, spec=hi), 64)
        assert np.array_equal(low_spectrum.amplitudes, hi_spectrum.amplitudes)
        assert hi_spectrum.base_frequency_hz == 50.0 * low_spectrum.base_frequency_hz


class TestStaircaseValues:
    def test_held_quarter_steps(self):
        assert staircase_values(held_model(4)).tolist() == [0.0, 1.0, 0.0, -1.0]

    def test_two_steps_identically_zero(self):
        values = staircase_values(held_model(2))
        assert values.tolist() == [0.0, 0.0]

    def test_rejects_smooth_models(self):
        with pytest.raises(ValueError):
            staircase_values(target_model())


class TestSpectrumDft:
    def test_pure_sine(self):
        spectrum = spectrum_dft(target_model())
        assert spectrum.fundamental_index == 1
        assert spectrum.amplitudes[0] == pytest.approx(1.0, abs=1e-12)
        assert float(np.max(spectrum.amplitudes[1:])) < 1e-10

    def test_held_fundamental_inverse_sinc_relation(self):
        dft = spectrum_dft(held_model(4), 64)
        exact = spectrum_exact_staircase(held_model(4))
        n_total = 4 * 64
        for n in (1, 3, 5):
            inflation = (math.pi * n / n_total) / math.sin(math.pi * n / n_total)
            assert dft.amplitudes[n - 1] == pytest.approx(
                exact.amplitudes[n - 1] * inflation, rel=1e-12
            )

    def test_held_fundamental_value(self):
        # sampled staircase slightly inflates the continuous amplitude
        dft = spectrum_dft(held_model(4), 64)
        assert dft.amplitudes[0] == pytest.approx(0.9003163, abs=3e-5)
        assert dft.amplitudes[2] == pytest.approx(0.3001054, abs=1e-4)

    def test_parseval(self):
        models = [
            (held_model(4), 64),
            (digitized_model(8, 3), 32),
            (quantized_model(6), 64),
            (quantized_model(2, QuantizationMode.CEILING), 64),
            (quantized_model(9, QuantizationMode.ROUND), 64),
            (target_model(), 64),
        ]
        for model, m in models:
            spectrum = spectrum_dft(model, m)
            assert parseval_residual(spectrum, spectrum.sample_mean_square) < 1e-9

    def test_dft_mean_square_matches_independent_sampling(self):
        # stepped samples are plain repeats of the step values, so an
        # independent reconstruction must agree exactly
        model = digitized_model(8, 3)
        spectrum = spectrum_dft(model, 32)
        samples = np.repeat(staircase_values(model), 32)
        assert spectrum.sample_mean_square == float(np.mean(samples**2))

    def test_size_cap(self):
        with pytest.raises(CapExceeded) as exc_info:
            spectrum_dft(held_model(100_000), 256, dft_cap=1 << 20)
        assert exc_info.value.p == 100_000
        assert exc_info.value.q == 1

    def test_rejects_odd_samples_per_step(self):
        with pytest.raises(ValueError):
            spectrum_dft(held_model(4), 17)
        with pytest.raises(ValueError):
            spectrum_dft(held_model(4), 8)

    def test_combined_period_grid(self):
        spectrum = spectrum_dft(held_model(7, 2), 64)
        assert spectrum.fundamental_index == 2
        assert spectrum.base_frequency_hz == pytest.approx(0.5)


class TestSpectrumExactStaircase:
    def test_fundamental_closed_form(self):
        spectrum = spectrum_exact_staircase(held_model(4))
        expected = math.sin(math.pi / 4) / (math.pi / 4)
        assert spectrum.amplitudes[0] == pytest.approx(expected, rel=1e-12)

    def test_image_amplitudes_against_quadrature(self):
        values = staircase_values(held_model(4))
        spectrum = spectrum_exact_staircase(held_model(4))
        for n in (1, 3, 5, 7):
            quad = fourier_peak_amplitude_by_quadrature(values, n)
            assert spectrum.amplitudes[n - 1] == pytest.approx(quad, abs=1e-6)

    def test_multiples_of_step_rate_are_exact_zeros(self):
        spectrum = spectrum_exact_staircase(held_model(4))
        assert spectrum.amplitudes[3] == 0.0  # n = 4
        assert spectrum.amplitudes[7] == 0.0  # n = 8

    def test_power_capture(self):
        for model in (held_model(3), held_model(4), held_model(32),
                      digitized_model(8, 2), digitized_model(97, 12)):
            values = staircase_values(model)
            ms = float(np.mean(values**2))
            spectrum = spectrum_exact_staircase(model)
            assert spectrum.sample_mean_square == ms
            captured = spectrum.dc**2 + float(np.sum(spectrum.amplitudes**2)) / 2
            assert captured >= (1 - 1e-4) * ms
            assert captured <= ms * (1 + 1e-12)

    def test_zero_signal(self):
        spectrum = spectrum_exact_staircase(held_model(2))
        assert spectrum.dc == 0.0
        assert len(spectrum.amplitudes) == 0

    def test_rejects_smooth_models(self):
        with pytest.raises(ValueError):
            spectrum_exact_staircase(quantized_model(4))


class TestThd:
    def test_pure_sine_is_distortion_free(self):
        ratio, db = thd(spectrum_dft(target_model()))
        assert ratio < 1e-9
        assert db is None or db < -180.0

    def test_held_four_steps_closed_form(self):
        expected_ratio, expected_db = held_thd_closed_form(4)
        ratio, db = thd(spectrum_exact_staircase(held_model(4)))
        assert ratio == pytest.approx(expected_ratio, abs=2e-4)
        assert db == pytest.approx(expected_db, abs=0.01)
        assert db == pytest.approx(-6.3134, abs=0.01)

    def test_held_32_steps_closed_form(self):
        ratio, db = thd(spectrum_exact_staircase(held_model(32)))
        assert ratio == pytest.approx(0.0567, abs=2e-4)
        assert db == pytest.approx(-24.92, abs=0.05)

    def test_degenerate_signal(self):
        with pytest.raises(DegenerateSignalError):
            thd(spectrum_exact_staircase(held_model(2)))

    def test_subharmonics_count_toward_distortion(self):
        spectrum = spectrum_dft(digitized_model(9, 3, q=2), 32)
        assert spectrum.fundamental_index == 2
        below_fundamental = spectrum.amplitudes[: spectrum.fundamental_index - 1]
        assert float(np.max(below_fundamental)) > 0
        ratio, _ = thd(spectrum)
        fund = spectrum.fundamental_amplitude()
        masked = spectrum.amplitudes.copy()
        masked[spectrum.fundamental_index - 1] = 0.0
        assert ratio == pytest.approx(float(np.sqrt(np.sum(masked**2))) / fund, rel=1e-12)

    def test_oracle_equivalence_for_integer_steps(self):
        for p in (4, 12, 48, 96):
            _, db_dft = thd(spectrum_dft(held_model(p), 256))
            _, db_exact = thd(spectrum_exact_staircase(held_model(p)))
            assert abs(db_dft - db_exact) <= 0.05

    def test_dft_thd_refinement_stability(self):
        _, db_64 = thd(spectrum_dft(held_model(8), 64))
        _, db_128 = thd(spectrum_dft(held_model(8), 128))
        assert abs(db_128 - db_64) < 0.01

    def test_held_thd_decreases_with_multiplier(self):
        dbs = []
        for p in (4, 8, 16, 32, 64, 128, 256, 512, 1024):
            dbs.append(thd(spectrum_dft(held_model(p), 64))[1])
        assert all(a > b for a, b in zip(dbs, dbs[1:]))

    def test_round_quantized_thd_decreases_with_bits(self):
        dbs = []
        for bits in range(2, 17):
            model = quantized_model(bits, QuantizationMode.ROUND)
            dbs.append(thd(spectrum_dft(model))[1])
        assert all(a > b for a, b in zip(dbs, dbs[1:]))


class TestEvaluate:
    def test_target_report(self):
        report = evaluate(target_model())
        assert report.model == "target"
        assert report.max_abs_error == 0.0
        assert report.thd_ratio < 1e-9
        assert report.paper_bound == 0.0
        assert report.strict_bound == 0.0

    def test_digitized_within_printed_bound(self):
        report = evaluate(digitized_model(64, 8))
        assert report.paper_bound == pytest.approx(0.1058296, abs=1e-6)
        assert report.max_abs_error <= report.paper_bound
        assert report.max_abs_error <= report.strict_bound

    def test_held_odd_multiplier_beats_estimate(self):
        report = evaluate(WaveformModel.held(SPEC, TimingConfig(5)))
        assert report.max_abs_error > 0.9510565
        assert report.max_abs_error <= 1.1755705045849463 + 1e-6
        assert report.max_abs_error <= report.strict_bound

    def test_degenerate_thd_reported_absent(self):
        report = evaluate(held_model(2))
        assert report.thd_ratio is None
        assert report.thd_db is None
        assert report.max_abs_error == 1.0

    def test_report_echo(self):
        report = evaluate(digitized_model(8, 3, mode=QuantizationMode.ROUND))
        assert report.model == "digitized"
        assert report.bits == 3
        assert report.mode == "round"
        assert (report.m_num, report.m_den) == (8, 1)
        assert report.max_err_pct == 100.0 * report.max_abs_error

    @given(
        p=st.integers(min_value=2, max_value=40),
        q=st.sampled_from([1, 1, 1, 2, 3]),
        bits=st.integers(min_value=2, max_value=10),
    )
    @settings(max_examples=20, deadline=None)
    def test_error_never_exceeds_strict_bound(self, p, q, bits):
        model = WaveformModel.digitized(
            SPEC, TimingConfig(p, q), QuantizerConfig(bits, QuantizationMode.FLOOR)
        )
        report = evaluate(model)
        assert report.max_abs_error <= report.strict_bound


class TestExactEngine:
    """evaluate() reports the exact supremum and Parseval THD; the probe
    grid and the two spectra are its oracles."""

    def test_quantized_floor_reports_one_level(self):
        # the probe grid falls short: 0.4999999980
        report = evaluate(quantized_model(2))
        assert report.max_abs_error == 0.5
        assert report.max_abs_error == report.strict_bound

    def test_quantized_round_reports_half_a_level(self):
        # the crossing probes sit at whole levels, so the grid read 0.4999819
        report = evaluate(quantized_model(1, QuantizationMode.ROUND))
        assert report.max_abs_error == 0.5

    def test_quantized_ceiling_reports_one_level_from_the_start(self):
        report = evaluate(quantized_model(3, QuantizationMode.CEILING))
        assert report.max_abs_error == 0.25
        assert report.argmax_time_s == 0.0

    def test_odd_held_reaches_strict_bound_exactly(self):
        # 2*sin(pi/5) is the true supremum; the probe grid read 1.17557049950
        report = evaluate(held_model(5))
        assert report.max_abs_error == report.strict_bound == 1.1755705045849463

    def test_target_thd_is_exactly_zero(self):
        report = evaluate(target_model())
        assert report.thd_ratio == 0.0
        assert report.thd_db is None

    def test_held_thd_closed_form(self):
        for p in (3, 4, 5, 7, 16, 100, 1000):
            _, expected_db = held_thd_closed_form(p)
            assert evaluate(held_model(p)).thd_db == pytest.approx(expected_db, abs=1e-9)

    def test_argmax_time(self):
        # held(5): the largest jump is the one across phase 1/2, at t = 3/5
        assert evaluate(held_model(5)).argmax_time_s == 0.6
        slow = evaluate(held_model(7, 3))
        fast = evaluate(held_model(7, 3, spec=SignalSpec(50.0)))
        assert fast.max_abs_error == slow.max_abs_error
        assert fast.argmax_time_s == pytest.approx(slow.argmax_time_s / 50.0, rel=1e-12)

    def test_dft_cap_checked_before_any_work(self):
        with pytest.raises(CapExceeded):
            evaluate(held_model(10**15))

    def test_piece_cap_raises_before_allocating(self):
        tracemalloc.start()
        try:
            with pytest.raises(CapExceeded) as exc_info:
                evaluate(held_model(MAX_PIECES + 1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert exc_info.value.p == MAX_PIECES + 1
        assert "pieces" in str(exc_info.value)
        assert evaluate(held_model(4, 1 + 4 * MAX_PIECES)).m_num == 4

    def test_held_thd_past_the_old_dft_cap(self):
        # 300001 pieces took 19.2 M samples at 64 per step, over the old
        # 2**24-sample cap. The reference evaluates sqrt(1/sinc**2 - 1)
        # as sqrt((x - sin x)*(x + sin x))/sin x, with x - sin x from its
        # series, free of cancellation. The harmonic power is 3.7e-11 of
        # the signal power, so the Parseval difference of unit-size float
        # terms limits the reported ratio to about 1e-6 relative.
        p = 300_001
        x = math.pi / p
        sin_x = math.sin(x)
        x_minus_sin = math.fsum(
            (-1) ** (n + 1) * x ** (2 * n + 1) / math.factorial(2 * n + 1)
            for n in range(1, 6)
        )
        expected = math.sqrt(x_minus_sin * (x + sin_x)) / sin_x
        report = evaluate(held_model(p))
        assert report.thd_ratio == pytest.approx(expected, rel=2e-6)

    @given(
        p=st.integers(min_value=1, max_value=200),
        q=st.integers(min_value=1, max_value=16),
        bits=st.one_of(st.none(), st.integers(min_value=1, max_value=16)),
        mode=st.sampled_from(list(QuantizationMode)),
        freq=st.sampled_from([1.0, 0.3, 7.0, 1e3, 2.5e-4]),
    )
    @settings(max_examples=150, deadline=None)
    def test_supremum_between_probe_estimate_and_strict_bound(self, p, q, bits, mode, freq):
        model = stepped_model(p, q, bits, mode, SignalSpec(freq))
        report = evaluate(model)
        probe, _ = max_abs_error(model, SamplingPlan(samples_per_period=4096))
        assert probe <= report.max_abs_error <= report.strict_bound

    @given(
        p=st.integers(min_value=1, max_value=200),
        q=st.integers(min_value=1, max_value=16),
        bits=st.one_of(st.none(), st.integers(min_value=1, max_value=16)),
        mode=st.sampled_from(list(QuantizationMode)),
    )
    @settings(max_examples=100, deadline=None)
    def test_stepped_thd_matches_both_spectra(self, p, q, bits, mode):
        model = stepped_model(p, q, bits, mode)
        report = evaluate(model)
        try:
            _, dft_db = thd(spectrum_dft(model, 256))
        except DegenerateSignalError:
            assert report.thd_ratio is None
            return
        _, exact_db = thd(spectrum_exact_staircase(model))
        assert abs(report.thd_db - dft_db) <= 0.02
        assert abs(report.thd_db - exact_db) <= 0.05

    @given(
        bits=st.integers(min_value=1, max_value=12),
        mode=st.sampled_from(list(QuantizationMode)),
    )
    @settings(max_examples=36, deadline=None)
    def test_quantized_thd_matches_dft(self, bits, mode):
        model = quantized_model(bits, mode)
        _, dft_db = thd(spectrum_dft(model))
        assert abs(evaluate(model).thd_db - dft_db) <= 0.02
