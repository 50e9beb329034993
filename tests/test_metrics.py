import concurrent.futures
import math
import random
import sys
import tracemalloc
from dataclasses import replace
from functools import lru_cache
from operator import mul

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import (
    brute_force_held_max_error,
    brute_force_quantized_max_error,
    fourier_peak_amplitude_by_quadrature,
    held_thd_closed_form,
)
from ddsmetrics import bounds, metrics, sweeps
from ddsmetrics.metrics import (
    MAX_PIECES,
    CapExceeded,
    _ZETA_HALF_INTEGERS,
    REPORT_FIELDS,
    _held_candidates,
    column_batches,
    evaluate,
    evaluate_columns,
    quantized_columns,
    reports_from_columns,
)
from oracles import (
    DegenerateSignalError,
    column_rows,
    held_pieces_by_row,
    held_rows,
    held_supremum,
    held_thd_by_row,
    SamplingPlan,
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
    step_levels,
)

SPEC = SignalSpec(1.0)

# Every name the library held for the numerical oracles alone.
ORACLE_NAMES = (
    "SamplingPlan", "Spectrum", "DegenerateSignalError", "DFT_SIZE_CAP",
    "_MAX_CROSSING_BITS", "_ProbeSet", "_probe_set", "probe_times",
    "_model_values", "max_abs_error", "_dft_size", "spectrum_dft",
    "spectrum_exact_staircase", "thd", "staircase_values",
)


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


def _coprime_rows():
    """3000 random coprime held rows p/q, p < 10**6 and 2q <= p, then every
    coprime p/q with p < 60 and q < 2p."""
    rng = random.Random(31)
    found = {}
    while len(found) < 3000:
        p = rng.randrange(2, 10**6)
        q = rng.randrange(1, p // 2 + 1)
        if math.gcd(p, q) == 1:
            found[p, q] = None
    small = [(p, q) for p in range(1, 60) for q in range(1, 2 * p) if math.gcd(p, q) == 1]
    return list(found), small


@lru_cache(maxsize=None)
def _columns_at(freq, kind):
    """The engines' columns at ``freq``: the held rows of _coprime_rows,
    their small rows digitized at bits 2, 8 and 12 in every mode, or the
    quantized reports of bits 1 to 52 in every mode."""
    spec = SignalSpec(freq)
    if kind == "quantized":
        return quantized_columns(spec, [
            QuantizerConfig(bits, mode) for bits in range(1, 53) for mode in QuantizationMode
        ])
    random_rows, small = _coprime_rows()
    if kind == "held":
        return evaluate_columns(spec, random_rows + small)
    quantizers = [QuantizerConfig(bits, mode) for bits in (2, 8, 12) for mode in QuantizationMode]
    return evaluate_columns(spec, small, quantizers)


class TestEngineScaleInvariance:
    """The engines read the multipliers p/q and the quantizers alone, so
    frequency scales out exactly: at any f every reported metric and bound
    is the float of f = 1, and argmax_time_s is the 1 Hz value divided by
    f."""

    @pytest.mark.parametrize("kind", ["held", "digitized", "quantized"])
    @pytest.mark.parametrize("freq", [0.37, 3.3, 1e-5, 7e4, 1e300 / 3])
    def test_every_field_is_the_1_hz_float(self, freq, kind):
        base, columns = _columns_at(1.0, kind), _columns_at(freq, kind)
        expected = dict(base, argmax_time_s=[t / freq for t in base["argmax_time_s"]])
        names = ("max_abs_error", "argmax_time_s", "thd_ratio", "thd_db",
                 "paper_bound", "strict_bound")
        mismatches = {
            name: sum(a != b for a, b in zip(expected[name], columns[name])) for name in names
        }
        assert mismatches == dict.fromkeys(names, 0)
        assert columns["freq_hz"] == [freq] * len(base["freq_hz"])


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
        assert fast.argmax_time_s == slow.argmax_time_s / 50.0

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
        # series, free of cancellation. The held THD is that closed form
        # too, so the two agree to float rounding although the harmonic
        # power is only 3.7e-11 of the signal power.
        p = 300_001
        x = math.pi / p
        sin_x = math.sin(x)
        x_minus_sin = math.fsum(
            (-1) ** (n + 1) * x ** (2 * n + 1) / math.factorial(2 * n + 1)
            for n in range(1, 6)
        )
        expected = math.sqrt(x_minus_sin * (x + sin_x)) / sin_x
        report = evaluate(held_model(p))
        assert report.thd_ratio == pytest.approx(expected, rel=1e-13, abs=0)

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


FREQUENCIES = [1.0, 0.3, 7.0, 1e3, 2.5e-4]


def assert_held_supremum_exact(p, q, freq):
    """The held row's supremum and its time, taken from a few candidate
    pieces, equal the evaluation of every piece bit for bit."""
    model = held_model(p, q, SignalSpec(freq))
    every_piece = np.arange(model.timing.multiplier_num, dtype=np.int64)
    report = evaluate(model)
    expected = held_supremum(model, every_piece)
    assert (report.max_abs_error, report.argmax_time_s) == expected


class TestHeldClosedForm:
    """A held row costs O(1): closed-form THD and a constant-size set of
    candidate pieces for the supremum."""

    def test_supremum_equals_every_piece_for_small_multipliers(self):
        for freq in FREQUENCIES:
            for p in range(1, 65):
                for q in range(1, 65):
                    if math.gcd(p, q) == 1:
                        assert_held_supremum_exact(p, q, freq)

    @given(
        p=st.integers(min_value=1, max_value=4096),
        q=st.integers(min_value=1, max_value=64),
        freq=st.sampled_from(FREQUENCIES),
    )
    @settings(max_examples=200, deadline=None)
    def test_supremum_equals_every_piece(self, p, q, freq):
        assert_held_supremum_exact(p, q, freq)

    @given(
        p=st.integers(min_value=1, max_value=4096),
        q=st.integers(min_value=1, max_value=10**20),
        freq=st.sampled_from(FREQUENCIES),
    )
    @example(p=4096, q=10**20 + 1, freq=1.0)
    @settings(max_examples=200, deadline=None)
    def test_supremum_equals_every_piece_for_huge_denominators(self, p, q, freq):
        assert_held_supremum_exact(p, q, freq)

    @given(
        p=st.integers(min_value=3, max_value=MAX_PIECES),
        q=st.integers(min_value=1, max_value=10**20),
    )
    @example(p=MAX_PIECES, q=1)
    @example(p=MAX_PIECES - 3, q=10**20)
    @example(p=300_001, q=1)
    @example(p=3, q=10**20)
    @example(p=22, q=7)  # x = pi*q/p just below 1, where the series ends
    @example(p=113, q=36)  # and just above
    @settings(max_examples=200, deadline=None)
    def test_thd_matches_mpmath(self, p, q):
        mpmath = pytest.importorskip("mpmath")
        assume(math.gcd(p, q) == 1)
        with mpmath.workdps(50):
            x = mpmath.pi * q / p
            expected = mpmath.sqrt((x / mpmath.sin(x)) ** 2 - 1)
        report = evaluate(held_model(p, q))
        assert report.thd_ratio == pytest.approx(float(expected), rel=1e-13, abs=0)

    def test_row_at_the_piece_cap_allocates_no_pieces(self):
        # building all 2**24 pieces took about 2.4 GB
        tracemalloc.start()
        try:
            report = evaluate(held_model(MAX_PIECES))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert 0.0 < report.max_abs_error <= report.strict_bound
        assert report.thd_ratio > 0.0


# Fraction bits of the fixed-point sines of digitized_thd_by_pieces.
FIXED_BITS = 200


def digitized_thd_by_pieces(p, qs, quantizers):
    """THD of the digitized rows p/q, q in ``qs``, for each quantizer, as
    a Parseval sum over the pieces in time order: {(q, i): ratio}.

    Piece k holds level L_k = m_k*step, from :func:`step_levels` at
    residue k*q mod p, over k*q/p..(k+1)*q/p periods of the sine. So the
    combined period's fundamental coefficient is sum_k L_k*(z**(k*q) -
    z**((k+1)*q))/(2j*pi*q), z = exp(-2j*pi/p), and THD**2 + 1 is the AC
    power over the fundamental's: p*sum(m**2) - sum(m)**2 over
    p**2*|sum m_k*(z**(k*q) - z**((k+1)*q))|**2/(2*pi**2*q**2). The sines
    and pi**2 come from mpmath at 60 digits in fixed point, and every sum
    is exact in integers, so only the final sqrt rounds."""
    mpmath = pytest.importorskip("mpmath")
    one = 1 << FIXED_BITS
    with mpmath.workdps(60):
        pi_squared = int(mpmath.nint(mpmath.pi**2 * one))
        turns = [2 * mpmath.mpf(j) / p for j in range(p)]
        cos = [int(mpmath.nint(mpmath.cospi(turn) * one)) for turn in turns]
        sin = [int(mpmath.nint(mpmath.sinpi(turn) * one)) for turn in turns]
    steps = [
        (step_levels(np.arange(p), p, quantizer) * quantizer.scale).astype(np.int64)
        for quantizer in quantizers
    ]
    k = np.arange(p)
    ratios = {}
    for q in qs:
        # z**j = cos - 1j*sin at residue j
        a, b = (k * q % p).tolist(), ((k + 1) * q % p).tolist()
        real = [cos[x] - cos[y] for x, y in zip(a, b)]
        imag = [sin[y] - sin[x] for x, y in zip(a, b)]
        for i, steps_at in enumerate(steps):
            m = steps_at[a].tolist()
            bin_re, bin_im = sum(map(mul, m, real)), sum(map(mul, m, imag))
            ac = p * sum(map(mul, m, m)) - sum(m) ** 2
            # (THD**2 + 1)*one, rounded down
            scaled = ac * 2 * q * q * pi_squared * one * one // (p * p * (bin_re**2 + bin_im**2))
            ratios[q, i] = math.sqrt((scaled - one) / one)
    return ratios


class TestDigitizedThd:
    """Digitized THD is the held closed form composed with the discrete
    THD of the levels, exact to float precision at every size."""

    def test_matches_exact_parseval_sums_over_the_pieces(self):
        # every coprime p, q <= 64 at bits 1-12 in every mode
        quantizers = [QuantizerConfig(bits, mode) for mode in QuantizationMode for bits in range(1, 13)]
        rows = [(p, q) for p in range(1, 65) for q in range(1, 65) if math.gcd(p, q) == 1]
        reports = iter(reports_from_columns(evaluate_columns(SPEC, rows, quantizers)))
        for p in range(1, 65):
            qs = [q for row_p, q in rows if row_p == p]
            expected = digitized_thd_by_pieces(p, qs, quantizers) if p >= 3 else {}
            for q in qs:
                for i in range(len(quantizers)):
                    report = next(reports)
                    if p < 3:  # every level is Q(0): no fundamental
                        assert (report.thd_ratio, report.thd_db) == (None, None)
                        continue
                    assert report.thd_ratio == pytest.approx(expected[q, i], rel=1e-12, abs=0)
                    assert report.thd_db == 20.0 * math.log10(report.thd_ratio)

    @pytest.mark.parametrize("mode", list(QuantizationMode))
    def test_52_bits_equal_the_held_closed_form(self, mode):
        # the levels differ from the held ones by under 2**-51, so the
        # quantization share vanishes beside the hold's
        held = evaluate(held_model(300_001))
        report = evaluate(digitized_model(300_001, 52, mode=mode))
        assert report.thd_ratio == pytest.approx(held.thd_ratio, rel=1e-13, abs=0)
        assert held.thd_ratio == 6.045977727587935e-06


@lru_cache(maxsize=None)
def _mpmath_threshold_sums(bits, rounding):
    """50-digit sums over the quantizer's thresholds c_i (ascending):
    sum acos(c_i)/pi, sum i*acos(c_i)/pi and sum sqrt(1 - c_i**2)."""
    mpmath = pytest.importorskip("mpmath")
    scale = 1 << (bits - 1)
    with mpmath.workdps(50):
        if rounding:
            thresholds = [mpmath.mpf(2 * j - 1) / (2 * scale) for j in range(1 - scale, scale + 1)]
        else:
            thresholds = [mpmath.mpf(j) / scale for j in range(1 - scale, scale)]
        shares = [mpmath.acos(c) / mpmath.pi for c in thresholds]
        return (
            mpmath.fsum(shares),
            mpmath.fsum(i * share for i, share in enumerate(shares)),
            mpmath.fsum(mpmath.sqrt(1 - c * c) for c in thresholds),
        )


def mpmath_threshold_thd(bits, mode):
    """Parseval THD of the quantized sine, to 50 digits, from the level
    steps at its thresholds: independent of the Bessel series."""
    mpmath = pytest.importorskip("mpmath")
    share, weighted, root = _mpmath_threshold_sums(bits, mode is QuantizationMode.ROUND)
    with mpmath.workdps(50):
        step = mpmath.mpf(1) / (1 << (bits - 1))
        bottom = -1 + step if mode is QuantizationMode.CEILING else mpmath.mpf(-1)
        mean = bottom + step * share
        mean_square = bottom**2 + step * ((2 * bottom + step) * share + 2 * step * weighted)
        fundamental = 2 * step / mpmath.pi * root
        return mpmath.sqrt(2 * (mean_square - mean**2) - fundamental**2) / fundamental


def mpmath_bessel_round_thd(bits):
    """Round-mode THD from mpmath.nsum over mpmath.besselj, 20 digits:
    the error's power and fundamental as Bessel series, summed directly."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(20):
        step = mpmath.mpf(2) ** (1 - bits)
        z = 2 * mpmath.pi / step
        n_range = [1, mpmath.inf]
        sum0 = mpmath.nsum(lambda n: (-1) ** int(n) * mpmath.besselj(0, z * n) / n**2, n_range)
        sum1 = mpmath.nsum(lambda n: (-1) ** int(n) * mpmath.besselj(1, z * n) / n, n_range)
        variance = step**2 * (mpmath.mpf(1) / 12 + sum0 / mpmath.pi**2)
        error_1 = 2 * step / mpmath.pi * sum1
        return mpmath.sqrt(2 * variance - error_1**2) / (1 + error_1)


class TestQuantizedClosedForm:
    """A quantized row costs O(1): THD from the Bessel series of the
    quantization error, summed in closed form over zeta values."""

    def test_zeta_table_within_an_ulp(self):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            for k, value in enumerate(_ZETA_HALF_INTEGERS):
                expected = float(mpmath.zeta(mpmath.mpf(2 * k + 3) / 2))
                assert abs(value - expected) <= math.ulp(expected)

    @pytest.mark.parametrize("mode", list(QuantizationMode))
    @pytest.mark.parametrize("bits", range(1, 15))
    def test_thd_matches_mpmath_threshold_sums(self, bits, mode):
        expected = mpmath_threshold_thd(bits, mode)
        report = evaluate(quantized_model(bits, mode))
        assert report.thd_ratio == pytest.approx(float(expected), rel=1e-13, abs=0)

    @pytest.mark.parametrize(
        "mode,expected",
        [
            # 50-digit threshold sums over the 65535 or 65536 thresholds
            (QuantizationMode.FLOOR, 1.247121728562769204028533e-05),
            (QuantizationMode.ROUND, 1.245056561151623224798343e-05),
            (QuantizationMode.CEILING, 1.247121728562769204028533e-05),
        ],
    )
    def test_sixteen_bits(self, mode, expected):
        report = evaluate(quantized_model(16, mode))
        assert report.thd_ratio == pytest.approx(expected, rel=1e-13, abs=0)

    @pytest.mark.parametrize("bits", range(1, 53))
    def test_round_matches_mpmath_bessel_series(self, bits):
        expected = mpmath_bessel_round_thd(bits)
        report = evaluate(quantized_model(bits, QuantizationMode.ROUND))
        assert report.thd_ratio == pytest.approx(float(expected), rel=1e-13, abs=0)

    @pytest.mark.parametrize("bits", range(4, 53))
    def test_floor_and_ceiling_agree(self, bits):
        # ceil(x) - floor(x) = 1 almost everywhere: the error differs by a
        # constant, which leaves THD alone
        floor = evaluate(quantized_model(bits, QuantizationMode.FLOOR))
        ceiling = evaluate(quantized_model(bits, QuantizationMode.CEILING))
        assert floor.thd_ratio == ceiling.thd_ratio

    @pytest.mark.parametrize("bits", [20, 52])
    def test_row_allocates_nothing_per_threshold(self, bits):
        # the threshold sum held 2**20 floats at a time at 20 bits
        tracemalloc.start()
        try:
            report = evaluate(quantized_model(bits, QuantizationMode.ROUND))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert report.thd_ratio > 0.0

    def test_evaluate_calls_no_oracle(self):
        # the estimators live in tests/oracles.py, out of the library's reach
        import ddsmetrics
        import ddsmetrics.metrics as metrics_module

        for module in (ddsmetrics, metrics_module):
            for name in ORACLE_NAMES:
                assert not hasattr(module, name), f"{module.__name__}.{name}"
        for mode in QuantizationMode:
            previous = math.inf
            for bits in range(1, 53):
                report = evaluate(quantized_model(bits, mode))
                assert 0.0 < report.thd_ratio < previous
                previous = report.thd_ratio


def traced_peak(fn):
    """Peak traced bytes of one call of ``fn``."""
    tracemalloc.start()
    try:
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def pairs_of(timings):
    """The integer pairs (p, q) of the timings, as the engines take them."""
    return [(t.multiplier_num, t.multiplier_den) for t in timings]


# The held rows of a full batch of evaluate_columns.
HELD_BATCH = metrics._BATCH_PIECES // metrics._HELD_CANDIDATES


def assert_like_the_oracle(reports, oracle):
    """``reports`` equal :func:`oracles.column_rows`'s in every field but
    THD, which the oracle takes as the Parseval difference of unit-size
    terms, and so only to about 1e-7 relative near p = 2**15."""
    assert len(reports) == len(oracle)
    for report, expected in zip(reports, oracle):
        assert replace(report, thd_ratio=None, thd_db=None) == replace(
            expected, thd_ratio=None, thd_db=None
        )
        if expected.thd_ratio is None:
            assert (report.thd_ratio, report.thd_db) == (None, None)
        else:
            assert report.thd_ratio == pytest.approx(expected.thd_ratio, rel=1e-6, abs=0)
            assert report.thd_db == pytest.approx(expected.thd_db, rel=0, abs=1e-5)


def column_reports(spec, timings, quantizers):
    """evaluate_columns of the timings' multipliers, as one list of
    reports per timing."""
    reports = reports_from_columns(evaluate_columns(spec, pairs_of(timings), quantizers))
    n = len(quantizers)
    return [reports[i * n:(i + 1) * n] for i in range(len(timings))]


class TestEvaluateColumn:
    """A digitized column shares the work that depends on the timing alone
    among its quantizers; each report equals the row evaluated alone."""

    @pytest.mark.parametrize("p,q", [(1, 1), (2, 3), (7, 1), (17, 4), (4099, 7)])
    @pytest.mark.parametrize("freq", [1.0, 0.37])
    def test_unordered_and_repeated_quantizers_equal_single_rows(self, p, q, freq):
        # a level array or the start sines mutated in place by one row
        # would change the rows after it
        spec, timing = SignalSpec(freq), TimingConfig(p, q)
        quantizers = [
            QuantizerConfig(bits, mode)
            for bits, mode in [
                (8, QuantizationMode.ROUND), (1, QuantizationMode.CEILING),
                (52, QuantizationMode.FLOOR), (8, QuantizationMode.ROUND),
                (3, QuantizationMode.FLOOR), (1, QuantizationMode.CEILING),
                (12, QuantizationMode.CEILING), (8, QuantizationMode.FLOOR),
            ]
        ]
        column = column_reports(spec, [timing], quantizers)[0]
        assert column == [
            evaluate(WaveformModel.digitized(spec, timing, quantizer))
            for quantizer in quantizers
        ]

    def test_piece_cap_raises_before_allocating(self):
        quantizers = [QuantizerConfig(bits) for bits in range(1, 17)]

        def over_cap():
            with pytest.raises(CapExceeded):
                evaluate_columns(SPEC, [(MAX_PIECES + 1, 1)], quantizers)

        assert traced_peak(over_cap) < 1 << 20

    def test_column_peak_memory_is_one_rows(self):
        timing = TimingConfig(1 << 20, 7)
        quantizers = [QuantizerConfig(bits) for bits in range(1, 17)]
        model = WaveformModel.digitized(SPEC, timing, quantizers[-1])
        row = traced_peak(lambda: evaluate(model))
        column = traced_peak(lambda: column_reports(SPEC, [timing], quantizers)[0])
        assert column <= 1.05 * row


class TestColumnGroups:
    """A column evaluates its quantizers in groups of up to
    ``_COLUMN_CHUNK`` level-matrix elements; each report is byte-equal to
    the column evaluated one quantizer at a time, and like the oracle's
    (see :func:`assert_like_the_oracle`)."""

    def check(self, spec, timing, quantizers):
        column = column_reports(spec, [timing], quantizers)[0]
        assert column == cells_alone(spec, [timing], quantizers)[0]
        assert_like_the_oracle(column, column_rows(spec, timing, quantizers))

    @pytest.mark.parametrize("freq", [1.0, 0.37])
    def test_small_columns_equal_rows_one_at_a_time(self, freq):
        spec = SignalSpec(freq)
        quantizers = [
            QuantizerConfig(bits, mode)
            for mode in QuantizationMode for bits in (1, 2, 3, 4, 8, 12, 16, 52)
        ]
        for p in range(1, 33):
            for q in range(1, 33):
                if math.gcd(p, q) != 1:
                    continue
                timing = TimingConfig(p, q)
                if q == 1:
                    self.check(spec, timing, quantizers)
                    continue
                # each row of a group its own: the same column with its
                # quantizers reversed is the same reports reversed
                column = column_reports(spec, [timing], quantizers)[0]
                assert column_reports(spec, [timing], quantizers[::-1])[0] == column[::-1]
                assert_like_the_oracle(column, column_rows(spec, timing, quantizers))

    @pytest.mark.parametrize(
        "p,q", [(3, 1), (7, 2), (17, 4), (1009, 13), (4099, 16), (11, 5), (1, 1), (2, 1), (1, 3)]
    )
    def test_every_bit_count_in_every_mode(self, p, q):
        quantizers = [
            QuantizerConfig(bits, mode) for mode in QuantizationMode for bits in range(1, 53)
        ]
        for spec in (SPEC, SignalSpec(0.37)):
            self.check(spec, TimingConfig(p, q), quantizers)

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    @pytest.mark.parametrize("freq", [1.0, 0.37])
    def test_columns_around_one_group(self, offset, freq):
        # bits 1-52 in every mode, mixed, with repeats: at p = chunk // rows
        # and below, one group holds every row; above, the last row spills
        # into a second group
        modes = list(QuantizationMode)
        quantizers = [
            QuantizerConfig(bits, modes[(bits + k) % 3]) for k in range(3) for bits in range(1, 53)
        ] + [QuantizerConfig(8, QuantizationMode.ROUND), QuantizerConfig(1, QuantizationMode.FLOOR)]
        p = metrics._COLUMN_CHUNK // len(quantizers) + offset
        spec, timing = SignalSpec(freq), TimingConfig(p, 11)
        assert timing.multiplier_num == p
        self.check(spec, timing, quantizers)

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_columns_around_one_row_per_group(self, offset):
        quantizers = [QuantizerConfig(bits, mode) for mode in QuantizationMode for bits in (1, 9, 52)]
        self.check(SPEC, TimingConfig(metrics._COLUMN_CHUNK // 2 + offset, 3), quantizers)

    def test_default_grid_peak_is_its_largest_columns(self):
        spec = sweeps.SweepSpec()
        timings = [sweeps.snap_multiplier(m, spec.q_max) for m in spec.multiplier_axis()]
        largest = max(timings, key=lambda timing: timing.multiplier_num)
        quantizers = [QuantizerConfig(bits, spec.mode) for bits in spec.bits_axis()]
        column = traced_peak(lambda: column_reports(SPEC, [largest], quantizers)[0])
        tracemalloc.start()
        try:
            result = sweeps.sweep_grid(spec)
            kept, grid = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(list(result.row_reports())) == 1696
        # beside its largest column the grid holds only the reports it keeps
        assert grid <= column + kept


coprime_rows = st.tuples(
    st.integers(min_value=1, max_value=64), st.integers(min_value=1, max_value=10**20)
).filter(lambda row: math.gcd(*row) == 1)
any_quantizer = st.builds(
    QuantizerConfig, st.integers(min_value=1, max_value=52), st.sampled_from(list(QuantizationMode))
)


class TestSupremumOracle:
    """The supremum and argmax time of every digitized cell equal those of
    :func:`oracles.column_rows`, which marks the pieces that hold phase
    1/4 and 3/4 from its own windows and stacks all four candidate errors
    of every piece, whatever the batch and the groups the cell shares."""

    @given(
        rows=st.lists(coprime_rows, min_size=1, max_size=4),
        quantizers=st.lists(any_quantizer, min_size=1, max_size=6),
        freq=st.sampled_from([1.0, 3.3]),
    )
    # p <= 2: every level is Q(0); 2q > p: a piece's window reaches both
    # extrema, or every piece holds both
    @example(
        rows=[(1, 1), (2, 1), (1, 10**20), (2, 10**20 - 1)],
        quantizers=[QuantizerConfig(1), QuantizerConfig(52, QuantizationMode.CEILING)],
        freq=1.0,
    )
    @example(
        rows=[(3, 2), (5, 3), (64, 33), (63, 10**20 + 1)],
        quantizers=[QuantizerConfig(bits, mode) for mode in QuantizationMode for bits in (1, 2, 52)],
        freq=3.3,
    )
    @settings(max_examples=150, deadline=None)
    def test_suprema_and_times_equal_the_oracle(self, rows, quantizers, freq):
        spec, n = SignalSpec(freq), len(quantizers)
        columns = evaluate_columns(spec, rows, quantizers)
        for i, (p, q) in enumerate(rows):
            oracle = column_rows(spec, TimingConfig(p, q), quantizers)
            at = slice(i * n, (i + 1) * n)
            assert columns["max_abs_error"][at] == [report.max_abs_error for report in oracle]
            assert columns["argmax_time_s"][at] == [report.argmax_time_s for report in oracle]


# The benchmark's digitized grid axis at seed 0: 9307 pieces, one batch.
BENCHMARK_AXIS = [6, 9, 11, 16, 28, 42, 76, 95, 157, 254, 451, 584, 818, 1549, 2251, 2960]


class TestWorkingSet:
    """A batch's groups share one working set, and the rest of what it
    holds is a few values per report."""

    def test_working_set_does_not_grow_with_the_quantizers(self):
        # the peak beyond the columns the call returns: 15 quantizers are
        # five groups of three rows, 60 are twenty
        modes = list(QuantizationMode)
        rows = [(m, 1) for m in BENCHMARK_AXIS]

        def working(n):
            quantizers = [QuantizerConfig(2 + b % 15, modes[b // 15 % 3]) for b in range(n)]
            tracemalloc.start()
            try:
                columns = evaluate_columns(SPEC, rows, quantizers)
                kept, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert len(columns["max_abs_error"]) == n * len(rows)
            return peak - kept

        assert working(60) <= 1.05 * working(15)

    def test_groups_reuse_their_matrices(self, monkeypatch):
        # every group of a batch writes its levels into the same matrix
        writes = []
        original = metrics.quantize

        def recorded(x, quantizer, out=None):
            writes.append(out.__array_interface__["data"][0])
            return original(x, quantizer, out=out)

        monkeypatch.setattr(metrics, "quantize", recorded)
        quantizers = [QuantizerConfig(bits) for bits in range(2, 17)]
        group_rows = metrics._COLUMN_CHUNK // sum(BENCHMARK_AXIS)
        columns = evaluate_columns(SPEC, [(m, 1) for m in BENCHMARK_AXIS], quantizers)
        assert len(set(writes)) == group_rows < len(quantizers)
        monkeypatch.undo()
        assert columns == evaluate_columns(SPEC, [(m, 1) for m in BENCHMARK_AXIS], quantizers)


# bits 1 and 52 and a few between, in every mode, mixed and repeated
MIXED_QUANTIZERS = [
    QuantizerConfig(bits, mode)
    for bits, mode in [
        (1, QuantizationMode.FLOOR), (52, QuantizationMode.ROUND), (8, QuantizationMode.CEILING),
        (12, QuantizationMode.ROUND), (1, QuantizationMode.CEILING), (52, QuantizationMode.FLOOR),
        (3, QuantizationMode.ROUND), (8, QuantizationMode.CEILING), (52, QuantizationMode.CEILING),
        (1, QuantizationMode.ROUND),
    ]
]


def cells_alone(spec, timings, quantizers):
    """Every cell evaluated alone: the reference for evaluate_columns."""
    return [
        [evaluate(WaveformModel.digitized(spec, timing, quantizer)) for quantizer in quantizers]
        for timing in timings
    ]


class TestColumnBatches:
    """evaluate_columns lays the pieces of consecutive columns end to end,
    up to ``_BATCH_PIECES`` of them in all; each report is byte-equal to
    its cell evaluated alone, and like the one-quantizer-at-a-time oracle
    (see :func:`assert_like_the_oracle`)."""

    def check(self, spec, timings, quantizers=MIXED_QUANTIZERS):
        columns = column_reports(spec, timings, quantizers)
        assert columns == cells_alone(spec, timings, quantizers)
        for timing, column in zip(timings, columns):
            assert_like_the_oracle(column, column_rows(spec, timing, quantizers))

    @pytest.mark.parametrize("spill", [0, 1])
    @pytest.mark.parametrize("freq", [1.0, 0.37])
    def test_batch_budget_exactly_and_one_over(self, spill, freq):
        budget = metrics._BATCH_PIECES
        timings = [TimingConfig(1), TimingConfig(budget - 1000, 7), TimingConfig(999 + spill, 11)]
        assert sum(t.multiplier_num for t in timings) == budget + spill
        batches = column_batches(pairs_of(timings))
        assert [len(batch) for batch in batches] == ([3] if spill == 0 else [2, 1])
        self.check(SignalSpec(freq), timings)

    @pytest.mark.parametrize("freq", [1.0, 0.37])
    def test_a_column_over_the_budget_is_a_batch_alone(self, freq):
        budget = metrics._BATCH_PIECES
        timings = [TimingConfig(2, 3), TimingConfig(budget + 1, 3), TimingConfig(5, 2)]
        rows = pairs_of(timings)
        assert column_batches(rows) == [[rows[0]], [rows[1]], [rows[2]]]
        self.check(SignalSpec(freq), timings)

    @pytest.mark.parametrize("freq", [1.0, 0.37])
    def test_columns_without_fundamental_beside_large_ones(self, freq):
        # p = 1 and p = 2 hold every level at 0 or a constant: no THD
        big_q = 10**20 + 1
        timings = [
            TimingConfig(1), TimingConfig(4099, big_q), TimingConfig(2, 3),
            TimingConfig(1, big_q), TimingConfig(6007, 13), TimingConfig(2, big_q),
            TimingConfig(3, 1),
        ]
        assert timings[1].multiplier_den == big_q
        assert len(column_batches(pairs_of(timings))) == 1
        self.check(SignalSpec(freq), timings)
        columns = column_reports(SignalSpec(freq), timings, MIXED_QUANTIZERS)
        for timing, column in zip(timings, columns):
            if timing.multiplier_num <= 2:
                assert all(report.thd_ratio is None for report in column)

    @given(
        multipliers=st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=6000),
                st.integers(min_value=1, max_value=10**20),
            ),
            min_size=1,
            max_size=16,
        ),
        freq=st.sampled_from([1.0, 0.37]),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_batches_equal_the_column_oracle(self, multipliers, freq):
        spec = SignalSpec(freq)
        timings = [TimingConfig(p, q) for p, q in multipliers]
        self.check(spec, timings, MIXED_QUANTIZERS[:4])

    def test_bounds_take_each_bit_term_once_per_call(self, monkeypatch):
        # 20000 pieces is a batch of its own, so the timings make 3 batches
        calls = []
        original = bounds.quantization_error_bound

        def counted(bits):
            calls.append(bits)
            return original(bits)

        monkeypatch.setattr(bounds, "quantization_error_bound", counted)
        quantizers = [QuantizerConfig(bits) for bits in range(2, 17)]
        timings = [TimingConfig(p, 3) for p in (4, 7, 100, 4096, 20000, 5, 11)]
        assert len(column_batches(pairs_of(timings))) == 3
        columns = column_reports(SPEC, timings, quantizers)
        assert calls == list(range(2, 17))
        monkeypatch.undo()
        assert columns == cells_alone(SPEC, timings, quantizers)
        for timing, column in zip(timings, columns):
            assert_like_the_oracle(column, column_rows(SPEC, timing, quantizers))

    def test_batches_are_consecutive_runs_within_the_budget(self):
        budget = metrics._BATCH_PIECES
        rng = np.random.default_rng(5)
        rows = [(int(p), 1) for p in rng.integers(1, budget // 3, 200)]
        rows += [(budget, 1), (1, 1), (3 * budget, 1)]
        batches = column_batches(rows)
        assert [row for batch in batches for row in batch] == rows
        for batch, after in zip(batches, batches[1:] + [[]]):
            size = sum(p for p, _ in batch)
            assert size <= budget or len(batch) == 1
            if after:  # each batch takes every column that still fits
                assert size + after[0][0] > budget
        assert column_batches([]) == []

    @pytest.mark.parametrize("position", [0, 3, 6])
    def test_over_cap_timing_raises_before_any_pieces(self, position, monkeypatch):
        built = []
        monkeypatch.setattr(metrics, "_Pieces", lambda *args: built.append(args))
        timings = [TimingConfig(p, 3) for p in (4, 5, 7, 11, 13, 17)]
        timings.insert(position, TimingConfig(MAX_PIECES + 1, 3))
        with pytest.raises(CapExceeded) as exc_info:
            column_reports(SPEC, timings, MIXED_QUANTIZERS)
        assert exc_info.value.p == MAX_PIECES + 1
        assert built == []

    def test_no_quantizers_build_no_pieces(self):
        row = ((1 << 22) - 3, 7)
        columns = []
        peak = traced_peak(lambda: columns.append(evaluate_columns(SPEC, [row], [])))
        assert columns == [{name: [] for name in REPORT_FIELDS}]
        assert peak < 1 << 20
        assert evaluate_columns(SPEC, [row, (5, 1)], []) == columns[0]

    def test_peak_memory_does_not_grow_with_the_columns(self):
        # 4 columns of about 4000 pieces to a batch: 64 columns are 16
        # batches, 16 columns 4, and only the reports they keep differ
        quantizers = [
            QuantizerConfig(bits, mode)
            for bits in (1, 4, 8, 12) for mode in (QuantizationMode.FLOOR, QuantizationMode.ROUND)
        ]
        peaks = {
            n: traced_peak(lambda: evaluate_columns(
                SPEC, [(3990 + k, 7) for k in range(n)], quantizers
            ))
            for n in (16, 64)
        }
        assert peaks[64] <= 1.1 * peaks[16]

    def test_peak_memory_does_not_depend_on_freed_pairs(self):
        # CPython keeps up to 2000 freed pairs for reuse, so a call that
        # made a pair per report traced each pair or none depending on
        # what ran before it: 2.3 % of this peak, which made the bound of
        # the test above pass or fail by test order
        rows = [(3990 + k, 7) for k in range(64)]
        quantizers = [
            QuantizerConfig(bits, mode)
            for bits in (1, 4, 8, 12) for mode in (QuantizationMode.FLOOR, QuantizationMode.ROUND)
        ]
        freed = [(k, -k) for k in range(4000)]
        del freed
        reused = traced_peak(lambda: evaluate_columns(SPEC, rows, quantizers))
        held = [(k, -k) for k in range(4000)]
        fresh = traced_peak(lambda: evaluate_columns(SPEC, rows, quantizers))
        assert len(held) == 4000
        assert abs(fresh - reused) <= 0.01 * reused


# Five columns of over half a batch each: five batches of one column.
POOL_ROWS = [(metrics._BATCH_PIECES // 2 + k, 7) for k in (1, 2, 4, 5, 8)]


def on_threads(threads, fn):
    """``fn()`` called on each of ``threads`` threads at once."""
    with concurrent.futures.ThreadPoolExecutor(threads) as pool:
        return list(pool.map(lambda _: fn(), range(threads)))


class TestBatchPool:
    """evaluate_columns runs its batches in the calling thread, and a
    caller's own pool may call it on several threads at once: each call
    keeps its working sets and columns to itself, so threaded calls equal
    a serial one."""

    def test_threads_equal_serial(self):
        # four threads, more than this machine may have cores, switching
        # often: a call that wrote into another's working set or columns,
        # or a lost write, would change some report
        quantizers = MIXED_QUANTIZERS[:3]
        assert len(column_batches(POOL_ROWS)) == 5
        serial = evaluate_columns(SPEC, POOL_ROWS, quantizers)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = on_threads(4, lambda: evaluate_columns(SPEC, POOL_ROWS, quantizers))
        finally:
            sys.setswitchinterval(interval)
        assert threaded == [serial] * 4

    def test_two_threads_equal_serial(self):
        # each batch through its own working set of several groups
        quantizers = MIXED_QUANTIZERS * 2
        group_rows = metrics._COLUMN_CHUNK // max(p for p, _ in POOL_ROWS)
        assert len(quantizers) > 2 * group_rows
        serial = evaluate_columns(SPEC, POOL_ROWS, quantizers)
        assert on_threads(2, lambda: evaluate_columns(SPEC, POOL_ROWS, quantizers)) == [serial] * 2


# Multipliers (p, q) in lowest terms: no fundamental (p <= 2), ordinary
# rows, and a denominator past int64.
CONTRACT_ROWS = [(1, 1), (7, 3), (2, 3), (4099, 7), (17, 4), (3, 10**20 + 1)]


class TestReportColumnsContract:
    """Both engines return one list per field of REPORT_FIELDS, one entry
    per row and quantizer (a held row has no quantizer, a quantized one
    no row). evaluate_columns takes integer pairs (p, q), and its held
    and digitized columns read back as the cells evaluated alone; the
    quantized engine's equal its per-quantizer helpers."""

    def check_layout(self, columns, size):
        assert list(columns) == list(REPORT_FIELDS)
        for column in columns.values():
            assert type(column) is list
            assert len(column) == size

    @pytest.mark.parametrize("count", [0, 1, len(CONTRACT_ROWS)])
    @pytest.mark.parametrize("freq", [1.0, 0.37])
    def test_held_columns(self, count, freq):
        spec, rows = SignalSpec(freq), CONTRACT_ROWS[:count]
        columns = evaluate_columns(spec, rows)
        self.check_layout(columns, len(rows))
        assert reports_from_columns(columns) == [
            evaluate(WaveformModel.held(spec, TimingConfig(p, q))) for p, q in rows
        ]

    @pytest.mark.parametrize("count", [0, 1, len(CONTRACT_ROWS)])
    @pytest.mark.parametrize("quantizers", [[], MIXED_QUANTIZERS[:1], MIXED_QUANTIZERS])
    @pytest.mark.parametrize("freq", [1.0, 0.37])
    def test_evaluate_columns(self, count, quantizers, freq):
        spec, rows = SignalSpec(freq), CONTRACT_ROWS[:count]
        columns = evaluate_columns(spec, rows, quantizers)
        self.check_layout(columns, len(rows) * len(quantizers))
        # one multiplier after another: report i*len(quantizers) + b
        assert reports_from_columns(columns) == [
            evaluate(WaveformModel.digitized(spec, TimingConfig(p, q), quantizer))
            for p, q in rows for quantizer in quantizers
        ]

    @pytest.mark.parametrize("count", [0, 1, len(MIXED_QUANTIZERS)])
    @pytest.mark.parametrize("freq", [1.0, 3.3])
    def test_quantized_columns(self, count, freq):
        quantizers = MIXED_QUANTIZERS[:count]
        columns = quantized_columns(SignalSpec(freq), quantizers)
        self.check_layout(columns, count)
        assert columns["model"] == ["quantized"] * count
        assert columns["freq_hz"] == [freq] * count
        assert columns["bits"] == [quantizer.bits for quantizer in quantizers]
        assert columns["mode"] == [quantizer.mode.value for quantizer in quantizers]
        assert columns["m_num"] == columns["m_den"] == [None] * count

    @pytest.mark.parametrize("freq", [1.0, 3.3])
    def test_quantized_columns_equal_the_per_quantizer_helpers(self, freq):
        quantizers = [
            QuantizerConfig(bits, mode) for bits in range(1, 53) for mode in QuantizationMode
        ]
        expected = []
        for quantizer in quantizers:
            bound = bounds.quantization_error_bound(quantizer.bits)
            error, period = metrics._quantized_supremum(quantizer)
            expected.append((
                error, period / freq, *metrics._quantized_thd(quantizer), bound, bound,
            ))
        columns = quantized_columns(SignalSpec(freq), quantizers)
        computed = (
            "max_abs_error", "argmax_time_s", "thd_ratio", "thd_db", "paper_bound", "strict_bound"
        )
        assert list(zip(*map(columns.__getitem__, computed))) == expected

    def test_evaluate_columns_builds_no_report(self, monkeypatch):
        built = []
        original = metrics.MetricsReport.__init__

        def counted(self, *args, **kwargs):
            built.append(args)
            original(self, *args, **kwargs)

        monkeypatch.setattr(metrics.MetricsReport, "__init__", counted)
        rows = [(4, 1), (metrics._BATCH_PIECES + 1, 3), (97, 5)]
        columns = evaluate_columns(SPEC, rows, MIXED_QUANTIZERS)
        assert built == []
        assert len(reports_from_columns(columns)) == len(rows) * len(MIXED_QUANTIZERS)
        assert len(built) == len(rows) * len(MIXED_QUANTIZERS)


def held_reports(spec, timings):
    """evaluate_columns of the timings' multipliers, without quantizers,
    as reports."""
    rows = [(t.multiplier_num, t.multiplier_den) for t in timings]
    return reports_from_columns(evaluate_columns(spec, rows))


def batch_of_one_each(spec, timings):
    return [held_reports(spec, [timing])[0] for timing in timings]


class TestEvaluateHeld:
    """A batch of held rows shares one pass of array operations; each
    report equals the row evaluated alone, which equals every piece
    evaluated (see TestHeldClosedForm)."""

    @given(
        multipliers=st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=MAX_PIECES),
                st.integers(min_value=1, max_value=10**20),
            ),
            min_size=1,
            max_size=40,
        ),
        freq=st.sampled_from(FREQUENCIES),
    )
    @example(multipliers=[(MAX_PIECES, 10**20 + 1), (1, 1), (MAX_PIECES, 1)], freq=1.0)
    @settings(max_examples=100, deadline=None)
    def test_random_batches_equal_batches_of_one(self, multipliers, freq):
        spec = SignalSpec(freq)
        timings = [TimingConfig(p, q) for p, q in multipliers]
        assert held_reports(spec, timings) == batch_of_one_each(spec, timings)

    @pytest.mark.parametrize("freq", FREQUENCIES)
    def test_rows_without_fundamental_mixed_with_ordinary_rows(self, freq):
        spec = SignalSpec(freq)
        timings = [
            TimingConfig(p, q)
            for p, q in [(1, 1), (7, 3), (2, 1), (1, 10**20), (4099, 7), (2, 3), (3, 1), (1, 5)]
        ]
        reports = held_reports(spec, timings)
        assert reports == batch_of_one_each(spec, timings)
        for timing, report in zip(timings, reports):
            degenerate = timing.multiplier_num <= 2
            assert (report.thd_ratio is None) == degenerate
            assert (report.thd_db is None) == degenerate

    @pytest.mark.parametrize(
        "size", [1, HELD_BATCH - 1, HELD_BATCH, HELD_BATCH + 1]
    )
    def test_batches_around_the_held_batch(self, size):
        rng = np.random.default_rng(size)
        timings = [
            TimingConfig(int(p), int(q))
            for p, q in zip(rng.integers(1, 1 << 20, size), rng.integers(1, 17, size))
        ]
        batches = column_batches(pairs_of(timings), held=True)
        assert [len(batch) for batch in batches] == [
            len(timings[first:first + HELD_BATCH]) for first in range(0, size, HELD_BATCH)
        ]
        assert held_reports(SPEC, timings) == [
            evaluate(WaveformModel.held(SPEC, timing)) for timing in timings
        ]

    def test_empty_batch(self):
        assert evaluate_columns(SPEC, []) == {name: [] for name in REPORT_FIELDS}

    @pytest.mark.parametrize("freq", [1.0, 0.3])
    def test_argmax_is_the_earliest_attaining_piece(self, freq):
        # each piece evaluated alone is the reference; many of these rows
        # attain their supremum on more than one piece
        spec = SignalSpec(freq)
        timings = [
            TimingConfig(p, q)
            for p in range(1, 25) for q in range(1, 25) if math.gcd(p, q) == 1
        ]
        tied = 0
        for timing, report in zip(timings, held_reports(spec, timings)):
            model = WaveformModel.held(spec, timing)
            alone = [
                held_supremum(model, np.array([k]))
                for k in range(timing.multiplier_num)
            ]
            sup = max(err for err, _ in alone)
            assert report.max_abs_error == sup
            assert report.argmax_time_s == min(t for err, t in alone if err == sup)
            tied += sum(err == sup for err, _ in alone) > 1
        assert tied > 100

    @pytest.mark.parametrize("position", [0, 3, 6])
    def test_over_cap_timing_raises_before_any_pieces(self, position, monkeypatch):
        built = []
        monkeypatch.setattr(metrics, "_held_candidates", lambda *args: built.append(args))
        monkeypatch.setattr(metrics, "_Pieces", lambda *args: built.append(args))
        timings = [TimingConfig(p, 3) for p in (4, 5, 7, 11, 13, 17)]
        timings.insert(position, TimingConfig(MAX_PIECES + 1, 3))
        with pytest.raises(CapExceeded) as exc_info:
            held_reports(SPEC, timings)
        assert exc_info.value.p == MAX_PIECES + 1
        assert built == []


COPRIME_TO_64 = [
    TimingConfig(p, q) for p in range(1, 65) for q in range(1, 65) if math.gcd(p, q) == 1
]


# Rows p/q, coprime, up to the piece cap and far past int64 in q.
COPRIME_ROWS = st.tuples(
    st.integers(min_value=1, max_value=MAX_PIECES),
    st.integers(min_value=1, max_value=10**20),
).filter(lambda pq: math.gcd(*pq) == 1)

# Rows whose q mod 2p is 1, 2p - 2 or 2p - 1, at q below p, past it and
# past int64: the swing residues at the ends of [0, p), where they wrap.
SWING_EDGE_ROWS = [
    (p, q)
    for p in (1, 2, 3, 4, 5, 1001, 4099, MAX_PIECES - 3, MAX_PIECES)
    for t in (1, 2 * p - 2, 2 * p - 1)
    for q in (t, t + 2 * p, t + 2 * p * 10**12)
    if q > 0 and math.gcd(p, q) == 1
]


class TestHeldPieceMatrix:
    """_held_candidates builds the candidate residues of a whole batch as
    one fixed-width matrix; each row holds the pieces of the per-row set
    oracle, and every report equals the row evaluated from that oracle."""

    @given(rows=st.lists(COPRIME_ROWS, min_size=1, max_size=40))
    @example(
        rows=[(t.multiplier_num, t.multiplier_den) for t in COPRIME_TO_64]
        + [(MAX_PIECES, 10**20 + 1), (MAX_PIECES - 3, 1), (4099, 10**19 + 7)]
        + SWING_EDGE_ROWS
    )
    @settings(max_examples=100, deadline=None)
    def test_rows_hold_the_oracle_pieces(self, rows):
        table, residues = _held_candidates(rows)
        assert residues.shape == (len(rows), metrics._HELD_CANDIDATES)
        assert table.T.tolist() == [
            [p, q % p, 4 * min(q, p), q % (2 * p), pow(q % p, -1, p)] for p, q in rows
        ]
        repeated = 0
        for (p, q), row in zip(rows, residues.tolist()):
            assert all(0 <= r < p for r in row)
            pieces = {r * pow(q % p, -1, p) % p for r in row}
            assert pieces == set(held_pieces_by_row(p, q).tolist())
            repeated += len(pieces) < len(row)
        assert repeated == len(rows)

    @pytest.mark.parametrize("freq", [1.0, 3.7e5])
    def test_every_small_coprime_row_equals_the_row_oracle(self, freq):
        spec = SignalSpec(freq)
        assert held_reports(spec, COPRIME_TO_64) == held_rows(spec, COPRIME_TO_64)

    @given(
        multipliers=st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=MAX_PIECES),
                st.integers(min_value=1, max_value=10**20),
            ),
            min_size=1,
            max_size=40,
        ),
        freq=st.sampled_from([1.0, 3.7e5, 0.3]),
    )
    @example(multipliers=[(MAX_PIECES, 10**20), (1, 1), (2, 3), (MAX_PIECES, 1)], freq=3.7e5)
    @settings(max_examples=100, deadline=None)
    def test_random_batches_equal_the_row_oracle(self, multipliers, freq):
        spec = SignalSpec(freq)
        timings = [TimingConfig(p, q) for p, q in multipliers]
        assert held_reports(spec, timings) == held_rows(spec, timings)

    @given(
        rows=st.lists(COPRIME_ROWS, min_size=1, max_size=40),
        repeat=st.integers(min_value=1, max_value=3 * HELD_BATCH),
    )
    @example(rows=[(13, 11), (MAX_PIECES, 10**20 + 1), (MAX_PIECES - 1, 1)], repeat=HELD_BATCH)
    @settings(max_examples=60, deadline=None)
    def test_held_batches_stay_within_the_piece_budget(self, rows, repeat):
        # a row is one row of the candidate matrix, so a batch of held
        # rows holds no more candidates than the budget of a batch of
        # digitized rows holds pieces
        assert _held_candidates(rows)[1].shape == (len(rows), metrics._HELD_CANDIDATES)
        rows = (rows * repeat)[:3 * HELD_BATCH]
        batches = column_batches(rows, held=True)
        assert [row for batch in batches for row in batch] == rows
        assert [len(batch) for batch in batches[:-1]] == [HELD_BATCH] * (len(batches) - 1)
        for batch in batches:
            assert len(batch) * metrics._HELD_CANDIDATES <= metrics._BATCH_PIECES
            assert _held_candidates(batch)[1].size <= metrics._BATCH_PIECES


def test_held_thd_equals_the_row_loop():
    # every x = pi*q/p < 1 with p < 400, then seeded rows up to the cap on
    # both sides of x = 1
    rng = np.random.default_rng(9)
    rows = [(p, q) for p in range(4, 400) for q in range(1, p) if math.pi * q / p < 1.0]
    ps = rng.integers(3, MAX_PIECES, 20000, endpoint=True).tolist()
    rows += [(p, int(rng.integers(1, max(2, p // 3)))) for p in ps[:10000]]
    rows += [(p, int(rng.integers(1, 10**18))) for p in ps[10000:]]
    rows += [(MAX_PIECES, 1), (MAX_PIECES - 1, MAX_PIECES // 3), (22, 7), (113, 36)]
    ratios, dbs = metrics._held_thd(rows)
    assert list(zip(ratios, dbs)) == [held_thd_by_row(p, q) for p, q in rows]


@given(
    rows=st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=MAX_PIECES),
            st.integers(min_value=1, max_value=10**20),
        ).filter(lambda pq: math.gcd(*pq) == 1),
        max_size=40,
    )
)
@example(rows=[(1, 1), (2, 1), (3, 1), (4, 1), (7, 22), (300001, 1), (MAX_PIECES - 1, 10**20)])
def test_held_thd_columns_equal_the_row_formula(rows):
    rows += [(p, q) for p in range(1, 65) for q in range(1, 65) if math.gcd(p, q) == 1]
    ratios, dbs = metrics._held_thd(rows)
    assert list(zip(ratios, dbs)) == [held_thd_by_row(p, q) for p, q in rows]
