"""Acceptance suite: one test per criterion, one printed line per outcome.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they print. Criterion 9 has two clauses and prints as 9a and 9b. Clause
9b was first written the other way round: that low-bit-count rows of the
(bits x multiplier) grid change more per multiplier decade than
high-bit-count rows. The closed-form bounds rule that out. Every row
starts at error 1 (a four-step hold), a floor-mode row cannot fall below
one quantization level, 2**(1-bits), and a high-bit row ends under the
strict combined bound. So a low-bit row reaches its quantization floor
within the first decade and changes the least. 9b now checks that
ordering, for both max error and THD, against those references.
"""

import math
import random
import time
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import brute_force_held_max_error, held_thd_closed_form, linear_fit
from ddsmetrics.bounds import digitized_bounds, held_bounds, quantization_error_bound
from ddsmetrics.charts import render_sweep
from ddsmetrics.cli import main
from oracles import (
    SamplingPlan,
    max_abs_error,
    row_column,
    row_table,
    spectrum_dft,
    spectrum_exact_staircase,
    staircase_values,
    thd,
)
from ddsmetrics.reporting import sweep_to_csv
from ddsmetrics.signals import (
    QuantizationMode,
    QuantizerConfig,
    SignalSpec,
    TimingConfig,
    WaveformModel,
)
from ddsmetrics.sweeps import SweepSpec, sweep_bits, sweep_grid, sweep_multiplier

SPEC = SignalSpec(1.0)
DEFAULT_PLAN = SamplingPlan()


@contextmanager
def criterion(label: str, title: str, budget_s: float | None = None):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"[criterion {label}] FAIL - {title} ({time.time() - start:.2f}s)")
        raise
    elapsed = time.time() - start
    if budget_s is not None:
        assert elapsed < budget_s, f"criterion {label} took {elapsed:.1f}s (budget {budget_s}s)"
    print(f"[criterion {label}] PASS - {title} ({elapsed:.2f}s)")


def held(multiplier: int) -> WaveformModel:
    return WaveformModel.held(SPEC, TimingConfig(multiplier))


def digitized(multiplier: int, bits: int) -> WaveformModel:
    return WaveformModel.digitized(
        SPEC, TimingConfig(multiplier), QuantizerConfig(bits, QuantizationMode.FLOOR)
    )


GRID_MULTIPLIERS = tuple(float(4 * 2**k) for k in range(11))  # 4 .. 4096
GRID_BITS = tuple(range(2, 13))


def grid_spec():
    return SweepSpec(
        bits_from=2,
        bits_to=12,
        multipliers=GRID_MULTIPLIERS,
    )


_GRID_CACHE: list = []


def grid_result():
    """Criterion-4 grid, computed once and reused by criteria 9 and 10."""
    if not _GRID_CACHE:
        _GRID_CACHE.append(sweep_grid(grid_spec()))
    return _GRID_CACHE[0]


def test_criterion_01_quantization_bound_and_tightness():
    with criterion("1", "one-level bound is tight for floor quantization", 5.0):
        for bits in (2, 4, 8, 12, 16):
            model = WaveformModel.quantized(
                SPEC, QuantizerConfig(bits, QuantizationMode.FLOOR)
            )
            observed, _ = max_abs_error(model, DEFAULT_PLAN)
            bound = 2.0 ** (1 - bits)
            assert observed <= bound
            assert observed >= 0.99 * bound
        column = [quantization_error_bound(b) for b in range(1, 17)]
        assert all(b2 == b1 / 2 for b1, b2 in zip(column, column[1:]))


def test_criterion_02_hold_estimate_tight_for_even_multipliers():
    with criterion("2", "hold estimate is tight for even step counts", 5.0):
        for multiplier in (8, 64, 512):
            observed, _ = max_abs_error(held(multiplier), DEFAULT_PLAN)
            reference = math.sin(2 * math.pi / multiplier)
            assert observed <= reference
            assert observed >= 0.999 * reference


def test_criterion_03_hold_estimate_is_not_a_bound_strict_is():
    with criterion("3", "odd step count beats the estimate, strict bound holds", 2.0):
        observed, _ = max_abs_error(held(5), DEFAULT_PLAN)
        assert observed > 0.9510565  # sin(2*pi/5), the printed estimate
        assert observed <= 2 * math.sin(math.pi / 5) + 1e-6
        brute = brute_force_held_max_error(5, grid_points=2_000_000)
        assert abs(observed - brute) < 1e-5
        _, [strict] = held_bounds([(5, 1)])  # f*dt = 1/5
        assert observed <= strict


def test_criterion_04_combined_bound_compliance():
    with criterion("4", "combined bound holds across the whole grid", 60.0):
        table = row_table(grid_result())
        assert len(table["m_requested"]) == len(GRID_BITS) * len(GRID_MULTIPLIERS)
        for error, strict, paper, m_num, m_den in zip(*map(table.get, (
            "max_abs_error", "strict_bound", "paper_bound", "m_num", "m_den"
        ))):
            assert error <= strict
            # every multiplier on this grid is an even integer
            assert m_den == 1 and m_num % 2 == 0
            assert error <= paper


def test_criterion_05_thd_closed_form_oracle():
    with criterion("5", "hold THD matches the closed form", 5.0):
        for multiplier in (4, 8, 16, 32, 64, 128):
            _, expected_db = held_thd_closed_form(multiplier)
            _, exact_db = thd(spectrum_exact_staircase(held(multiplier)))
            assert abs(exact_db - expected_db) <= 0.05
            _, dft_db = thd(spectrum_dft(held(multiplier), 256))
            assert abs(dft_db - expected_db) <= 0.2
        _, db4 = thd(spectrum_exact_staircase(held(4)))
        assert db4 == pytest.approx(-6.3134, abs=0.01)
        _, db32 = thd(spectrum_exact_staircase(held(32)))
        assert db32 == pytest.approx(-24.92, abs=0.05)


def test_criterion_06_oracle_equivalence_on_random_configs():
    with criterion("6", "DFT and exact spectra agree on random configs", 30.0):
        rng = random.Random(20260808)
        for _ in range(20):
            multiplier = rng.randint(3, 128)
            bits = rng.randint(2, 12)
            model = digitized(multiplier, bits)
            spectrum = spectrum_dft(model, 256)
            _, dft_db = thd(spectrum)
            _, exact_db = thd(spectrum_exact_staircase(model))
            assert abs(dft_db - exact_db) <= 0.05
            mean_square = spectrum.sample_mean_square
            captured = spectrum.dc**2 + float(np.sum(spectrum.amplitudes**2)) / 2
            assert abs(captured - mean_square) / mean_square < 1e-9


def test_criterion_07_quantization_thd_trend():
    with criterion("7", "round-quantizer THD falls linearly with bits"):
        spec = SweepSpec(
            bits_from=4,
            bits_to=12,
            mode=QuantizationMode.ROUND,
        )
        result = sweep_bits(spec)
        slope, _, r2 = linear_fit(row_column(result, "bits"), row_column(result, "thd_db"))
        assert -8.0 <= slope <= -5.0
        assert r2 > 0.98


def test_criterion_08_hold_thd_trend():
    with criterion("8", "hold THD falls 20 dB per multiplier decade"):
        spec = SweepSpec(
            decades_from=1.0,
            decades_to=4.0,
            points_per_decade=30,
            q_max=1,  # integer-snapped axis
        )
        result = sweep_multiplier(spec)
        slope, _, r2 = linear_fit(
            [math.log10(requested) for requested in result.axis],
            row_column(result, "thd_db"),
        )
        assert -21.0 <= slope <= -19.0
        assert r2 > 0.99


def _grid_tables(grid_result):
    table = row_table(grid_result)
    keys = list(zip(table["bits"], table["m_requested"]))
    return dict(zip(keys, table["max_abs_error"])), dict(zip(keys, table["thd_db"]))


def test_criterion_09a_grid_monotonicity():
    with criterion("9a", "both metrics non-increasing along both grid axes"):
        errors, distortions = _grid_tables(grid_result())
        for bits in GRID_BITS:
            for m1, m2 in zip(GRID_MULTIPLIERS, GRID_MULTIPLIERS[1:]):
                assert errors[(bits, m2)] <= errors[(bits, m1)] + 1e-9
                assert distortions[(bits, m2)] <= distortions[(bits, m1)] + 0.1
        for multiplier in GRID_MULTIPLIERS:
            for b1, b2 in zip(GRID_BITS, GRID_BITS[1:]):
                assert errors[(b2, multiplier)] <= errors[(b1, multiplier)] + 1e-9
                assert distortions[(b2, multiplier)] <= distortions[(b1, multiplier)] + 0.1


def test_criterion_09b_low_bit_rows_change_more_per_decade():
    # The function name keeps the original wording of the clause ("change
    # more"), which the data and the closed-form bounds refute; the test
    # checks the corrected ordering (see the module docstring).
    title = "low-bit rows change less per multiplier decade (quantization floor)"
    with criterion("9b", title):
        errors, distortions = _grid_tables(grid_result())
        first, last = GRID_MULTIPLIERS[0], GRID_MULTIPLIERS[-1]
        decades = math.log10(last / first)
        low_bits, high_bits = GRID_BITS[0], GRID_BITS[-1]

        def change_per_decade(table, bits):
            return abs(table[(bits, first)] - table[(bits, last)]) / decades

        # Every row starts at a four-step hold, whose error is sin(2*pi/4) = 1.
        for bits in (low_bits, high_bits):
            assert errors[(bits, first)] == pytest.approx(1.0, abs=1e-12)

        # References independent of the grid: the quantized-only model at the
        # low bit count, and the strict combined bound at the high one.
        floor_model = WaveformModel.quantized(
            SPEC, QuantizerConfig(low_bits, QuantizationMode.FLOOR)
        )
        floor_err, _ = max_abs_error(floor_model, DEFAULT_PLAN)
        _, floor_db = thd(spectrum_dft(floor_model))
        # the strict combined bounds at the last multiplier, f*dt = 1/last
        _, [low_bound, high_bound] = digitized_bounds([(int(last), 1)], [low_bits, high_bits])

        # The low-bit row ends on its quantization floor: not below it, and
        # no further above it than the hold term of the combined bound (error)
        # or the 0.05 dB DFT agreement (THD).
        low_end_err = errors[(low_bits, last)]
        low_end_db = distortions[(low_bits, last)]
        assert floor_err <= low_end_err, (
            f"{low_bits}-bit row ends at error {low_end_err:.7f}, "
            f"below its quantized-only floor {floor_err:.7f}"
        )
        assert low_end_err <= low_bound
        assert floor_db <= low_end_db <= floor_db + 0.05, (
            f"{low_bits}-bit row ends at THD {low_end_db:.3f} dB, "
            f"quantized-only floor is {floor_db:.3f} dB"
        )
        # The high-bit row ends under the strict combined bound.
        assert errors[(high_bits, last)] <= high_bound

        # With the end points pinned above, those references alone fix the
        # ordering of the error rates: the low-bit row falls at most to its
        # floor, the high-bit row at least to its bound.
        low_err_rate = change_per_decade(errors, low_bits)
        high_err_rate = change_per_decade(errors, high_bits)
        low_err_rate_max = (errors[(low_bits, first)] - floor_err) / decades
        high_err_rate_min = (errors[(high_bits, first)] - high_bound) / decades
        assert low_err_rate_max < high_err_rate_min
        assert low_err_rate < high_err_rate, (
            f"error per decade: {low_bits}-bit row {low_err_rate:.4f}, "
            f"{high_bits}-bit row {high_err_rate:.4f}"
        )

        # THD: the low-bit row falls at most to its quantization floor; the
        # high-bit row tracks the hold distortion's 20 dB/decade fall
        # (criterion 8's band).
        low_db_rate = change_per_decade(distortions, low_bits)
        high_db_rate = change_per_decade(distortions, high_bits)
        low_db_rate_max = (distortions[(low_bits, first)] - floor_db) / decades
        assert low_db_rate_max < 19.0
        assert 19.0 <= high_db_rate <= 21.0, (
            f"{high_bits}-bit row THD falls {high_db_rate:.2f} dB/decade"
        )
        assert low_db_rate < high_db_rate, (
            f"THD per decade: {low_bits}-bit row {low_db_rate:.2f} dB, "
            f"{high_bits}-bit row {high_db_rate:.2f} dB"
        )


def test_criterion_10_determinism_under_parallelism(tmp_path):
    with criterion("10", "parallel and serial sweeps are byte-identical"):
        outputs = []
        for workers in ("1", "4"):
            csv, svg = tmp_path / f"grid-{workers}.csv", tmp_path / f"grid-{workers}.svg"
            assert main([
                "sweep", "grid", "--bits-from", str(GRID_BITS[0]), "--bits-to", str(GRID_BITS[-1]),
                "--multipliers", ",".join(map(repr, GRID_MULTIPLIERS)),
                "--out", str(csv), "--svg", str(svg), "--workers", workers,
            ]) == 0
            outputs.append((csv.read_bytes(), svg.read_bytes()))
        assert outputs[0] == outputs[1]
        assert outputs[0][0] == sweep_to_csv(grid_result()).encode()
        assert outputs[0][1] == render_sweep(grid_result(), "error").encode()


def test_criterion_11_trivial_anchors():
    with criterion("11", "target is error-free; two-step hold is zero"):
        target = WaveformModel.target(SPEC)
        err, _ = max_abs_error(target, DEFAULT_PLAN)
        assert err == 0.0
        ratio, _ = thd(spectrum_dft(target))
        assert ratio < 1e-9

        two_step = held(2)
        assert np.all(staircase_values(two_step) == 0.0)
        for t in (0.0, 0.1, 0.3, 0.5, 0.77):
            assert two_step.sample(t) == 0.0
        err, argmax = max_abs_error(two_step, DEFAULT_PLAN)
        assert err == 1.0
        assert argmax == 0.25
