import math
import os
import pathlib
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import best_rational_by_exhaustion, linear_fit
from oracles import result_from_rows, row_column, row_table, rows_table, snap_by_fraction
from ddsmetrics import reporting
from ddsmetrics.charts import render_sweep
from ddsmetrics.reporting import sweep_to_csv
from ddsmetrics.signals import (
    QuantizationMode,
    QuantizerConfig,
    SignalSpec,
    TimingConfig,
    WaveformModel,
)
from ddsmetrics import metrics, sweeps
from ddsmetrics.metrics import (
    MAX_PIECES,
    CapExceeded,
    MetricsReport,
    evaluate,
    reports_from_columns,
)
from ddsmetrics.sweeps import (
    FLAG_SUBNYQUIST,
    SweepSpec,
    multiplier_axis,
    snap_multiplier,
    sweep_bits,
    sweep_grid,
    sweep_multiplier,
)


class TestSnapMultiplier:
    def test_integer_passes_through(self):
        timing = snap_multiplier(64.0, 16)
        assert (timing.multiplier_num, timing.multiplier_den) == (64, 1)

    def test_exact_rational(self):
        timing = snap_multiplier(0.5, 16)
        assert (timing.multiplier_num, timing.multiplier_den) == (1, 2)

    def test_closest_rational_to_sqrt_ten(self):
        # exhaustive search over q <= 16 gives 19/6 (|19/6 - 3.1623| ~ 0.0044)
        timing = snap_multiplier(3.1623, 16)
        assert (timing.multiplier_num, timing.multiplier_den) == (19, 6)

    def test_ties_prefer_smaller_denominator(self):
        timing = snap_multiplier(2.5, 16)
        assert (timing.multiplier_num, timing.multiplier_den) == (5, 2)
        # midpoint between 2/1 and 3/1 with q_max 1: both are 0.5 away
        timing = snap_multiplier(2.5, 1)
        assert (timing.multiplier_num, timing.multiplier_den) == (2, 1)

    @given(
        requested=st.floats(min_value=0.01, max_value=1e5, allow_nan=False),
        q_max=st.integers(min_value=1, max_value=20),
    )
    @settings(max_examples=200)
    def test_matches_exhaustive_oracle(self, requested, q_max):
        timing = snap_multiplier(requested, q_max)
        p, q = best_rational_by_exhaustion(requested, q_max)
        assert Fraction(timing.multiplier_num, timing.multiplier_den) == Fraction(p, q)
        assert timing.multiplier_den <= q_max

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            snap_multiplier(0.0, 16)


def neighbour_midpoints(q_max, lo, hi):
    """Exact midpoints of neighbouring fractions p/q with q <= q_max in
    [lo, hi]: the requests that tie between two candidates."""
    grid = sorted(
        {
            Fraction(p, q)
            for q in range(1, q_max + 1)
            for p in range(math.ceil(lo * q), math.floor(hi * q) + 1)
        }
    )
    return [(a + b) / 2 for a, b in zip(grid, grid[1:])]


class TestContinuedFractionSnapping:
    @pytest.mark.parametrize("q_max", range(1, 65))
    def test_matches_exhaustion_on_dense_requests(self, q_max):
        # The midpoints cover all of [0, 2] at small q_max and a 1/16
        # window that moves with q_max above it, so the exhaustive search
        # stays cheap; the float grid shifts with q_max too.
        if q_max <= 16:
            lo, hi = Fraction(0), Fraction(2)
        else:
            lo = Fraction(q_max % 16, 16) + q_max % 3
            hi = lo + Fraction(1, 16)
        midpoints = neighbour_midpoints(q_max, lo, hi)
        requests = (
            [10.0 ** ((k + q_max / 64) / 4) for k in range(-16, 21)]
            + midpoints
            + [Fraction(99, 200 * q_max), 1 / (2 * q_max) * 0.999, 1e-300, 5e-324]
            + [1.7e308, math.nextafter(1.7e308, 0), sys.float_info.max]
        )
        for requested in requests:
            timing = snap_multiplier(requested, q_max)
            assert (timing.multiplier_num, timing.multiplier_den) == (
                best_rational_by_exhaustion(requested, q_max)
            ), requested

    def test_worst_case_qmax_takes_a_few_steps(self):
        # The exhaustive search would take 10**12 steps here: a subprocess
        # with a timeout fails instead of hanging.
        code = (
            "import math\n"
            "from fractions import Fraction\n"
            "from ddsmetrics.sweeps import snap_multiplier\n"
            "t = snap_multiplier(3.7, 10**12)\n"
            "u = snap_multiplier(math.pi, 10**12)\n"
            "v = Fraction(math.pi).limit_denominator(10**12)\n"
            "print(t.multiplier_num, t.multiplier_den, u.multiplier_num,"
            " u.multiplier_den, v.numerator, v.denominator)\n"
        )
        src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, env=env, timeout=30,
        )
        assert proc.returncode == 0, proc.stderr
        p, q, p_pi, q_pi, p_ref, q_ref = map(int, proc.stdout.split())
        assert (p, q) == (37, 10)
        assert (p_pi, q_pi) == (p_ref, q_ref)
        assert q_pi > 10**11


QMAXES = [1, 2, 3, 16, 64, 1000, 65537, 10**6, 2**31 + 11, 10**12]


def farey_midpoints(q_max):
    """Exact midpoints between a/b and its right neighbour c/d among the
    fractions with denominators up to q_max (b*c - a*d = 1, d the largest
    such denominator): the requests that tie between two candidates."""
    points = []
    for a, b in [(0, 1), (1, 1), (3, 1), (1, 3), (7, 5), (22, 7), (355, 113), (10**6 + 1, 7)]:
        if b <= q_max:
            low = -pow(a, -1, b) % b  # d = -a**-1 mod b
            d = low + (q_max - low) // b * b
            c = (1 + a * d) // b
            points.append((Fraction(a, b) + Fraction(c, d)) / 2)
    return points


class TestSnapWithoutFraction:
    """snap_multiplier walks the continued fraction of the request's
    integer ratio; the result equals the walk on ``Fraction(request)``."""

    @pytest.mark.parametrize("q_max", QMAXES)
    def test_dense_requests(self, q_max):
        requests = [10.0 ** (k / 977) for k in range(-4000, 4001)]
        requests += [m * (1 + 2.0**-52 * j) for m in (0.5, 1.0, 3.0, 7.5) for j in range(-8, 9)]
        for requested in requests:
            assert snap_multiplier(requested, q_max) == snap_by_fraction(requested, q_max)

    @pytest.mark.parametrize("q_max", QMAXES)
    def test_exact_midpoints(self, q_max):
        midpoints = farey_midpoints(q_max) + [k + 0.5 for k in range(50)]
        midpoints += [(2 * k + 1) / 2.0**j for j in range(1, 12) for k in range(40)]
        midpoints += [float(m) for m in farey_midpoints(q_max) if Fraction(float(m)) == m]
        for requested in midpoints:
            assert snap_multiplier(requested, q_max) == snap_by_fraction(requested, q_max)

    @pytest.mark.parametrize("q_max", QMAXES)
    def test_subnormal_and_extreme_requests(self, q_max):
        requests = [5e-324, 1e-323, 2.0**-1060 * 3, 2.2250738585072009e-308,
                    2.2250738585072014e-308, 1e-300, 1 / (2 * q_max), sys.float_info.max]
        for requested in requests:
            assert snap_multiplier(requested, q_max) == snap_by_fraction(requested, q_max)

    def test_ints_and_fractions(self):
        for requested in (3, 10**30 + 1, Fraction(22, 7), Fraction(10**20 + 1, 3 * 10**19)):
            for q_max in QMAXES:
                assert snap_multiplier(requested, q_max) == snap_by_fraction(requested, q_max)

    @pytest.mark.parametrize("requested", [0.0, -0.0, -1.5, math.inf, -math.inf, math.nan])
    def test_refuses_what_the_oracle_refuses(self, requested):
        with pytest.raises((ValueError, OverflowError)) as oracle:
            snap_by_fraction(requested, 16)
        with pytest.raises(oracle.type) as snapped:
            snap_multiplier(requested, 16)
        assert str(snapped.value) == str(oracle.value)


class TestMultiplierAxis:
    def test_default_axis_has_106_points(self):
        axis = multiplier_axis(0.5, 4.0, 30)
        assert len(axis) == 106
        assert axis[0] == pytest.approx(10**0.5)
        assert axis[-1] == pytest.approx(1e4)

    def test_log_spacing(self):
        axis = multiplier_axis(1.0, 3.0, 10)
        ratios = [b / a for a, b in zip(axis, axis[1:])]
        assert all(r == pytest.approx(10**0.1, rel=1e-12) for r in ratios)


class TestSweepBits:
    def test_rows_and_bound_column(self):
        spec = SweepSpec(bits_from=1, bits_to=16)
        result = sweep_bits(spec)
        assert result.kind == "bits"
        bounds = row_column(result, "paper_bound")
        assert len(bounds) == 16
        assert all(b2 == b1 / 2 for b1, b2 in zip(bounds, bounds[1:]))

    def test_four_bit_error_within_bound(self):
        spec = SweepSpec(bits_from=4, bits_to=4)
        [error] = row_column(sweep_bits(spec), "max_abs_error")
        assert error <= 0.125

    def test_thd_improves_with_bits(self):
        spec = SweepSpec(bits_from=4, bits_to=8, bits_step=4)
        thd_db = row_column(sweep_bits(spec), "thd_db")
        assert thd_db[1] < thd_db[0]

    def test_round_mode_fit(self):
        spec = SweepSpec(
            bits_from=4, bits_to=12, mode=QuantizationMode.ROUND
        )
        result = sweep_bits(spec)
        slope, _, r2 = linear_fit(row_column(result, "bits"), row_column(result, "thd_db"))
        assert -8.0 <= slope <= -5.0
        assert r2 > 0.98


class TestSweepMultiplier:
    def test_row_per_requested_value(self):
        spec = SweepSpec(
            decades_from=1.0, decades_to=2.0, points_per_decade=5
        )
        result = sweep_multiplier(spec)
        assert result.kind == "multiplier"
        requested = result.axis
        assert len(requested) == len(list(result.row_reports())) == 6
        assert requested == sorted(requested)

    def test_four_step_row_thd(self):
        spec = SweepSpec(multipliers=(4.0,))
        [thd_db] = row_column(sweep_multiplier(spec), "thd_db")
        assert thd_db == pytest.approx(-6.3134, abs=0.05)

    def test_large_multiplier_strict_bound(self):
        spec = SweepSpec(multipliers=(1000.0,))
        result = sweep_multiplier(spec)
        [error], [strict] = row_column(result, "max_abs_error"), row_column(result, "strict_bound")
        assert error <= 2 * math.sin(math.pi / 1000)
        assert strict == pytest.approx(2 * math.sin(math.pi / 1000))

    def test_decade_spacing_of_thd(self):
        spec = SweepSpec(multipliers=(10.0, 100.0, 1000.0))
        thd_db = row_column(sweep_multiplier(spec), "thd_db")
        for first, second in zip(thd_db, thd_db[1:]):
            assert second - first == pytest.approx(-20.0, abs=0.5)

    def test_subnyquist_flag(self):
        spec = SweepSpec(multipliers=(1.5, 4.0))
        flags = row_column(sweep_multiplier(spec), "flags")
        assert FLAG_SUBNYQUIST in flags[0]
        assert FLAG_SUBNYQUIST not in flags[1]

    @pytest.mark.parametrize("sweep", [sweep_multiplier, sweep_grid], ids=["multiplier", "grid"])
    def test_over_cap_multiplier_refuses_the_sweep(self, sweep, monkeypatch):
        # the engine's row evaluators, recorded: no row may reach them
        evaluated = []
        for name in ("_Pieces", "_held_suprema"):
            monkeypatch.setattr(metrics, name, lambda *args: evaluated.append(args))
        spec = SweepSpec(bits_from=2, bits_to=3, multipliers=(4.0, MAX_PIECES + 1.0))
        with pytest.raises(CapExceeded) as exc_info:
            sweep(spec)
        assert exc_info.value.p == MAX_PIECES + 1
        assert evaluated == []

    @pytest.mark.parametrize("sweep", [sweep_multiplier, sweep_grid], ids=["multiplier", "grid"])
    @pytest.mark.parametrize("last", [97.0, MAX_PIECES + 1.0])
    def test_one_cap_check_per_sweep(self, sweep, last, monkeypatch):
        # the engine's check, on the distinct snapped pairs in order
        checked = []
        original = metrics.check_pieces

        def counted(rows):
            checked.append(list(rows))
            return original(rows)

        # a sweep that imported the check under its own name counts too
        monkeypatch.setattr(metrics, "check_pieces", counted)
        monkeypatch.setattr(sweeps, "check_pieces", counted, raising=False)
        spec = SweepSpec(bits_from=2, bits_to=3, multipliers=(4.0, 0.5, 4.0, last))
        if last > MAX_PIECES:
            with pytest.raises(CapExceeded):
                sweep(spec)
        else:
            sweep(spec)
        assert checked == [[(4, 1), (1, 2), (int(last), 1)]]

    def test_under_cap_rows_keep_thd(self):
        # 300001 pieces was past the old 2**24-sample DFT cap at 64 per step
        result = sweep_multiplier(SweepSpec(multipliers=(300_001.0,)))
        assert row_column(result, "flags") == [()]
        assert row_column(result, "thd_ratio")[0] > 0

    def test_every_row_within_strict_bound(self):
        spec = SweepSpec(
            decades_from=0.5, decades_to=2.0, points_per_decade=4
        )
        result = sweep_multiplier(spec)
        for error, strict in zip(
            row_column(result, "max_abs_error"), row_column(result, "strict_bound")
        ):
            assert error <= strict

    def test_snapped_values_recorded(self):
        spec = SweepSpec(multipliers=(3.1623,))
        result = sweep_multiplier(spec)
        assert result.axis == [3.1623]
        assert (row_column(result, "m_num"), row_column(result, "m_den")) == ([19], [6])

    def test_log_linear_trend(self):
        spec = SweepSpec(
            decades_from=1.0,
            decades_to=4.0,
            points_per_decade=6,
            q_max=1,
        )
        result = sweep_multiplier(spec)
        slope, _, r2 = linear_fit(
            [math.log10(requested) for requested in result.axis],
            row_column(result, "thd_db"),
        )
        assert -21.0 <= slope <= -19.0
        assert r2 > 0.99


class TestSweepGrid:
    def test_row_major_order(self):
        spec = SweepSpec(
            bits_from=2, bits_to=4, multipliers=(4.0, 8.0)
        )
        result = sweep_grid(spec)
        assert result.kind == "grid"
        table = row_table(result)
        keys = list(zip(table["bits"], table["m_requested"]))
        assert keys == [(2, 4.0), (2, 8.0), (3, 4.0), (3, 8.0), (4, 4.0), (4, 8.0)]

    def test_corner_comparison(self):
        spec = SweepSpec(
            bits_from=2, bits_to=12, bits_step=10,
            multipliers=(4.0, 4096.0)
        )
        table = row_table(sweep_grid(spec))
        by_key = dict(zip(zip(table["bits"], table["m_requested"]), table["max_abs_error"]))
        assert by_key[(12, 4096.0)] < by_key[(2, 4.0)]

    def test_low_bit_plateau(self):
        spec = SweepSpec(
            bits_from=2, bits_to=2, multipliers=(64.0, 4096.0)
        )
        for error in row_column(sweep_grid(spec), "max_abs_error"):
            assert error >= 0.25

    def test_every_cell_within_strict_bound(self):
        spec = SweepSpec(
            bits_from=2, bits_to=6, bits_step=2,
            multipliers=(4.0, 32.0, 256.0)
        )
        result = sweep_grid(spec)
        for error, strict in zip(
            row_column(result, "max_abs_error"), row_column(result, "strict_bound")
        ):
            assert error <= strict


class TestDeterminism:
    def test_repeat_runs_are_identical(self):
        spec = SweepSpec(
            decades_from=0.5, decades_to=1.5, points_per_decade=3
        )
        assert sweep_to_csv(sweep_multiplier(spec)) == sweep_to_csv(
            sweep_multiplier(spec)
        )


class TestSweepSpecValidation:
    def test_bit_range(self):
        with pytest.raises(ValueError):
            SweepSpec(bits_from=0)
        with pytest.raises(ValueError):
            SweepSpec(bits_from=8, bits_to=4)
        with pytest.raises(ValueError):
            SweepSpec(bits_to=60)

    def test_points_per_decade(self):
        with pytest.raises(ValueError):
            SweepSpec(points_per_decade=0)

    def test_q_max_within_the_float_range(self):
        assert SweepSpec(q_max=int(sys.float_info.max)).q_max == int(sys.float_info.max)
        for q_max in (0, int(sys.float_info.max) + 1, 10**400):
            with pytest.raises(ValueError, match="q_max"):
                SweepSpec(q_max=q_max)


def per_cell_rows(spec):
    """The grid's rows evaluated one cell at a time, row-major with bits
    outermost, as a :func:`oracles.row_table`: the reference for the
    column engine."""
    signal = SignalSpec(1.0)
    axis = []
    for requested in spec.multiplier_axis():
        timing = snap_multiplier(requested, spec.q_max)
        flags = (FLAG_SUBNYQUIST,) if timing.multiplier < 2 else ()
        axis.append((requested, timing, flags))
    return rows_table(
        (requested, evaluate(WaveformModel.digitized(
            signal, timing, QuantizerConfig(bits, spec.mode)
        )), flags)
        for bits in spec.bits_axis()
        for requested, timing, flags in axis
    )


class TestGridColumns:
    """The grid evaluates its distinct multipliers' columns of bit counts
    in batches of consecutive columns and puts the rows back in row-major
    order, equal to evaluating every cell alone."""

    @pytest.mark.parametrize("mode", list(QuantizationMode))
    @pytest.mark.parametrize("bits_step", [1, 3])
    def test_rows_equal_per_cell_evaluate(self, mode, bits_step):
        # 4 three times, and 3.001 and 3.002, which both snap to 3/1;
        # 0.5 is sub-Nyquist and 1.5 has a denominator
        spec = SweepSpec(
            bits_from=1, bits_to=13, bits_step=bits_step, mode=mode, q_max=100,
            multipliers=(4.0, 0.5, 1.5, 4.0, 3.001, 3.002, 97.0, 1000.0, 4.0),
        )
        assert snap_multiplier(3.001, 100) == snap_multiplier(3.002, 100)
        assert row_table(sweep_grid(spec)) == per_cell_rows(spec)

    def test_repeated_multipliers_evaluate_one_column(self, monkeypatch):
        calls = []
        original = sweeps.evaluate_columns

        def counted(signal, rows, quantizers):
            calls.append(list(rows))
            return original(signal, rows, quantizers)

        monkeypatch.setattr(sweeps, "evaluate_columns", counted)
        # 3.001 and 3.002 both snap to 3/1; 20000 is a batch of its own
        spec = SweepSpec(
            bits_from=1, bits_to=6, q_max=100,
            multipliers=(4.0, 3.001, 3.002, 4.0, 97.0, 4.0, 20000.0, 1.5, 97.0),
        )
        result = sweep_grid(spec)
        assert calls == [[(4, 1), (3, 1), (97, 1), (20000, 1), (3, 2)]]
        assert len(metrics.column_batches(calls[0])) == 3
        assert row_table(result) == per_cell_rows(spec)

    def test_batches_equal_per_cell_evaluate(self):
        # 20000 and 17000 are batches of their own and cut the smaller
        # columns into three more
        spec = SweepSpec(
            bits_from=1, bits_to=4, q_max=16,
            multipliers=(5.0, 20000.0, 3.5, 17000.0, 1.0, 2.0, 6000.0, 9000.0),
        )
        _, pairs, _ = sweeps._snapped_axis(spec)
        batches = metrics.column_batches(pairs)
        assert len(batches) == 5
        assert row_table(sweep_grid(spec)) == per_cell_rows(spec)


def per_row_multiplier_rows(spec):
    """The multiplier sweep's rows evaluated one at a time, as a
    :func:`oracles.row_table`: the reference for the held batches."""
    signal = SignalSpec(1.0)
    rows = []
    for requested in spec.multiplier_axis():
        timing = snap_multiplier(requested, spec.q_max)
        flags = (FLAG_SUBNYQUIST,) if timing.multiplier < 2 else ()
        rows.append((requested, evaluate(WaveformModel.held(signal, timing)), flags))
    return rows_table(rows)


# The held rows of a full batch of evaluate_columns.
HELD_BATCH = metrics._BATCH_PIECES // metrics._HELD_CANDIDATES


class TestHeldBatches:
    """The multiplier sweep evaluates its distinct snapped timings in
    one call of evaluate_columns, without quantizers, which takes them in
    batches of ``HELD_BATCH`` rows, equal to evaluating every row alone."""

    @pytest.mark.parametrize("size", [1, HELD_BATCH - 1, HELD_BATCH, HELD_BATCH + 1])
    def test_rows_around_the_batch_equal_per_row_evaluate(self, size):
        spec = SweepSpec(multipliers=tuple(3.0 + k / 7.0 for k in range(size)))
        _, pairs, _ = sweeps._snapped_axis(spec)
        assert len(pairs) == size
        assert row_table(sweep_multiplier(spec)) == per_row_multiplier_rows(spec)

    def test_three_batches_equal_per_row_evaluate(self):
        # q_max 1000 keeps 3361 distinct timings: three batches
        spec = SweepSpec(
            decades_from=0.5, decades_to=1.7, points_per_decade=2800, q_max=1000
        )
        _, pairs, _ = sweeps._snapped_axis(spec)
        assert 2 * HELD_BATCH < len(pairs) <= 3 * HELD_BATCH
        assert len(metrics.column_batches(pairs, held=True)) == 3
        assert row_table(sweep_multiplier(spec)) == per_row_multiplier_rows(spec)

    def test_repeated_multipliers_evaluate_one_row(self, monkeypatch):
        batches = []
        original = sweeps.evaluate_columns

        def counted(signal, rows, *quantizers):
            batches.append((list(rows), quantizers))
            return original(signal, rows, *quantizers)

        monkeypatch.setattr(sweeps, "evaluate_columns", counted)
        spec = SweepSpec(
            q_max=100, multipliers=(4.0, 0.5, 1.5, 4.0, 3.001, 3.002, 97.0, 1000.0, 4.0)
        )
        result = sweep_multiplier(spec)
        assert batches == [([(4, 1), (1, 2), (3, 2), (3, 1), (97, 1), (1000, 1)], ())]
        assert row_table(result) == per_row_multiplier_rows(spec)

    def test_peak_memory_is_one_chunks(self):
        # about 0.8 KB per row of a batch: 6.3 MB if the axis were one batch
        spec = SweepSpec(multipliers=tuple(multiplier_axis(0.5, 4.5, 2048)[:8192]))
        tracemalloc.start()
        try:
            result = sweep_multiplier(spec)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(result.axis) == 8192
        assert peak - kept < 4 << 20


# A multiplier axis longer than a CSV chunk: a log axis whose points snap
# to shared multipliers at q_max 8, 4 three times, 3.001 and 3.002 (both
# 3/1), 0.5 (1/2: p < 3, so no THD, and sub-Nyquist), 1.5 (sub-Nyquist),
# and requests outside [1e-4, 1e6): 5e-5 snaps to 1/8, 2e6 stays.
SHARED_AXIS = (
    *multiplier_axis(-0.5, 3.0, 80), 4.0, 3.001, 3.002, 4.0, 0.5, 1.5, 5e-5, 2e6, 4.0
)


def outputs(result):
    return sweep_to_csv(result), render_sweep(result, "error"), render_sweep(result, "thd")


def row_pairs(result):
    """Each row's (requested multiplier, report), with the reports built
    from the columns: rows that share a report share one object."""
    reports = reports_from_columns(result.reports)
    return [
        (requested, reports[k])
        for requested, k in zip(result.axis * result.width, result.row_reports())
    ]


class TestColumnarResult:
    """A sweep's result holds columns; its CSV and charts, written from
    the columns, have the bytes of the same rows given one by one (see
    ``oracles.result_from_rows``)."""

    @pytest.mark.parametrize("mode", list(QuantizationMode))
    def test_bits_outputs_equal_the_rows_result(self, mode):
        result = sweep_bits(SweepSpec(bits_from=1, bits_to=52, mode=mode))
        from_rows = result_from_rows("bits", row_pairs(result), result.spec)
        assert outputs(result) == outputs(from_rows)

    def test_multiplier_outputs_equal_the_rows_result(self):
        result = sweep_multiplier(SweepSpec(multipliers=SHARED_AXIS, q_max=8))
        rows = row_pairs(result)
        assert len(rows) > reporting._CSV_CHUNK
        assert len({id(report) for _, report in rows}) < len(rows)
        assert any(report.thd_db is None for _, report in rows)
        assert (FLAG_SUBNYQUIST,) in row_column(result, "flags")
        assert outputs(result) == outputs(result_from_rows("multiplier", rows, result.spec))

    @pytest.mark.parametrize("mode", list(QuantizationMode))
    def test_grid_outputs_equal_the_rows_result(self, mode):
        # the grid chart has one cell per requested multiplier, so the
        # axis repeats none; 3.001 and 3.002 still share a column
        axis = (*multiplier_axis(-0.5, 3.0, 6), 3.001, 3.002, 0.5, 5e-5, 2e6)
        spec = SweepSpec(bits_from=1, bits_to=40, bits_step=3, mode=mode, multipliers=axis)
        result = sweep_grid(spec)
        rows = row_pairs(result)
        assert len(rows) > reporting._CSV_CHUNK
        assert len({id(report) for _, report in rows}) < len(rows)
        assert any(report.thd_db is None for _, report in rows)
        assert outputs(result) == outputs(result_from_rows("grid", rows, spec))

    def test_a_grid_keeps_its_axis_once(self):
        # 30,001 axis points by 52 bit counts: the result keeps the axis,
        # each point's position and the distinct reports, nothing per row
        spec = SweepSpec(
            bits_from=1, bits_to=52, decades_from=0.5, decades_to=0.8, points_per_decade=100_000
        )
        tracemalloc.start()
        try:
            result = sweep_grid(spec)
            kept, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert kept < 16 << 20
        assert len(result.axis) * result.width == 1_560_052

    def test_writing_a_multiplier_sweep_builds_no_row_objects(self, monkeypatch):
        built = []

        def counting(cls, method):
            original = getattr(cls, method)

            def counted(self, *args, **kwargs):
                built.append(cls.__name__)
                original(self, *args, **kwargs)

            monkeypatch.setattr(cls, method, counted)

        counting(MetricsReport, "__init__")
        counting(TimingConfig, "__post_init__")
        spec = SweepSpec(multipliers=SHARED_AXIS, q_max=8)
        result = sweep_multiplier(spec)
        outputs(result)
        assert built == []
        assert row_table(result) == per_row_multiplier_rows(spec)
