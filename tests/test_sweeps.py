import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import best_rational_by_exhaustion, linear_fit
from ddsmetrics.reporting import sweep_to_csv
from ddsmetrics.signals import QuantizationMode
from ddsmetrics import sweeps
from ddsmetrics.metrics import MAX_PIECES, CapExceeded
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
        assert len(result.rows) == 16
        bounds = [row.report.paper_bound for row in result.rows]
        assert all(b2 == b1 / 2 for b1, b2 in zip(bounds, bounds[1:]))

    def test_four_bit_error_within_bound(self):
        spec = SweepSpec(bits_from=4, bits_to=4)
        row = sweep_bits(spec).rows[0]
        assert row.report.max_abs_error <= 0.125

    def test_thd_improves_with_bits(self):
        spec = SweepSpec(bits_from=4, bits_to=8, bits_step=4)
        rows = sweep_bits(spec).rows
        assert rows[1].report.thd_db < rows[0].report.thd_db

    def test_round_mode_fit(self):
        spec = SweepSpec(
            bits_from=4, bits_to=12, mode=QuantizationMode.ROUND
        )
        rows = sweep_bits(spec).rows
        slope, _, r2 = linear_fit(
            [row.report.bits for row in rows],
            [row.report.thd_db for row in rows],
        )
        assert -8.0 <= slope <= -5.0
        assert r2 > 0.98


class TestSweepMultiplier:
    def test_row_per_requested_value(self):
        spec = SweepSpec(
            decades_from=1.0, decades_to=2.0, points_per_decade=5
        )
        result = sweep_multiplier(spec)
        assert result.kind == "multiplier"
        assert len(result.rows) == 6
        requested = [row.requested_multiplier for row in result.rows]
        assert requested == sorted(requested)

    def test_four_step_row_thd(self):
        spec = SweepSpec(multipliers=(4.0,))
        row = sweep_multiplier(spec).rows[0]
        assert row.report.thd_db == pytest.approx(-6.3134, abs=0.05)

    def test_large_multiplier_strict_bound(self):
        spec = SweepSpec(multipliers=(1000.0,))
        row = sweep_multiplier(spec).rows[0]
        assert row.report.max_abs_error <= 2 * math.sin(math.pi / 1000)
        assert row.report.strict_bound == pytest.approx(2 * math.sin(math.pi / 1000))

    def test_decade_spacing_of_thd(self):
        spec = SweepSpec(multipliers=(10.0, 100.0, 1000.0))
        rows = sweep_multiplier(spec).rows
        for first, second in zip(rows, rows[1:]):
            delta = second.report.thd_db - first.report.thd_db
            assert delta == pytest.approx(-20.0, abs=0.5)

    def test_subnyquist_flag(self):
        spec = SweepSpec(multipliers=(1.5, 4.0))
        rows = sweep_multiplier(spec).rows
        assert FLAG_SUBNYQUIST in rows[0].flags
        assert FLAG_SUBNYQUIST not in rows[1].flags

    @pytest.mark.parametrize(
        "sweep", [sweep_multiplier, sweep_grid], ids=["multiplier", "grid"]
    )
    def test_over_cap_multiplier_refuses_the_sweep(self, sweep, monkeypatch):
        evaluated = []
        monkeypatch.setattr(
            sweeps, "evaluate", lambda model: evaluated.append(model)
        )
        spec = SweepSpec(bits_from=2, bits_to=3, multipliers=(4.0, MAX_PIECES + 1.0))
        with pytest.raises(CapExceeded) as exc_info:
            sweep(spec, workers=2)
        assert exc_info.value.p == MAX_PIECES + 1
        assert evaluated == []

    def test_under_cap_rows_keep_thd(self):
        # 300001 pieces was past the old 2**24-sample DFT cap at 64 per step
        row = sweep_multiplier(SweepSpec(multipliers=(300_001.0,))).rows[0]
        assert row.flags == ()
        assert row.report.thd_ratio > 0

    def test_every_row_within_strict_bound(self):
        spec = SweepSpec(
            decades_from=0.5, decades_to=2.0, points_per_decade=4
        )
        for row in sweep_multiplier(spec).rows:
            assert row.report.max_abs_error <= row.report.strict_bound

    def test_snapped_values_recorded(self):
        spec = SweepSpec(multipliers=(3.1623,))
        row = sweep_multiplier(spec).rows[0]
        assert row.requested_multiplier == 3.1623
        assert (row.report.m_num, row.report.m_den) == (19, 6)

    def test_log_linear_trend(self):
        spec = SweepSpec(
            decades_from=1.0,
            decades_to=4.0,
            points_per_decade=6,
            q_max=1,
        )
        rows = sweep_multiplier(spec).rows
        slope, _, r2 = linear_fit(
            [math.log10(row.requested_multiplier) for row in rows],
            [row.report.thd_db for row in rows],
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
        keys = [
            (row.report.bits, row.requested_multiplier) for row in result.rows
        ]
        assert keys == [(2, 4.0), (2, 8.0), (3, 4.0), (3, 8.0), (4, 4.0), (4, 8.0)]

    def test_corner_comparison(self):
        spec = SweepSpec(
            bits_from=2, bits_to=12, bits_step=10,
            multipliers=(4.0, 4096.0)
        )
        rows = sweep_grid(spec).rows
        by_key = {
            (row.report.bits, row.requested_multiplier): row.report for row in rows
        }
        assert (
            by_key[(12, 4096.0)].max_abs_error < by_key[(2, 4.0)].max_abs_error
        )

    def test_low_bit_plateau(self):
        spec = SweepSpec(
            bits_from=2, bits_to=2, multipliers=(64.0, 4096.0)
        )
        rows = sweep_grid(spec).rows
        for row in rows:
            assert row.report.max_abs_error >= 0.25

    def test_every_cell_within_strict_bound(self):
        spec = SweepSpec(
            bits_from=2, bits_to=6, bits_step=2,
            multipliers=(4.0, 32.0, 256.0)
        )
        for row in sweep_grid(spec).rows:
            assert row.report.max_abs_error <= row.report.strict_bound


class TestDeterminism:
    def test_parallel_matches_sequential(self):
        spec = SweepSpec(
            bits_from=2, bits_to=5, multipliers=(4.0, 16.0, 64.0)
        )
        sequential = sweep_grid(spec, workers=1)
        parallel = sweep_grid(spec, workers=4)
        assert sweep_to_csv(sequential) == sweep_to_csv(parallel)

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
