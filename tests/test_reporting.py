import json
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ddsmetrics.metrics import MetricsReport
from ddsmetrics.reporting import (
    BITS_HEADER,
    GRID_HEADER,
    JSON_KEYS,
    MULTIPLIER_HEADER,
    csv_field,
    fmt_float,
    parse_csv,
    report_to_csv,
    report_to_json,
    sweep_to_csv,
)
from ddsmetrics.sweeps import SweepSpec, sweep_bits, sweep_grid, sweep_multiplier


def sample_report(**overrides):
    fields = dict(
        model="digitized",
        freq_hz=1.0,
        bits=8,
        mode="floor",
        m_num=64,
        m_den=1,
        max_abs_error=0.1,
        argmax_time_s=0.25,
        thd_ratio=0.01,
        thd_db=-40.0,
        paper_bound=0.105,
        strict_bound=0.106,
    )
    fields.update(overrides)
    return MetricsReport(**fields)


class TestFmtFloat:
    def test_plain_decimal_range(self):
        assert fmt_float(0.0001) == "0.0001"
        assert fmt_float(1.0) == "1.0"
        assert fmt_float(-12345.678) == "-12345.678"
        assert fmt_float(999999.5) == "999999.5"

    def test_scientific_outside_range(self):
        assert fmt_float(1e-5) == "1e-05"
        assert "e" in fmt_float(2e6)
        assert "E" not in fmt_float(2e6)
        assert float(fmt_float(2e6)) == 2e6

    def test_zero(self):
        assert fmt_float(0.0) == "0"

    def test_rejects_non_finite(self):
        for value in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError):
                fmt_float(value)

    @given(
        x=st.floats(allow_nan=False, allow_infinity=False)
        | st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)
    )
    def test_round_trip_exact(self, x):
        assert float(fmt_float(x)) == x

    @given(x=st.floats(allow_nan=False, allow_infinity=False))
    def test_style_rules(self, x):
        s = fmt_float(x)
        if x != 0 and 1e-4 <= abs(x) < 1e6:
            assert "e" not in s
        elif x != 0:
            assert "e" in s
        assert "E" not in s


class TestCsvField:
    def test_none_is_empty(self):
        assert csv_field(None) == ""

    def test_int_plain(self):
        assert csv_field(64) == "64"

    def test_string_passthrough(self):
        assert csv_field("floor") == "floor"


class TestReportSerialization:
    def test_json_keys_and_values(self):
        text = report_to_json(sample_report())
        data = json.loads(text)
        assert tuple(data.keys()) == JSON_KEYS
        assert data["model"] == "digitized"
        assert data["bits"] == 8
        assert data["schema_version"] == 1

    def test_json_round_trips_floats(self):
        report = sample_report(max_abs_error=0.1 + 1e-17, thd_db=-40.123456789012345)
        data = json.loads(report_to_json(report))
        assert data["max_abs_error"] == report.max_abs_error
        assert data["thd_db"] == report.thd_db

    def test_json_absent_fields_are_null(self):
        data = json.loads(
            report_to_json(sample_report(thd_ratio=None, thd_db=None, bits=None))
        )
        assert data["thd_ratio"] is None
        assert data["bits"] is None

    def test_csv_single_report(self):
        _, header, rows = parse_csv(report_to_csv(sample_report()))
        assert header == list(JSON_KEYS)
        assert len(rows) == 1
        assert rows[0][0] == "digitized"


class TestSweepCsv:
    def test_bits_schema(self):
        result = sweep_bits(SweepSpec(bits_from=1, bits_to=4))
        comments, header, rows = parse_csv(sweep_to_csv(result))
        assert header == BITS_HEADER.split(",")
        assert len(rows) == 4
        assert comments and all(c.startswith("#") for c in comments)
        # bound column halves exactly and round-trips exactly
        bounds = [float(row[4]) for row in rows]
        assert bounds == [1.0, 0.5, 0.25, 0.125]

    def test_multiplier_schema_and_flags(self):
        spec = SweepSpec(multipliers=(1.5, 4.0))
        result = sweep_multiplier(spec)
        _, header, rows = parse_csv(sweep_to_csv(result))
        assert header == MULTIPLIER_HEADER.split(",")
        assert rows[0][-1] == "subnyquist"
        assert rows[1][-1] == "-"
        assert [row[0] for row in rows] == ["1.5", "4.0"]
        assert [row[1] for row in rows] == ["3", "4"]
        assert [row[2] for row in rows] == ["2", "1"]

    def test_grid_schema(self):
        spec = SweepSpec(bits_from=2, bits_to=3, multipliers=(4.0, 8.0))
        result = sweep_grid(spec)
        _, header, rows = parse_csv(sweep_to_csv(result))
        assert header == GRID_HEADER.split(",")
        assert [row[0] for row in rows] == ["2", "2", "3", "3"]

    def test_numeric_round_trip(self):
        spec = SweepSpec(
            decades_from=0.5, decades_to=1.5, points_per_decade=4
        )
        result = sweep_multiplier(spec)
        _, _, rows = parse_csv(sweep_to_csv(result))
        for parsed, row in zip(rows, result.rows):
            assert float(parsed[0]) == row.requested_multiplier
            assert float(parsed[3]) == row.report.max_abs_error
            assert float(parsed[4]) == row.report.paper_bound
            assert float(parsed[5]) == row.report.strict_bound
            assert float(parsed[6]) == row.report.thd_ratio
            assert float(parsed[7]) == row.report.thd_db

    def test_absent_thd_serializes_empty(self):
        spec = SweepSpec(multipliers=(2.0,))
        result = sweep_multiplier(spec)  # identically-zero staircase
        _, _, rows = parse_csv(sweep_to_csv(result))
        assert rows[0][6] == ""
        assert rows[0][7] == ""

    def test_byte_determinism(self):
        spec = SweepSpec(bits_from=2, bits_to=4)
        assert sweep_to_csv(sweep_bits(spec)) == sweep_to_csv(sweep_bits(spec))
