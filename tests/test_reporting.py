import json
import math
import pathlib
import random
import struct

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ddsmetrics.metrics import MetricsReport, reports_from_columns
from ddsmetrics.reporting import (
    BITS_HEADER,
    GRID_HEADER,
    JSON_KEYS,
    MULTIPLIER_HEADER,
    csv_field,
    fmt_float,
    report_to_csv,
    report_to_json,
    sweep_to_csv,
)
from ddsmetrics import reporting
from oracles import parse_csv, result_from_rows, row_table
from ddsmetrics.signals import QuantizationMode
from ddsmetrics.sweeps import (
    SweepSpec,
    sweep_bits,
    sweep_grid,
    sweep_multiplier,
)


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

    def test_json_keys_are_the_schema(self):
        # JSON_KEYS follows the report's fields: a new field changes the
        # schema, and this list with it
        assert JSON_KEYS == (
            "model", "freq_hz", "bits", "mode", "m_num", "m_den", "max_abs_error",
            "argmax_time_s", "thd_ratio", "thd_db", "paper_bound", "strict_bound",
            "schema_version",
        )

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


def test_readme_csv_schemas_are_the_headers():
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    block = readme.read_text(encoding="utf-8").split("CSV schemas", 1)[1].split("```")[1]
    schemas = dict(line.split(":") for line in block.strip().splitlines())
    assert {kind: columns.strip() for kind, columns in schemas.items()} == {
        "bits sweep": BITS_HEADER,
        "multiplier sweep": MULTIPLIER_HEADER,
        "grid sweep": GRID_HEADER,
    }


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
        table = row_table(result)
        names = ("m_requested", "max_abs_error", "paper_bound", "strict_bound",
                 "thd_ratio", "thd_db")
        assert len(rows) == len(table["m_requested"])
        for i, parsed in enumerate(rows):
            assert [float(parsed[j]) for j in (0, 3, 4, 5, 6, 7)] == [
                table[name][i] for name in names
            ]

    def test_absent_thd_serializes_empty(self):
        spec = SweepSpec(multipliers=(2.0,))
        result = sweep_multiplier(spec)  # identically-zero staircase
        _, _, rows = parse_csv(sweep_to_csv(result))
        assert rows[0][6] == ""
        assert rows[0][7] == ""

    def test_byte_determinism(self):
        spec = SweepSpec(bits_from=2, bits_to=4)
        assert sweep_to_csv(sweep_bits(spec)) == sweep_to_csv(sweep_bits(spec))


class TestJsonIsStrict:
    @pytest.mark.parametrize("field", ["argmax_time_s", "max_abs_error", "thd_db"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_values_are_refused(self, field, value):
        with pytest.raises(ValueError):
            report_to_json(sample_report(**{field: value}))


def fmt_float_from_precision_zero(x):
    """fmt_float with its exponent-form search started at precision 0."""
    x = float(x)
    if x == 0.0:
        return "0"
    if 1e-4 <= abs(x) < 1e6:
        return repr(x)
    for precision in range(17):
        text = f"{x:.{precision}e}"
        if float(text) == x:
            return text
    return f"{x:.17e}"


class TestFmtFloatSearch:
    """The exponent form's precision is repr's digit count, or one more;
    no shorter precision round-trips, so the text is that of a search
    from 0."""

    def test_powers_of_two_subnormals_and_random_bits(self):
        rng = random.Random(5)
        xs = [struct.unpack("<d", struct.pack("<Q", rng.getrandbits(64)))[0] for _ in range(20000)]
        xs += [2.0**e for e in range(-1074, 1024)]
        xs += [math.nextafter(2.0**e, 0.0) for e in range(-1073, 1024)]
        xs += [5e-324, 1e-323, 2.2250738585072014e-308, 9.999999999999999e-05, 1e6, 1e16, 1e22]
        xs += [k * 10.0**e for k in (1, 3, 7, 99, 123456789) for e in range(-320, 300, 13)]
        xs = [x for x in xs if math.isfinite(x)]
        for x in xs + [-x for x in xs]:
            assert fmt_float(x) == fmt_float_from_precision_zero(x), x

    @given(x=st.floats(allow_nan=False, allow_infinity=False))
    def test_any_float(self, x):
        assert fmt_float(x) == fmt_float_from_precision_zero(x)


def significant_digits(text):
    """The significant digits of a decimal text, without sign, point,
    exponent or the zeros around them."""
    return text.partition("e")[0].replace(".", "").lstrip("-").strip("0")


class TestFmtFloatIsRepr:
    """fmt_float is repr outside [1e6, 1e16), and repr's significant
    digits in scientific notation inside it, except at the powers of two
    whose repr digits are not correctly rounded: there it has one digit
    more, all of them outside [1e-4, 1e16)."""

    @given(x=st.floats(allow_nan=False, allow_infinity=False).filter(bool))
    @example(x=1e6)
    @example(x=-9999999999999998.0)
    @example(x=1e16)
    @example(x=999999.9999999999)
    @example(x=5e-324)
    @example(x=2.0**-24)
    @example(x=-(2.0**-1017))
    def test_any_nonzero_float(self, x):
        text, shortest = fmt_float(x), repr(x)
        assert float(text) == x
        if 1e-4 <= abs(x) < 1e6:
            assert text == shortest
            return
        assert "e" in text and text.lstrip("-")[0] != "0"
        digits = len(significant_digits(shortest))
        if f"{x:.{digits - 1}e}" != text:  # repr's digits not correctly rounded
            assert math.frexp(x)[0] in (0.5, -0.5) and not 1e6 <= abs(x) < 1e16
            assert text == f"{x:.{digits}e}"
        elif 1e6 <= abs(x) < 1e16:
            assert significant_digits(text) == significant_digits(shortest)
        else:
            assert text == shortest

    def test_powers_of_two_off_repr(self):
        longer = {
            e: len(significant_digits(fmt_float(2.0**e)))
            - len(significant_digits(repr(2.0**e)))
            for e in range(-1074, 1024)
        }
        off = [e for e, extra in longer.items() if extra]
        assert len(off) == 46 and -24 in off
        assert all(longer[e] == 1 and not 1e-4 <= 2.0**e < 1e16 for e in off)


def csv_row_by_row(result):
    """The sweep's CSV written a row at a time, every cell through
    csv_field: the byte reference for the column-wise sweep_to_csv."""
    lines = sweep_to_csv(result).splitlines()
    comments = [line for line in lines if line.startswith("#")]
    head = comments + [lines[len(comments)]]  # the header line
    reports, flags = reports_from_columns(result.reports), result.report_column("flags")
    for requested, k in zip(result.axis * result.width, result.row_reports()):
        r = reports[k]
        if result.kind == "bits":
            values = [r.bits, r.mode, r.max_abs_error, 100.0 * r.max_abs_error, r.paper_bound,
                      r.thd_ratio, r.thd_db]
            head.append(",".join(map(csv_field, values)))
            continue
        values = [requested, r.m_num, r.m_den, r.max_abs_error,
                  r.paper_bound, r.strict_bound, r.thd_ratio, r.thd_db]
        if result.kind == "grid":
            values.insert(0, r.bits)
        row_flags = ";".join(flags[k]) if flags[k] else "-"
        head.append(",".join([*map(csv_field, values), row_flags]))
    return "\n".join(head) + "\n"


class TestSweepCsvColumns:
    """sweep_to_csv formats a column of a chunk of rows at a time, each
    distinct value once, with the bytes of a row-at-a-time csv_field."""

    @pytest.mark.parametrize("mode", list(QuantizationMode))
    def test_bits(self, mode):
        result = sweep_bits(SweepSpec(bits_from=1, bits_to=52, mode=mode))
        assert sweep_to_csv(result) == csv_row_by_row(result)

    def test_multiplier_axis_longer_than_a_chunk_with_repeats(self):
        spec = SweepSpec(decades_from=-1.0, decades_to=2.0, points_per_decade=300, q_max=8)
        result = sweep_multiplier(spec)
        assert len(result.axis) > 2 * reporting._CSV_CHUNK
        # snapped-equal rows share a report
        assert len(result.report_column("model")) < len(result.axis)
        assert None in result.report_column("thd_ratio")
        assert sweep_to_csv(result) == csv_row_by_row(result)

    def test_grid(self):
        spec = SweepSpec(bits_from=1, bits_to=12, multipliers=(0.7, 1.0, 2.0, 3.3, 3.3, 1e4, 2e5))
        result = sweep_grid(spec)
        assert sweep_to_csv(result) == csv_row_by_row(result)

    def test_values_outside_the_plain_range(self):
        # the first two axis points share a report, as snapped-equal
        # multipliers do; the last two are sub-Nyquist
        shared = sample_report(max_abs_error=1e-7, thd_ratio=2e6, thd_db=-0.0, paper_bound=1e-4)
        rows = [
            (4.0, shared),
            (4.0, shared),
            (1.5, sample_report(m_num=3, m_den=2, strict_bound=999999.9999999999,
                                thd_ratio=None)),
            (5e-324, sample_report(m_num=1, m_den=16, max_abs_error=-1.5e-5, thd_db=None)),
        ]
        spec = SweepSpec(bits_from=8, bits_to=8, multipliers=(4.0, 4, 1.5, 5e-324))
        for kind in ("multiplier", "grid"):
            result = result_from_rows(kind, tuple(rows), spec)
            assert result.index == [0, 0, 1, 2]
            text = sweep_to_csv(result)
            assert text == csv_row_by_row(result)
            _, _, parsed = parse_csv(text)
            assert [row[1 if kind == "grid" else 0] for row in parsed] == [
                "4.0", "4.0", "1.5", "5e-324"
            ]
            assert [row[-1] for row in parsed] == ["-", "-", "subnyquist", "subnyquist"]

    def test_echoed_multipliers_are_fmt_float_of_the_spec(self):
        # the echo line is the rows' text of the axis, the spec's
        # multipliers as floats: an int 4 reads "4.0" in both
        axis = (4, 4.0, 5e-324, 2e6, 1.5)
        rows = [(float(m), sample_report()) for m in axis]
        spec = SweepSpec(bits_from=8, bits_to=8, multipliers=axis)
        for kind in ("multiplier", "grid"):
            text = sweep_to_csv(result_from_rows(kind, tuple(rows), spec))
            echo = " ".join(map(fmt_float, axis))
            assert f"# multipliers={echo}\n" in text
            assert echo == "4.0 4.0 5e-324 2e+06 1.5"
            _, _, parsed = parse_csv(text)
            assert [row[1 if kind == "grid" else 0] for row in parsed] == echo.split()
