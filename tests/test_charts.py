import json
import re

import pytest

from ddsmetrics.charts import (
    ChartKind,
    ChartStyle,
    render_heatmap,
    render_line_chart,
)
from ddsmetrics.metrics import MetricsReport
from ddsmetrics.sweeps import SweepRow, SweepSpec, sweep_bits, sweep_grid
from oracles import result_from_rows


def _report(**overrides):
    fields = dict(
        model="digitized",
        freq_hz=1.0,
        bits=4,
        mode="floor",
        m_num=4,
        m_den=1,
        max_abs_error=0.5,
        argmax_time_s=0.1,
        thd_ratio=0.1,
        thd_db=-20.0,
        paper_bound=0.6,
        strict_bound=0.7,
    )
    fields.update(overrides)
    return MetricsReport(**fields)


def _grid_result(cells):
    """cells: list of (bits, multiplier, max_err, thd_db)."""
    rows = tuple(
        SweepRow(
            requested_multiplier=m,
            report=_report(bits=b, m_num=int(m), max_abs_error=err, thd_db=db),
        )
        for b, m, err, db in cells
    )
    spec = SweepSpec(bits_from=2, bits_to=3, multipliers=(4.0, 8.0))
    return result_from_rows("grid", rows, spec)


def _two_point_multiplier_result():
    rows = tuple(
        SweepRow(requested_multiplier=m, report=_report(m_num=int(m), max_abs_error=e))
        for m, e in ((4.0, 0.9), (40.0, 0.15))
    )
    spec = SweepSpec(multipliers=(4.0, 40.0))
    return result_from_rows("multiplier", rows, spec)


class TestLineChart:
    def test_one_polyline_per_series_with_two_points(self):
        style = ChartStyle(ChartKind.LOG_X_LINE, "multiplier", "error")
        svg = render_line_chart(_two_point_multiplier_result(), style, ["max_err"])
        polylines = re.findall(r"<polyline[^>]*points=\"([^\"]*)\"", svg)
        assert len(polylines) == 1
        assert len(polylines[0].split()) == 2

    def test_deterministic_output(self):
        style = ChartStyle(ChartKind.LOG_X_LINE, "multiplier", "error")
        result = _two_point_multiplier_result()
        first = render_line_chart(result, style, ["max_err", "strict_bound"])
        second = render_line_chart(result, style, ["max_err", "strict_bound"])
        assert first == second

    def test_real_bits_sweep_with_log_error_axis(self):
        result = sweep_bits(SweepSpec(bits_from=2, bits_to=6))
        style = ChartStyle(ChartKind.LINEAR_LINE, "bits", "max error", log_y=True)
        svg = render_line_chart(result, style, ["max_err", "eq5_bound"])
        assert svg.startswith("<svg ")
        assert svg.rstrip().endswith("</svg>")
        assert len(re.findall(r"<polyline", svg)) == 2
        assert "10^" in svg  # log-axis decade labels

    def test_empty_selection_rejected(self):
        style = ChartStyle(ChartKind.LOG_X_LINE)
        with pytest.raises(ValueError):
            render_line_chart(_two_point_multiplier_result(), style, [])

    def test_unknown_metric_rejected(self):
        style = ChartStyle(ChartKind.LOG_X_LINE)
        with pytest.raises(ValueError):
            render_line_chart(_two_point_multiplier_result(), style, ["nope"])

    def test_thd_series_skips_absent_values(self):
        rows = tuple(
            SweepRow(requested_multiplier=m, report=_report(m_num=int(m), thd_db=db))
            for m, db in ((2.0, None), (4.0, -6.3), (8.0, -12.7))
        )
        spec = SweepSpec(multipliers=(2.0, 4.0, 8.0))
        result = result_from_rows("multiplier", rows, spec)
        style = ChartStyle(ChartKind.LOG_X_LINE, "multiplier", "THD")
        svg = render_line_chart(result, style, ["thd_db"])
        points = re.findall(r"<polyline[^>]*points=\"([^\"]*)\"", svg)[0]
        assert len(points.split()) == 2


class TestHeatmap:
    def test_two_by_two_grid_has_four_cells(self):
        result = _grid_result(
            [(2, 4.0, 1.0, -6.0), (2, 8.0, 0.8, -8.0), (3, 4.0, 1.0, -6.0), (3, 8.0, 0.6, -10.0)]
        )
        style = ChartStyle(ChartKind.HEATMAP, "multiplier", "bits")
        svg = render_heatmap(result, style, "max_err")
        assert len(re.findall(r'<rect class="cell"', svg)) == 4

    def test_error_anchors_fixed(self):
        result = _grid_result(
            [(2, 4.0, 1.0, -6.0), (2, 8.0, 0.0, -8.0), (3, 4.0, 0.5, -6.0), (3, 8.0, 0.25, -10.0)]
        )
        style = ChartStyle(ChartKind.HEATMAP)
        svg = render_heatmap(result, style, "max_err")
        fills = re.findall(r'<rect class="cell"[^>]*fill="([^"]*)"', svg)
        assert "#ffff00" in fills  # max error of 1.0 is exactly the yellow anchor
        assert "#0000ff" in fills  # zero error is exactly the blue anchor
        meta = json.loads(re.search(r"<metadata>(.*)</metadata>", svg).group(1))
        assert meta["low"] == 0.0
        assert meta["high"] == 1.0

    def test_thd_anchors_observed_and_recorded(self):
        result = _grid_result(
            [(2, 4.0, 1.0, -6.0), (2, 8.0, 0.8, -8.0), (3, 4.0, 1.0, -6.5), (3, 8.0, 0.6, -12.0)]
        )
        style = ChartStyle(ChartKind.HEATMAP)
        svg = render_heatmap(result, style, "thd_db")
        meta = json.loads(re.search(r"<metadata>(.*)</metadata>", svg).group(1))
        assert meta["low"] == -12.0
        assert meta["high"] == -6.0
        assert meta["metric"] == "thd_db"

    def test_repeated_multiplier_rejected(self):
        # a library sweep may repeat a multiplier; its chart would need
        # two columns at one x
        result = sweep_grid(SweepSpec(bits_from=2, bits_to=3, multipliers=(4.0, 8.0, 4.0)))
        style = ChartStyle(ChartKind.HEATMAP)
        with pytest.raises(ValueError, match=r"\b4\.0\b"):
            render_heatmap(result, style, "max_err")

    def test_columns_go_in_ascending_multiplier_order(self):
        style = ChartStyle(ChartKind.HEATMAP)
        ascending = sweep_grid(SweepSpec(bits_from=2, bits_to=4, multipliers=(4.0, 8.0, 16.0)))
        shuffled = sweep_grid(SweepSpec(bits_from=2, bits_to=4, multipliers=(16.0, 4.0, 8.0)))
        assert render_heatmap(shuffled, style, "thd_db") == render_heatmap(
            ascending, style, "thd_db"
        )

    def test_wrong_kind_rejected(self):
        style = ChartStyle(ChartKind.HEATMAP)
        with pytest.raises(ValueError):
            render_heatmap(_two_point_multiplier_result(), style, "max_err")

    def test_deterministic_on_real_sweep(self):
        spec = SweepSpec(bits_from=2, bits_to=4, multipliers=(4.0, 16.0))
        result = sweep_grid(spec)
        style = ChartStyle(ChartKind.HEATMAP, "multiplier", "bits")
        assert render_heatmap(result, style, "max_err") == render_heatmap(
            result, style, "max_err"
        )


# Every metric a chart plots, and names it refuses although a sweep's
# report_column reads them or its CSV has them.
CHART_METRICS = (
    "max_err", "max_err_pct", "paper_bound", "eq5_bound", "eq14_bound", "eq16_bound",
    "strict_bound", "thd_ratio", "thd_db",
)
NOT_METRICS = (
    "nope", "bits", "m_num", "m_den", "mode", "model", "freq_hz", "max_abs_error",
    "argmax_time_s", "m_requested", "flags",
)
GRID_CELLS = [(2, 4.0, 1.0, -6.0), (2, 8.0, 0.8, -8.0), (3, 4.0, 1.0, -6.5), (3, 8.0, 0.6, -12.0)]


class TestMetricNames:
    """Both renderers take exactly the nine metric names."""

    @pytest.mark.parametrize("name", CHART_METRICS)
    def test_metric_is_plotted(self, name):
        style = ChartStyle(ChartKind.LOG_X_LINE)
        svg = render_line_chart(_two_point_multiplier_result(), style, [name])
        assert f">{name}</text>" in svg
        svg = render_heatmap(_grid_result(GRID_CELLS), ChartStyle(ChartKind.HEATMAP), name)
        assert json.loads(re.search(r"<metadata>(.*)</metadata>", svg).group(1))["metric"] == name

    @pytest.mark.parametrize("name", NOT_METRICS)
    def test_other_names_are_refused(self, name):
        style = ChartStyle(ChartKind.LOG_X_LINE)
        with pytest.raises(ValueError, match="unknown metric"):
            render_line_chart(_two_point_multiplier_result(), style, [name])
        with pytest.raises(ValueError, match="unknown metric"):
            render_heatmap(_grid_result(GRID_CELLS), ChartStyle(ChartKind.HEATMAP), name)
