import json
import re

import pytest

from ddsmetrics.charts import render_sweep
from ddsmetrics.metrics import MetricsReport
from ddsmetrics.sweeps import SweepSpec, sweep_bits, sweep_grid, sweep_multiplier
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
        (m, _report(bits=b, m_num=int(m), max_abs_error=err, thd_db=db))
        for b, m, err, db in cells
    )
    spec = SweepSpec(bits_from=2, bits_to=3, multipliers=(4.0, 8.0))
    return result_from_rows("grid", rows, spec)


def _two_point_multiplier_result():
    rows = tuple(
        (m, _report(m_num=int(m), max_abs_error=e)) for m, e in ((4.0, 0.9), (40.0, 0.15))
    )
    spec = SweepSpec(multipliers=(4.0, 40.0))
    return result_from_rows("multiplier", rows, spec)


class TestLineChart:
    def test_one_polyline_per_series_with_two_points(self):
        svg = render_sweep(_two_point_multiplier_result(), "error")
        polylines = re.findall(r"<polyline[^>]*points=\"([^\"]*)\"", svg)
        # max_err, eq14_bound and strict_bound
        assert [len(points.split()) for points in polylines] == [2, 2, 2]

    def test_deterministic_output(self):
        result = _two_point_multiplier_result()
        assert render_sweep(result, "error") == render_sweep(result, "error")

    def test_real_bits_sweep_with_log_error_axis(self):
        result = sweep_bits(SweepSpec(bits_from=2, bits_to=6))
        svg = render_sweep(result, "error")
        assert svg.startswith("<svg ")
        assert svg.rstrip().endswith("</svg>")
        assert len(re.findall(r"<polyline", svg)) == 2
        assert "10^" in svg  # log-axis decade labels

    def test_thd_series_skips_absent_values(self):
        rows = tuple(
            (m, _report(m_num=int(m), thd_db=db))
            for m, db in ((2.0, None), (4.0, -6.3), (8.0, -12.7))
        )
        spec = SweepSpec(multipliers=(2.0, 4.0, 8.0))
        result = result_from_rows("multiplier", rows, spec)
        svg = render_sweep(result, "thd")
        points = re.findall(r"<polyline[^>]*points=\"([^\"]*)\"", svg)[0]
        assert len(points.split()) == 2


class TestHeatmap:
    def test_two_by_two_grid_has_four_cells(self):
        result = _grid_result(
            [(2, 4.0, 1.0, -6.0), (2, 8.0, 0.8, -8.0), (3, 4.0, 1.0, -6.0), (3, 8.0, 0.6, -10.0)]
        )
        svg = render_sweep(result, "error")
        assert len(re.findall(r'<rect class="cell"', svg)) == 4

    def test_error_anchors_fixed(self):
        result = _grid_result(
            [(2, 4.0, 1.0, -6.0), (2, 8.0, 0.0, -8.0), (3, 4.0, 0.5, -6.0), (3, 8.0, 0.25, -10.0)]
        )
        svg = render_sweep(result, "error")
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
        svg = render_sweep(result, "thd")
        meta = json.loads(re.search(r"<metadata>(.*)</metadata>", svg).group(1))
        assert meta["low"] == -12.0
        assert meta["high"] == -6.0
        assert meta["metric"] == "thd_db"

    def test_repeated_multiplier_rejected(self):
        # a library sweep may repeat a multiplier; its chart would need
        # two columns at one x
        result = sweep_grid(SweepSpec(bits_from=2, bits_to=3, multipliers=(4.0, 8.0, 4.0)))
        with pytest.raises(ValueError, match=r"\b4\.0\b"):
            render_sweep(result, "error")

    def test_columns_go_in_ascending_multiplier_order(self):
        ascending = sweep_grid(SweepSpec(bits_from=2, bits_to=4, multipliers=(4.0, 8.0, 16.0)))
        shuffled = sweep_grid(SweepSpec(bits_from=2, bits_to=4, multipliers=(16.0, 4.0, 8.0)))
        assert render_sweep(shuffled, "thd") == render_sweep(ascending, "thd")

    def test_deterministic_on_real_sweep(self):
        spec = SweepSpec(bits_from=2, bits_to=4, multipliers=(4.0, 16.0))
        result = sweep_grid(spec)
        assert render_sweep(result, "error") == render_sweep(result, "error")


@pytest.mark.parametrize("sweep", [sweep_multiplier, sweep_grid], ids=["multiplier", "grid"])
@pytest.mark.parametrize("metric", ["error", "thd"])
def test_empty_axis_rejected(sweep, metric):
    result = sweep(SweepSpec(bits_from=2, bits_to=3, multipliers=()))
    with pytest.raises(ValueError, match="no rows"):
        render_sweep(result, metric)


@pytest.mark.parametrize(
    "sweep", [sweep_bits, sweep_multiplier, sweep_grid], ids=["bits", "multiplier", "grid"]
)
@pytest.mark.parametrize("metric", ["nope", "max_err"])
def test_unknown_chart_rejected(sweep, metric):
    result = sweep(SweepSpec(bits_from=2, bits_to=3, multipliers=(4.0,)))
    with pytest.raises(ValueError, match=r"'error' or 'thd'.*" + repr(metric)):
        render_sweep(result, metric)


def _texts(svg, attributes):
    """The text of every <text> element whose attributes end in ``attributes``."""
    return re.findall(rf'{attributes} font-family="sans-serif"[^>]*>([^<]*)</text>', svg)


@pytest.mark.parametrize(
    "sweep,metric,labels,series,log_x,log_y",
    [
        (sweep_bits, "error", ["bits", "max abs error"], ["max_err", "eq5_bound"], False, True),
        (sweep_bits, "thd", ["bits", "THD [dB]"], ["thd_db"], False, False),
        (sweep_multiplier, "error", ["frequency multiplier", "max abs error"],
         ["max_err", "eq14_bound", "strict_bound"], True, False),
        (sweep_multiplier, "thd", ["frequency multiplier", "THD [dB]"], ["thd_db"], True, False),
        (sweep_grid, "error", ["frequency multiplier", "bits"], "max_err", False, False),
        (sweep_grid, "thd", ["frequency multiplier", "bits"], "thd_db", False, False),
    ],
    ids=["bits-error", "bits-thd", "multiplier-error", "multiplier-thd", "grid-error", "grid-thd"],
)
def test_the_chart_of_each_sweep(sweep, metric, labels, series, log_x, log_y):
    """What a chart shows follows from the sweep: its labels, its series,
    a log x axis for a multiplier sweep and a heatmap for a grid."""
    result = sweep(SweepSpec(bits_from=2, bits_to=6, multipliers=(4.0, 40.0, 400.0)))
    svg = render_sweep(result, metric)
    assert _texts(svg, 'font-size="15"') == labels
    if sweep is sweep_grid:
        assert len(re.findall(r'<rect class="cell"', svg)) == 5 * 3
        assert json.loads(re.search(r"<metadata>(.*)</metadata>", svg).group(1))["metric"] == series
        return
    assert _texts(svg, 'text-anchor="start" font-size="12"') == series
    x_ticks = _texts(svg, 'y="550" text-anchor="middle" font-size="12"')
    y_ticks = _texts(svg, 'text-anchor="end" font-size="12"')
    assert x_ticks and y_ticks
    assert [all(tick.startswith("10^") for tick in ticks) for ticks in (x_ticks, y_ticks)] == [
        log_x, log_y
    ]
