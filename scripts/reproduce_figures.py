#!/usr/bin/env python3
"""Regenerate the six survey figures as CSV tables plus SVG charts.

fig1  max error vs bit count           (quantized, floor, log error axis)
fig2  THD vs bit count                 (quantized, round)
fig3  max error vs frequency multiplier (held, log multiplier axis)
fig4  THD vs frequency multiplier       (held)
fig5  max-error heatmap over (bits, multiplier)   (digitized)
fig6  THD heatmap over (bits, multiplier)         (digitized)

Writes into --out-dir (default ./figures). Runs in well under a minute;
pass --fast for a coarser but near-instant version.
"""

from __future__ import annotations

import argparse
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from ddsmetrics.charts import ChartKind, ChartStyle, render_heatmap, render_line_chart
from ddsmetrics.reporting import sweep_to_csv
from ddsmetrics.signals import QuantizationMode
from ddsmetrics.sweeps import SweepSpec, sweep_bits, sweep_grid, sweep_multiplier


def write(path: pathlib.Path, text: str) -> None:
    path.write_text(text, encoding="utf-8", newline="\n")
    print(f"wrote {path}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", type=pathlib.Path, default=pathlib.Path("figures"))
    parser.add_argument("--fast", action="store_true", help="coarser axes, quicker run")
    parser.add_argument("--workers", type=int, default=4)
    args = parser.parse_args()
    out = args.out_dir
    out.mkdir(parents=True, exist_ok=True)

    points_per_decade = 10 if args.fast else 30

    bits_floor = SweepSpec(bits_from=1, bits_to=16)
    bits_round = SweepSpec(bits_from=1, bits_to=16, mode=QuantizationMode.ROUND)
    mult = SweepSpec(
        decades_from=0.5, decades_to=4.0, points_per_decade=points_per_decade
    )
    grid = SweepSpec(
        bits_from=2, bits_to=12, multipliers=tuple(float(4 * 2**k) for k in range(11))
    )

    result = sweep_bits(bits_floor, workers=args.workers)
    write(out / "fig1_bits_error.csv", sweep_to_csv(result))
    style = ChartStyle(ChartKind.LINEAR_LINE, "bits", "max abs error", log_y=True)
    write(out / "fig1_bits_error.svg",
          render_line_chart(result, style, ["max_err", "eq5_bound"]))

    result = sweep_bits(bits_round, workers=args.workers)
    write(out / "fig2_bits_thd.csv", sweep_to_csv(result))
    style = ChartStyle(ChartKind.LINEAR_LINE, "bits", "THD [dB]")
    write(out / "fig2_bits_thd.svg", render_line_chart(result, style, ["thd_db"]))

    result = sweep_multiplier(mult, workers=args.workers)
    write(out / "fig3_multiplier_error.csv", sweep_to_csv(result))
    style = ChartStyle(ChartKind.LOG_X_LINE, "frequency multiplier", "max abs error")
    write(out / "fig3_multiplier_error.svg",
          render_line_chart(result, style, ["max_err", "eq14_bound", "strict_bound"]))
    style = ChartStyle(ChartKind.LOG_X_LINE, "frequency multiplier", "THD [dB]")
    write(out / "fig4_multiplier_thd.svg",
          render_line_chart(result, style, ["thd_db"]))
    write(out / "fig4_multiplier_thd.csv", sweep_to_csv(result))

    result = sweep_grid(grid, workers=args.workers)
    write(out / "fig5_grid_error.csv", sweep_to_csv(result))
    style = ChartStyle(ChartKind.HEATMAP, "frequency multiplier", "bits")
    write(out / "fig5_grid_error.svg", render_heatmap(result, style, "max_err"))
    write(out / "fig6_grid_thd.svg", render_heatmap(result, style, "thd_db"))
    write(out / "fig6_grid_thd.csv", sweep_to_csv(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
