"""Command-line interface.

Three subcommands: ``eval`` reports both metrics for a single model,
``sweep`` runs one of the parameter sweeps and writes CSV (plus an
optional SVG chart), and ``bounds`` prints the closed-form bounds for a
parameter point. Exit codes: 0 success, 2 usage error, 3 runtime error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

from . import bounds as bounds_mod
from . import charts, reporting
from .metrics import DFT_SIZE_CAP, DftCapExceeded, SamplingPlan, evaluate
from .signals import (
    QuantizationMode,
    QuantizerConfig,
    SignalSpec,
    TimingConfig,
    WaveformModel,
)
from .sweeps import SweepSpec, snap_multiplier, sweep_bits, sweep_grid, sweep_multiplier

__all__ = ["main", "run"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_RUNTIME = 3


SAMPLES_HELP = "probes per period of the probe-grid oracle; the reported error is exact"
SAMPLES_PER_STEP_HELP = (
    "DFT samples per hold step: sizes the capture checked against the DFT cap, "
    "and the THD capture of quantizers above 20 bits"
)


class UsageError(Exception):
    pass


def _parse_multiplier(text: str, q_max: int) -> TimingConfig:
    try:
        if "/" in text:
            return TimingConfig.from_exact(Fraction(text))
        value = float(text)
        if not math.isfinite(value):
            raise ValueError("the multiplier must be finite")
        if value != int(value):
            return snap_multiplier(value, q_max)
        return TimingConfig.from_exact(int(value))
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"--multiplier: cannot parse {text!r}: {exc}") from exc


def _check_freq(freq: float) -> None:
    if not (math.isfinite(freq) and freq > 0):
        raise UsageError(f"--freq must be positive and finite, got {freq!r}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ddsmetrics",
        description="Worst-case error and THD metrology for clocked sine synthesis",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ev = sub.add_parser("eval", help="evaluate one model configuration")
    ev.add_argument(
        "--model",
        required=True,
        choices=["target", "quantized", "held", "digitized"],
    )
    ev.add_argument("--freq", type=float, default=1.0)
    ev.add_argument("--bits", type=int, default=None)
    ev.add_argument("--mode", choices=["floor", "round", "ceiling"], default=None)
    ev.add_argument("--multiplier", type=str, default=None)
    ev.add_argument("--dt", type=float, default=None)
    ev.add_argument("--qmax", type=int, default=16)
    ev.add_argument("--samples", type=int, default=100_000, help=SAMPLES_HELP)
    ev.add_argument(
        "--samples-per-step", type=int, default=64, help=SAMPLES_PER_STEP_HELP
    )
    ev.add_argument("--format", choices=["json", "csv"], default="json")
    ev.add_argument("--out", type=str, default="-")
    ev.set_defaults(func=cmd_eval)

    sw = sub.add_parser("sweep", help="run a parameter sweep, write CSV/SVG")
    sw.add_argument("axis", choices=["bits", "multiplier", "grid"])
    sw.add_argument("--bits-from", type=int, default=1)
    sw.add_argument("--bits-to", type=int, default=16)
    sw.add_argument("--bits-step", type=int, default=1)
    sw.add_argument("--decades-from", type=float, default=0.5)
    sw.add_argument("--decades-to", type=float, default=4.0)
    sw.add_argument("--points-per-decade", type=int, default=30)
    sw.add_argument(
        "--multipliers",
        type=str,
        default=None,
        help="comma-separated explicit multiplier axis, overrides decades",
    )
    sw.add_argument("--mode", choices=["floor", "round", "ceiling"], default="floor")
    sw.add_argument("--qmax", type=int, default=16)
    sw.add_argument("--samples", type=int, default=100_000, help=SAMPLES_HELP)
    sw.add_argument(
        "--samples-per-step", type=int, default=64, help=SAMPLES_PER_STEP_HELP
    )
    sw.add_argument("--workers", type=int, default=1)
    sw.add_argument("--out", type=str, default="-")
    sw.add_argument("--svg", type=str, default=None)
    sw.add_argument("--svg-metric", choices=["error", "thd"], default="error")
    sw.set_defaults(func=cmd_sweep)

    bd = sub.add_parser("bounds", help="closed-form bounds for a parameter point")
    bd.add_argument("--freq", type=float, default=1.0)
    bd.add_argument("--bits", type=int, default=None)
    bd.add_argument("--multiplier", type=str, default=None)
    bd.add_argument("--dt", type=float, default=None)
    bd.add_argument("--qmax", type=int, default=16)
    bd.add_argument("--out", type=str, default="-")
    bd.set_defaults(func=cmd_bounds)

    return parser


def _write_out(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)


def _resolve_timing(args) -> TimingConfig:
    if args.multiplier is not None and args.dt is not None:
        raise UsageError("--multiplier and --dt are mutually exclusive")
    if args.multiplier is not None:
        return _parse_multiplier(args.multiplier, args.qmax)
    if args.dt is not None:
        if not (math.isfinite(args.dt) and args.dt > 0):
            raise UsageError(f"--dt must be positive and finite, got {args.dt!r}")
        requested = 1.0 / (args.freq * args.dt)
        if not math.isfinite(requested):
            raise UsageError(f"--dt {args.dt!r} is too small: 1/(freq*dt) overflows")
        return snap_multiplier(requested, args.qmax)
    raise UsageError(f"--multiplier (or --dt) is required for model {args.model!r}")


def _eval_model(args) -> WaveformModel:
    _check_freq(args.freq)
    spec = SignalSpec(args.freq)
    model = args.model
    needs_bits = model in ("quantized", "digitized")
    needs_timing = model in ("held", "digitized")
    if not needs_bits:
        if args.bits is not None:
            raise UsageError(f"--bits not valid for model '{model}'")
        if args.mode is not None:
            raise UsageError(f"--mode not valid for model '{model}'")
    if not needs_timing and (args.multiplier is not None or args.dt is not None):
        flag = "--multiplier" if args.multiplier is not None else "--dt"
        raise UsageError(f"{flag} not valid for model '{model}'")

    if model == "target":
        return WaveformModel.target(spec)
    if needs_bits:
        if args.bits is None:
            raise UsageError(f"--bits is required for model '{model}'")
        quantizer = QuantizerConfig(
            args.bits, QuantizationMode(args.mode or "floor")
        )
    if model == "quantized":
        return WaveformModel.quantized(spec, quantizer)
    timing = _resolve_timing(args)
    if model == "held":
        return WaveformModel.held(spec, timing)
    return WaveformModel.digitized(spec, timing, quantizer)


def cmd_eval(args) -> int:
    model = _eval_model(args)
    plan = SamplingPlan(samples_per_period=args.samples)
    report = evaluate(model, plan, args.samples_per_step)
    if args.format == "json":
        text = reporting.report_to_json(report)
    else:
        text = reporting.report_to_csv(report)
    _write_out(args.out, text)
    return EXIT_OK


def _sweep_svg(result, metric_choice: str) -> str:
    if result.kind == "bits":
        if metric_choice == "thd":
            style = charts.ChartStyle(
                charts.ChartKind.LINEAR_LINE, "bits", "THD [dB]"
            )
            return charts.render_line_chart(result, style, ["thd_db"])
        style = charts.ChartStyle(
            charts.ChartKind.LINEAR_LINE, "bits", "max abs error", log_y=True
        )
        return charts.render_line_chart(result, style, ["max_err", "eq5_bound"])
    if result.kind == "multiplier":
        if metric_choice == "thd":
            style = charts.ChartStyle(
                charts.ChartKind.LOG_X_LINE, "frequency multiplier", "THD [dB]"
            )
            return charts.render_line_chart(result, style, ["thd_db"])
        style = charts.ChartStyle(
            charts.ChartKind.LOG_X_LINE, "frequency multiplier", "max abs error"
        )
        return charts.render_line_chart(
            result, style, ["max_err", "eq14_bound", "strict_bound"]
        )
    style = charts.ChartStyle(
        charts.ChartKind.HEATMAP, "frequency multiplier", "bits"
    )
    metric = "max_err" if metric_choice == "error" else "thd_db"
    return charts.render_heatmap(result, style, metric)


def cmd_sweep(args) -> int:
    if args.workers < 1:
        raise UsageError(f"--workers must be >= 1, got {args.workers}")
    multipliers = None
    if args.multipliers is not None:
        try:
            multipliers = tuple(float(v) for v in args.multipliers.split(","))
        except ValueError as exc:
            raise UsageError(f"--multipliers: {exc}") from exc
    try:
        spec = SweepSpec(
            bits_from=args.bits_from,
            bits_to=args.bits_to,
            bits_step=args.bits_step,
            decades_from=args.decades_from,
            decades_to=args.decades_to,
            points_per_decade=args.points_per_decade,
            multipliers=multipliers,
            mode=QuantizationMode(args.mode),
            q_max=args.qmax,
            plan=SamplingPlan(samples_per_period=args.samples),
            samples_per_step=args.samples_per_step,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    runner = {"bits": sweep_bits, "multiplier": sweep_multiplier, "grid": sweep_grid}
    result = runner[args.axis](spec, workers=args.workers)
    _write_out(args.out, reporting.sweep_to_csv(result))
    if args.svg is not None:
        _write_out(args.svg, _sweep_svg(result, args.svg_metric))
    return EXIT_OK


def cmd_bounds(args) -> int:
    _check_freq(args.freq)
    data: dict = {"freq_hz": args.freq, "full_scale_range": bounds_mod.full_scale_range()}
    if args.bits is not None:
        data["bits"] = args.bits
        data["quantization_bound"] = bounds_mod.quantization_error_bound(args.bits)
    timing = None
    if args.multiplier is not None or args.dt is not None:
        args.model = "bounds"  # for the usage message in _resolve_timing
        timing = _resolve_timing(args)
        dt = timing.time_gap_s(args.freq)
        data["m_num"] = timing.multiplier_num
        data["m_den"] = timing.multiplier_den
        data["dt_s"] = dt
        data["min_clock_hz"] = bounds_mod.min_clock_frequency(dt)
        data["max_phase_shift_rad"] = bounds_mod.max_phase_shift(args.freq, dt)
        data["held_bound_paper"] = bounds_mod.held_error_bound(
            args.freq, dt, bounds_mod.BoundVariant.PAPER
        )
        data["held_bound_strict"] = bounds_mod.held_error_bound(
            args.freq, dt, bounds_mod.BoundVariant.STRICT
        )
    if args.bits is not None and timing is not None:
        dt = timing.time_gap_s(args.freq)
        data["digitized_bound_paper"] = bounds_mod.digitized_error_bound(
            args.freq, dt, args.bits, bounds_mod.BoundVariant.PAPER
        )
        data["digitized_bound_strict"] = bounds_mod.digitized_error_bound(
            args.freq, dt, args.bits, bounds_mod.BoundVariant.STRICT
        )
    _write_out(args.out, json.dumps(data, indent=2) + "\n")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if exc.code is not None else 0
        return int(code)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DftCapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
