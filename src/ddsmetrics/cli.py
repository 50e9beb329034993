"""Command-line interface.

Three subcommands: ``eval`` reports both metrics for a single model,
``sweep`` runs one of the parameter sweeps and writes CSV (plus an
optional SVG chart), and ``bounds`` prints the closed-form bounds for a
parameter point. Exit codes: 0 success, 2 usage error, 3 runtime error
(an unwritable path, or a multiplier over the piece cap); on exit 3 no
output file is written.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import stat
import sys
from collections import Counter

from . import bounds as bounds_mod
from . import charts, reporting
from .metrics import CapExceeded, evaluate
from .signals import (
    MAX_BITS,
    ModelKind,
    QuantizationMode,
    QuantizerConfig,
    SignalSpec,
    TimingConfig,
    WaveformModel,
)
from .sweeps import (
    MAX_AXIS_POINTS,
    SweepSpec,
    axis_length,
    snap_multiplier,
    sweep_bits,
    sweep_grid,
    sweep_multiplier,
)

__all__ = ["main", "run"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_RUNTIME = 3


class UsageError(Exception):
    pass


def _parse_multiplier(text: str, q_max: int) -> TimingConfig:
    try:
        if "/" in text:
            return TimingConfig.from_exact(text)
        value = float(text)
        if not math.isfinite(value):
            raise ValueError("the multiplier must be finite")
        return snap_multiplier(value, q_max)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"--multiplier: cannot parse {text!r}: {exc}") from exc


def _check_at_least_one(flag: str, value: int) -> None:
    if value < 1:
        raise UsageError(f"{flag} must be >= 1, got {value}")


def _check_bits(flag: str, value: int) -> None:
    if not 1 <= value <= MAX_BITS:
        raise UsageError(f"{flag} must be in [1, {MAX_BITS}], got {value}")


def _check_freq(freq: float) -> None:
    if not (math.isfinite(freq) and freq > 0):
        raise UsageError(f"--freq must be positive and finite, got {freq!r}")


def _check_times(freq: float, timing: TimingConfig | None) -> None:
    """The combined period q/f (1/f without timing) bounds every reported
    time, and the bounds divide by the update gap q/(p*f): both must be
    positive finite floats."""
    p, q = (timing.multiplier_num, timing.multiplier_den) if timing else (1, 1)
    period = "combined period q/f" if timing else "period 1/f"
    for name, seconds in ((period, q / freq), ("update gap q/(p*f)", q / (p * freq))):
        if not 0.0 < seconds < math.inf:
            raise UsageError(f"--freq {freq!r} is out of range: the {name} is {seconds!r} s")


def _check_decade(flag: str, value: float) -> None:
    # the multiplier axis runs over 10**value between the two ends
    try:
        usable = math.isfinite(value) and 10.0**value > 0.0
    except OverflowError:
        usable = False
    if not usable:
        raise UsageError(f"{flag} must give a positive finite 10**value, got {value!r}")


def _add_retired_flags(parser: argparse.ArgumentParser) -> None:
    # Unused since the metrics are exact; kept so the benchmark's argv still parses.
    for flag in ("--samples", "--samples-per-step"):
        parser.add_argument(flag, type=int, help=argparse.SUPPRESS)


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
    _add_retired_flags(ev)
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
    _add_retired_flags(sw)
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


def _write_outputs(outputs: list[tuple[str, str]]) -> None:
    """Write each (path, text) pair, all files or none. A target that is
    new or a regular file (symlinks followed) gets a temp file beside it,
    with the target's mode, and the temp files are renamed into place only
    once all of them are written. Any other existing target (a device, a
    FIFO) is written directly after the renames. Path ``-`` is stdout,
    written last."""
    staged: list[tuple[str, str]] = []
    direct: list[tuple[str, str]] = []
    try:
        for path, text in outputs:
            if path == "-":
                continue
            try:
                mode = os.stat(path).st_mode
            except FileNotFoundError:
                mode = None
            if mode is not None and not stat.S_ISREG(mode):
                direct.append((path, text))
                continue
            target = os.path.realpath(path)
            head, tail = os.path.split(target)
            temp = os.path.join(head, f".{tail}.{os.getpid()}.tmp")
            staged.append((temp, target))
            with open(temp, "w", encoding="utf-8", newline="\n") as handle:
                handle.write(text)
            if mode is not None:
                os.chmod(temp, stat.S_IMODE(mode))
        for temp, target in staged:
            os.replace(temp, target)
    except BaseException:
        for temp, _ in staged:
            with contextlib.suppress(OSError):
                os.remove(temp)
        raise
    for path, text in direct:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
    for path, text in outputs:
        if path == "-":
            sys.stdout.write(text)


def _check_outputs(paths: list[str]) -> None:
    """Fail before any row is computed where :func:`_write_outputs` could
    not write: a new or regular file needs a writable directory, any other
    target write access."""
    for path in (p for p in paths if p != "-"):
        try:
            mode = os.stat(path).st_mode
        except FileNotFoundError:
            mode = stat.S_IFREG  # new, so staged like a regular file
        if stat.S_ISDIR(mode):
            raise OSError(f"cannot write {path!r}: it is a directory")
        target = os.path.dirname(os.path.realpath(path)) if stat.S_ISREG(mode) else path
        if not os.access(target, os.W_OK):
            raise OSError(f"cannot write {path!r}: {target!r} is missing or read-only")


def _same_output(first: str, second: str) -> bool:
    """Whether two output paths name one stdout, reached as ``-`` or
    through a path such as ``/dev/stdout``, or one file that
    :func:`_write_outputs` would stage twice (a new or regular file,
    symlinks followed)."""
    if "-" in (first, second):
        if first == second:
            return True
        try:
            out, other = os.fstat(1), os.stat(first if second == "-" else second)
        except OSError:  # stdout closed, or the other path is new
            return False
        return (out.st_dev, out.st_ino) == (other.st_dev, other.st_ino)
    target = os.path.realpath(first)
    if target != os.path.realpath(second):
        return False
    try:
        return stat.S_ISREG(os.stat(target).st_mode)
    except FileNotFoundError:
        return True


def _resolve_timing(args) -> TimingConfig:
    if args.multiplier is not None and args.dt is not None:
        raise UsageError("--multiplier and --dt are mutually exclusive")
    _check_at_least_one("--qmax", args.qmax)
    if args.multiplier is not None:
        return _parse_multiplier(args.multiplier, args.qmax)
    if args.dt is not None:
        if not (math.isfinite(args.dt) and args.dt > 0):
            raise UsageError(f"--dt must be positive and finite, got {args.dt!r}")
        turns = args.freq * args.dt  # per update; 1/turns is the multiplier
        if not (0.0 < turns < math.inf and 1.0 / turns < math.inf):
            raise UsageError(f"--dt {args.dt!r} is out of range: freq*dt is {turns!r} turns")
        return snap_multiplier(1.0 / turns, args.qmax)
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

    quantizer = timing = None
    if needs_bits:
        if args.bits is None:
            raise UsageError(f"--bits is required for model '{model}'")
        _check_bits("--bits", args.bits)
        quantizer = QuantizerConfig(
            args.bits, QuantizationMode(args.mode or "floor")
        )
    if needs_timing:
        timing = _resolve_timing(args)
    _check_times(args.freq, timing)
    return WaveformModel(ModelKind(model), spec, quantizer=quantizer, timing=timing)


def cmd_eval(args) -> int:
    model = _eval_model(args)
    _check_outputs([args.out])
    report = evaluate(model)
    if args.format == "json":
        text = reporting.report_to_json(report)
    else:
        text = reporting.report_to_csv(report)
    _write_outputs([(args.out, text)])
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
    for flag, value in (
        ("--workers", args.workers),
        ("--bits-step", args.bits_step),
        ("--points-per-decade", args.points_per_decade),
        ("--qmax", args.qmax),
    ):
        _check_at_least_one(flag, value)
    _check_bits("--bits-from", args.bits_from)
    _check_bits("--bits-to", args.bits_to)
    if args.bits_to < args.bits_from:
        raise UsageError(
            f"--bits-to must be >= --bits-from, got {args.bits_to} < {args.bits_from}"
        )
    multipliers = None
    if args.multipliers is not None:
        try:
            multipliers = tuple(float(v) for v in args.multipliers.split(","))
        except ValueError as exc:
            raise UsageError(f"--multipliers: {exc}") from exc
        for value in multipliers:
            if not (math.isfinite(value) and value > 0):
                raise UsageError(f"--multipliers must be positive and finite, got {value!r}")
    _check_decade("--decades-from", args.decades_from)
    _check_decade("--decades-to", args.decades_to)
    if multipliers is None and args.decades_to < args.decades_from:
        raise UsageError(
            "--decades-to must be >= --decades-from, "
            f"got {args.decades_to!r} < {args.decades_from!r}"
        )
    if args.axis != "bits" and multipliers is None:
        length = axis_length(args.decades_from, args.decades_to, args.points_per_decade)
        if length > MAX_AXIS_POINTS:
            raise UsageError(
                "--points-per-decade: the multiplier axis would have more than "
                f"{MAX_AXIS_POINTS} points"
            )
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
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    if args.axis == "grid" and args.svg is not None:
        # the chart has one cell per bit count and requested multiplier
        repeated = [m for m, n in Counter(spec.multiplier_axis()).items() if n > 1]
        if repeated:
            flag = "--multipliers" if multipliers is not None else "--points-per-decade"
            raise UsageError(f"{flag}: the grid chart needs {repeated[0]!r} only once")
    if args.svg is not None and _same_output(args.out, args.svg):
        raise UsageError(f"--svg {args.svg!r} names the same output as --out {args.out!r}")
    _check_outputs([args.out, args.svg or "-"])
    runner = {"bits": sweep_bits, "multiplier": sweep_multiplier, "grid": sweep_grid}
    result = runner[args.axis](spec, workers=args.workers)
    outputs = [(args.out, reporting.sweep_to_csv(result))]
    if args.svg is not None:
        try:
            outputs.append((args.svg, _sweep_svg(result, args.svg_metric)))
        except charts.EmptyChart as exc:
            raise UsageError(f"--svg-metric {args.svg_metric}: {exc}") from exc
    _write_outputs(outputs)
    return EXIT_OK


def cmd_bounds(args) -> int:
    _check_freq(args.freq)
    if args.bits is not None:
        _check_bits("--bits", args.bits)
    timing = None
    if args.multiplier is not None or args.dt is not None:
        args.model = "bounds"  # for the usage message in _resolve_timing
        timing = _resolve_timing(args)
    _check_times(args.freq, timing)
    _check_outputs([args.out])
    data = bounds_mod.report(args.freq, timing, args.bits)
    _write_outputs([(args.out, json.dumps(data, indent=2, allow_nan=False) + "\n")])
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
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
