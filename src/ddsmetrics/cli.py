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


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        # argparse's own errors (a bad choice, an unknown flag, a missing
        # argument) print as one line, as the flag checks do, instead of a
        # usage block; "argument --flag: ..." becomes "--flag: ..."
        raise UsageError(message.removeprefix("argument "))


def _flag(name: str, convert, valid, need: str):
    """The argparse ``type=`` of flag ``name``: its text through
    ``convert``, then ``valid``. Text that does not convert and a value
    out of range raise a :class:`UsageError` naming the flag."""

    def parse(text: str):
        try:
            value = convert(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise UsageError(f"{name}: cannot parse {text!r}: {exc}") from exc
        if not valid(value):
            raise UsageError(f"{name} must be {need}, got {value!r}")
        return value

    return parse


def _is_positive(value: float) -> bool:
    return 0.0 < value < math.inf


def _count(name: str):
    return _flag(name, int, lambda value: value >= 1, ">= 1")


def _bits(name: str):
    return _flag(name, int, lambda value: 1 <= value <= MAX_BITS, f"in [1, {MAX_BITS}]")


def _positive(name: str):
    return _flag(name, float, _is_positive, "positive and finite")


def _decades(name: str):
    def usable(value: float) -> bool:
        # the multiplier axis runs over 10**value between the two ends
        try:
            return _is_positive(10.0**value)
        except OverflowError:
            return False

    return _flag(name, float, usable, "an exponent with 10**value positive and finite")


def _multiplier(text: str) -> TimingConfig | float:
    # a "p/q" text is exact; a float is snapped once --qmax is known
    return TimingConfig.from_exact(text) if "/" in text else float(text)


def _multipliers(text: str) -> tuple[float, ...]:
    return tuple(float(value) for value in text.split(","))


def _check_times(freq: float, timing: TimingConfig | None) -> None:
    """The combined period q/f (1/f without timing) bounds every reported
    time, and the bounds divide by the update gap q/(p*f): both must be
    positive finite floats."""
    p, q = (timing.multiplier_num, timing.multiplier_den) if timing else (1, 1)
    period = "combined period q/f" if timing else "period 1/f"
    for name, seconds in ((period, q / freq), ("update gap q/(p*f)", q / (p * freq))):
        if not 0.0 < seconds < math.inf:
            raise UsageError(f"--freq {freq!r} is out of range: the {name} is {seconds!r} s")


def _add_retired_flags(parser: argparse.ArgumentParser) -> None:
    # Unused since the metrics are exact; kept so the benchmark's argv still parses.
    for flag in ("--samples", "--samples-per-step"):
        parser.add_argument(flag, type=int, help=argparse.SUPPRESS)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ddsmetrics",
        description="Worst-case error and THD metrology for clocked sine synthesis",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ev = sub.add_parser("eval", help="evaluate one model configuration")
    ev.set_defaults(func=cmd_eval)
    sw = sub.add_parser("sweep", help="run a parameter sweep, write CSV/SVG")
    sw.set_defaults(func=cmd_sweep)
    bd = sub.add_parser("bounds", help="closed-form bounds for a parameter point")
    bd.set_defaults(func=cmd_bounds)

    for point in (ev, bd):
        point.add_argument("--freq", type=_positive("--freq"), default=1.0)
        point.add_argument("--bits", type=_bits("--bits"), default=None)
        point.add_argument(
            "--multiplier",
            type=_flag(
                "--multiplier", _multiplier,
                lambda m: isinstance(m, TimingConfig) or _is_positive(m),
                "positive and finite",
            ),
            default=None,
        )
        point.add_argument("--dt", type=_positive("--dt"), default=None)
        point.add_argument("--qmax", type=_count("--qmax"), default=16)
        point.add_argument("--out", type=str, default="-")
    ev.add_argument(
        "--model",
        required=True,
        choices=["target", "quantized", "held", "digitized"],
    )
    ev.add_argument("--mode", choices=["floor", "round", "ceiling"], default=None)
    _add_retired_flags(ev)
    ev.add_argument("--format", choices=["json", "csv"], default="json")

    sw.add_argument("axis", choices=["bits", "multiplier", "grid"])
    sw.add_argument("--bits-from", type=_bits("--bits-from"), default=1)
    sw.add_argument("--bits-to", type=_bits("--bits-to"), default=16)
    sw.add_argument("--bits-step", type=_count("--bits-step"), default=1)
    sw.add_argument("--decades-from", type=_decades("--decades-from"), default=0.5)
    sw.add_argument("--decades-to", type=_decades("--decades-to"), default=4.0)
    sw.add_argument(
        "--points-per-decade", type=_count("--points-per-decade"), default=30
    )
    sw.add_argument(
        "--multipliers",
        type=_flag(
            "--multipliers", _multipliers,
            lambda values: all(map(_is_positive, values)),
            "positive and finite numbers",
        ),
        default=None,
        help="comma-separated explicit multiplier axis, overrides decades",
    )
    sw.add_argument("--mode", choices=["floor", "round", "ceiling"], default="floor")
    sw.add_argument("--qmax", type=_count("--qmax"), default=16)
    _add_retired_flags(sw)
    sw.add_argument("--workers", type=_count("--workers"), default=1)
    sw.add_argument("--out", type=str, default="-")
    sw.add_argument("--svg", type=str, default=None)
    sw.add_argument("--svg-metric", choices=["error", "thd"], default="error")

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
    if isinstance(args.multiplier, TimingConfig):
        return args.multiplier
    if args.multiplier is not None:
        return snap_multiplier(args.multiplier, args.qmax)
    if args.dt is not None:
        turns = args.freq * args.dt  # per update; 1/turns is the multiplier
        if not (0.0 < turns < math.inf and 1.0 / turns < math.inf):
            raise UsageError(f"--dt {args.dt!r} is out of range: freq*dt is {turns!r} turns")
        return snap_multiplier(1.0 / turns, args.qmax)
    raise UsageError(f"--multiplier (or --dt) is required for model {args.model!r}")


def _eval_model(args) -> WaveformModel:
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


def cmd_sweep(args) -> int:
    if args.bits_to < args.bits_from:
        raise UsageError(
            f"--bits-to must be >= --bits-from, got {args.bits_to} < {args.bits_from}"
        )
    multipliers = args.multipliers
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
            outputs.append((args.svg, charts.render_sweep(result, args.svg_metric)))
        except charts.EmptyChart as exc:
            raise UsageError(f"--svg-metric {args.svg_metric}: {exc}") from exc
    _write_outputs(outputs)
    return EXIT_OK


def cmd_bounds(args) -> int:
    timing = None
    if args.multiplier is not None or args.dt is not None:
        timing = _resolve_timing(args)
    _check_times(args.freq, timing)
    _check_outputs([args.out])
    data = bounds_mod.report(args.freq, timing, args.bits)
    _write_outputs([(args.out, json.dumps(data, indent=2, allow_nan=False) + "\n")])
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (CapExceeded, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
