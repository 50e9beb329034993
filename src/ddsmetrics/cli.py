"""Command-line interface.

Three subcommands: ``eval`` reports both metrics for a single model,
``sweep`` runs one of the parameter sweeps and writes CSV (plus an
optional SVG chart), and ``bounds`` prints the closed-form bounds for a
parameter point. Exit codes: 0 success, 2 usage error, 3 runtime error
(an unwritable path, or a multiplier over the piece cap); on exit 3 no
output file is written.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import stat
import sys
from collections import Counter
from types import SimpleNamespace

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


def _flag(convert, valid, need: str):
    """The parse function of a flag: its text through ``convert``, then
    ``valid``. Text that does not convert and a value out of range raise
    a :class:`UsageError` naming the flag."""

    def parse(name: str, text: str):
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


def _is_decade(value: float) -> bool:
    # the multiplier axis runs over 10**value between the two ends
    try:
        return _is_positive(10.0**value)
    except OverflowError:
        return False


_count = _flag(int, lambda value: value >= 1, ">= 1")
# a snapped denominator of at most --qmax keeps the combined period a float
_qmax = _flag(
    int, lambda value: 1 <= value <= sys.float_info.max, f"in [1, {sys.float_info.max!r}]"
)
_bits = _flag(int, lambda value: 1 <= value <= MAX_BITS, f"in [1, {MAX_BITS}]")
_positive = _flag(float, _is_positive, "positive and finite")
_decades = _flag(float, _is_decade, "an exponent with 10**value positive and finite")
# an empty path would stage the working directory itself as the output
_path = _flag(str, bool, "a path or -")


def _multiplier(text: str) -> TimingConfig | float:
    # a "p/q" text is exact; a float is snapped once --qmax is known
    return TimingConfig.from_exact(text) if "/" in text else float(text)


def _multipliers(text: str) -> tuple[float, ...]:
    return tuple(float(value) for value in text.split(","))


def _check_times(freq: float, timing: TimingConfig | None, gap: bool = False) -> None:
    """The combined period q/f (1/f without timing) bounds every reported
    time, and with ``gap`` the update gap q/(p*f), which only the clock
    and phase shift of ``bounds`` divide by: each must be a positive
    finite float."""
    p, q = (timing.multiplier_num, timing.multiplier_den) if timing else (1, 1)
    times = [("combined period q/f" if timing else "period 1/f", q / freq)]
    if gap:
        times.append(("update gap q/(p*f)", q / (p * freq)))
    for name, seconds in times:
        if not 0.0 < seconds < math.inf:
            raise UsageError(f"--freq {freq!r} is out of range: the {name} is {seconds!r} s")


class _Output:
    """An output path, resolved once for every check and write of it: its
    status (symlinks followed; None when it is new or ``-``) and its real
    path, the target of a staged write. Whether the write is staged, the
    mode of the temp file and the rename target are thus fixed when the
    output is made, before any row is computed: a path created, replaced
    or re-pointed while the sweep runs is written as it was then."""

    def __init__(self, path: str):
        self.path, self.status, self.target = path, None, path
        if path != "-":
            try:
                self.status = os.stat(path)
            except FileNotFoundError:
                pass
            self.target = os.path.realpath(path)

    @property
    def staged(self) -> bool:
        """Whether a write goes through a temp file beside the target: a
        new or regular file."""
        return self.status is None or stat.S_ISREG(self.status.st_mode)


def _write_outputs(outputs: list[tuple[_Output, str]]) -> None:
    """Write each (output, text) pair, all files or none. A target that
    is new or a regular file gets a temp file beside it, with the
    target's mode, and the temp files are renamed into place only once
    all of them are written. Any other existing target (a device, a FIFO)
    is written directly after the renames. Path ``-`` is stdout, written
    last."""
    staged: list[tuple[str, str]] = []
    direct: list[tuple[str, str]] = []
    try:
        for output, text in outputs:
            if output.path == "-":
                continue
            if not output.staged:
                direct.append((output.path, text))
                continue
            head, tail = os.path.split(output.target)
            temp = os.path.join(head, f".{tail}.{os.getpid()}.tmp")
            staged.append((temp, output.target))
            with open(temp, "w", encoding="utf-8", newline="\n") as handle:
                handle.write(text)
            if output.status is not None:
                os.chmod(temp, stat.S_IMODE(output.status.st_mode))
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
    for output, text in outputs:
        if output.path == "-":
            sys.stdout.write(text)


def _check_outputs(outputs: list[_Output]) -> None:
    """Fail before any row is computed where :func:`_write_outputs` could
    not write: a new or regular file needs a writable directory, any other
    target write access."""
    for output in outputs:
        path = output.path
        if path == "-":
            continue
        if output.status is not None and stat.S_ISDIR(output.status.st_mode):
            raise OSError(f"cannot write {path!r}: it is a directory")
        target = os.path.dirname(output.target) if output.staged else path
        if not os.access(target, os.W_OK):
            raise OSError(f"cannot write {path!r}: {target!r} is missing or read-only")


def _same_output(first: _Output, second: _Output) -> bool:
    """Whether two outputs name one stdout, reached as ``-`` or through a
    path such as ``/dev/stdout``, or one file that :func:`_write_outputs`
    would stage twice (a new or regular file, symlinks followed)."""
    if "-" in (first.path, second.path):
        if first.path == second.path:
            return True
        other = (first if second.path == "-" else second).status
        try:
            out = os.fstat(1)
        except OSError:  # stdout closed
            return False
        return other is not None and (out.st_dev, out.st_ino) == (other.st_dev, other.st_ino)
    return first.target == second.target and first.staged


@contextlib.contextmanager
def _cap_names(flag: str, snapped: bool = True):
    """Prefix the flag to blame to a CapExceeded message: ``--qmax`` when
    the multiplier was ``snapped`` and, rounded to an integer, would fit
    the cap, so that a smaller --qmax would have kept it under; else
    ``flag``, which gave the multiplier. Of an axis, the multiplier is
    one that a smaller --qmax cannot keep under if there is one (see
    :func:`~ddsmetrics.metrics.check_pieces`)."""
    try:
        yield
    except CapExceeded as exc:
        if snapped and exc.rounds_under_cap:
            flag = "--qmax"
        exc.args = (f"{flag}: {exc}",)
        raise


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
    out = _Output(args.out)
    _check_outputs([out])
    flag = "--multiplier" if args.multiplier is not None else "--dt"
    with _cap_names(flag, snapped=not isinstance(args.multiplier, TimingConfig)):
        report = evaluate(model)
    if args.format == "json":
        text = reporting.report_to_json(report)
    else:
        text = reporting.report_to_csv(report)
    _write_outputs([(out, text)])
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
    outputs = [_Output(path) for path in (args.out, args.svg) if path is not None]
    if len(outputs) == 2 and _same_output(*outputs):
        raise UsageError(f"--svg {args.svg!r} names the same output as --out {args.out!r}")
    _check_outputs(outputs)
    # --workers is accepted on every axis and has no effect
    sweep = {"bits": sweep_bits, "multiplier": sweep_multiplier, "grid": sweep_grid}[args.axis]
    with _cap_names("--multipliers" if multipliers is not None else "--decades-to"):
        result = sweep(spec)
    texts = [reporting.sweep_to_csv(result)]
    if args.svg is not None:
        try:
            texts.append(charts.render_sweep(result, args.svg_metric))
        except charts.EmptyChart as exc:
            raise UsageError(f"--svg-metric {args.svg_metric}: {exc}") from exc
    _write_outputs(list(zip(outputs, texts)))
    return EXIT_OK


def cmd_bounds(args) -> int:
    timing = None
    if args.multiplier is not None or args.dt is not None:
        timing = _resolve_timing(args)
    _check_times(args.freq, timing, gap=True)
    data = bounds_mod.report(args.freq, timing, args.bits)
    # only the timing's figures can leave the float range, such as the
    # phase shift 2*pi*f*dt or the clock 1/dt of a subnormal dt
    for name, value in data.items():
        if not math.isfinite(value):
            flag = "--multiplier" if args.multiplier is not None else "--dt"
            raise UsageError(
                f"{flag} is out of range: {name} is {value!r} at dt = {data['dt_s']!r} s"
            )
    out = _Output(args.out)
    _check_outputs([out])
    _write_outputs([(out, json.dumps(data, indent=2, allow_nan=False) + "\n")])
    return EXIT_OK


_REQUIRED = object()  # the default of an entry that argv must give

# Each command's table maps a flag (or, without dashes, a positional) to
# how its text is read and its default: a tuple of the choices, or a
# parse function from _flag. -h and --help read no text.
_HELP = {"-h": (None, None), "--help": (None, None)}
_POINT = {
    "--freq": (_positive, 1.0),
    "--bits": (_bits, None),
    "--multiplier": (
        _flag(
            _multiplier,
            lambda m: isinstance(m, TimingConfig) or _is_positive(m),
            "positive and finite",
        ),
        None,
    ),
    "--dt": (_positive, None),
    "--qmax": (_qmax, 16),
    "--out": (_path, "-"),
}
# Unused since the metrics are exact; kept so older command lines (the
# benchmark's among them) still parse. Hidden from --help.
_RETIRED = dict.fromkeys(
    ("--samples", "--samples-per-step"), (_flag(int, lambda value: True, "an int"), None)
)
_MODES = ("floor", "round", "ceiling")
_COMMANDS = {
    "eval": (cmd_eval, "evaluate one model configuration", {
        **_HELP,
        **_POINT,
        "--model": (("target", "quantized", "held", "digitized"), _REQUIRED),
        "--mode": (_MODES, None),
        **_RETIRED,
        "--format": (("json", "csv"), "json"),
    }),
    "sweep": (cmd_sweep, "run a parameter sweep, write CSV/SVG", {
        **_HELP,
        "axis": (("bits", "multiplier", "grid"), _REQUIRED),
        "--bits-from": (_bits, 1),
        "--bits-to": (_bits, 16),
        "--bits-step": (_count, 1),
        "--decades-from": (_decades, 0.5),
        "--decades-to": (_decades, 4.0),
        "--points-per-decade": (_count, 30),
        "--multipliers": (
            _flag(
                _multipliers,
                lambda values: all(map(_is_positive, values)),
                "positive and finite numbers",
            ),
            None,
        ),
        "--mode": (_MODES, "floor"),
        "--qmax": (_qmax, 16),
        **_RETIRED,
        "--workers": (_count, 1),
        "--out": (_path, "-"),
        "--svg": (_path, None),
        "--svg-metric": (("error", "thd"), "error"),
    }),
    "bounds": (cmd_bounds, "closed-form bounds for a parameter point", {**_HELP, **_POINT}),
}


def _option(token: str, table: dict) -> str | None:
    """The entry of ``table`` that ``token`` names as a flag: the text
    before any ``=``, matched exactly or as the prefix of one flag only.
    ``None`` when the token is a value: it does not start with ``-``, is
    ``-``, or names no flag and looks like a negative number or holds a
    space. ``""`` for an unknown flag."""
    if token[:1] != "-" or token == "-":
        return None
    name = token.partition("=")[0]
    if name in table:
        return name
    if name.startswith("--") and name != "--":
        matches = [flag for flag in table if flag.startswith(name)]
        if len(matches) > 1:
            raise UsageError(f"ambiguous option: {name} could match {', '.join(matches)}")
        if matches:
            return matches[0]
    if token[1] in "0123456789." or " " in token:
        return None
    return ""


def _convert(name: str, spec, text: str):
    if not isinstance(spec, tuple):
        return spec(name, text)
    if text not in spec:
        choices = ", ".join(map(repr, spec))
        raise UsageError(f"{name}: invalid choice: {text!r} (choose from {choices})")
    return text


def _parse(table: dict, argv: list[str]) -> dict | None:
    """The value of every entry of ``table``: its default, or what
    ``argv`` gives it (``--flag value`` or ``--flag=value``; the last one
    wins; after ``--`` every token is a positional). ``None`` for help."""
    values = {name: default for name, (spec, default) in table.items() if spec is not None}
    positionals = [name for name in table if not name.startswith("-")]
    tokens = iter(argv)
    only_positionals = False
    for token in tokens:
        if token == "--" and not only_positionals:
            only_positionals = True
            continue
        flag = None if only_positionals else _option(token, table)
        if flag is None and positionals:
            name = positionals.pop(0)
            values[name] = _convert(name, table[name][0], token)
            continue
        if not flag:
            raise UsageError(f"unrecognized arguments: {token}")
        spec = table[flag][0]
        if spec is None:
            return None
        _, given, text = token.partition("=")
        if not given:
            text = next(tokens, None)
            if text is None or _option(text, table) is not None:
                raise UsageError(f"{flag}: expected one argument")
        values[flag] = _convert(flag, spec, text)
    missing = [name for name, value in values.items() if value is _REQUIRED]
    if missing:
        raise UsageError(f"the following arguments are required: {', '.join(missing)}")
    return values


def _help(command: str | None) -> str:
    """The ``--help`` text of ``command`` (of the program for ``None``):
    every entry of its table but the retired flags, with its choices or
    its default."""
    if command is None:
        usage = "ddsmetrics {" + ",".join(_COMMANDS) + "} ..."
        about = "Worst-case error and THD metrology for clocked sine synthesis"
        heading = "commands:"
        rows = [(name, text) for name, (_, text, _) in _COMMANDS.items()]
    else:
        usage = f"ddsmetrics {command} [options]"
        _, about, table = _COMMANDS[command]
        heading = "options:"
        rows = [("-h, --help", "show this help and exit")]
        for name, (spec, default) in table.items():
            if spec is None or name in _RETIRED:
                continue
            if isinstance(spec, tuple):
                meta = "{" + ",".join(spec) + "}"
            else:
                meta = name.lstrip("-").upper().replace("-", "_")
            note = "required" if default is _REQUIRED else f"default: {default}"
            rows.append((f"{name} {meta}", note))
    width = max(len(left) for left, _ in rows)
    lines = [f"usage: {usage}", "", about, "", heading]
    lines += [f"  {left:<{width}}  {right}" for left, right in rows]
    return "\n".join(lines) + "\n"


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        if not argv:
            raise UsageError("the following arguments are required: command")
        if _option(argv[0], _HELP):
            sys.stdout.write(_help(None))
            return EXIT_OK
        command, _, table = _COMMANDS[_convert("command", tuple(_COMMANDS), argv[0])]
        values = _parse(table, argv[1:])
        if values is None:
            sys.stdout.write(_help(argv[0]))
            return EXIT_OK
        args = {name.lstrip("-").replace("-", "_"): value for name, value in values.items()}
        return command(SimpleNamespace(**args))
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
