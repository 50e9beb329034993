"""Command lines drawn from the CLI's own flag table, with extreme values:
every run exits 0, 2 or 3, prints no traceback, and on exit 2 or 3
prints one stderr line and leaves no output file behind."""

import concurrent.futures
import contextlib
import io
import os
import sys
import tempfile
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from ddsmetrics import cli

# Values at the edges of every flag's range: the smallest subnormal, a
# float near and at the top of the range, non-finite floats, zero, a
# negative, an integer past every float and a fraction over zero.
EXTREMES = ["5e-324", "1e308", repr(sys.float_info.max), "inf", "nan", "0", "-1", "9" * 300, "3/0"]

# Given before the drawn flags, which override them: an axis that passes
# the caps with the defaults left stays a few points of small multipliers.
SMALL_SWEEP = ["--decades-to", "1", "--points-per-decade", "3", "--bits-to", "4"]


def values(spec) -> list[str]:
    """The texts drawn for an entry: its choices, if any, and the extremes."""
    return [*spec, *EXTREMES] if isinstance(spec, tuple) else EXTREMES


@st.composite
def command_lines(draw):
    command = draw(st.sampled_from(list(cli._COMMANDS)))
    table = cli._COMMANDS[command][2]
    argv = [command]
    for name, (spec, _) in table.items():
        if not name.startswith("-"):  # a positional
            argv.append(draw(st.sampled_from(values(spec))))
    if command == "sweep":
        argv += SMALL_SWEEP
    flags = [name for name in table if name.startswith("-")]
    for flag in draw(st.lists(st.sampled_from(flags), min_size=1, max_size=5)):
        spec = table[flag][0]
        if spec is None:  # -h or --help
            argv.append(flag)
            continue
        value = draw(st.sampled_from(values(spec)))
        argv += draw(st.sampled_from([[flag, value], [f"{flag}={value}"]]))
    return argv


class SerialPool:
    """Stands in for ThreadPoolExecutor: runs the batches on this thread."""

    def __init__(self, max_workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return None

    def map(self, fn, *iterables):
        return list(map(fn, *iterables))


def run_in(directory: str, argv: list[str]) -> tuple[int, str]:
    """main(argv) with ``directory`` as the working directory and no
    thread started: its exit code and stderr."""
    err = io.StringIO()
    here = os.getcwd()
    os.chdir(directory)
    try:
        with mock.patch.object(concurrent.futures, "ThreadPoolExecutor", SerialPool), \
                contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        os.chdir(here)
    return code, err.getvalue()


@given(argv=command_lines())
@example(argv=["bounds", "--multiplier", repr(sys.float_info.max)])
@example(argv=["bounds", f"--multiplier={sys.float_info.max!r}", "--bits=52"])
@settings(max_examples=500, deadline=None, derandomize=True)
def test_exit_codes_and_messages(argv):
    with tempfile.TemporaryDirectory() as directory:
        code, err = run_in(directory, argv)
        assert code in (0, 2, 3), (argv, code, err)
        assert "Traceback" not in err, argv
        if code:
            assert err.count("\n") == 1 and err.endswith("\n"), (argv, err)
            assert os.listdir(directory) == [], argv
