"""The output corpus: a fixed list of command lines and what each one
printed and wrote, recorded in ``tests/golden/``.

``tests/golden/cases.txt`` holds one case a line, ``name argv...`` in
shell quoting, where ``{dir}`` stands for a fresh empty directory. An argv
that starts with a ``.py`` path runs that script of the repository;
any other goes to ``ddsmetrics.cli.main``. Both run in this process.

A case's record (``tests/golden/expected/<name>.txt``) holds its exit
code, its stdout and stderr, the text of every file it left in ``{dir}``,
and the SHA-256 of each SVG among them. ``tests/golden/VERSIONS`` names
the Python and numpy the records were made with: the float bytes depend
on the platform's libm and on numpy.

Regenerate every record with ``python3 scripts/regenerate_golden.py``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import pathlib
import platform
import runpy
import shlex
import sys
import tempfile

import numpy as np

from ddsmetrics import cli

ROOT = pathlib.Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
EXPECTED = GOLDEN / "expected"
VERSIONS = GOLDEN / "VERSIONS"


def versions() -> str:
    """The interpreter and numpy that make the records, as VERSIONS holds them."""
    return f"Python {platform.python_version()}, numpy {np.__version__}\n"


def cases() -> dict[str, list[str]]:
    """Each case's argv by name, in the order of cases.txt."""
    found: dict[str, list[str]] = {}
    for line in (GOLDEN / "cases.txt").read_text(encoding="utf-8").splitlines():
        if line.strip() and not line.startswith("#"):
            name, *argv = shlex.split(line)
            if name in found:
                raise ValueError(f"case {name!r} is listed twice")
            found[name] = argv
    return found


def _script(path: pathlib.Path, args: list[str]):
    """Run a script as ``__main__`` with ``args``; its exit code."""
    saved = sys.argv
    sys.argv = [str(path), *args]
    try:
        runpy.run_path(str(path), run_name="__main__")
    except SystemExit as exc:
        return exc.code
    finally:
        sys.argv = saved
    return 0


def _section(title: str, text: str) -> str:
    lines = text.count("\n")
    note = "" if not text or text.endswith("\n") else ", no newline at end"
    return f"== {title} ({lines} lines{note})\n{text}" + ("\n" if note else "")


def record(argv: list[str]) -> str:
    """Run one case in a fresh directory; the text of its record."""
    with tempfile.TemporaryDirectory() as directory:
        directory = os.path.realpath(directory)
        argv = [token.replace("{dir}", directory) for token in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if argv[0].endswith(".py"):
                code = _script(ROOT / argv[0], argv[1:])
            else:
                code = cli.main(argv)
        sections = [
            f"== exit {code}\n",
            _section("stdout", out.getvalue().replace(directory, "{dir}")),
            _section("stderr", err.getvalue().replace(directory, "{dir}")),
        ]
        for name in sorted(os.listdir(directory)):
            data = pathlib.Path(directory, name).read_bytes()
            if name.endswith(".svg"):
                sections.append(f"== {name} sha256 {hashlib.sha256(data).hexdigest()}\n")
            else:
                sections.append(_section(name, data.decode("utf-8")))
    return "".join(sections)
