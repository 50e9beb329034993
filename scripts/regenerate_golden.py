#!/usr/bin/env python3
"""Rewrite the output corpus in tests/golden/ from the code as it is.

Runs every case of tests/golden/cases.txt, writes its record to
tests/golden/expected/<name>.txt, deletes the records of cases no longer
listed, and writes the Python and numpy versions to
tests/golden/VERSIONS. Regenerating moves test data: review the diff of
tests/golden/ before committing it.
"""

from __future__ import annotations

import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import corpus  # noqa: E402


def main() -> int:
    corpus.EXPECTED.mkdir(parents=True, exist_ok=True)
    names = corpus.cases()
    for stale in corpus.EXPECTED.glob("*.txt"):
        if stale.stem not in names:
            stale.unlink()
    for name, argv in names.items():
        path = corpus.EXPECTED / f"{name}.txt"
        path.write_text(corpus.record(argv), encoding="utf-8", newline="\n")
        print(f"wrote {path.relative_to(ROOT)}")
    corpus.VERSIONS.write_text(corpus.versions(), encoding="utf-8", newline="\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
