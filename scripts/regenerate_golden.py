#!/usr/bin/env python3
"""Rewrite the output corpus in tests/golden/ from the code as it is.

Runs every case of tests/golden/cases.txt and writes its record to
tests/golden/expected/<name>.txt where the record is new or differs,
deletes the records of cases no longer listed, and writes the Python and
numpy versions to tests/golden/VERSIONS. It prints each record it
created, changed or deleted, and leaves identical records untouched.
Regenerating moves test data: review the diff of tests/golden/ before
committing it.
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
    for stale in sorted(corpus.EXPECTED.glob("*.txt")):
        if stale.stem not in names:
            stale.unlink()
            print(f"deleted {stale.relative_to(ROOT)}")
    for name, argv in names.items():
        path = corpus.EXPECTED / f"{name}.txt"
        text = corpus.record(argv)
        old = path.read_text(encoding="utf-8") if path.exists() else None
        if text != old:
            path.write_text(text, encoding="utf-8", newline="\n")
            print(f"{'created' if old is None else 'changed'} {path.relative_to(ROOT)}")
    corpus.VERSIONS.write_text(corpus.versions(), encoding="utf-8", newline="\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
