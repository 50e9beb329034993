"""Every case of the output corpus (see ``tests/corpus.py``) prints and
writes exactly what its record in ``tests/golden/expected/`` holds."""

import pytest

import corpus

CASES = corpus.cases()


def test_every_case_has_one_record():
    assert sorted(path.stem for path in corpus.EXPECTED.glob("*.txt")) == sorted(CASES)


@pytest.mark.parametrize("name", list(CASES))
def test_case_matches_its_record(name):
    expected = (corpus.EXPECTED / f"{name}.txt").read_text(encoding="utf-8")
    recorded_with = corpus.VERSIONS.read_text(encoding="utf-8").strip()
    assert corpus.record(CASES[name]) == expected, (
        f"case {name!r} moved from its record, made with {recorded_with}; this run has "
        f"{corpus.versions().strip()}. If the move is meant, run "
        "scripts/regenerate_golden.py and log which bytes moved and why."
    )
