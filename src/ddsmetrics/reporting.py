"""CSV and JSON serialization for reports and sweep results.

Every numeric field is written with shortest round-trip digits so a
parse of the emitted text recovers the exact float, with ``.`` as the
only separator regardless of locale. A CSV float is plain decimal for
magnitudes in [1e-4, 1e6) and scientific with a lowercase ``e``
otherwise (see :func:`fmt_float`). A JSON float is ``json.dumps``'s, its
``repr``: plain decimal in [1e-4, 1e16), so a 1e7 Hz minimum clock
reads ``10000000.0``. Absent values (for example the dB figure of a
distortion-free signal) serialize as empty CSV fields and JSON nulls,
never as sentinel numbers.
"""

from __future__ import annotations

import json
import math
from itertools import chain, groupby, repeat, tee
from operator import attrgetter

from .metrics import REPORT_FIELDS, MetricsReport
from .sweeps import SCHEMA_VERSION, SweepResult

__all__ = [
    "fmt_float",
    "csv_field",
    "report_to_json",
    "report_to_csv",
    "sweep_to_csv",
]

BITS_HEADER = "bits,mode,max_err,max_err_pct,eq5_bound,thd_ratio,thd_db"
MULTIPLIER_HEADER = (
    "m_requested,m_num,m_den,max_err,eq14_bound,strict_bound,thd_ratio,thd_db,flags"
)
GRID_HEADER = (
    "bits,m_requested,m_num,m_den,max_err,eq16_bound,strict_bound,"
    "thd_ratio,thd_db,flags"
)

# The columns of a sweep's CSV: a row's own requested multiplier, or a
# column of its report (see SweepResult.report_column).
_HEADERS = {"bits": BITS_HEADER, "multiplier": MULTIPLIER_HEADER, "grid": GRID_HEADER}

JSON_KEYS = (*REPORT_FIELDS, "schema_version")


def fmt_float(x: float) -> str:
    """Shortest exact decimal text for a finite float: "0" for zero, its
    ``repr`` in [1e-4, 1e6), and otherwise scientific notation with the
    fewest significant digits that round-trip when correctly rounded."""
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite value {x!r}")
    if x == 0.0:
        return "0"
    shortest = repr(x)
    if 1e-4 <= abs(x) < 1e6:
        return shortest
    # repr's digit count round-trips, correctly rounded, except at 46
    # powers of two such as 2**-24: floats lie twice as close below one as
    # above, so repr's digits may round-trip where the correctly rounded
    # ones of their count do not. One more digit always does.
    digits = shortest.partition("e")[0].replace(".", "").lstrip("-").strip("0")
    text = f"{x:.{len(digits) - 1}e}"
    return text if float(text) == x else f"{x:.{len(digits)}e}"


def csv_field(value) -> str:
    """One CSV cell: empty for None, exact text for numbers, and a tuple
    of flags joined by ``;``, ``-`` when it is empty."""
    if isinstance(value, float):
        return fmt_float(value)
    if value is None:
        return ""
    if isinstance(value, bool):
        raise TypeError("booleans have no CSV representation here")
    if isinstance(value, tuple):
        return ";".join(value) if value else "-"
    return str(value)


_REPORT_FIELDS = attrgetter(*REPORT_FIELDS)


def _report_values(report: MetricsReport) -> tuple:
    return (*_REPORT_FIELDS(report), SCHEMA_VERSION)


def report_to_json(report: MetricsReport) -> str:
    data = dict(zip(JSON_KEYS, _report_values(report)))
    return json.dumps(data, indent=2, allow_nan=False) + "\n"


def report_to_csv(report: MetricsReport) -> str:
    header = ",".join(JSON_KEYS)
    row = ",".join(map(csv_field, _report_values(report)))
    return f"{header}\n{row}\n"


def _spec_echo_lines(result: SweepResult, requested: list[str]) -> list[str]:
    spec = result.spec
    lines = [f"# sweep={result.kind} schema_version={result.schema_version}"]
    if result.kind in ("bits", "grid"):
        lines.append(
            f"# bits={spec.bits_from}..{spec.bits_to} step={spec.bits_step}"
            f" mode={spec.mode.value}"
        )
    else:
        lines.append(f"# mode={spec.mode.value}")
    if result.kind in ("multiplier", "grid"):
        if spec.multipliers is not None:
            # the axis is the spec's multipliers as floats, whose row
            # text is fmt_float's
            lines.append(f"# multipliers={' '.join(requested)}")
        else:
            lines.append(
                f"# decades={fmt_float(spec.decades_from)}.."
                f"{fmt_float(spec.decades_to)}"
                f" points_per_decade={spec.points_per_decade}"
            )
        lines.append(f"# qmax={spec.q_max}")
    return lines


def _cells(values: list) -> list[str]:
    """:func:`csv_field` of each value. An int, or a float in [1e-4, 1e6),
    is its repr, which is what :func:`csv_field` returns there."""
    return [
        repr(v) if type(v) is int or type(v) is float and 1e-4 <= abs(v) < 1e6
        else csv_field(v)
        for v in values
    ]


# Reports formatted per pass: only one chunk's cells are alive at a time.
_CSV_CHUNK = 256


def _data_lines(result: SweepResult, requested: list[str], lines: list[str]) -> None:
    """Append the sweep's data lines to ``lines``. Each run of report
    columns of the header is formatted once per distinct report, a chunk
    of reports at a time; each row then joins its report's runs with the
    text of its axis point's requested multiplier from ``requested``."""
    parts = []  # "m_requested", or a tuple of a run of report columns
    for own, names in groupby(_HEADERS[result.kind].split(","), "m_requested".__eq__):
        parts += names if own else [tuple(names)]
    runs = [part for part in parts if isinstance(part, tuple)]
    texts = {part: [] for part in runs}
    for part, text in texts.items():
        columns = [result.report_column(name) for name in part]
        for first in range(0, len(columns[0]), _CSV_CHUNK):
            chunk = slice(first, first + _CSV_CHUNK)
            text += map(",".join, zip(*(_cells(column[chunk]) for column in columns)))
    positions = dict(zip(runs, tee(result.row_reports(), len(runs))))
    cells = [
        map(texts[part].__getitem__, positions[part]) if isinstance(part, tuple)
        else chain.from_iterable(repeat(requested, result.width))
        for part in parts
    ]
    lines.extend(map(",".join, zip(*cells)))


def sweep_to_csv(result: SweepResult) -> str:
    requested = _cells(result.axis)
    lines = _spec_echo_lines(result, requested)
    lines.append(_HEADERS[result.kind])
    _data_lines(result, requested, lines)
    lines.append("")  # the final newline, without a second copy of the text
    return "\n".join(lines)
