"""CSV and JSON serialization for reports and sweep results.

Every numeric field is written with shortest round-trip digits so a
parse of the emitted text recovers the exact float. Style rules: plain
decimal notation for magnitudes in [1e-4, 1e6), scientific notation with
a lowercase ``e`` otherwise, ``.`` as the only separator regardless of
locale. Absent values (for example the dB figure of a distortion-free
signal) serialize as empty CSV fields and JSON nulls, never as sentinel
numbers.
"""

from __future__ import annotations

import decimal
import json
import math

from .metrics import MetricsReport
from .sweeps import SCHEMA_VERSION, SweepResult, SweepRow

__all__ = [
    "fmt_float",
    "csv_field",
    "report_to_json",
    "report_to_csv",
    "sweep_to_csv",
    "parse_csv",
]

BITS_HEADER = "bits,mode,max_err,max_err_pct,eq5_bound,thd_ratio,thd_db"
MULTIPLIER_HEADER = (
    "m_requested,m_num,m_den,max_err,eq14_bound,strict_bound,thd_ratio,thd_db,flags"
)
GRID_HEADER = (
    "bits,m_requested,m_num,m_den,max_err,eq16_bound,strict_bound,"
    "thd_ratio,thd_db,flags"
)

JSON_KEYS = (
    "model",
    "freq_hz",
    "bits",
    "mode",
    "m_num",
    "m_den",
    "max_abs_error",
    "argmax_time_s",
    "thd_ratio",
    "thd_db",
    "paper_bound",
    "strict_bound",
    "schema_version",
)


def fmt_float(x: float) -> str:
    """Shortest exact decimal text for a finite float, styled per module rules."""
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite value {x!r}")
    if x == 0.0:
        return "0"
    ax = abs(x)
    if 1e-4 <= ax < 1e6:
        s = repr(x)
        if "e" not in s and "E" not in s:
            return s
        s = format(decimal.Decimal(s), "f")
        return s if float(s) == x else repr(x)
    for precision in range(17):
        s = f"{x:.{precision}e}"
        if float(s) == x:
            return s
    return f"{x:.17e}"


def csv_field(value) -> str:
    """One CSV cell: empty for None, exact text for numbers."""
    if value is None:
        return ""
    if isinstance(value, bool):
        raise TypeError("booleans have no CSV representation here")
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return fmt_float(value)
    return str(value)


def _flags_field(flags: tuple[str, ...]) -> str:
    return ";".join(flags) if flags else "-"


def report_to_json(report: MetricsReport, schema_version: int = SCHEMA_VERSION) -> str:
    data = {
        "model": report.model,
        "freq_hz": report.freq_hz,
        "bits": report.bits,
        "mode": report.mode,
        "m_num": report.m_num,
        "m_den": report.m_den,
        "max_abs_error": report.max_abs_error,
        "argmax_time_s": report.argmax_time_s,
        "thd_ratio": report.thd_ratio,
        "thd_db": report.thd_db,
        "paper_bound": report.paper_bound,
        "strict_bound": report.strict_bound,
        "schema_version": schema_version,
    }
    return json.dumps(data, indent=2, allow_nan=False) + "\n"


def report_to_csv(report: MetricsReport, schema_version: int = SCHEMA_VERSION) -> str:
    header = ",".join(JSON_KEYS)
    row = ",".join(
        csv_field(v)
        for v in (
            report.model,
            report.freq_hz,
            report.bits,
            report.mode,
            report.m_num,
            report.m_den,
            report.max_abs_error,
            report.argmax_time_s,
            report.thd_ratio,
            report.thd_db,
            report.paper_bound,
            report.strict_bound,
            schema_version,
        )
    )
    return f"{header}\n{row}\n"


def _spec_echo_lines(result: SweepResult) -> list[str]:
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
            axis = " ".join(fmt_float(m) for m in spec.multipliers)
            lines.append(f"# multipliers={axis}")
        else:
            lines.append(
                f"# decades={fmt_float(spec.decades_from)}.."
                f"{fmt_float(spec.decades_to)}"
                f" points_per_decade={spec.points_per_decade}"
            )
        lines.append(f"# qmax={spec.q_max}")
    return lines


def _bits_row(row: SweepRow) -> str:
    r = row.report
    return ",".join(
        (
            csv_field(r.bits),
            csv_field(r.mode),
            csv_field(r.max_abs_error),
            csv_field(r.max_err_pct),
            csv_field(r.paper_bound),
            csv_field(r.thd_ratio),
            csv_field(r.thd_db),
        )
    )


def _multiplier_row(row: SweepRow) -> str:
    r = row.report
    return ",".join(
        (
            csv_field(row.requested_multiplier),
            csv_field(r.m_num),
            csv_field(r.m_den),
            csv_field(r.max_abs_error),
            csv_field(r.paper_bound),
            csv_field(r.strict_bound),
            csv_field(r.thd_ratio),
            csv_field(r.thd_db),
            _flags_field(row.flags),
        )
    )


def _grid_row(row: SweepRow) -> str:
    r = row.report
    return ",".join(
        (
            csv_field(r.bits),
            csv_field(row.requested_multiplier),
            csv_field(r.m_num),
            csv_field(r.m_den),
            csv_field(r.max_abs_error),
            csv_field(r.paper_bound),
            csv_field(r.strict_bound),
            csv_field(r.thd_ratio),
            csv_field(r.thd_db),
            _flags_field(row.flags),
        )
    )


_SWEEP_FORMATS = {
    "bits": (BITS_HEADER, _bits_row),
    "multiplier": (MULTIPLIER_HEADER, _multiplier_row),
    "grid": (GRID_HEADER, _grid_row),
}


def sweep_to_csv(result: SweepResult) -> str:
    header, row_fn = _SWEEP_FORMATS[result.kind]
    lines = _spec_echo_lines(result)
    lines.append(header)
    lines.extend(row_fn(row) for row in result.rows)
    return "\n".join(lines) + "\n"


def parse_csv(text: str) -> tuple[list[str], list[str], list[list[str]]]:
    """Split emitted CSV into comment lines, header fields, and data rows."""
    comments: list[str] = []
    header: list[str] = []
    rows: list[list[str]] = []
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("#"):
            comments.append(line)
        elif not header:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return comments, header, rows
