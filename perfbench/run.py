#!/usr/bin/env python3
"""Benchmark of the ddsmetrics sweep CLI.

Run from the repository root:

    python3 perfbench/run.py --workload held-multiplier --seed 0 --seconds 25 --trace 0

``--workload all`` runs the three workloads in turn. Every repetition
runs the real CLI (``ddsmetrics.cli.main`` with generated argv) in a
fresh interpreter and writes its CSV and SVG. Every output row is checked
against closed-form references computed here (``reference.py``), outside
the timed region. With ``--trace 0`` the end-to-end metrics are printed;
with ``--trace 1`` a traced run reports per-layer metrics instead
(``tracing.py``). The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np

import reference

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".perfbench_out"

POINTS_PER_DECADE = 30
Q_MAX = 16
MIN_REPS = 3
SETUP_IMPORTS = 7
CHILD_TIMEOUT_S = 60

SUP_TOLERANCE = 1e-12
THD_TOLERANCE_DB = 0.05  # the README's stated DFT/oracle agreement
# Resolution floors: the reference itself is accurate to about one float
# ulp in the supremum and 1e-9 dB in THD, so smaller deviations read as
# the floor instead of 0.
SHORTFALL_FLOOR = 1e-15
THD_ERROR_FLOOR_DB = 1e-9

MACHINE_NOTE = (
    "No system-wide tracing and no hardware counters are used, since a "
    "sandboxed run can rely on neither: times are perf_counter spans taken "
    "from outside the package, peak RSS is ru_maxrss, and byte counts are "
    "computed from array sizes, not measured."
)


@dataclass
class Command:
    """One CLI invocation of a workload and the rows it must produce."""

    argv: list[str]
    kind: str  # "bits" | "multiplier" | "grid"
    rows: list[dict]
    svg_args: list[str] = field(default_factory=list)

    @property
    def bound_column(self) -> str:
        return "eq5_bound" if self.kind == "bits" else "strict_bound"


# -- workloads -----------------------------------------------------------------


def _multiplier_rows(axis: list[float], bits: int | None = None) -> list[dict]:
    rows = []
    for m in axis:
        p, q = reference.snap(m, Q_MAX)
        row = {"m_requested": m, "m_num": p, "m_den": q}
        if bits is not None:
            row = {"bits": bits, **row}
        rows.append(row)
    return rows


def held_multiplier(seed: int) -> list[Command]:
    """The fig3/fig4 multiplier axis (decades 0.5..4, 30 points per
    decade), rotated to start at a seeded row; seed 0 keeps it ascending.

    The rows, and so the work, are the same for every seed; the seed
    changes the order in which the two pool workers meet them. Shifting
    the axis instead would change the snapped p/q, and with them the FFT
    sizes, of the costliest rows, and the cost with every seed.
    """
    axis = [10.0 ** (0.5 + k / POINTS_PER_DECADE) for k in range(106)]
    start = random.Random(seed).randrange(len(axis)) if seed else 0
    axis = axis[start:] + axis[:start]
    argv = [
        "sweep", "multiplier", "--multipliers", ",".join(map(repr, axis)),
        "--qmax", str(Q_MAX), "--samples-per-step", "32", "--workers", "2",
    ]
    return [Command(argv, "multiplier", _multiplier_rows(axis))]


def digitized_grid(seed: int) -> list[Command]:
    """Bits 2..16 against 16 seeded integer multipliers, log-uniform in
    [4, 4096]: one draw in each sixteenth of the log range, so the spread
    of row costs, and with it the sweep's cost, varies little with the seed."""
    rng = random.Random(seed)
    axis: list[int] = []
    for stratum in range(16):
        m = None
        while m is None or m in axis:  # neighbouring strata can round alike
            m = round(4 * 1024 ** ((stratum + rng.random()) / 16))
        axis.append(m)
    argv = [
        "sweep", "grid", "--bits-from", "2", "--bits-to", "16",
        "--multipliers", ",".join(map(str, axis)), "--qmax", str(Q_MAX),
        "--samples", "100000", "--samples-per-step", "32", "--workers", "1",
    ]
    rows = [r for bits in range(2, 17) for r in _multiplier_rows(axis, bits)]
    return [Command(argv, "grid", rows, ["--svg-metric", "thd"])]


def quantized_bits(seed: int) -> list[Command]:
    """Bits 1..20 in floor and in round mode; the seed has no effect."""
    return [
        Command(
            ["sweep", "bits", "--bits-from", "1", "--bits-to", "20", "--mode", mode,
             "--workers", "1"],
            "bits",
            [{"bits": b, "mode": mode} for b in range(1, 21)],
        )
        for mode in ("floor", "round")
    ]


WORKLOADS = {
    "held-multiplier": held_multiplier,
    "digitized-grid": digitized_grid,
    "quantized-bits": quantized_bits,
}


def _reference(kind: str, row: dict) -> reference.Reference:
    if kind == "bits":
        return reference.quantized(row["bits"], row["mode"])
    return reference.stepped(row["m_num"], row["m_den"], row.get("bits"))


# -- row checks ----------------------------------------------------------------


def _parse_csv(text: str) -> list[dict]:
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    return list(csv.DictReader(lines))


def _params_match(expected: dict, got: dict) -> bool:
    for key, want in expected.items():
        have = got.get(key, "")
        if key == "m_requested":
            if not math.isclose(float(have), want, rel_tol=1e-12):
                return False
        elif have != str(want):
            return False
    return True


def _row_failures(cmd: Command, row: dict, ref, out: dict, shortfalls, thd_errors) -> list[str]:
    """Reasons one output row fails; appends its accuracy figures."""
    if not _params_match(row, out):
        return [f"row parameters differ: {out}"]
    max_err = float(out["max_err"])
    shortfalls.append(ref.max_err - max_err)
    reasons = []
    if "dft_cap_exceeded" in out.get("flags", ""):
        reasons.append("flagged dft_cap_exceeded")
    if not out["thd_db"]:
        reasons.append("thd_db missing")
    else:
        error = abs(float(out["thd_db"]) - ref.thd_db)
        thd_errors.append(error)
        if error > THD_TOLERANCE_DB:
            reasons.append(f"thd_db off the reference by {error:.4g} dB")
    if max_err > float(out[cmd.bound_column]):
        reasons.append(f"max_err {max_err!r} exceeds {cmd.bound_column}")
    if max_err > ref.max_err + SUP_TOLERANCE:
        reasons.append(f"max_err {max_err!r} exceeds the exact supremum {ref.max_err!r}")
    return reasons


def check_output(cmd: Command, refs: list, text: str | None, why_missing: str):
    """Classify every expected row; returns (failures, shortfalls, thd_errors)."""
    if text is None:
        return [(row, why_missing) for row in cmd.rows], [], []
    got = _parse_csv(text)
    if len(got) != len(cmd.rows):
        reason = f"{len(got)} rows written, {len(cmd.rows)} expected"
        return [(row, reason) for row in cmd.rows], [], []
    failures, shortfalls, thd_errors = [], [], []
    for row, ref, out in zip(cmd.rows, refs, got):
        try:
            reasons = _row_failures(cmd, row, ref, out, shortfalls, thd_errors)
        except (KeyError, TypeError, ValueError) as exc:
            reasons = [f"unreadable row {out}: {exc!r}"]
        if reasons:
            failures.append((row, "; ".join(reasons)))
    return failures, shortfalls, thd_errors


# -- processes -----------------------------------------------------------------


def _env() -> dict:
    env = dict(os.environ)
    src = os.path.join(os.getcwd(), "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def measure_setup(env: dict) -> float:
    """Seconds from starting a fresh interpreter to ``ddsmetrics.cli``
    imported and the interpreter gone. No timeout: waiting with one makes
    ``subprocess`` poll in steps of up to 50 ms."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import ddsmetrics.cli"], env=env, check=True)
    return time.perf_counter() - start


def run_child(commands: list[Command], out_dir: str, trace: bool, env: dict):
    """One repetition in a fresh process. Returns (result, csv texts, svg texts)."""
    argvs, csv_paths, svg_paths = [], [], []
    for i, cmd in enumerate(commands):
        csv_path = os.path.join(out_dir, f"cmd{i}.csv")
        svg_path = os.path.join(out_dir, f"cmd{i}.svg")
        for path in (csv_path, svg_path):
            if os.path.exists(path):
                os.remove(path)
        argvs.append(cmd.argv + ["--out", csv_path, "--svg", svg_path] + cmd.svg_args)
        csv_paths.append(csv_path)
        svg_paths.append(svg_path)
    spec = {"commands": argvs, "trace": trace, "spans_out": os.path.join(out_dir, "spans.json")}
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py"), json.dumps(spec)],
            env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        return {"codes": ["timeout"] * len(commands)}, [None] * len(commands), [None] * len(commands)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        result = {"codes": [f"child exited {proc.returncode}"] * len(commands)}
    else:
        result = json.loads(proc.stdout.strip().splitlines()[-1])

    def read(path):
        if not os.path.exists(path):
            return None
        with open(path, encoding="utf-8") as handle:
            return handle.read()

    return result, [read(p) for p in csv_paths], [read(p) for p in svg_paths]


# -- the run -------------------------------------------------------------------


def machine() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "note": MACHINE_NOTE,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, oracle_problems: list) -> dict:
    commands = WORKLOADS[name](seed)
    out_dir = os.path.join(OUT_DIR, name)
    os.makedirs(out_dir, exist_ok=True)
    env = _env()

    refs = [[_reference(cmd.kind, row) for row in cmd.rows] for cmd in commands]
    oracle_problems = list(oracle_problems)
    # Set-up is timed once before every untraced repetition, so its samples
    # span the same minutes as the repetitions; the first import may
    # compile bytecode and is not counted.
    setup: list[float] = []
    if not trace:
        measure_setup(env)

    reps = []  # (traced, result, csv texts, svg texts)
    start = time.perf_counter()
    # Untraced: at least MIN_REPS repetitions. Traced: untraced and traced
    # repetitions alternate, at least one pair, within the same time.
    while len(reps) < (2 if trace else MIN_REPS) or time.perf_counter() - start < seconds:
        if not trace:
            setup.append(measure_setup(env))
        reps.append((False, *run_child(commands, out_dir, False, env)))
        if trace:
            reps.append((True, *run_child(commands, out_dir, True, env)))
    while not trace and len(setup) < SETUP_IMPORTS:
        setup.append(measure_setup(env))

    attempted, failures, shortfalls, thd_errors = 0, [], [], []
    checked: dict = {}
    for _, result, csvs, _ in reps:
        for i, cmd in enumerate(commands):
            code = result["codes"][i]
            key = (i, code, csvs[i])
            if key not in checked:
                why = f"command exited {code}"
                checked[key] = check_output(cmd, refs[i], csvs[i] if code == 0 else None, why)
            f, s, t = checked[key]
            attempted += len(cmd.rows)
            failures += f
            shortfalls += s
            thd_errors += t
    for i in range(len(commands)):
        for texts in ({r[2][i] for r in reps}, {r[3][i] for r in reps}):
            if len(texts) > 1:
                oracle_problems.append(f"command {i}: output differs between repetitions")

    plain = [r[1] for r in reps if not r[0] and "wall_s" in r[1]]
    if trace:
        traced = [r[1] for r in reps if r[0] and "layers" in r[1]]
        metrics = {
            key: statistics.median(r["layers"][key] for r in traced)
            for key in traced[0]["layers"]
        } if traced else {}
        metrics["trace.overhead_s"] = (
            statistics.median(r["wall_s"] for r in traced)
            - statistics.median(r["wall_s"] for r in plain)
        ) if traced and plain else 0.0
    else:
        metrics = {
            "wall_s": statistics.median(r["wall_s"] for r in plain) if plain else 0.0,
            "peak_rss_mb": statistics.median(r["maxrss_kb"] / 1024 for r in plain) if plain else 0.0,
            "setup_s": statistics.median(setup),
            "passed_row_share": (attempted - len(failures)) / attempted,
            "max_err_shortfall": max([SHORTFALL_FLOOR, *shortfalls]),
            "thd_db_error": max([THD_ERROR_FLOOR_DB, *thd_errors]),
        }

    record = {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "argv": [cmd.argv for cmd in commands],
        "axes": [cmd.rows for cmd in commands],
        "repetitions": len(reps),
        "wall_s_each": [r[1].get("wall_s") for r in reps],
        "traced_each": [r[0] for r in reps],
        "peak_rss_mb_each": [r[1].get("maxrss_kb", 0) / 1024 for r in reps],
        "setup_s_each": setup,
        "failed_rows": [{"row": row, "reason": why} for row, why in failures[:50]],
        "oracle_problems": oracle_problems,
        "machine": machine(),
    }
    return {
        "correct": not failures and not oracle_problems and bool(plain),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
        "record": record,
    }


def _units() -> dict:
    with open(os.path.join(os.getcwd(), "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    for needed in ("src/ddsmetrics/cli.py", "tests/conftest.py", "BENCHMARK.json"):
        if not os.path.isfile(needed):
            print(f"error: {needed} not found; run from the repository root", file=sys.stderr)
            return 2

    units = _units()
    sys.path.insert(0, os.path.join(os.getcwd(), "tests"))
    import conftest

    oracle_problems = reference.self_check(conftest)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace), oracle_problems)
        record = result["record"]
        print(f"workload {name}  seed {args.seed}  trace {args.trace}  "
              f"repetitions {record['repetitions']}  rows {result['attempted']}  "
              f"failed {result['failed']}  correct {result['correct']}")
        for key, value in result["metrics"].items():
            print(f"  {key:36s} {value:<24.10g} {units.get(key, '')}")
        for item in record["failed_rows"]:
            print(f"  FAILED {item['row']}: {item['reason']}")
        for problem in record["oracle_problems"]:
            print(f"  PROBLEM {problem}")
        print("record " + json.dumps(record, separators=(",", ":")))
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        prefix = f"{name}." if len(names) > 1 else ""
        total["metrics"].update(
            {prefix + k: {"value": v, "unit": units.get(k, "")} for k, v in result["metrics"].items()}
        )
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
