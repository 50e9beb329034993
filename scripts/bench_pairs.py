#!/usr/bin/env python3
"""Run the benchmark in alternating pairs, parent commit against the
working tree, and write a ``BENCH_*.json`` record.

Run from the repository root, for example:

    python3 scripts/bench_pairs.py --parent HEAD~1 --label my_change \\
        --change "what the change does" --claim quantized-bits:wall_s \\
        --run quantized-bits:0:10 --run quantized-bits:424242:5 \\
        --run held-multiplier:0:5 --out BENCH_my_change.json

Each ``--run WORKLOAD:SEED:PAIRS`` runs that many pairs of
``perfbench/run.py --workload WORKLOAD --seed SEED --trace 0``, at its
own default run length, one process at a time: one on a ``git archive``
of the parent commit in a temporary directory, one on the working tree,
each with its own ``perfbench/``. Even pairs run the parent first, odd pairs the change.
This script measures nothing itself: every figure is one that
``perfbench/run.py`` printed. The record is rewritten after every pair,
so an interrupted run keeps the pairs it finished.

The record holds the label, the change, the parent commit, the command,
the method, the claim, the machine, a summary, the regressions, and
every run. The summary has, for each workload and seed and each
end-to-end metric, the median and quartiles of each side, the parent's
interquartile range, the pairs the change won (better by the metric's
direction in ``BENCHMARK.json``) and tied, the quartiles of the pairs'
change/parent ratios, the change of the median in percent, and a
no-regression verdict against the metric's relative bound in
``BENCHMARK.json`` (see :func:`verdict`). The regressions list every
workload, seed and metric whose verdict is not ``"no worse"``. With
``--claim``, the record also judges the claim by ``RULE`` at each seed
of the claimed workload, from that summary, and beside it by
``PAIRED_RULE``, which a drift of the host's speed across the pairs moves
less than the parent's interquartile range.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time

COMMAND = "python3 perfbench/run.py --workload <workload> --seed <seed> --trace 0"

RULE = (
    "at every seed run of the claimed workload, the change wins at least nine "
    "tenths of the pairs, and its median is better than the parent's by more "
    "than the parent's interquartile range"
)


PAIRED_RULE = (
    "at every seed run of the claimed workload, the upper quartile of the pairs' "
    "change/parent ratios lies below 1 (the lower quartile above 1 for a metric "
    "where higher is better)"
)


def _archive(commit: str, directory: str) -> str:
    """Unpack the tree of ``commit`` into ``directory``; its full hash."""
    full = subprocess.run(
        ["git", "rev-parse", "--verify", f"{commit}^{{commit}}"],
        capture_output=True, text=True, check=True,
    ).stdout.strip()
    tar = os.path.join(directory, "parent.tar")
    subprocess.run(["git", "archive", "--format=tar", "-o", tar, full], check=True)
    tree = os.path.join(directory, "parent")
    with tarfile.open(tar) as archive:
        archive.extractall(tree)
    os.remove(tar)
    return full


def _run(root: str, workload: str, seed: int) -> tuple[dict, dict]:
    """One ``perfbench/run.py`` process in ``root``: its last stdout line
    (the result) and its record line's ``machine``."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--trace", "0"],
        cwd=root, capture_output=True, text=True, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    machine = {}
    for line in lines:
        if line.startswith("record "):
            machine = json.loads(line[len("record "):]).get("machine", {})
    return json.loads(lines[-1]), machine


def _quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def verdict(parent: list[float], change: list[float], direction: str, bound: float) -> str:
    """``"worse"`` when the change's median is worse than the parent's,
    in the metric's direction, by more than ``bound`` times the parent's
    median; else ``"unresolved"`` when the parent's interquartile range
    is more than ``bound`` times its median, unless every run of the
    change reads better than every run of the parent; else
    ``"no worse"``."""
    sign = 1.0 if direction == "lower" else -1.0
    p, c = _quartiles(parent), _quartiles(change)
    if sign * (c["median"] - p["median"]) > bound * abs(p["median"]):
        return "worse"
    spread = p["q3"] - p["q1"] > bound * abs(p["median"])
    if spread and max(sign * x for x in change) >= min(sign * x for x in parent):
        return "unresolved"
    return "no worse"


def summarize(runs: list[dict], better: dict[str, str], bounds: dict[str, float]) -> dict:
    """The summary of ``runs`` by workload and seed (see the module
    docstring); ``better`` maps a metric to ``"lower"`` or ``"higher"``,
    ``bounds`` to its relative bound."""
    summary: dict = {}
    groups: dict = {}
    for run in runs:
        key = f"{run['workload']}/seed_{run['seed']}"
        groups.setdefault(key, {}).setdefault(run["pair"], {})[run["side"]] = run["result"]
    for key, pairs in groups.items():
        whole = [pair for _, pair in sorted(pairs.items()) if len(pair) == 2]
        entry: dict = {}
        for metric, direction in better.items():
            values = [
                tuple(pair[side]["metrics"][metric]["value"] for side in ("parent", "change"))
                for pair in whole
                if metric in pair["parent"]["metrics"] and metric in pair["change"]["metrics"]
            ]
            if not values:
                continue
            parent, change = [p for p, _ in values], [c for _, c in values]
            sign = 1.0 if direction == "lower" else -1.0
            stats = {
                "pairs": len(values),
                "parent": _quartiles(parent),
                "change": _quartiles(change),
                "change_wins": sum(sign * (c - p) < 0 for p, c in values),
                "ties": sum(c == p for p, c in values),
            }
            stats["parent"]["iqr"] = stats["parent"]["q3"] - stats["parent"]["q1"]
            if all(p != 0 for p in parent):
                stats["pair_ratio"] = _quartiles([c / p for p, c in values])
            if stats["parent"]["median"] != 0:
                stats["median_change_pct"] = 100.0 * (
                    stats["change"]["median"] / stats["parent"]["median"] - 1.0
                )
            stats["verdict"] = verdict(parent, change, direction, bounds[metric])
            entry[metric] = stats
        entry["correct"] = all(side["correct"] for pair in whole for side in pair.values())
        entry["failed"] = {
            side: sum(pair[side]["failed"] for pair in whole) for side in ("parent", "change")
        }
        summary[key] = entry
    return summary


def judge(summary: dict, workload: str, metric: str, direction: str) -> dict:
    """The claim's verdict by ``RULE``: for each seed of ``workload`` in
    ``summary``, the wins, the pairs, the gap between the medians (in
    the metric's better direction) and the parent's interquartile range,
    and whether that seed meets the rule; and whether every seed does.
    Beside it, ``"paired"``, the verdict by ``PAIRED_RULE``: per seed the
    wins, the pairs and the quartiles of the pair ratios, and whether
    they meet that rule; and whether every seed does."""
    sign = 1.0 if direction == "lower" else -1.0
    seeds, paired = {}, {}
    for key, entry in summary.items():
        if not key.startswith(f"{workload}/") or metric not in entry:
            continue
        stats = entry[metric]
        gap = sign * (stats["parent"]["median"] - stats["change"]["median"])
        seeds[key] = {
            "wins": stats["change_wins"],
            "pairs": stats["pairs"],
            "gap": gap,
            "parent_iqr": stats["parent"]["iqr"],
            "met": 10 * stats["change_wins"] >= 9 * stats["pairs"]
            and gap > stats["parent"]["iqr"],
        }
        ratio = stats.get("pair_ratio")  # absent when a parent reads 0
        worst = None if ratio is None else ratio["q3" if direction == "lower" else "q1"]
        paired[key] = {
            "wins": stats["change_wins"],
            "pairs": stats["pairs"],
            "pair_ratio": ratio,
            "met": worst is not None and sign * (worst - 1.0) < 0,
        }
    return {
        "seeds": seeds,
        "met": bool(seeds) and all(s["met"] for s in seeds.values()),
        "paired": {
            "rule": PAIRED_RULE,
            "seeds": paired,
            "met": bool(paired) and all(s["met"] for s in paired.values()),
        },
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="the commit to compare against")
    parser.add_argument("--run", action="append", required=True, metavar="WORKLOAD:SEED:PAIRS")
    parser.add_argument("--label", required=True)
    parser.add_argument("--change", required=True, help="what the change does")
    parser.add_argument("--claim", metavar="WORKLOAD:METRIC", help="the metric the change claims")
    parser.add_argument("--out", required=True, help="the BENCH_*.json file to write")
    args = parser.parse_args()
    for needed in ("perfbench/run.py", "BENCHMARK.json"):
        if not os.path.isfile(needed):
            print(f"error: {needed} not found; run from the repository root", file=sys.stderr)
            return 2
    plan = []
    for text in args.run:
        workload, seed, pairs = text.split(":")
        plan.append((workload, int(seed), int(pairs)))
    with open("BENCHMARK.json", encoding="utf-8") as handle:
        end_to_end = json.load(handle)["end_to_end"]
    better = {m["name"]: m["better"] for m in end_to_end}
    bounds = {m["name"]: m["bound"] for m in end_to_end}

    record = {
        "label": args.label,
        "change": args.change,
        "parent_commit": None,
        "command": COMMAND,
        "method": (
            "scripts/bench_pairs.py: the parent from a git archive of its commit, the change "
            "from the working tree, each with its own perfbench/ at its default run length, "
            "one perfbench/run.py process at a time. Pairs alternate which "
            "side runs first (even pairs parent first). A pair is won when the change reads "
            "better in the metric's direction of BENCHMARK.json. Runs: "
            + ", ".join(f"{w} seed {s} x {n} pairs" for w, s, n in plan) + "."
        ),
        "claim": None,
        "machine": {},
        "summary": {},
        "regressions": [],
        "runs": [],
    }
    if args.claim:
        workload, metric = args.claim.split(":")
        if metric not in better:
            print(f"error: --claim: {metric!r} is no end-to-end metric", file=sys.stderr)
            return 2
        record["claim"] = {"workload": workload, "metric": metric, "rule": RULE}

    def save() -> None:
        record["summary"] = summarize(record["runs"], better, bounds)
        record["regressions"] = [
            f"{key} {metric}: {entry[metric]['verdict']}"
            for key, entry in record["summary"].items()
            for metric in better
            if metric in entry and entry[metric]["verdict"] != "no worse"
        ]
        claim = record["claim"]
        if claim:
            claim["verdict"] = judge(
                record["summary"], claim["workload"], claim["metric"], better[claim["metric"]]
            )
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=1)
            handle.write("\n")

    with tempfile.TemporaryDirectory() as scratch:
        record["parent_commit"] = _archive(args.parent, scratch)
        roots = {"parent": os.path.join(scratch, "parent"), "change": os.getcwd()}
        for workload, seed, pairs in plan:
            for pair in range(pairs):
                first = "parent" if pair % 2 == 0 else "change"
                order = (first, "change" if first == "parent" else "parent")
                for side in order:
                    started = time.time()
                    result, machine = _run(roots[side], workload, seed)
                    record["machine"] = record["machine"] or machine
                    record["runs"].append({
                        "workload": workload, "seed": seed, "pair": pair, "side": side,
                        "first": first, "started": started, "result": result,
                    })
                save()
                print(f"{workload} seed {seed} pair {pair} done", file=sys.stderr)
    save()
    print("regressions: " + ("; ".join(record["regressions"]) or "none"), file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
