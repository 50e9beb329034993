"""One repetition of a workload, in a fresh interpreter.

Usage: python3 child.py '<json spec>'   (started by run.py)

The spec holds the argv of each ``ddsmetrics`` command, whether to trace,
and where to write the spans. ``ddsmetrics.cli`` is imported before the
clock starts (``setup_s`` measures imports separately); each command is
timed around ``ddsmetrics.cli.main``, which includes writing the CSV and
SVG. Peak RSS is this process's ``ru_maxrss``, which only ever grows, so
every repetition needs its own process. Prints one JSON line.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback


def _workers(argv: list[str]) -> int:
    return int(argv[argv.index("--workers") + 1]) if "--workers" in argv else 1


def main() -> None:
    spec = json.loads(sys.argv[1])
    import ddsmetrics.cli as cli

    tracer = None
    if spec["trace"]:
        from ddsmetrics import bounds, charts, metrics, reporting, sweeps

        from tracing import Tracer

        tracer = Tracer(
            {"bounds": bounds, "charts": charts, "cli": cli, "metrics": metrics,
             "reporting": reporting, "sweeps": sweeps}
        )
        tracer.install()

    codes, wall = [], 0.0
    for index, argv in enumerate(spec["commands"]):
        start = time.perf_counter()
        try:
            code = tracer.run_main(cli.main, argv, index) if tracer else cli.main(argv)
        except Exception:  # a crash counts against the rows; keep reporting
            traceback.print_exc(file=sys.stderr)
            code = "exception"
        wall += time.perf_counter() - start
        codes.append(code)

    out = {
        "codes": codes,
        "wall_s": wall,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer:
        out["layers"] = tracer.layers([_workers(argv) for argv in spec["commands"]])
        tracer.write(spec["spans_out"])
    print(json.dumps(out))


if __name__ == "__main__":
    main()
