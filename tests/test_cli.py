import concurrent.futures
import inspect
import json
import math
import os
import pathlib
import subprocess
import sys
import threading
import tracemalloc

import pytest

from ddsmetrics import cli
from ddsmetrics.cli import main
from oracles import parse_csv


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_target_report(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "--model", "target", "--freq", "1", "--samples", "1024"
        )
        assert code == 0
        data = json.loads(out)
        assert data["model"] == "target"
        assert data["max_abs_error"] == 0.0
        assert data["schema_version"] == 1

    def test_digitized_bound_echo(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "eval", "--model", "digitized", "--bits", "8", "--multiplier", "64",
            "--samples", "4096",
        )
        assert code == 0
        data = json.loads(out)
        assert data["paper_bound"] == pytest.approx(0.1058296, abs=1e-6)
        assert data["m_num"] == 64
        assert data["m_den"] == 1
        assert data["max_abs_error"] <= data["strict_bound"]

    def test_bits_invalid_for_held(self, capsys):
        code, _, err = run_cli(
            capsys, "eval", "--model", "held", "--bits", "8", "--multiplier", "8",
        )
        assert code == 2
        assert "--bits not valid for model 'held'" in err

    def test_mode_invalid_for_held(self, capsys):
        code, out, err = run_cli(
            capsys, "eval", "--model", "held", "--mode", "round", "--multiplier", "8",
        )
        assert (code, out) == (2, "")
        assert "--mode not valid for model 'held'" in err

    @pytest.mark.parametrize("flag,value", [("--multiplier", "5"), ("--dt", "0.1")])
    def test_timing_invalid_for_quantized(self, capsys, flag, value):
        code, out, err = run_cli(capsys, "eval", "--model", "quantized", "--bits", "4", flag, value)
        assert (code, out) == (2, "")
        assert f"{flag} not valid for model 'quantized'" in err

    def test_missing_bits_for_quantized(self, capsys):
        code, _, err = run_cli(capsys, "eval", "--model", "quantized")
        assert code == 2
        assert "--bits" in err

    def test_missing_multiplier_for_held(self, capsys):
        code, _, err = run_cli(capsys, "eval", "--model", "held")
        assert code == 2
        assert "--multiplier" in err

    def test_multiplier_dt_conflict(self, capsys):
        code, _, err = run_cli(
            capsys,
            "eval", "--model", "held", "--multiplier", "8", "--dt", "0.125",
        )
        assert code == 2
        assert "mutually exclusive" in err

    def test_dt_converts_by_snapping(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "eval", "--model", "held", "--dt", "0.125", "--samples", "1024",
        )
        assert code == 0
        data = json.loads(out)
        assert (data["m_num"], data["m_den"]) == (8, 1)

    def test_rational_multiplier_string(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "eval", "--model", "held", "--multiplier", "19/6", "--samples", "1024",
        )
        assert code == 0
        data = json.loads(out)
        assert (data["m_num"], data["m_den"]) == (19, 6)

    def test_unknown_model_rejected(self, capsys):
        code, _, _ = run_cli(capsys, "eval", "--model", "triangle")
        assert code == 2

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "eval", "--model", "quantized", "--bits", "4", "--mode", "round",
            "--samples", "1024", "--format", "csv",
        )
        assert code == 0
        _, header, rows = parse_csv(out)
        assert header[0] == "model"
        assert rows[0][header.index("mode")] == "round"

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys,
            "eval", "--model", "target", "--samples", "1024", "--out", str(path),
        )
        assert code == 0
        assert out == ""
        assert json.loads(path.read_text())["model"] == "target"


class TestSweep:
    def test_bits_sweep_row_count(self, capsys, tmp_path):
        path = tmp_path / "bits.csv"
        code, _, _ = run_cli(
            capsys,
            "sweep", "bits", "--bits-from", "1", "--bits-to", "16",
            "--samples", "2048", "--out", str(path),
        )
        assert code == 0
        _, _, rows = parse_csv(path.read_text())
        assert len(rows) == 16

    def test_multiplier_sweep_default_row_count(self, capsys, tmp_path):
        path = tmp_path / "mult.csv"
        code, _, _ = run_cli(
            capsys,
            "sweep", "multiplier",
            "--decades-from", "0.5", "--decades-to", "4",
            "--points-per-decade", "30",
            "--samples", "2048", "--samples-per-step", "16",
            "--out", str(path),
        )
        assert code == 0
        _, _, rows = parse_csv(path.read_text())
        assert len(rows) == 106

    def test_grid_sweep_row_major(self, capsys, tmp_path):
        path = tmp_path / "grid.csv"
        code, _, _ = run_cli(
            capsys,
            "sweep", "grid", "--bits-from", "2", "--bits-to", "3",
            "--multipliers", "4,8", "--samples", "2048", "--out", str(path),
        )
        assert code == 0
        _, header, rows = parse_csv(path.read_text())
        pairs = [(r[0], r[1]) for r in rows]
        assert pairs == [("2", "4.0"), ("2", "8.0"), ("3", "4.0"), ("3", "8.0")]

    def test_svg_output(self, capsys, tmp_path):
        csv_path = tmp_path / "mult.csv"
        svg_path = tmp_path / "mult.svg"
        code, _, _ = run_cli(
            capsys,
            "sweep", "multiplier", "--multipliers", "4,8,16",
            "--samples", "2048", "--out", str(csv_path), "--svg", str(svg_path),
        )
        assert code == 0
        svg = svg_path.read_text()
        assert svg.startswith("<svg ")
        assert "<polyline" in svg

    def test_heatmap_svg_for_grid(self, capsys, tmp_path):
        csv_path = tmp_path / "grid.csv"
        svg_path = tmp_path / "grid.svg"
        code, _, _ = run_cli(
            capsys,
            "sweep", "grid", "--bits-from", "2", "--bits-to", "3",
            "--multipliers", "4,8", "--svg-metric", "thd",
            "--samples", "2048", "--out", str(csv_path), "--svg", str(svg_path),
        )
        assert code == 0
        assert 'rect class="cell"' in svg_path.read_text()

    def test_unwritable_path_is_runtime_error(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys,
            "sweep", "bits", "--bits-from", "2", "--bits-to", "3",
            "--samples", "2048",
            "--out", str(tmp_path / "missing-dir" / "x.csv"),
        )
        assert code == 3
        assert err

    def test_bad_axis_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "sweep", "bits", "--bits-from", "0")
        assert code == 2

    def test_stdout_default(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "bits", "--bits-from", "2", "--bits-to", "3",
            "--samples", "2048",
        )
        assert code == 0
        assert out.splitlines()[0].startswith("#")


class TestBounds:
    def test_full_report(self, capsys):
        code, out, _ = run_cli(
            capsys, "bounds", "--freq", "1", "--bits", "8", "--multiplier", "64",
        )
        assert code == 0
        data = json.loads(out)
        assert data["full_scale_range"] == 2.0
        assert data["quantization_bound"] == 0.0078125
        assert data["min_clock_hz"] == pytest.approx(64.0)
        assert data["held_bound_strict"] >= data["held_bound_paper"]
        assert data["digitized_bound_paper"] == pytest.approx(0.1058296, abs=1e-6)

    def test_bits_only(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--bits", "12")
        assert code == 0
        data = json.loads(out)
        assert data["quantization_bound"] == 4.8828125e-4
        assert "held_bound_paper" not in data

    def test_gap_at_the_top_of_the_float_range(self, capsys):
        code, out, err = run_cli(capsys, "bounds", "--freq", "1e308", "--dt", "0.01")
        assert code == 0, err
        assert json.loads(out)["max_phase_shift_rad"] == pytest.approx(32 * math.pi)

    def test_no_arguments_still_reports_range(self, capsys):
        code, out, _ = run_cli(capsys, "bounds")
        assert code == 0
        assert json.loads(out)["full_scale_range"] == 2.0

    @pytest.mark.parametrize("freq", [1.0, 3.3, 1e-5])
    @pytest.mark.parametrize("timing", [
        ("--multiplier", "3"), ("--multiplier", "1009/13"), ("--multiplier", "7/2"),
        ("--dt", None),
    ])
    @pytest.mark.parametrize("bits", [None, "12"])
    def test_prints_the_bounds_that_eval_reports(self, capsys, freq, timing, bits):
        flag, value = timing
        # a gap of 0.37 turns at every frequency
        value = repr(0.37 / freq) if value is None else value
        point = ["--freq", repr(freq), flag, value, *([] if bits is None else ["--bits", bits])]
        model = "held" if bits is None else "digitized"
        code, out, err = run_cli(capsys, "bounds", *point)
        assert code == 0, err
        printed = json.loads(out)
        code, out, err = run_cli(capsys, "eval", "--model", model, *point)
        assert code == 0, err
        report = json.loads(out)
        assert (report["m_num"], report["m_den"]) == (printed["m_num"], printed["m_den"])
        assert report["paper_bound"] == printed[f"{model}_bound_paper"]
        assert report["strict_bound"] == printed[f"{model}_bound_strict"]


class TestExitCodes:
    def test_no_command(self, capsys):
        assert main([]) == 2

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2


class TestParserErrors:
    """The parse step's own errors (a bad choice, a non-integer count, an
    unknown flag, a missing subcommand) exit 2 with one line, as the flag
    checks do, instead of a usage block."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "grid", "--mode", "bogus"],
            ["sweep", "bits", "--workers", "1.5"],
            ["sweep", "bits", "--frobnicate"],
            ["bounds", "--qmax"],
            ["frobnicate"],
            [],
        ],
        ids=["bad-choice", "workers-1.5", "unknown-flag", "missing-value",
             "unknown-command", "no-command"],
    )
    def test_one_line(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")
        assert err.count("\n") == 1


class TestFlagSet:
    """The option strings of each subcommand, the hidden retired flags
    included: the benchmark's argv (perfbench/run.py) passes several."""

    @pytest.mark.parametrize(
        "command,flags",
        [
            ("eval", ["--bits", "--dt", "--format", "--freq", "--help", "--mode", "--model",
                      "--multiplier", "--out", "--qmax", "--samples", "--samples-per-step",
                      "-h"]),
            ("sweep", ["--bits-from", "--bits-step", "--bits-to", "--decades-from",
                       "--decades-to", "--help", "--mode", "--multipliers", "--out",
                       "--points-per-decade", "--qmax", "--samples", "--samples-per-step",
                       "--svg", "--svg-metric", "--workers", "-h"]),
            ("bounds", ["--bits", "--dt", "--freq", "--help", "--multiplier", "--out",
                        "--qmax", "-h"]),
        ],
    )
    def test_option_strings(self, command, flags):
        _, _, table = cli._COMMANDS[command]
        assert sorted(name for name in table if name.startswith("-")) == flags


class TestParseRules:
    """argv reads as argparse read it: ``--flag=value``, unique prefixes,
    values that start with ``-``, the last of a repeated flag, the
    positional anywhere (or after ``--``)."""

    SWEEP = ["sweep", "bits", "--bits-to", "3"]

    def outputs(self, capsys, tmp_path, command, *argv):
        svg = tmp_path / "chart.svg"
        code, out, err = run_cli(capsys, command, "--svg", str(svg), *argv)
        assert code == 0, err
        return out, svg.read_text()

    @pytest.mark.parametrize(
        "argv,same_as",
        [
            (["sweep", "bits", "--bits-to=3"], SWEEP),
            (["sweep", "bits", "--bits-t", "3"], SWEEP),
            (["sweep", "bits", "--bits-t=3"], SWEEP),
            (["sweep", "--bits-to", "3", "bits"], SWEEP),
            (["sweep", "--bits-to", "3", "--", "bits"], SWEEP),
            (["sweep", "bits", "--bits-to", "9", "--bits-to", "3"], SWEEP),
            (["sweep", "bits", "--bits-to", "3", "--svg-m", "thd"],
             SWEEP + ["--svg-metric", "thd"]),
            (["sweep", "bits", "--bits-to", "3", "--mode", "round", "--mode", "ceiling"],
             SWEEP + ["--mode", "ceiling"]),
            (["sweep", "bits", "--bits-to", "3", "--out", "-"], SWEEP),
        ],
        ids=["equals", "prefix", "prefix-equals", "axis-last", "dashes", "repeated",
             "prefix-choice", "repeated-choice", "dash-value"],
    )
    def test_same_outputs(self, capsys, tmp_path, argv, same_as):
        assert self.outputs(capsys, tmp_path, *argv) == self.outputs(capsys, tmp_path, *same_as)

    def test_exact_name_beats_prefix(self, capsys, tmp_path):
        # --svg is a prefix of --svg-metric, --samples of --samples-per-step
        svg = tmp_path / "chart.svg"
        code, out, err = run_cli(
            capsys, *self.SWEEP, "--samples", "5", "--svg", str(svg), "--svg-metric", "thd"
        )
        assert code == 0, err
        assert svg.read_text().startswith("<svg ")
        assert len(parse_csv(out)[2]) == 3

    def test_dash_value_with_a_space(self, capsys, tmp_path, monkeypatch):
        # a token that starts with "-" but holds a space is a value
        monkeypatch.chdir(tmp_path)
        code, _, err = run_cli(capsys, "bounds", "--bits", "8", "--out", "-a b")
        assert code == 0, err
        assert json.loads((tmp_path / "-a b").read_text())["quantization_bound"] == 0.0078125

    def test_negative_decades_give_the_library_csv(self, capsys):
        from ddsmetrics import reporting
        from ddsmetrics.sweeps import SweepSpec, sweep_multiplier

        code, out, err = run_cli(
            capsys, "sweep", "multiplier", "--decades-from", "-1", "--decades-to", "1",
            "--points-per-decade", "5",
        )
        assert code == 0, err
        spec = SweepSpec(decades_from=-1.0, decades_to=1.0, points_per_decade=5)
        assert out == reporting.sweep_to_csv(sweep_multiplier(spec))

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["sweep", "bits", "--s", "x"],
             "ambiguous option: --s could match --samples, --samples-per-step, --svg, "
             "--svg-metric"),
            (["sweep", "bits", "--workers", "-3"], "--workers must be >= 1, got -3"),
            (["sweep", "bits", "--workers=-3"], "--workers must be >= 1, got -3"),
            (["bounds", "--qmax"], "--qmax: expected one argument"),
            (["bounds", "--out", "--qmax", "3"], "--out: expected one argument"),
            (["sweep", "--bits-to", "3"], "the following arguments are required: axis"),
            (["eval", "--format", "csv"], "the following arguments are required: --model"),
            (["sweep", "bits", "grid"], "unrecognized arguments: grid"),
            (["sweep", "bits", "--bogus", "1"], "unrecognized arguments: --bogus"),
            (["sweep", "bogus"],
             "axis: invalid choice: 'bogus' (choose from 'bits', 'multiplier', 'grid')"),
        ],
        ids=["ambiguous", "negative-count", "negative-count-equals", "missing-value",
             "flag-as-value", "missing-axis", "missing-model", "extra-positional",
             "unknown-flag", "bad-axis"],
    )
    def test_one_line_error(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"


class TestHelp:
    """Help is generated from each command's table: every flag but the
    retired ones, on stdout, exit 0."""

    def test_program_help_lists_the_commands(self, capsys):
        for flag in ("--help", "-h"):
            code, out, err = run_cli(capsys, flag)
            assert code == 0 and err == ""
            assert out.startswith("usage: ddsmetrics ")
            for command in ("eval", "sweep", "bounds"):
                assert f"\n  {command} " in out

    @pytest.mark.parametrize("command", ["eval", "sweep", "bounds"])
    @pytest.mark.parametrize("flag", ["--help", "-h", "--he"])
    def test_command_help_shows_every_visible_flag(self, capsys, command, flag):
        code, out, err = run_cli(capsys, command, flag)
        assert code == 0 and err == ""
        assert out.startswith(f"usage: ddsmetrics {command} ")
        lines = out.splitlines()
        _, _, table = cli._COMMANDS[command]
        for name, (spec, default) in table.items():
            if spec is None:
                continue
            shown = [line for line in lines if line.startswith(f"  {name} ")]
            if name in cli._RETIRED:
                assert shown == []
                continue
            [line] = shown
            if isinstance(spec, tuple):
                assert "{" + ",".join(spec) + "}" in line
            if default is cli._REQUIRED:
                assert line.endswith("required")
            else:
                assert line.endswith(f"default: {default}")

    def test_help_wins_over_later_flags(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "bits", "--help", "--bogus")
        assert code == 0
        assert "--svg-metric {error,thd}" in out


class TestNoArgparse:
    def test_a_command_loads_no_argparse(self, tmp_path):
        # the cold cost of argparse: its import pulls in gettext, and its
        # messages load locale
        src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
        code = (
            "import sys\n"
            "import ddsmetrics.cli\n"
            f"assert ddsmetrics.cli.main(['bounds', '--bits', '8', '--out', {str(tmp_path / 'b.json')!r}]) == 0\n"
            "print(sorted({'argparse', 'gettext', 'locale'} & set(sys.modules)))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"
        assert json.loads((tmp_path / "b.json").read_text())["quantization_bound"] == 0.0078125


class TestNoThreadPool:
    def test_import_loads_no_pool_and_no_logging(self):
        src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
        code = (
            "import sys\n"
            "import ddsmetrics.cli\n"
            "print(sorted({'concurrent.futures', 'logging'} & set(sys.modules)))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"


def numpy_calls(calls: list, numpy_dir: str):
    """A sys.setprofile hook that appends to ``calls`` every frame run
    from a file of numpy and every C call of a numpy function, ufunc or
    method of a numpy array or scalar."""
    import numpy as np

    def hook(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(numpy_dir):
            calls.append(frame.f_code.co_qualname)
        elif event == "c_call":
            owner = getattr(arg, "__self__", None)
            module = getattr(arg, "__module__", None) or getattr(owner, "__name__", None) or ""
            if (
                isinstance(arg, np.ufunc)
                or module.partition(".")[0] == "numpy"
                or isinstance(owner, (np.ndarray, np.generic))
            ):
                calls.append(repr(arg))

    return hook


class TestBitsSweepWithoutNumpy:
    """Every row of a bits sweep is a closed form in Python floats and its
    line chart is drawn from Python floats: the sweep calls no numpy."""

    @pytest.mark.parametrize("metric", ["error", "thd"])
    @pytest.mark.parametrize("mode", ["floor", "round", "ceiling"])
    def test_sweep_bits_calls_no_numpy(self, tmp_path, mode, metric):
        import numpy as np

        numpy_dir = os.path.dirname(np.__file__)
        argv = [
            "sweep", "bits", "--bits-from", "1", "--bits-to", "52", "--mode", mode,
            "--out", str(tmp_path / "sweep.csv"), "--svg", str(tmp_path / "chart.svg"),
            "--svg-metric", metric,
        ]
        calls: list = []
        sys.setprofile(numpy_calls(calls, numpy_dir))
        try:
            code = main(argv)
        finally:
            sys.setprofile(None)
        assert code == 0
        assert len(parse_csv((tmp_path / "sweep.csv").read_text())[2]) == 52
        assert calls == []

    def test_hook_sees_numpy(self):
        import numpy as np

        calls: list = []
        sys.setprofile(numpy_calls(calls, os.path.dirname(np.__file__)))
        try:
            np.sum(np.arange(3)).tolist()
        finally:
            sys.setprofile(None)
        assert len(calls) >= 3

    def test_charts_import_no_numpy(self):
        from ddsmetrics import charts

        modules = [value.__name__ for value in vars(charts).values() if inspect.ismodule(value)]
        assert not [name for name in modules if name.partition(".")[0] == "numpy"]


def refuse_pool(*args, **kwargs):
    raise AssertionError("a thread pool was started")


def refuse_thread(thread):
    raise AssertionError(f"a thread was started: {thread!r}")


SWEEP_ARGVS = {
    "bits": ["sweep", "bits"],
    # q_max 1000 keeps about 2200 distinct timings: three held chunks
    "multiplier-three-chunks": [
        "sweep", "multiplier", "--decades-from", "0.5", "--decades-to", "2.5",
        "--points-per-decade", "1100", "--qmax", "1000",
    ],
    # 20000 and 17000 are batches of their own and cut the smaller
    # columns into three more
    "grid-five-batches": [
        "sweep", "grid", "--bits-to", "4", "--multipliers", "5,20000,3.5,17000,1,2,6000,9000",
    ],
}


class TestWorkersOnEveryAxis:
    """``--workers`` is accepted on every axis and has no effect: every
    sweep runs in the calling thread, so at two workers none starts a
    pool, at four none starts a thread, and each prints and writes what
    it does at one."""

    def check_equal_one(self, capsys, tmp_path, argv, workers):
        outputs = []
        for count in ("1", workers):
            svg = tmp_path / f"{count}.svg"
            code, out, err = run_cli(capsys, *argv, "--workers", count, "--svg", str(svg))
            assert code == 0, err
            outputs.append((out, err, svg.read_bytes()))
        assert outputs[0] == outputs[1]
        assert outputs[0][0].count("\n") > 16

    @pytest.mark.parametrize("axis", ["bits", "multiplier-three-chunks"])
    def test_two_workers_start_no_pool_and_equal_one(self, capsys, monkeypatch, tmp_path, axis):
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", refuse_pool)
        self.check_equal_one(capsys, tmp_path, SWEEP_ARGVS[axis], "2")

    @pytest.mark.parametrize("axis", list(SWEEP_ARGVS))
    def test_four_workers_start_no_thread_and_equal_one(self, capsys, monkeypatch, tmp_path, axis):
        monkeypatch.setattr(threading.Thread, "start", refuse_thread)
        self.check_equal_one(capsys, tmp_path, SWEEP_ARGVS[axis], "4")


class TestEmptyOutputPath:
    """An empty path once passed the output check (``os.stat('')`` is a
    missing file), ran every row, then tried to replace the working
    directory with a temp file beside it. Now it exits 2 naming the flag,
    before any row runs."""

    @pytest.mark.parametrize(
        "argv,flag",
        [
            (["eval", "--model", "target", "--out", ""], "--out"),
            (["bounds", "--bits", "8", "--out="], "--out"),
            (["sweep", "bits", "--bits-to", "3", "--out", ""], "--out"),
            (["sweep", "bits", "--bits-to", "3", "--svg", ""], "--svg"),
        ],
        ids=["eval", "bounds", "sweep-out", "sweep-svg"],
    )
    def test_exits_2_before_any_row(self, capsys, tmp_path, monkeypatch, argv, flag):
        def no_rows(*args, **kwargs):
            raise AssertionError("a row was evaluated")

        for name in ("evaluate", "sweep_bits"):
            monkeypatch.setattr(cli, name, no_rows)
        monkeypatch.setattr(cli.bounds_mod, "report", no_rows)
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == f"error: {flag} must be a path or -, got ''\n"
        assert [p.name for p in tmp_path.iterdir()] == ["work"]
        assert list(work.iterdir()) == []


class TestBoundaryInputs:
    def test_infinite_multiplier_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "eval", "--model", "held", "--multiplier", "inf")
        assert code == 2
        assert "--multiplier" in err

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_nonpositive_workers_is_usage_error(self, capsys, workers):
        code, out, err = run_cli(
            capsys, "sweep", "bits", "--bits-to", "2", "--workers", workers
        )
        assert code == 2
        assert "--workers" in err
        assert out == ""

    def test_negative_freq_is_named(self, capsys):
        code, _, err = run_cli(capsys, "bounds", "--multiplier", "4", "--freq", "-1")
        assert code == 2
        assert "--freq" in err

    @pytest.mark.parametrize("value", ["inf", "nan", "1e-320"])
    def test_unusable_dt_is_named(self, capsys, value):
        code, _, err = run_cli(capsys, "eval", "--model", "held", "--dt", value)
        assert code == 2
        assert "--dt" in err

    @pytest.mark.parametrize("flag,value", [("--multiplier", "1e12"), ("--dt", "1e-300")])
    def test_work_cap_checked_before_allocation(self, capsys, flag, value):
        code, out, err = run_cli(capsys, "eval", "--model", "held", flag, value)
        assert code == 3
        assert err.startswith(f"error: {flag}: multiplier ")
        assert err.endswith("/1 needs more than 16777216 pieces\n")
        # the multiplier is named once, however many digits it has
        p = err.removeprefix(f"error: {flag}: multiplier ").split("/")[0]
        assert err.count(p) == 1
        assert err.count("\n") == 1
        assert out == ""

    @pytest.mark.parametrize(
        "argv,flag",
        [
            # 10**0.5 is small, but --qmax 1e8 snaps it to 282770296/89419819
            (["sweep", "multiplier", "--decades-to", "1", "--qmax", "100000000"], "--qmax"),
            (["eval", "--model", "held", "--multiplier", "8388608.5"], "--qmax"),
            # an exact multiplier, and requests that are over the cap themselves
            (["eval", "--model", "held", "--multiplier", "20000000/3"], "--multiplier"),
            (["eval", "--model", "held", "--multiplier", "16777216.5"], "--multiplier"),
            (["sweep", "grid", "--multipliers", "4,2e7"], "--multipliers"),
            (["sweep", "multiplier", "--decades-from", "7.5", "--decades-to", "7.5"],
             "--decades-to"),
            # the first over-cap point, 17671633/13, would fit at a smaller
            # --qmax, but 1e8 is over the cap at any --qmax
            (["sweep", "multiplier", "--decades-to", "8"], "--decades-to"),
            (["sweep", "multiplier", "--decades-to", "8", "--qmax", "1"], "--decades-to"),
        ],
        ids=[
            "decades-qmax", "multiplier-qmax", "exact", "rounds-over", "multipliers", "decades",
            "decades-past-any-qmax", "decades-at-qmax-1",
        ],
    )
    def test_cap_error_blames_qmax_only_when_it_made_p_too_large(
        self, capsys, tmp_path, argv, flag
    ):
        if argv[0] == "sweep":
            argv = [*argv, "--out", str(tmp_path / "sweep.csv")]
        code, out, err = run_cli(capsys, *argv)
        assert code == 3
        assert err.startswith(f"error: {flag}: multiplier ")
        assert err.count("\n") == 1
        assert out == ""
        assert list(tmp_path.iterdir()) == []

    def test_past_the_old_dft_cap_reports_thd(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--model", "held", "--multiplier", "300001")
        assert code == 0
        assert json.loads(out)["thd_ratio"] > 0

    def test_denominator_beyond_int64(self, capsys):
        code, out, err = run_cli(
            capsys, "eval", "--model", "held", "--multiplier", "1/100000000000000000000"
        )
        assert code == 0, err
        data = json.loads(out)
        assert data["max_abs_error"] == 1.0
        assert data["m_den"] == 10**20

    def test_over_cap_sweep_writes_nothing(self, capsys, tmp_path):
        code, out, err = run_cli(
            capsys,
            "sweep", "grid", "--bits-from", "2", "--bits-to", "3",
            "--multipliers", "4,2e7",
            "--out", str(tmp_path / "grid.csv"), "--svg", str(tmp_path / "grid.svg"),
        )
        assert code == 3
        assert err == (
            "error: --multipliers: multiplier 20000000/1 needs more than 16777216 pieces\n"
        )
        assert out == ""
        assert list(tmp_path.iterdir()) == []

    def test_failed_svg_leaves_no_csv(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys,
            "sweep", "multiplier", "--multipliers", "4,8",
            "--out", str(tmp_path / "ok.csv"),
            "--svg", str(tmp_path / "missing-dir" / "x.svg"),
        )
        assert code == 3
        assert err
        assert list(tmp_path.iterdir()) == []

    def test_out_through_symlink_fills_its_target(self, capsys, tmp_path):
        target = tmp_path / "real.json"
        target.write_text("old\n")
        target.chmod(0o640)
        link = tmp_path / "link.json"
        link.symlink_to(target)
        code, _, _ = run_cli(capsys, "bounds", "--bits", "4", "--out", str(link))
        assert code == 0
        assert link.is_symlink()
        assert os.readlink(link) == str(target)
        assert json.loads(target.read_text())["bits"] == 4
        assert target.stat().st_mode & 0o777 == 0o640
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.json", "real.json"]

    def test_out_to_devnull(self, capsys):
        code, out, err = run_cli(
            capsys, "sweep", "multiplier", "--multipliers", "4,8",
            "--out", os.devnull, "--svg", os.devnull,
        )
        assert (code, out, err) == (0, "", "")
        assert not os.path.isfile(os.devnull)


_HUGE_DENOMINATOR = "1/1" + "0" * 400


class TestOutOfRangeInputs:
    """Values past the float range exit 2 with one line naming the flag,
    where an OverflowError or an unnamed message used to surface."""

    @pytest.mark.parametrize(
        "argv,flag",
        [
            (["eval", "--model", "held", "--multiplier", _HUGE_DENOMINATOR], "--multiplier"),
            (["bounds", "--multiplier", _HUGE_DENOMINATOR], "--multiplier"),
            (["sweep", "multiplier", "--multipliers", "4,inf"], "--multipliers"),
            (["sweep", "multiplier", "--multipliers", "4,1e400"], "--multipliers"),
            (["sweep", "multiplier", "--decades-to", "400"], "--decades-to"),
            (["sweep", "multiplier", "--decades-to", "inf"], "--decades-to"),
            (["sweep", "multiplier", "--multipliers", "4,nan"], "--multipliers"),
            (["sweep", "multiplier", "--decades-to", "nan"], "--decades-to"),
            (["sweep", "multiplier", "--decades-from", "-400", "--decades-to", "-399"],
             "--decades-from"),
        ],
        ids=[
            "eval-denominator-1e400", "bounds-denominator-1e400",
            "multipliers-inf", "multipliers-1e400", "decades-to-400", "decades-to-inf",
            "multipliers-nan", "decades-to-nan", "decades-underflow",
        ],
    )
    def test_usage_error_names_the_flag(self, capsys, argv, flag):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {flag}")
        assert err.count("\n") == 1


class TestCountFlags:
    """Counts below 1, a --qmax above the largest float, and a multiplier
    axis longer than MAX_AXIS_POINTS exit 2 with one line naming the
    flag; a --qmax of the largest float runs."""

    @pytest.mark.parametrize(
        "argv,flag",
        [
            (["eval", "--model", "held", "--multiplier", "3.7", "--qmax", "0"], "--qmax"),
            (["bounds", "--multiplier", "3.7", "--qmax", "0"], "--qmax"),
            (["sweep", "multiplier", "--qmax", "-3"], "--qmax"),
            (["sweep", "multiplier", "--points-per-decade", "0"], "--points-per-decade"),
            (["sweep", "bits", "--bits-step", "0"], "--bits-step"),
            (["sweep", "multiplier", "--points-per-decade", "1" + "0" * 400],
             "--points-per-decade"),
            (["eval", "--model", "target", "--qmax", "0"], "--qmax"),
            (["bounds", "--qmax", "0"], "--qmax"),
            (["sweep", "bits", "--qmax", "abc"], "--qmax"),
            # a denominator past the float range would be snapped to
            (["eval", "--model", "held", "--multiplier", "5e-324", "--qmax", "1" + "0" * 400],
             "--qmax"),
            (["bounds", "--multiplier", "5e-324", "--qmax", "1" + "0" * 400], "--qmax"),
            (["sweep", "multiplier", "--multipliers", "5e-324", "--qmax", "1" + "0" * 400],
             "--qmax"),
            (["sweep", "grid", "--multipliers", "5e-324", "--qmax", "1" + "0" * 400], "--qmax"),
        ],
        ids=[
            "eval-qmax-0", "bounds-qmax-0", "sweep-qmax-negative",
            "points-per-decade-0", "bits-step-0", "points-per-decade-1e400",
            "eval-target-qmax-0", "bounds-qmax-0-without-timing", "sweep-qmax-not-a-number",
            "eval-qmax-1e400", "bounds-qmax-1e400", "sweep-multiplier-qmax-1e400",
            "sweep-grid-qmax-1e400",
        ],
    )
    def test_usage_error_names_the_flag(self, capsys, argv, flag):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {flag}")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "--model", "held", "--multiplier", "5e-324"],
            ["bounds", "--bits", "4", "--multiplier", "3.7"],
            ["sweep", "multiplier", "--multipliers", "5e-324,64"],
            ["sweep", "grid", "--bits-to", "2", "--multipliers", "5e-324,64"],
        ],
        ids=["eval", "bounds", "sweep-multiplier", "sweep-grid"],
    )
    def test_qmax_at_the_largest_float_runs(self, capsys, argv):
        qmax = int(sys.float_info.max)
        code, out, err = run_cli(capsys, *argv, "--qmax", str(qmax))
        assert (code, err) == (0, "")
        if argv[0] == "eval":  # 5e-324 snaps to 1/qmax
            assert json.loads(out)["m_den"] == qmax
        elif argv[0] == "sweep":
            assert f",1,{qmax}," in out

    def test_long_axis_is_refused_before_allocating(self, capsys):
        tracemalloc.start()
        try:
            code = main(["sweep", "grid", "--points-per-decade", str(10**9)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: --points-per-decade")
        assert peak < 1 << 20


class TestRangeFlags:
    """Bit counts outside [1, MAX_BITS] and reversed ranges exit 2 with one
    line naming the flag, where the message of SweepSpec or
    QuantizerConfig used to surface."""

    @pytest.mark.parametrize(
        "argv,flag",
        [
            (["sweep", "multiplier", "--decades-from", "2", "--decades-to", "1"],
             "--decades-to"),
            (["sweep", "bits", "--bits-from", "0"], "--bits-from"),
            (["sweep", "bits", "--bits-to", "53"], "--bits-to"),
            (["sweep", "bits", "--bits-from", "5", "--bits-to", "3"], "--bits-to"),
            (["sweep", "grid", "--bits-from", "0"], "--bits-from"),
            (["eval", "--model", "quantized", "--bits", "0"], "--bits"),
            (["eval", "--model", "digitized", "--bits", "53", "--multiplier", "4"],
             "--bits"),
            (["bounds", "--bits", "0"], "--bits"),
        ],
        ids=[
            "decades-reversed", "bits-from-0", "bits-to-53", "bits-reversed",
            "grid-bits-from-0", "eval-quantized-bits-0", "eval-digitized-bits-53",
            "bounds-bits-0",
        ],
    )
    def test_usage_error_names_the_flag(self, capsys, argv, flag):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {flag} ")
        assert err.count("\n") == 1

    def test_explicit_multipliers_ignore_the_decades(self, capsys):
        code, out, err = run_cli(
            capsys, "sweep", "multiplier", "--multipliers", "4,5",
            "--decades-from", "2", "--decades-to", "1",
        )
        assert code == 0, err
        assert len(parse_csv(out)[2]) == 2


class TestRetiredFlags:
    """--samples and --samples-per-step are parsed and ignored, so the
    command lines of the benchmark (perfbench/run.py) keep running."""

    @pytest.mark.parametrize(
        "argv,rows",
        [
            (["sweep", "multiplier", "--multipliers",
              "3.1622776601683795,10.0,316.22776601683796",
              "--qmax", "16", "--samples-per-step", "32", "--workers", "2"], 3),
            (["sweep", "grid", "--bits-from", "2", "--bits-to", "4",
              "--multipliers", "4,37,4096", "--qmax", "16",
              "--samples", "100000", "--samples-per-step", "32", "--workers", "1",
              "--svg-metric", "thd"], 9),
            (["sweep", "bits", "--bits-from", "1", "--bits-to", "4", "--mode", "round",
              "--workers", "1"], 4),
        ],
        ids=["held-multiplier", "digitized-grid", "quantized-bits"],
    )
    def test_benchmark_argv_runs(self, capsys, tmp_path, argv, rows):
        csv_path, svg_path = tmp_path / "out.csv", tmp_path / "out.svg"
        code, _, err = run_cli(
            capsys, *argv, "--out", str(csv_path), "--svg", str(svg_path)
        )
        assert code == 0, err
        assert len(parse_csv(csv_path.read_text())[2]) == rows
        assert svg_path.read_text().startswith("<svg ")

    @pytest.mark.parametrize("value", ["-5", "0", "10" + "0" * 30])
    def test_any_int_changes_nothing(self, capsys, value):
        argv = ["sweep", "bits", "--bits-to", "3"]
        flagged = run_cli(capsys, *argv, "--samples", value, "--samples-per-step", value)
        assert flagged == run_cli(capsys, *argv)

    def test_flags_change_nothing_and_stay_hidden(self, capsys):
        argv = ["eval", "--model", "held", "--multiplier", "19/6"]
        plain = run_cli(capsys, *argv)
        flagged = run_cli(capsys, *argv, "--samples", "64", "--samples-per-step", "17")
        assert plain == flagged
        for command in ("eval", "sweep"):
            assert main([command, "--help"]) == 0
            assert "--samples" not in capsys.readouterr().out


class TestModuleEntryPoints:
    @pytest.mark.parametrize("module", ["ddsmetrics", "ddsmetrics.cli"])
    def test_python_dash_m_runs_the_cli(self, module):
        src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", module, "bounds", "--bits", "8"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["quantization_bound"] == 0.0078125
        proc = subprocess.run(
            [sys.executable, "-m", module, "frobnicate"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 2


class TestFloatRangeOfTimes:
    """A --freq, --dt or --multiplier whose times leave the float range
    exits 2 with one line naming the flag, where a ZeroDivisionError or
    JSON traceback, an unnamed message or a JSON report holding Infinity
    used to come out."""

    @pytest.mark.parametrize(
        "argv,flag",
        [
            (["eval", "--model", "held", "--freq", "1e-200", "--dt", "1e-200"], "--dt"),
            (["bounds", "--freq", "1e-200", "--dt", "1e-200"], "--dt"),
            (["eval", "--model", "held", "--freq", "1e200", "--dt", "1e200"], "--dt"),
            (["eval", "--model", "quantized", "--bits", "4", "--freq", "1e-320"], "--freq"),
            (["eval", "--model", "held", "--multiplier", "11/10", "--freq", "1e-308"],
             "--freq"),
            (["eval", "--model", "held", "--multiplier", "3", "--freq", "1e-320"], "--freq"),
            # the clock and phase shift that bounds reports divide by the
            # update gap q/(p*f), which underflows to 0
            (["bounds", "--multiplier", "3", "--freq", "1e308"], "--freq"),
            # f*dt = 1e308 turns is a float, but the phase shift 2*pi*f*dt
            # that bounds reports is not
            (["bounds", "--multiplier", "1/1" + "0" * 308], "--multiplier"),
            (["bounds", "--dt", "1e308", "--qmax", str(int(sys.float_info.max))], "--dt"),
            # dt = 1/p is subnormal, and the clock 1/dt overflows
            (["bounds", "--multiplier", repr(sys.float_info.max)], "--multiplier"),
            (["bounds", "--multiplier", repr(sys.float_info.max), "--bits", "52"], "--multiplier"),
        ],
        ids=[
            "eval-freq-dt-underflow", "bounds-freq-dt-underflow", "eval-freq-dt-overflow",
            "quantized-period-overflow", "held-period-overflow",
            "multiplier-period-overflow", "bounds-multiplier-gap-underflow",
            "bounds-multiplier-phase-overflow", "bounds-dt-phase-overflow",
            "bounds-multiplier-clock-overflow", "bounds-multiplier-clock-overflow-bits",
        ],
    )
    def test_usage_error_names_the_flag(self, capsys, argv, flag):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {flag}")
        assert err.count("\n") == 1

    def test_eval_reads_no_update_gap(self, capsys):
        # at 3/1 and 1e308 Hz the update gap q/(p*f) underflows to 0, but
        # no field of eval reads it
        reports = []
        for freq in (1.0, 1e308):
            code, out, err = run_cli(
                capsys, "eval", "--model", "held", "--multiplier", "3", "--freq", repr(freq)
            )
            assert code == 0, err
            reports.append(json.loads(out))
        slow, fast = reports
        assert fast.pop("freq_hz") == 1e308
        assert fast.pop("argmax_time_s") == slow["argmax_time_s"] / 1e308
        del slow["freq_hz"], slow["argmax_time_s"]
        assert fast == slow

    @pytest.mark.parametrize("bits", [[], ["--bits", "52"]])
    def test_clock_overflow_writes_no_output(self, capsys, tmp_path, bits):
        out = tmp_path / "bounds.json"
        code, _, err = run_cli(
            capsys, "bounds", "--multiplier", repr(sys.float_info.max), *bits, "--out", str(out)
        )
        assert code == 2
        assert err.count("\n") == 1
        assert not out.exists()

    def test_clock_at_the_top_of_the_float_range(self, capsys):
        code, out, err = run_cli(capsys, "bounds", "--multiplier", "1e308")
        assert code == 0, err
        assert json.loads(out)["min_clock_hz"] == 1e308


class TestOutputsCheckedFirst:
    def test_missing_directory_fails_before_any_row(self, capsys, tmp_path, monkeypatch):
        from ddsmetrics import sweeps

        def no_rows(*args):
            raise AssertionError("a row was evaluated")

        monkeypatch.setattr(sweeps, "evaluate_columns", no_rows)
        path = str(tmp_path / "missing" / "x.csv")
        code, out, err = run_cli(
            capsys,
            "sweep", "grid", "--multipliers", "1000003", "--bits-from", "1",
            "--bits-to", "16", "--out", path,
        )
        assert code == 3
        assert out == ""
        assert err.count("\n") == 1
        assert repr(path) in err and ".tmp" not in err
        assert list(tmp_path.iterdir()) == []

    def test_directory_refused(self, capsys, tmp_path):
        directory = tmp_path / "out"
        directory.mkdir()
        code, out, err = run_cli(capsys, "eval", "--model", "target", "--out", str(directory))
        assert (code, out) == (3, "")
        assert "it is a directory" in err and err.count("\n") == 1
        assert list(tmp_path.rglob("*")) == [directory]

    def test_failed_rename_leaves_no_temp_file(self, capsys, tmp_path, monkeypatch):
        # the CSV is new, the chart replaces a file: neither target moves,
        # and the temp files beside them are removed
        csv, svg = tmp_path / "sweep.csv", tmp_path / "chart.svg"
        svg.write_text("old\n")

        def refuse(source, target):
            raise OSError(f"cannot rename {source!r}")

        monkeypatch.setattr(os, "replace", refuse)
        code, out, err = run_cli(
            capsys, "sweep", "bits", "--bits-to", "4", "--out", str(csv), "--svg", str(svg)
        )
        assert (code, out) == (3, "")
        assert "cannot rename" in err
        assert list(tmp_path.iterdir()) == [svg]
        assert svg.read_text() == "old\n"

    @pytest.mark.parametrize("existing", [False, True])
    def test_each_output_path_is_resolved_once(self, capsys, tmp_path, monkeypatch, existing):
        # one os.stat and one os.path.realpath per output path, shared by
        # the same-output check, the writability check and the write
        csv, svg = str(tmp_path / "sweep.csv"), str(tmp_path / "chart.svg")
        if existing:
            for path in (csv, svg):
                pathlib.Path(path).write_text("old\n")
        calls = []
        for name, module in (("stat", os), ("realpath", os.path)):
            def counted(path, *args, _name=name, _original=getattr(module, name), **kwargs):
                if path in (csv, svg):
                    calls.append((_name, path))
                return _original(path, *args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        code, _, err = run_cli(
            capsys, "sweep", "bits", "--bits-to", "4", "--out", csv, "--svg", svg
        )
        assert code == 0, err
        assert sorted(calls) == sorted(
            (name, path) for name in ("stat", "realpath") for path in (csv, svg)
        )
        assert pathlib.Path(svg).read_text().startswith("<svg")


class TestEmptyCharts:
    @pytest.mark.parametrize("axis", ["grid", "multiplier"])
    def test_metric_without_values_names_the_flag(self, capsys, tmp_path, axis):
        # multipliers 1 and 2 hold every level at 0: no THD anywhere
        svg = tmp_path / "x.svg"
        code, out, err = run_cli(
            capsys, "sweep", axis, "--multipliers", "1,2", "--bits-to", "2",
            "--svg-metric", "thd", "--svg", str(svg),
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: --svg-metric thd: ")
        assert err.count("\n") == 1
        assert not svg.exists()


class TestRepeatedGridMultipliers:
    @pytest.mark.parametrize("multipliers", ["4,4", "4,7,4.0"])
    def test_chart_refused_before_any_row(self, capsys, tmp_path, monkeypatch, multipliers):
        from ddsmetrics import sweeps

        def no_rows(*args):
            raise AssertionError("a row was evaluated")

        monkeypatch.setattr(sweeps, "evaluate_columns", no_rows)
        csv_path, svg = tmp_path / "x.csv", tmp_path / "x.svg"
        code, out, err = run_cli(
            capsys, "sweep", "grid", "--multipliers", multipliers, "--bits-to", "2",
            "--out", str(csv_path), "--svg", str(svg),
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: --multipliers")
        assert err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_csv_alone_keeps_every_row(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "grid", "--multipliers", "4,4", "--bits-to", "2",
        )
        assert code == 0
        _, _, rows = parse_csv(out)
        assert len(rows) == 4
        assert rows[0] == rows[1] and rows[2] == rows[3]


class TestOneOutputForCsvAndSvg:
    """``--out`` and ``--svg`` naming one stdout or one file exit 2 before
    any row runs, and leave every file as it was."""

    @pytest.fixture
    def no_rows(self, monkeypatch):
        from ddsmetrics import sweeps

        def refuse(*args):
            raise AssertionError("a row was evaluated")

        monkeypatch.setattr(sweeps, "quantized_columns", refuse)

    def refused(self, capsys, out, svg):
        code, stdout, err = run_cli(
            capsys, "sweep", "bits", "--bits-to", "4", "--out", out, "--svg", svg,
        )
        assert code == 2
        assert stdout == ""
        assert err.startswith("error: --svg")
        assert err.count("\n") == 1

    def test_same_path(self, capsys, tmp_path, no_rows):
        path = str(tmp_path / "same.out")
        self.refused(capsys, path, path)
        assert list(tmp_path.iterdir()) == []

    def test_symlink_to_the_csv(self, capsys, tmp_path, no_rows):
        target = tmp_path / "rows.csv"
        target.write_text("old\n")
        link = tmp_path / "link.svg"
        link.symlink_to(target)
        self.refused(capsys, str(target), str(link))
        assert target.read_text() == "old\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.svg", "rows.csv"]

    def test_both_on_stdout(self, capsys, tmp_path, monkeypatch, no_rows):
        monkeypatch.chdir(tmp_path)
        self.refused(capsys, "-", "-")
        assert list(tmp_path.iterdir()) == []


def cli_process(argv, stdout):
    """Run ``python -m ddsmetrics`` with ``argv``, its stdout given."""
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "ddsmetrics", *argv],
        stdout=stdout, stderr=subprocess.PIPE, text=True, env=env, timeout=60,
    )


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="needs /dev/stdout")
class TestStdoutThroughAPath:
    """``-`` and a path that reaches the same stdout, such as
    ``/dev/stdout``, are one output: exit 2 naming ``--svg``."""

    SWEEP = ["sweep", "bits", "--bits-to", "3"]

    @pytest.mark.parametrize(
        "out,svg", [("/dev/stdout", "-"), ("-", "/dev/stdout")], ids=["out", "svg"]
    )
    def test_redirected_to_a_file(self, tmp_path, out, svg):
        target = tmp_path / "f.txt"
        with open(target, "w") as handle:
            proc = cli_process([*self.SWEEP, "--out", out, "--svg", svg], handle)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: --svg")
        assert proc.stderr.count("\n") == 1
        assert target.read_text() == ""
        assert [p.name for p in tmp_path.iterdir()] == ["f.txt"]

    @pytest.mark.parametrize(
        "out,svg", [("/dev/stdout", "-"), ("-", "/dev/stdout")], ids=["out", "svg"]
    )
    def test_piped(self, out, svg):
        proc = cli_process([*self.SWEEP, "--out", out, "--svg", svg], subprocess.PIPE)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: --svg")
        assert proc.stdout == ""

    def test_stdout_beside_another_file_still_writes_both(self, tmp_path):
        svg = tmp_path / "chart.svg"
        argv = [*self.SWEEP, "--out", "/dev/stdout", "--svg", str(svg)]
        proc = cli_process(argv, subprocess.PIPE)
        assert proc.returncode == 0, proc.stderr
        _, header, rows = parse_csv(proc.stdout)
        assert header[0] == "bits" and len(rows) == 3
        assert svg.read_text().startswith("<svg")
