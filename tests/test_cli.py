import json
import os
import pathlib
import subprocess
import sys

import pytest

from ddsmetrics.cli import main
from ddsmetrics.reporting import parse_csv


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

    def test_no_arguments_still_reports_range(self, capsys):
        code, out, _ = run_cli(capsys, "bounds")
        assert code == 0
        assert json.loads(out)["full_scale_range"] == 2.0


class TestExitCodes:
    def test_no_command(self, capsys):
        assert main([]) == 2

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2


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
        assert "exceeding the cap" in err
        assert out == ""

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
        assert "20000000/1" in err
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
