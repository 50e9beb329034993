import pathlib
import subprocess
import sys

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "reproduce_figures.py"

FIGURES = sorted(
    f"{name}.{ext}"
    for name in (
        "fig1_bits_error", "fig2_bits_thd", "fig3_multiplier_error",
        "fig4_multiplier_thd", "fig5_grid_error", "fig6_grid_thd",
    )
    for ext in ("csv", "svg")
)


def run_script(out_dir: pathlib.Path) -> dict[str, bytes]:
    """Run the figures script with --fast into ``out_dir``; its files."""
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "--fast", "--out-dir", str(out_dir)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return {path.name: path.read_bytes() for path in out_dir.iterdir()}


def test_fast_figures_are_written_and_repeat_byte_for_byte(tmp_path):
    first = run_script(tmp_path / "first")
    second = run_script(tmp_path / "second")
    assert sorted(first) == FIGURES
    assert all(first.values())
    assert first == second
