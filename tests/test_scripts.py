import json
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run(script, *args):
    return subprocess.run(
        [sys.executable, str(SCRIPTS / script), *args],
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_search_script(tmp_path):
    out = tmp_path / "records.jsonl"
    proc = run(
        "search_integral_tilings.py",
        "--m-min", "2", "--m-max", "3", "--count", "5", "--seed", "0",
        "--blowup-k", "2", "--out", str(out),
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert lines[0].split() == ["m", "total", "integral", "guaranteed",
                                "int&inconcl", "nonint->blowup-int"]
    assert len(lines) == 3
    records = [json.loads(s) for s in out.read_text().splitlines()]
    assert len(records) == 10
    assert all(r["m"] in (2, 3) for r in records)


def test_blowup_report_script():
    proc = run("blowup_eigen_report.py", "--builtin", "classical2", "--k-max", "2")
    assert proc.returncode == 0, proc.stderr
    assert "grid 4x4, 4 blocks of 4" in proc.stdout
    assert "rank 64" in proc.stdout
    assert "XM:" in proc.stdout


def test_blowup_report_script_from_file(tmp_path):
    from sudoku_spectra.tiling import render_tiling, row_tiling

    path = tmp_path / "r2.tiling"
    path.write_text(render_tiling(row_tiling(2)))
    proc = run("blowup_eigen_report.py", "--tiling", str(path), "--k-max", "3")
    assert proc.returncode == 0, proc.stderr
    assert "rank 36" in proc.stdout


@pytest.mark.parametrize("argv", [
    ["search_integral_tilings.py", "--blowup-k", "0"],
    ["search_integral_tilings.py", "--m-min", "0"],
    ["search_integral_tilings.py", "--m-min", "1"],
    ["search_integral_tilings.py", "--m-max", "zero"],
    ["search_integral_tilings.py", "--count", "-3"],
    ["search_integral_tilings.py", "--m-min", "4", "--m-max", "3"],
    ["blowup_eigen_report.py", "--builtin", "classical2", "--k-max", "0"],
], ids=" ".join)
def test_bad_option_exits_2(argv):
    proc = run(*argv)
    assert proc.returncode == 2
    assert "usage:" in proc.stderr and "Traceback" not in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("argv, code", [
    (["blowup_eigen_report.py", "--tiling", "/nonexistent.tiling"], 2),
    (["blowup_eigen_report.py", "--tiling", "MALFORMED"], 2),
    (["blowup_eigen_report.py", "--tiling", "BINARY"], 2),
    (["blowup_eigen_report.py", "--tiling", "ROWS23"], 3),
    (["search_integral_tilings.py", "--m-min", "23", "--m-max", "23", "--count", "1"], 3),
], ids=lambda v: " ".join(v) if isinstance(v, list) else str(v))
def test_script_errors_exit_without_traceback(argv, code, tmp_path):
    from sudoku_spectra.tiling import random_tiling, render_tiling

    # ROWS23 has 23 rows: 529 cells, past char_poly's ceiling, and a spectrum
    # that is not integral (tests/test_cli.py checks that with numpy), so no
    # annihilation certificate gets it past the ceiling either
    files = {
        "MALFORMED": b"2\n0 0\n1 2\n",
        "ROWS23": render_tiling(random_tiling(23, 0)).encode(),
        "BINARY": b"\xff",  # not UTF-8
    }
    for name, data in files.items():
        (tmp_path / f"{name}.tiling").write_bytes(data)
    proc = run(*(str(tmp_path / f"{a}.tiling") if a in files else a for a in argv))
    assert proc.returncode == code
    assert "Traceback" not in proc.stderr
    prefix = "input error: " if code == 2 else "compute error: "
    assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith(prefix)
