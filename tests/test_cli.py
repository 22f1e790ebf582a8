import json

import pytest

from sudoku_spectra.cli import main, search_counts
from sudoku_spectra.integrality import GUARANTEED_INTEGRAL, INCONCLUSIVE
from sudoku_spectra.tiling import classical_tiling, render_tiling

NONCOMMUTING4_TEXT = "4\n0 2 1 3\n3 1 2 0\n0 1 2 3\n3 2 1 0\n"


@pytest.fixture
def classical2_file(tmp_path):
    path = tmp_path / "c2.tiling"
    path.write_text(render_tiling(classical_tiling(2)))
    return str(path)


@pytest.fixture
def freeform4_file(tmp_path, freeform4):
    path = tmp_path / "f4.tiling"
    path.write_text(render_tiling(freeform4))
    return str(path)


def test_spectrum_exact(classical2_file, capsys):
    assert main(["spectrum", classical2_file, "--exact"]) == 0
    out = capsys.readouterr().out
    assert "integral: True" in out
    assert "residual degree 0" in out


def test_spectrum_json_roundtrip(freeform4_file, capsys):
    assert main(["spectrum", freeform4_file, "--both", "--json"]) == 0
    out = capsys.readouterr().out
    report = json.loads(out)
    assert json.loads(json.dumps(report)) == report
    # the free-form example graph is not integral: -2 three times plus a
    # degree-13 residual
    assert report["exact"]["integral"] is False
    assert report["exact"]["integer_part"] == [[-2, 3]]
    assert report["exact"]["residual_degree"] == 13
    assert all(isinstance(c, str) for c in report["exact"]["residual_coeffs"])
    assert len(report["float"]) == 16


def test_spectrum_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.tiling"
    bad.write_text("not a tiling")
    assert main(["spectrum", str(bad)]) == 2
    assert "input error" in capsys.readouterr().err


def test_spectrum_missing_file(capsys):
    assert main(["spectrum", "/nonexistent/file.tiling"]) == 2


def test_check_classical(classical2_file, capsys):
    assert main(["check", classical2_file]) == 0
    assert "guaranteed-integral" in capsys.readouterr().out


def test_check_noncommuting(tmp_path, capsys):
    path = tmp_path / "nc.tiling"
    path.write_text(NONCOMMUTING4_TEXT)
    assert main(["check", str(path), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["conditions"]["cond_iii"] is False
    assert report["conditions"]["regcommute_row"]["const_row_sum"] is True
    assert report["conditions"]["verdict"] == "inconclusive"


def test_check_freeform4(freeform4_file, capsys):
    assert main(["check", freeform4_file, "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["conditions"]["verdict"] == "inconclusive"
    assert report["conditions"]["cond_i_q"] is None


def test_blowup_roundtrip(classical2_file, tmp_path, capsys):
    out = tmp_path / "blown.tiling"
    assert main(["blowup", classical2_file, "--k", "2", "--out", str(out)]) == 0
    text = out.read_text()
    assert text.splitlines()[0] == "8"
    # k=1 writes the input back unchanged
    out1 = tmp_path / "same.tiling"
    assert main(["blowup", classical2_file, "--k", "1", "--out", str(out1)]) == 0
    assert out1.read_text() == render_tiling(classical_tiling(2))


def test_blowup_verify(classical2_file, capsys):
    assert main(["blowup", classical2_file, "--k", "2", "--verify", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    v = report["verify"]
    assert v["reconciled"] is True
    assert v["rank"] == 64
    assert v["family_sizes"] == [16, 16, 16, 16]
    assert len(v["predicted"]) == 64
    assert v["max_family"] == "XM"
    # classical blow-ups stay integral: every predicted value is an integer
    assert all(
        abs(e["eigenvalue"] - round(e["eigenvalue"])) < 1e-9 for e in v["predicted"]
    )
    assert {e["family"] for e in v["predicted"]} == {"XV", "XH", "XE", "XM"}


def test_blowup_verify_freeform4_k3(freeform4_file, capsys):
    assert main(["blowup", freeform4_file, "--k", "3", "--verify", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    v = report["verify"]
    assert v["rank"] == 144
    assert v["family_sizes"] == [32, 32, 64, 16]
    assert len(v["predicted"]) == 144
    assert v["max_lower_bound"] == 35
    assert v["max_eigenvalue"] >= 35


def test_check_classical3(tmp_path, capsys):
    from sudoku_spectra.tiling import classical_tiling as ct

    path = tmp_path / "c3.tiling"
    path.write_text(render_tiling(ct(3)))
    assert main(["check", str(path)]) == 0
    assert "guaranteed-integral" in capsys.readouterr().out


def test_blowup_matrix_out(classical2_file, tmp_path):
    mat = tmp_path / "m.txt"
    assert main(["blowup", classical2_file, "--k", "2", "--matrix-out", str(mat)]) == 0
    rows = mat.read_text().splitlines()
    assert len(rows) == 64 and all(len(r) == 64 for r in rows)
    matj = tmp_path / "m.json"
    assert main([
        "blowup", classical2_file, "--k", "2",
        "--matrix-out", str(matj), "--matrix-format", "json",
    ]) == 0
    data = json.loads(matj.read_text())
    assert len(data) == 64 and all(x in ("0", "1") for x in data[0])


def test_search_deterministic(capsys):
    assert main(["search", "--m", "4", "--count", "5", "--seed", "3"]) == 0
    first = capsys.readouterr().out
    assert main(["search", "--m", "4", "--count", "5", "--seed", "3"]) == 0
    assert capsys.readouterr().out == first
    records = [json.loads(line) for line in first.strip().splitlines()]
    assert [r["seed"] for r in records] == [3, 4, 5, 6, 7]


def test_search_soundness(capsys):
    assert main(["search", "--m", "3", "--count", "30", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    for line in out.strip().splitlines():
        rec = json.loads(line)
        if rec["theorem_verdict"] == "guaranteed-integral":
            assert rec["integral"]


def test_search_pinned_counts(capsys):
    # regression: m=4 random tilings are (essentially) never integral
    assert main(["search", "--m", "4", "--count", "20", "--seed", "0"]) == 0
    err = capsys.readouterr().err
    summary = json.loads(err.strip().splitlines()[-1])
    assert summary["integral"] == 0
    assert summary["guaranteed"] == 0


def test_search_blowup_mode(capsys):
    assert main(["search", "--m", "2", "--count", "6", "--seed", "0", "--blowup-k", "2"]) == 0
    out = capsys.readouterr().out
    for line in out.strip().splitlines():
        rec = json.loads(line)
        assert "blowup_integral" in rec


def test_search_rejects_small_m(capsys):
    assert main(["search", "--m", "1", "--count", "1"]) == 2


def test_search_counts():
    records = [
        {"integral": True, "theorem_verdict": GUARANTEED_INTEGRAL},
        {"integral": True, "theorem_verdict": INCONCLUSIVE},
        {"integral": False, "theorem_verdict": INCONCLUSIVE, "blowup_integral": True},
        {"integral": False, "theorem_verdict": INCONCLUSIVE, "blowup_integral": False},
        {"integral": False, "theorem_verdict": INCONCLUSIVE},
    ]
    assert search_counts(records) == {
        "integral": 2,
        "guaranteed": 1,
        "integral_inconclusive": 1,
        "nonintegral_blowup_integral": 1,
    }


@pytest.mark.parametrize("blowup", [[], ["--blowup-k", "2"]], ids=["plain", "blowup"])
def test_search_summary_keys(blowup, capsys):
    assert main(["search", "--m", "2", "--count", "3", *blowup]) == 0
    summary = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    keys = ["summary", "m", "count", "seed", "integral", "guaranteed", "integral_inconclusive"]
    assert list(summary) == keys + (["nonintegral_blowup_integral"] if blowup else [])


def test_blowup_verify_failure_exits_4(classical2_file, monkeypatch, capsys):
    import sudoku_spectra.cli as cli_mod
    from sudoku_spectra.eigenbasis import VerificationFailure

    def boom(t, k, **kwargs):
        raise VerificationFailure("basis-rank", "injected")

    monkeypatch.setattr(cli_mod.eigenbasis, "verify", boom)
    assert main(["blowup", classical2_file, "--k", "2", "--verify"]) == 4
    assert "verification failed" in capsys.readouterr().err


def test_blowup_verify_constructions_differ_exits_4(classical2_file, monkeypatch, capsys):
    import sudoku_spectra.blowup as blowup_mod

    real = blowup_mod.blown_adjacency

    def one_edge_off(t, k):
        a = real(t, k)
        a[0, 1] = a[1, 0] = 1 - a[0, 1]
        return a

    monkeypatch.setattr(blowup_mod, "blown_adjacency", one_edge_off)
    assert main(["blowup", classical2_file, "--k", "2", "--verify"]) == 4
    assert "constructions differ" in capsys.readouterr().err


@pytest.mark.parametrize("extra", [[], ["--matrix-out", "m.txt"]], ids=["verify", "verify+matrix"])
def test_blowup_verify_builds_blown_adjacency_once(classical2_file, tmp_path, monkeypatch, extra):
    import sys

    import sudoku_spectra.blowup as blowup_mod

    real = blowup_mod.blown_adjacency
    calls = []

    def counted(t, k):
        calls.append(k)
        return real(t, k)

    # every module that bound the function by name, as well as its home
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("sudoku_spectra") and \
                getattr(mod, "blown_adjacency", None) is real:
            monkeypatch.setattr(mod, "blown_adjacency", counted)
    monkeypatch.chdir(tmp_path)
    assert main(["blowup", classical2_file, "--k", "2", "--verify", *extra]) == 0
    assert calls == [2]


@pytest.mark.parametrize("seed, integral", [(0, False), (27, True)])
def test_search_blowup_past_char_poly_limit(seed, integral, capsys):
    # the 8-fold blow-up of a 3x3 tiling has 576 vertices, past char_poly's
    # ceiling; its 9x9 seeds decide it
    import numpy as np

    from sudoku_spectra.blowup import blown_adjacency
    from sudoku_spectra.tiling import random_tiling

    argv = ["search", "--m", "3", "--count", "1", "--seed", str(seed), "--blowup-k", "8"]
    assert main(argv) == 0
    rec = json.loads(capsys.readouterr().out.strip().splitlines()[0])
    w = np.linalg.eigvalsh(blown_adjacency(random_tiling(3, seed), 8).astype(float))
    assert rec["blowup_integral"] == bool(np.all(np.abs(w - np.round(w)) < 1e-6)) == integral


def test_search_blowup_reads_seeds_only(monkeypatch, capsys):
    import sudoku_spectra.cli as cli_mod
    import sudoku_spectra.eigenbasis as eigenbasis_mod

    def forbidden(t, k):
        raise AssertionError("search built the blown adjacency")

    real = cli_mod.spectra.exact_spectrum
    sizes = []

    def sized(a):
        sizes.append((a.shape[0], max(a.flat)))
        return real(a)

    monkeypatch.setattr(cli_mod.blowup, "blown_adjacency", forbidden)
    monkeypatch.setattr(eigenbasis_mod, "blown_adjacency", forbidden)
    monkeypatch.setattr(cli_mod.spectra, "exact_spectrum", sized)
    # random_tiling(3, 27) is integral, so all three seed spectra are computed
    assert main(["search", "--m", "3", "--count", "1", "--seed", "27", "--blowup-k", "3"]) == 0
    # N x N matrices only; the largest entry, k^2 = 9, is M's
    assert sizes and max(sizes) == (9, 9)


@pytest.mark.parametrize("m, seed", [(3, 27), (3, 0), (4, 5)])
def test_search_blowup_k1_reuses_spectrum(m, seed, monkeypatch):
    # the 1-fold blow-up is the tiling itself: one characteristic polynomial
    import sudoku_spectra.cli as cli_mod

    real = cli_mod.spectra.exact_spectrum
    calls = []

    def counted(a):
        calls.append(a.shape[0])
        return real(a)

    monkeypatch.setattr(cli_mod.spectra, "exact_spectrum", counted)
    rec = cli_mod.search_record(m, seed, 1)
    assert calls == [m * m]
    assert rec["blowup_k"] == 1 and rec["blowup_integral"] == rec["integral"]


def test_spectrum_past_char_poly_limit_exits_3(tmp_path, capsys):
    from sudoku_spectra.tiling import row_tiling

    path = tmp_path / "r23.tiling"
    path.write_text(render_tiling(row_tiling(23)))  # 529 vertices
    assert main(["spectrum", str(path), "--exact"]) == 3
    assert "char_poly supports n <= 512" in capsys.readouterr().err


def test_compute_error_exits_3(classical2_file, monkeypatch, capsys):
    import sudoku_spectra.cli as cli_mod
    from sudoku_spectra.linalg import ConvergenceError

    def boom(a):
        raise ConvergenceError("injected")

    monkeypatch.setattr(cli_mod.spectra, "exact_spectrum", boom)
    assert main(["spectrum", classical2_file, "--exact"]) == 3
    assert "compute error" in capsys.readouterr().err


def test_gen_commands(tmp_path, capsys):
    out = tmp_path / "g.tiling"
    assert main(["gen", "classical", "--n", "3", "--out", str(out)]) == 0
    assert out.read_text().splitlines()[0] == "9"
    assert main(["gen", "row", "--m", "3"]) == 0
    assert capsys.readouterr().out == "3\n0 0 0\n1 1 1\n2 2 2\n"
    assert main(["gen", "random", "--m", "4", "--seed", "42"]) == 0
    text = capsys.readouterr().out
    assert text.splitlines()[1].split() == ["3", "3", "1", "0"]


@pytest.mark.parametrize("argv", [
    ["blowup", "TILING", "--k", "0"],
    ["blowup", "TILING", "--k", "two"],
    ["gen", "classical", "--n", "0"],
    ["gen", "row", "--m", "-3"],
    ["gen", "random", "--m", "0"],
    ["search", "--m", "4", "--blowup-k", "0"],
    ["search", "--m", "4", "--count", "-1"],
    ["search", "--m", "4", "--jobs", "0"],
], ids=lambda argv: " ".join(a for a in argv if a != "TILING"))
def test_bad_positive_int_exits_2(argv, classical2_file, capsys):
    argv = [classical2_file if a == "TILING" else a for a in argv]
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and "Traceback" not in err


def test_search_jobs_clamped_to_cpu_count(monkeypatch, capsys):
    import sudoku_spectra.cli as cli_mod

    seen = []

    class RecordingPool:
        # stands in for ProcessPoolExecutor: records the worker count and
        # runs the tasks in this process
        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(cli_mod, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(cli_mod.os, "cpu_count", lambda: 2)
    assert main(["search", "--m", "3", "--count", "4", "--seed", "5", "--jobs", "64"]) == 0
    assert seen == [2]
    parallel = capsys.readouterr().out
    assert main(["search", "--m", "3", "--count", "4", "--seed", "5"]) == 0
    assert capsys.readouterr().out == parallel
