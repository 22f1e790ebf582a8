"""Golden `blowup --verify --json` reports: the verify block of three runs,
pinned when the factor-level verification was last restructured, so that a
refactor of the verify path shows it changes no output.

Integer eigenvalues (the exact entries), family sizes, rank, `max_family`
and `max_lower_bound` are pinned exactly, and `max_residual` is exactly 0.0
when every seed is exact; float entries are pinned within 1e-9.  `seconds`
and `spectrum_max_error` depend on the machine's LAPACK and are not pinned.

Regenerate (only when an output change is intended) with
    PYTHONPATH=src python tests/test_verify_golden.py
"""

import io
import json
import math
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from sudoku_spectra.cli import main
from sudoku_spectra.tiling import classical_tiling, from_cell_sets, random_tiling, render_tiling

GOLDEN = Path(__file__).with_name("verify_golden.json")
FLOAT_TOL = 1e-9

FREEFORM4 = from_cell_sets(4, [{1, 2, 3, 4}, {5, 9, 13, 14}, {6, 8, 12, 16}, {7, 10, 11, 15}])
CASES = {
    "classical2_k2": (classical_tiling(2), 2),
    "freeform4_k3": (FREEFORM4, 3),
    "random3_1_k2": (random_tiling(3, 1), 2),
}


def verify_block(tiling, k: int, path: Path) -> dict:
    """The pinned part of `blowup --verify --json`'s verify block."""
    path.write_text(render_tiling(tiling), encoding="utf-8")
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(["blowup", str(path), "--k", str(k), "--verify", "--json"])
    if code != 0:
        raise RuntimeError(f"blowup --verify exited {code}")
    v = json.loads(out.getvalue())["verify"]
    del v["spectrum_max_error"]
    v["predicted"] = [[e["family"], e["eigenvalue"]] for e in v["predicted"]]
    return v


def _same(got, want) -> bool:
    """Exact for integers and non-float fields, within FLOAT_TOL otherwise."""
    if isinstance(want, float) and not want.is_integer():
        return isinstance(got, float) and math.isclose(got, want, rel_tol=0, abs_tol=FLOAT_TOL)
    return got == want


@pytest.mark.parametrize("name", sorted(CASES))
def test_verify_report_matches_golden(name, tmp_path):
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))[name]
    got = verify_block(*CASES[name], tmp_path / f"{name}.tiling")
    assert sorted(got) == sorted(want)
    for key in ("reconciled", "family_sizes", "rank", "max_family", "max_lower_bound"):
        assert got[key] == want[key], key
    assert _same(got["max_eigenvalue"], want["max_eigenvalue"])
    if all(float(value).is_integer() for _, value in want["predicted"]):
        assert got["max_residual"] == 0.0
    else:
        assert _same(got["max_residual"], want["max_residual"])
    assert len(got["predicted"]) == len(want["predicted"])
    bad = [
        (i, g, w) for i, (g, w) in enumerate(zip(got["predicted"], want["predicted"]))
        if g[0] != w[0] or not _same(g[1], w[1])
    ]
    assert bad == []


def test_golden_mixes_exact_and_approximate_seeds():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    values = [value for _, value in golden["random3_1_k2"]["predicted"]]
    assert any(float(v).is_integer() for v in values)
    assert not all(float(v).is_integer() for v in values)
    assert golden["random3_1_k2"]["max_residual"] > 0.0


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        blocks = {
            name: verify_block(t, k, Path(tmp) / f"{name}.tiling")
            for name, (t, k) in sorted(CASES.items())
        }
    # one predicted entry per line, so a change shows as a readable diff
    cases = []
    for name, v in blocks.items():
        head = json.dumps({key: val for key, val in v.items() if key != "predicted"})
        rows = ",\n  ".join(json.dumps(entry) for entry in v["predicted"])
        cases.append(f'{json.dumps(name)}: {head[:-1]}, "predicted": [\n  {rows}\n]}}')
    GOLDEN.write_text("{\n" + ",\n".join(cases) + "\n}\n", encoding="utf-8")
