"""The partition-lattice route of `spectra.tiling_spectrum` against the
dense routes, the dense projection oracle and Sander's closed form."""

import functools
import itertools
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sudoku_spectra.graph as graph_mod
from sudoku_spectra import spectra
from sudoku_spectra.cli import main
from sudoku_spectra.graph import adjacency
from sudoku_spectra.integrality import check_condition_q
from sudoku_spectra.spectra import exact_spectrum, tiling_spectrum
from sudoku_spectra.tiling import (
    Tiling,
    blow_up_tiling,
    classical_tiling,
    random_tiling,
    render_tiling,
    row_tiling,
)

from conftest import tilings
from oracles import scaled_projection
from test_integrality import UNEQUAL_Q_NONINTEGRAL, all_m3_tilings

NAMES = ("R", "C", "B", "RB", "CB")
TESTED = (("R", "B"), ("C", "B"), ("R", "CB"), ("C", "RB"))
# the other six pairs: R-C, the four refinements and RB-CB (see `spectra`)
UNTESTED = (("R", "C"), ("R", "RB"), ("B", "RB"), ("C", "CB"), ("B", "CB"), ("RB", "CB"))


def grid(rows) -> Tiling:
    return Tiling(len(rows), tuple(b for row in rows for b in row))


# uniform row and column pieces, and exactly one pair of projections that
# does not commute: the key
FAILS_ONLY = {
    ("R", "B"): grid([[0, 0, 1, 1], [1, 1, 2, 2], [2, 2, 3, 3], [3, 3, 0, 0]]),
    ("C", "B"): grid([[0, 1, 2, 3], [0, 1, 2, 3], [1, 2, 3, 0], [1, 2, 3, 0]]),
    ("R", "CB"): grid([[0, 1, 2, 3], [0, 1, 3, 2], [1, 0, 2, 3], [1, 0, 3, 2]]),
    ("C", "RB"): grid([[0, 0, 1, 1], [1, 1, 0, 0], [2, 3, 2, 3], [3, 2, 3, 2]]),
}


# rows 0-1 are one block, rows 2-5 hold two blocks in three-cell pieces:
# sized by its largest piece, RB would pass all four commutation tests
UNEQUAL_PIECES6 = grid([[0] * 6, [0] * 6, [1, 1, 1, 2, 2, 2], [1, 1, 1, 2, 2, 2],
                        [2, 2, 2, 1, 1, 1], [2, 2, 2, 1, 1, 1]])


def transpose(t: Tiling) -> Tiling:
    return Tiling(t.m, tuple(t.block_of[c * t.m + r] for r in range(t.m) for c in range(t.m)))


def cell_partitions(t: Tiling) -> dict[str, np.ndarray]:
    """The five partitions as one label per cell, built independently of
    the library's own labels."""
    m = t.m
    row = np.arange(t.n_cells) // m
    col = np.arange(t.n_cells) % m
    blk = np.array(t.block_of)
    return {"R": row, "C": col, "B": blk, "RB": row * m + blk, "CB": col * m + blk}


def dense_commuting(t: Tiling) -> set[tuple[str, str]]:
    """The pairs of the five partitions whose projections commute, from
    dense integer products."""
    proj = {name: scaled_projection(x)[0] for name, x in cell_partitions(t).items()}
    return {
        (x, y) for x, y in itertools.combinations(NAMES, 2)
        if np.array_equal(proj[x] @ proj[y], proj[y] @ proj[x])
    }


def uniform_pieces(t: Tiling) -> bool:
    return check_condition_q(t, "row") is not None and check_condition_q(t, "column") is not None


@functools.cache
def q2_tilings() -> list[Tiling]:
    """Every 4x4 tiling into two or four blocks whose row and column pieces
    all have two cells, up to block labels: the smallest grids where RB-CB
    can fail."""
    out = []
    for nb in (2, 4):
        pieces = [r for r in itertools.product(range(nb), repeat=4)
                  if len(set(r)) == 2 and all(r.count(b) == 2 for b in r)]
        for first in ((0, 0, 1, 1), (0, 1, 0, 1), (0, 1, 1, 0)):
            for rest in itertools.product(pieces, repeat=3):
                block_of = first + sum(rest, ())
                if all(block_of.count(b) == 16 // nb for b in range(nb)):
                    t = Tiling(4, block_of)
                    if check_condition_q(t, "column") == 2:
                        out.append(t)
    return out


def sander_spectrum(n: int) -> tuple[tuple[int, int], ...]:
    """The spectrum of the classical Sudoku graph of order n (Sander,
    "Sudoku graphs are integral", Electron. J. Combin. 16, 2009)."""
    entries = [
        (3 * n * n - 2 * n - 1, 1), (2 * n * n - 2 * n - 1, 2 * (n - 1)),
        (n * n - n - 1, 2 * n * (n - 1)), (n * n - 2 * n - 1, (n - 1) ** 2),
        (-1, n * n * (n - 1) ** 2), (-n - 1, 2 * n * (n - 1) ** 2),
    ]
    counts: dict[int, int] = {}
    for lam, mult in entries:
        if mult:
            counts[lam] = counts.get(lam, 0) + mult
    return tuple(sorted(counts.items()))


def test_exhaustive_m3_accepts_exactly_the_integral_tilings():
    accepted = 0
    for t in all_m3_tilings():
        s = spectra._lattice_spectrum(t)
        exact = exact_spectrum(adjacency(t))
        assert (s is not None) == exact.is_integral, t
        if s is not None:
            accepted += 1
            assert s == exact, t
    assert accepted == 24


@pytest.mark.parametrize("t", UNEQUAL_Q_NONINTEGRAL, ids=["m4-q21", "m4-q12", "m6-q31"])
def test_unequal_q_tilings_are_rejected(t):
    assert spectra._lattice_spectrum(t) is None
    assert tiling_spectrum(t) == exact_spectrum(adjacency(t))
    assert not tiling_spectrum(t).is_integral


@pytest.mark.parametrize("t", [UNEQUAL_PIECES6, transpose(UNEQUAL_PIECES6)], ids=["rows", "columns"])
def test_unequal_pieces_are_rejected(t):
    assert not uniform_pieces(t)
    assert spectra._lattice_spectrum(t) is None
    assert tiling_spectrum(t) == exact_spectrum(adjacency(t))
    assert not tiling_spectrum(t).is_integral


@pytest.mark.parametrize("pair", list(FAILS_ONLY), ids="-".join)
def test_tiling_failing_one_tested_pair_is_rejected(pair):
    t = FAILS_ONLY[pair]
    assert uniform_pieces(t)
    assert set(itertools.combinations(NAMES, 2)) - dense_commuting(t) == {pair}
    assert spectra._lattice_spectrum(t) is None
    assert not exact_spectrum(adjacency(t)).is_integral


def test_rb_cb_commute_once_r_cb_and_c_rb_do():
    # the untested pairs commute on every tiling with uniform pieces, RB-CB
    # once R-CB and C-RB do; some 4x4 tilings with two-cell pieces have a
    # non-commuting RB-CB pair
    sample = [t for t in all_m3_tilings() if uniform_pieces(t)] + q2_tilings()
    assert len(q2_tilings()) == 135
    rb_cb_fails = 0
    for t in sample:
        commuting = dense_commuting(t)
        rb_cb_fails += ("RB", "CB") not in commuting
        assert set(UNTESTED) - {("RB", "CB")} <= commuting, t
        if {("R", "CB"), ("C", "RB")} <= commuting:
            assert ("RB", "CB") in commuting, t
    assert rb_cb_fails > 0


def test_accepted_iff_every_projection_commutes():
    extra = [*FAILS_ONLY.values(), UNEQUAL_PIECES6, transpose(UNEQUAL_PIECES6)]
    for t in all_m3_tilings() + q2_tilings() + extra:
        every = uniform_pieces(t) and len(dense_commuting(t)) == 10
        assert (spectra._lattice_spectrum(t) is not None) == every, t


@given(tilings(min_m=1, max_m=5))
@example(row_tiling(4))
@example(FAILS_ONLY[("R", "CB")])
@settings(max_examples=40, deadline=None)
def test_commutation_test_matches_dense_projections(t):
    # each tested pair whose pieces have one size, against P_X P_Y = P_Y P_X,
    # and the join's class count against tr(P_X P_Y)
    parts = cell_partitions(t)
    proj = {name: scaled_projection(x) for name, x in parts.items()}
    for x, y in TESTED:
        sizes = [np.bincount(spectra._compact(parts[name])) for name in (x, y)]
        if any(s.min() != s.max() for s in sizes):
            continue
        count = spectra._commuting_join(spectra._compact(parts[x]), spectra._compact(parts[y]),
                                        int(sizes[0][0]), int(sizes[1][0]))
        (px, lx), (py, ly) = proj[x], proj[y]
        product = px @ py
        assert (count is not None) == np.array_equal(product, py @ px), (t, x, y)
        if count is not None:
            assert count * lx * ly == np.trace(product), (t, x, y)


@given(tilings(min_m=1, max_m=5))
@example(classical_tiling(2))
@example(row_tiling(3))
@settings(max_examples=40, deadline=None)
def test_tiling_spectrum_equals_exact_spectrum(t):
    expected = exact_spectrum(adjacency(t))
    assert tiling_spectrum(t) == expected
    s = spectra._lattice_spectrum(t)
    assert s is None or s == expected


def test_annihilation_past_char_poly_limit_equals_the_lattice():
    # classical n=5 has 625 vertices, past char_poly's 512 limit, so the
    # matrix route answers it only through the annihilation certificate
    t = classical_tiling(5)
    assert exact_spectrum(adjacency(t)) == tiling_spectrum(t)


BLOWUP_BASES = [classical_tiling(1), classical_tiling(2), row_tiling(2), row_tiling(3),
                row_tiling(4), random_tiling(3, 27), random_tiling(3, 0), random_tiling(4, 5),
                FAILS_ONLY[("C", "RB")]]


@given(st.sampled_from(BLOWUP_BASES), st.integers(1, 11))
@example(classical_tiling(2), 5)
@example(random_tiling(3, 27), 7)
@settings(max_examples=25, deadline=None)
def test_blowups_up_to_512_vertices(t, k):
    # wherever the lattice accepts a blow-up, it equals the dense route
    big = blow_up_tiling(t, min(k, 22 // t.m))
    assert big.n_cells <= 512
    s = spectra._lattice_spectrum(big)
    if s is not None:
        assert s == exact_spectrum(adjacency(big))


@pytest.mark.parametrize("n", range(1, 9))
def test_classical_matches_sanders_closed_form(n):
    s = spectra._lattice_spectrum(classical_tiling(n))
    assert s is not None and s.residual == (1,)
    assert s.integer_part == sander_spectrum(n)


@pytest.mark.parametrize("n", [7, 8])
def test_spectrum_exact_classical_7_and_8(n, tmp_path, monkeypatch, capsys):
    # 2401 and 4096 vertices, with no adjacency matrix built
    def forbidden(t):
        raise AssertionError("adjacency built")

    monkeypatch.setattr(graph_mod, "adjacency", forbidden)
    path = tmp_path / f"c{n}.tiling"
    path.write_text(render_tiling(classical_tiling(n)))
    assert main(["spectrum", str(path), "--exact", "--json"]) == 0
    exact = json.loads(capsys.readouterr().out)["exact"]
    assert exact["integer_part"] == [list(p) for p in sander_spectrum(n)]
    assert exact["integral"] is True and exact["residual_coeffs"] == ["1"]


def test_rejected_tiling_falls_back_to_the_adjacency(freeform4, monkeypatch):
    built = []
    real = graph_mod.adjacency
    monkeypatch.setattr(graph_mod, "adjacency", lambda t: built.append(t) or real(t))
    s = tiling_spectrum(freeform4)
    assert built == [freeform4]
    assert s.integer_part == ((-2, 3),) and s.residual_degree == 13
