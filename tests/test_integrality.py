import numpy as np
import pytest
from hypothesis import given, settings

import sudoku_spectra.integrality as integrality_mod
from sudoku_spectra.graph import adjacency, layers
from sudoku_spectra.integrality import (
    GUARANTEED_INTEGRAL,
    INCONCLUSIVE,
    check_condition_iii,
    check_condition_q,
    check_regcommute,
    theorem_verdict,
)
from sudoku_spectra.spectra import is_integral
from sudoku_spectra.tiling import Tiling, classical_tiling, random_tiling, row_tiling

from conftest import tilings
from oracles import condition_iii_cells


# Matrix forms of the conditions: the references the production checks,
# which never build a layer matrix, are compared against.


def layers_commute(t: Tiling) -> bool:
    """Condition (iii) as matrix commutation: l_h @ l_v == l_v @ l_h."""
    d = layers(t)
    l_h = d.l_h.astype(np.int64)
    l_v = d.l_v.astype(np.int64)
    return bool(np.array_equal(l_h @ l_v, l_v @ l_h))


def layer_regcommute(t: Tiling, axis: str) -> tuple[bool, bool]:
    """(constant row sums, commutes with l_b) of the row or column layer."""
    d = layers(t)
    layer = (d.l_h if axis == "row" else d.l_v).astype(np.int64)
    l_b = d.l_b.astype(np.int64)
    sums = layer.sum(axis=1)
    return bool(np.all(sums == sums[0])), bool(np.array_equal(l_b @ layer, layer @ l_b))


def all_m3_tilings() -> list[Tiling]:
    """All 1680 partitions of the 3x3 grid into three labelled blocks of 3."""
    from itertools import combinations

    out = []
    for b0 in combinations(range(9), 3):
        rest = sorted(set(range(9)) - set(b0))
        for b1 in combinations(rest, 3):
            block_of = [0] * 9
            for c in b1:
                block_of[c] = 1
            for c in set(rest) - set(b1):
                block_of[c] = 2
            out.append(Tiling(3, tuple(block_of)))
    return out


def test_condition_q_classical():
    for n in (1, 2, 3):
        t = classical_tiling(n)
        assert check_condition_q(t, "row") == n
        assert check_condition_q(t, "column") == n


def test_condition_q_row_tiling():
    assert check_condition_q(row_tiling(4), "row") == 4
    assert check_condition_q(row_tiling(4), "column") == 1


def test_condition_q_freeform4(freeform4):
    # row 1 is one whole block (count 4) but row 2 mixes counts 1 and 2
    assert check_condition_q(freeform4, "row") is None
    assert check_condition_q(freeform4, "column") is None


def test_condition_iii_classical():
    assert check_condition_iii(classical_tiling(2)) is True
    assert check_condition_iii(classical_tiling(3)) is True


def test_condition_iii_noncommuting(noncommuting4):
    # constant row sums on both layers, yet the layers do not commute
    d = layers(noncommuting4)
    h = d.l_h.astype(np.int64)
    v = d.l_v.astype(np.int64)
    assert len(set(h.sum(axis=1))) == 1
    assert len(set(v.sum(axis=1))) == 1
    assert not np.array_equal(h @ v, v @ h)
    assert check_condition_iii(noncommuting4) is False


def test_condition_iii_degenerate_row_tiling():
    # no H edges at all, so the layers commute trivially
    assert check_condition_iii(row_tiling(2)) is True
    assert check_condition_iii(row_tiling(3)) is True


def test_regcommute_classical():
    rc = check_regcommute(classical_tiling(3), "row")
    assert (rc.regular, rc.commutes_with_blocks) == (True, True)
    assert layer_regcommute(classical_tiling(3), "row") == (True, True)


def test_regcommute_noncommuting(noncommuting4):
    for axis in ("row", "column"):
        rc = check_regcommute(noncommuting4, axis)
        assert (rc.regular, rc.commutes_with_blocks) == (True, True)
        assert layer_regcommute(noncommuting4, axis) == (True, True)


def test_regcommute_freeform4(freeform4):
    rc = check_regcommute(freeform4, "row")
    const_row_sum, _ = layer_regcommute(freeform4, "row")
    assert rc.regular is False and const_row_sum is False


def test_verdict_classical():
    for n in (1, 2, 3):
        rep = theorem_verdict(classical_tiling(n))
        assert rep.verdict == GUARANTEED_INTEGRAL
        assert rep.cond_i == n and rep.cond_ii == n and rep.cond_iii


def test_verdict_freeform4(freeform4):
    rep = theorem_verdict(freeform4)
    assert rep.verdict == INCONCLUSIVE
    assert rep.cond_i is None


def test_verdict_nonintegral_random():
    t = random_tiling(4, 0)  # pinned non-integral tiling
    rep = theorem_verdict(t)
    assert rep.verdict == INCONCLUSIVE
    assert not is_integral(adjacency(t))


def test_noncommuting_verdict(noncommuting4):
    rep = theorem_verdict(noncommuting4)
    assert rep.cond_iii is False
    assert rep.verdict == INCONCLUSIVE


def test_regcommute_triples_agree_on_sample(random_sample_100):
    # equivalence of (regular, const row sum, commutes-with-blocks), with
    # the last two from the layer matrices: a single counterexample is a bug
    for t in random_sample_100:
        for axis in ("row", "column"):
            rc = check_regcommute(t, axis)
            const_row_sum, commutes = layer_regcommute(t, axis)
            assert rc.regular == const_row_sum == commutes == rc.commutes_with_blocks, t


def test_condition_iii_cross_check_on_sample(random_sample_100):
    # the cell-quantified form must agree with the matrix form
    for t in random_sample_100:
        assert check_condition_iii(t) == layers_commute(t), t


def test_soundness_on_sample(random_sample_100):
    # guaranteed verdict must imply integrality; inconclusive implies nothing
    for t in random_sample_100:
        rep = theorem_verdict(t)
        if rep.guaranteed:
            assert is_integral(adjacency(t))


@given(tilings(min_m=2, max_m=5))
@settings(max_examples=40, deadline=None)
def test_regular_iff_const_row_sum_property(t):
    # only this pair is universally equivalent; commuting-with-blocks can
    # diverge on structured tilings (see the regression tests below), so
    # it is compared with its own matrix form
    for axis in ("row", "column"):
        rc = check_regcommute(t, axis)
        assert (rc.regular, rc.commutes_with_blocks) == layer_regcommute(t, axis)


# rows AABB / BBCC / CCDD / DDAA: the column layer is 2-regular yet does
# not commute with the block layer (block/column incidence is asymmetric)
REGULAR_NOT_COMMUTING = Tiling(4, (1, 3, 0, 3, 2, 3, 0, 1, 1, 0, 2, 1, 2, 0, 2, 3))
# two columns sharing two blocks beside two single-block columns: the
# column layer commutes with the block layer but is not regular
COMMUTING_NOT_REGULAR = Tiling(4, (0, 1, 2, 3, 0, 1, 2, 3, 1, 0, 2, 3, 1, 0, 2, 3))


def test_regular_without_commuting_regression():
    rc = check_regcommute(REGULAR_NOT_COMMUTING, "column")
    const_row_sum, commutes = layer_regcommute(REGULAR_NOT_COMMUTING, "column")
    assert rc.regular and const_row_sum
    assert not rc.commutes_with_blocks and not commutes


def test_commuting_without_regular_regression():
    rc = check_regcommute(COMMUTING_NOT_REGULAR, "column")
    const_row_sum, commutes = layer_regcommute(COMMUTING_NOT_REGULAR, "column")
    assert not rc.regular and not const_row_sum
    assert rc.commutes_with_blocks and commutes


# tilings meeting the uniform-count conditions on both axes with UNEQUAL
# counts, plus commuting row/column layers, and still irrational spectra;
# these force the common-q requirement in theorem_verdict
UNEQUAL_Q_NONINTEGRAL = [
    # rows AABB / BBCC / CCDD / DDAA: q_row=2, q_col=1
    Tiling(4, (0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 0, 0)),
    # row-Latin with doubled columns: q_row=1, q_col=2
    Tiling(4, (0, 1, 2, 3, 0, 1, 2, 3, 1, 2, 3, 0, 1, 2, 3, 0)),
    # cyclic m=6 variant: q_row=3, q_col=1
    Tiling(6, tuple(b for row in [(0, 0, 0, 1, 1, 1), (1, 1, 1, 2, 2, 2),
                                  (2, 2, 2, 3, 3, 3), (3, 3, 3, 4, 4, 4),
                                  (4, 4, 4, 5, 5, 5), (5, 5, 5, 0, 0, 0)]
                    for b in row)),
]


@pytest.mark.parametrize("t", UNEQUAL_Q_NONINTEGRAL, ids=["m4-q21", "m4-q12", "m6-q31"])
def test_unequal_q_tilings_are_not_certified(t):
    assert check_condition_q(t, "row") is not None
    assert check_condition_q(t, "column") is not None
    assert check_condition_q(t, "row") != check_condition_q(t, "column")
    assert check_condition_iii(t) is True
    assert not is_integral(adjacency(t))
    assert theorem_verdict(t).verdict == INCONCLUSIVE


def test_exhaustive_m3_certified_tilings_are_integral():
    # all 1680 block partitions of the 3x3 grid: every tiling passing the
    # uniform-count and commuting conditions (any q combination) is
    # integral at this size; the verdict additionally demands a common q
    certified = 0
    guaranteed = 0
    for t in all_m3_tilings():
        q_r = check_condition_q(t, "row")
        q_c = check_condition_q(t, "column")
        if q_r is None or q_c is None or not check_condition_iii(t):
            continue
        certified += 1
        assert is_integral(adjacency(t))
        if theorem_verdict(t).verdict == GUARANTEED_INTEGRAL:
            guaranteed += 1
            assert q_r == q_c
    assert certified == 24
    assert guaranteed == 12


def test_exhaustive_m3_conditions_match_matrix_forms():
    # every 3x3 tiling, both axes: the profile and cell forms equal the
    # layer-matrix forms
    for t in all_m3_tilings():
        assert check_condition_iii(t) == layers_commute(t) == condition_iii_cells(t), t
        for axis in ("row", "column"):
            rc = check_regcommute(t, axis)
            assert (rc.regular, rc.commutes_with_blocks) == layer_regcommute(t, axis), (t, axis)


@given(tilings(min_m=2, max_m=5))
@settings(max_examples=40, deadline=None)
def test_condition_iii_equivalence_property(t):
    assert check_condition_iii(t) == layers_commute(t) == condition_iii_cells(t)


# condition (iii) fails here only for row pairs (1, 2) and (1, 3), so a
# slice holding row 0 alone passes
LATE_FAILURE4 = Tiling(4, (1, 2, 3, 0, 2, 0, 1, 3, 3, 0, 1, 2, 2, 1, 0, 3))


@pytest.mark.parametrize("t", [classical_tiling(2), row_tiling(4), LATE_FAILURE4],
                         ids=["c2", "row4", "late-failure"])
@pytest.mark.parametrize("rows", [1, 2, 4])
def test_condition_iii_in_slices(t, rows, monkeypatch):
    # slices of one, two or all four rows r1 give the loops' verdict
    monkeypatch.setattr(integrality_mod, "_CORNER_CHUNK", rows * 4**3)
    assert check_condition_iii(t) == condition_iii_cells(t) == (t != LATE_FAILURE4)


@given(tilings(min_m=2, max_m=5))
@settings(max_examples=30, deadline=None)
def test_verdict_soundness_property(t):
    # the verdict never looks at the spectrum; a guaranteed verdict on a
    # non-integral tiling would fail here
    rep = theorem_verdict(t)
    if rep.guaranteed:
        assert rep.cond_i == rep.cond_ii
        assert is_integral(adjacency(t))


def test_axis_validation(freeform4):
    with pytest.raises(ValueError):
        check_condition_q(freeform4, "diagonal")


def test_verdict_beyond_exact_kernel_envelope():
    # 625 cells exceed the exact-spectrum size cap; the certificate needs
    # no spectrum and no layer matrix, so it still works
    rep = theorem_verdict(classical_tiling(5))
    assert rep.verdict == GUARANTEED_INTEGRAL
    assert rep.cond_i == 5 and rep.cond_ii == 5 and rep.cond_iii
