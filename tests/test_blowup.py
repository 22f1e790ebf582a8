import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sudoku_spectra import linalg as la
from sudoku_spectra.blowup import (
    blown_adjacency,
    reconcile,
    subsquare_permutation,
    substitution_set,
)
from sudoku_spectra.graph import adjacency
from sudoku_spectra.tiling import blow_up_tiling, classical_tiling, row_tiling

from conftest import tilings
from golden import BLOWUP3_H, BLOWUP3_V
from oracles import substitute_template


def test_substitution_k1():
    s = substitution_set(1)
    assert s.h.tolist() == [[1]] and s.v.tolist() == [[1]] and s.b.tolist() == [[1]]
    assert s.d.tolist() == [[0]]


def test_substitution_k2():
    s = substitution_set(2)
    assert np.array_equal(s.b, la.ones_matrix(4))
    assert np.array_equal(s.d, la.ones_matrix(4) - la.identity(4))
    assert np.array_equal(s.h, la.kron(la.identity(2), la.ones_matrix(2)))
    assert np.array_equal(s.v, la.kron(la.ones_matrix(2), la.identity(2)))


def test_substitution_k3_golden():
    s = substitution_set(3)
    assert np.array_equal(s.h, np.array(BLOWUP3_H, dtype=object))
    assert np.array_equal(s.v, np.array(BLOWUP3_V, dtype=object))


def test_blown_k1_is_adjacency(freeform4):
    assert np.array_equal(blown_adjacency(freeform4, 1), adjacency(freeform4))


def test_blown_neighborhood_matches_band_structure(freeform4):
    # 3-fold blow-up, vertex at big-grid row 5, column 6 (1-based): its
    # neighbors are its full row and column plus the blown cells of its
    # block: the subsquare of original cell 6 and the right column band
    big = blow_up_tiling(freeform4, 3)
    a = adjacency(big)
    v = 4 * 12 + 5  # 0-based (row 4, col 5)
    expected = set()
    for c in range(12):
        expected.add(4 * 12 + c)
        expected.add(c * 12 + 5)
    for r in range(3, 6):  # subsquare of cell 6
        for c in range(3, 6):
            expected.add(r * 12 + c)
    for r in range(3, 12):  # right column band: blocks of cells 8, 12, 16
        for c in range(9, 12):
            expected.add(r * 12 + c)
    expected.discard(v)
    neighbors = {w for w in range(144) if a[v, w]}
    assert neighbors == expected


def test_subsquare_permutation_small():
    perm = subsquare_permutation(2, 2)
    # subsquare vertex 2 = cell 1, inner (1,0) -> big grid (row 2, col 1),
    # i.e. 0-based row-major index 4
    assert perm[2] == 4
    assert perm[0] == 0
    # identity when k=1
    assert np.array_equal(subsquare_permutation(3, 1), np.arange(9))


@given(st.integers(1, 4), st.integers(1, 4))
@settings(max_examples=20, deadline=None)
def test_subsquare_permutation_is_bijection(m, k):
    perm = subsquare_permutation(m, k)
    assert sorted(perm) == list(range(k * k * m * m))
    inv = np.empty_like(perm)
    inv[perm] = np.arange(perm.size)
    assert np.array_equal(perm[inv], np.arange(perm.size))


def test_reconcile_cases(freeform4):
    cases = [(freeform4, 2), (freeform4, 3), (classical_tiling(2), 2),
             (classical_tiling(2), 3), (row_tiling(2), 1), (row_tiling(2), 2)]
    for t, k in cases:
        assert reconcile(t, k, blown_adjacency(t, k))


@pytest.mark.parametrize("change", ["flip", "double", "loop", "shape"])
def test_reconcile_rejects_changed_entry(freeform4, change):
    # bit for bit: a missing edge, an edge counted twice, a 1 on the
    # diagonal, and a matrix one vertex short whose entries all agree
    blown = blown_adjacency(freeform4, 2)
    i, j = np.argwhere(blown == 1)[0]
    if change == "loop":
        blown[i, i] = 1
    elif change == "shape":
        blown = blown[:-1, :-1]
    else:
        blown[i, j] = blown[j, i] = 0 if change == "flip" else 2
    assert not reconcile(freeform4, 2, blown)


def test_template_substitution_equals_kron(freeform4):
    for k in (1, 2, 3):
        assert np.array_equal(substitute_template(freeform4, k), blown_adjacency(freeform4, k))


@given(tilings(min_m=1, max_m=4), st.integers(1, 3))
@settings(max_examples=50, deadline=None)
def test_reconcile_random(t, k):
    assert reconcile(t, k, blown_adjacency(t, k))


@given(tilings(min_m=1, max_m=3), st.integers(1, 3))
@settings(max_examples=25, deadline=None)
def test_substitution_equivalence_random(t, k):
    assert np.array_equal(substitute_template(t, k), blown_adjacency(t, k))


@given(tilings(min_m=1, max_m=3), st.integers(1, 3))
@settings(max_examples=25, deadline=None)
def test_row_sum_scaling(t, k):
    # row sums of each Kronecker term multiply; per vertex (cell c, offset s):
    # deg' = k^2*deg_B(c) + k*deg_H(c) + k*deg_V(c) + (k^2 - 1)
    from sudoku_spectra.graph import layers

    d = layers(t)
    up = blown_adjacency(t, k)
    deg_b = [int(sum(row)) for row in d.l_b]
    deg_h = [int(sum(row)) for row in d.l_h]
    deg_v = [int(sum(row)) for row in d.l_v]
    for c in range(t.n_cells):
        expected = k * k * deg_b[c] + k * deg_h[c] + k * deg_v[c] + k * k - 1
        for s in range(k * k):
            assert int(sum(up[c * k * k + s])) == expected
