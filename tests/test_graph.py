import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from sudoku_spectra.graph import adjacency, block_row_profile, layers, template
from sudoku_spectra.tiling import Tiling, blow_up_tiling, classical_tiling, row_tiling

from conftest import tilings
from golden import FREEFORM4_ADJACENCY, FREEFORM4_TEMPLATE
from oracles import int_matrix


def equal_cliques(l_b, size: int) -> bool:
    """(l_b + I)^2 == size * (l_b + I): closed neighbourhoods of `size`
    vertices that coincide or are disjoint, i.e. disjoint cliques."""
    c = np.asarray(l_b, dtype=np.int64) + np.eye(l_b.shape[0], dtype=np.int64)
    return np.array_equal(c @ c, size * c)


def multipartite_parts(layer, cells) -> list[int] | None:
    """Descending part sizes of the complete multipartite graph `layer`
    induces on `cells`, or None if it induces none.

    The graph is complete multipartite iff J - layer is an equivalence
    relation ((F @ F > 0) == F for symmetric reflexive 0/1 F); the parts
    are its classes.
    """
    f = 1 - np.asarray(layer[np.ix_(cells, cells)], dtype=np.int64)
    if not (np.array_equal(f, f.T) and np.array_equal((f @ f > 0).astype(np.int64), f)):
        return None
    return sorted((sum(row) for row in {tuple(row) for row in f.tolist()}), reverse=True)


def edges_within_lines(layer, line_of) -> bool:
    """No edge joins two cells of different grid lines (rows or columns)."""
    different = line_of[:, None] != line_of[None, :]
    return not np.any(np.asarray(layer, dtype=np.int64)[different])


def profile_parts(t: Tiling, axis: str) -> list[list[int]]:
    """Per grid line, the descending nonzero entries of its block profile."""
    return [sorted((x for x in row if x), reverse=True)
            for row in block_row_profile(t, axis).p.tolist()]


def check_layer_structure(t: Tiling) -> None:
    """l_b is disjoint cliques of the block size; on each grid row (column)
    l_h (l_v) is complete multipartite with the profile's parts, and
    neither has an edge across rows (columns)."""
    d = layers(t)
    m = t.m
    cells = np.arange(t.n_cells)
    assert equal_cliques(d.l_b, t.block_size)
    row_parts, col_parts = profile_parts(t, "row"), profile_parts(t, "column")
    for i in range(m):
        assert multipartite_parts(d.l_h, cells[i * m:(i + 1) * m]) == row_parts[i]
        assert multipartite_parts(d.l_v, cells[i::m]) == col_parts[i]
    assert edges_within_lines(d.l_h, cells // m)
    assert edges_within_lines(d.l_v, cells % m)


def test_adjacency_matches_golden(freeform4):
    assert np.array_equal(adjacency(freeform4), np.array(FREEFORM4_ADJACENCY, dtype=object))


def test_adjacency_spot_entries(freeform4):
    a = adjacency(freeform4)
    # 1-based entries (1,2), (1,5), (1,6), (5,8)
    assert a[0, 1] == 1 and a[0, 4] == 1 and a[0, 5] == 0 and a[4, 7] == 1


def test_template_matches_golden(freeform4):
    expected = np.array([list(row) for row in FREEFORM4_TEMPLATE])
    assert np.array_equal(template(freeform4), expected)


def test_template_spot_entries(freeform4):
    tm = template(freeform4)
    assert tm[0, 0] == "D" and tm[0, 1] == "B" and tm[0, 4] == "V"
    assert tm[4, 5] == "H" and tm[0, 5] == "N"


def test_trivial_cases():
    t1 = Tiling(1, (0,))
    d = layers(t1)
    assert d.l_b.tolist() == [[0]] and d.l_h.tolist() == [[0]] and d.l_v.tolist() == [[0]]
    assert template(t1).tolist() == [["D"]]


def test_row_tiling_layers():
    d = layers(row_tiling(3))
    assert not np.any(d.l_h != 0)  # whole row shares a block: no H edges
    check_layer_structure(row_tiling(3))


def test_classical2_regular():
    a = adjacency(classical_tiling(2))
    sums = [int(sum(row)) for row in a]
    assert sums == [7] * 16


def test_profile_classical3():
    p = block_row_profile(classical_tiling(3), "row").p
    assert all(sorted(row, reverse=True)[:3] == [3, 3, 3] and sum(row) == 9 for row in p.tolist())


def test_profile_freeform4(freeform4):
    p = block_row_profile(freeform4, "row").p
    assert p[0].tolist() == [4, 0, 0, 0]
    assert p[1].tolist() == [0, 1, 2, 1]


def test_profile_row_tiling():
    p = block_row_profile(row_tiling(4), "row").p
    assert np.array_equal(p, 4 * np.eye(4, dtype=int))


def test_layer_structure_freeform4(freeform4):
    check_layer_structure(freeform4)
    d = layers(freeform4)
    assert multipartite_parts(d.l_h, np.arange(4)) == [4]
    assert multipartite_parts(d.l_h, np.arange(4, 8)) == [2, 1, 1]


def test_layer_structure_classical3():
    check_layer_structure(classical_tiling(3))
    d = layers(classical_tiling(3))
    cells = np.arange(81)
    assert all(multipartite_parts(d.l_h, cells[i * 9:(i + 1) * 9]) == [3, 3, 3] for i in range(9))
    assert all(multipartite_parts(d.l_v, cells[i::9]) == [3, 3, 3] for i in range(9))


def test_structure_violation_missing_clique_edge(freeform4):
    d = layers(freeform4)
    broken = d.l_b.copy()
    # remove one edge inside block 0 (cells 1 and 2)
    broken[0, 1] = broken[1, 0] = 0
    assert equal_cliques(d.l_b, 4)
    assert not equal_cliques(broken, 4)


def test_structure_violation_overlapping_layers(freeform4):
    d = layers(freeform4)
    bad = d.l_h.copy()
    bad[0, 1] = bad[1, 0] = 1  # duplicates a block edge
    assert np.any(d.l_b * bad)
    # row 1 is one block, so its single H edge leaves no equivalence
    assert multipartite_parts(bad, np.arange(4)) is None
    # an H edge across rows
    bad = d.l_h.copy()
    bad[0, 5] = bad[5, 0] = 1
    assert not edges_within_lines(bad, np.arange(16) // 4)


@given(tilings(max_m=5))
@settings(max_examples=40, deadline=None)
def test_layers_disjoint_and_sum(t):
    d = layers(t)
    for x, y in ((d.l_b, d.l_h), (d.l_b, d.l_v), (d.l_h, d.l_v)):
        assert not np.any(x * y)
    a = adjacency(t)
    assert np.array_equal(a, a.T)
    assert all(a[i, i] == 0 for i in range(t.n_cells))
    assert set(int(x) for x in a.flat) <= {0, 1}


@given(tilings(max_m=5))
@settings(max_examples=40, deadline=None)
def test_degree_formula(t):
    # degree = (block_size - 1) + (m - row_block_mates) + (m - col_block_mates)
    a = adjacency(t)
    p_row = block_row_profile(t, "row").p
    p_col = block_row_profile(t, "column").p
    m = t.m
    for c, b in enumerate(t.block_of):
        r_i = int(p_row[t.row_of(c), b])
        c_i = int(p_col[t.col_of(c), b])
        expected = (t.block_size - 1) + (m - r_i) + (m - c_i)
        assert int(sum(a[c])) == expected


@given(tilings(max_m=6))
@settings(max_examples=40, deadline=None)
def test_template_consistent_with_adjacency(t):
    tm = template(t)
    value = {"B": 1, "H": 1, "V": 1, "D": 0, "N": 0}
    rebuilt = int_matrix([[value[s] for s in row] for row in tm])
    assert np.array_equal(rebuilt, adjacency(t))


@given(tilings(max_m=4), st.integers(1, 2))
@settings(max_examples=30, deadline=None)
def test_structure_always_verifies(t, k):
    # blow-ups have fewer blocks than rows, so some profile entries are 0
    check_layer_structure(blow_up_tiling(t, k))
