import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sudoku_spectra.tiling import (
    PartitionError,
    Tiling,
    TilingSyntaxError,
    blow_up_tiling,
    classical_tiling,
    from_cell_sets,
    parse_tiling,
    random_tiling,
    render_tiling,
    row_tiling,
)

from conftest import tilings


def test_parse_simple():
    t = parse_tiling("2\n0 0\n1 1\n")
    assert t == Tiling(2, (0, 0, 1, 1))


def test_parse_freeform4(freeform4):
    text = "4\n0 0 0 0\n1 2 3 2\n1 3 3 2\n1 1 3 2\n"
    assert parse_tiling(text) == freeform4


def test_parse_comments_and_crlf():
    t = parse_tiling("# comment\r\n2\r\n0 0\r\n# another\r\n1 1\r\n")
    assert t == Tiling(2, (0, 0, 1, 1))


def test_parse_utf8_bom_and_tabs():
    assert parse_tiling("\ufeff2\n0 0\n1 1\n") == Tiling(2, (0, 0, 1, 1))
    assert parse_tiling("2\n0\t0\n1\t1\n") == Tiling(2, (0, 0, 1, 1))


@pytest.mark.parametrize(
    "text",
    [
        "",
        "x\n0 0\n1 1",
        "2\n0 0\n1",       # short row
        "2\n0 0\n1 1\n0 0",  # extra row
        "2\n0 zero\n1 1",
    ],
)
def test_parse_syntax_errors(text):
    with pytest.raises(TilingSyntaxError):
        parse_tiling(text)


def test_parse_blown_tiling_roundtrip():
    # files written for blow-ups have fewer blocks than m; they must reparse
    big = blow_up_tiling(row_tiling(2), 2)
    assert parse_tiling(render_tiling(big)) == big
    one_block = parse_tiling("2\n0 0\n0 0")
    assert one_block.n_blocks == 1 and one_block.block_size == 4


def test_parse_partition_errors():
    # block 0 has three cells, block 1 has one
    with pytest.raises(PartitionError):
        parse_tiling("2\n0 0\n0 1")
    # block id out of range
    with pytest.raises(PartitionError):
        parse_tiling("2\n0 0\n5 5")
    with pytest.raises(PartitionError):
        parse_tiling("2\n0 0\n-1 -1")


def test_classical():
    assert classical_tiling(1) == Tiling(1, (0,))
    shidoku = classical_tiling(2)
    assert shidoku.m == 4
    # cells 1,2,5,6 (1-based) form the top-left box
    assert [c for c, b in enumerate(shidoku.block_of) if b == 0] == [0, 1, 4, 5]
    nine = classical_tiling(3)
    assert nine.m == 9 and nine.n_cells == 81
    assert nine.n_blocks == 9 and nine.block_size == 9


def test_row_tiling():
    assert row_tiling(1).block_of == (0,)
    assert row_tiling(2).block_of == (0, 0, 1, 1)
    assert row_tiling(3).block_of == (0, 0, 0, 1, 1, 1, 2, 2, 2)


def test_from_cell_sets_freeform4(freeform4):
    assert freeform4.block_of == (0, 0, 0, 0, 1, 2, 3, 2, 1, 3, 3, 2, 1, 1, 3, 2)


def test_from_cell_sets_errors():
    with pytest.raises(PartitionError):
        from_cell_sets(2, [{1, 2}, {2, 3}])  # cell 2 twice
    with pytest.raises(PartitionError):
        from_cell_sets(2, [{1, 2}, {3}])  # cell 4 unassigned


def test_random_tiling_deterministic():
    a = random_tiling(4, 42)
    b = random_tiling(4, 42)
    assert a == b
    # pinned regression value for the documented PRNG
    assert a.block_of == (3, 3, 1, 0, 3, 1, 1, 2, 2, 3, 2, 2, 0, 0, 0, 1)
    assert random_tiling(1, 999) == Tiling(1, (0,))
    assert random_tiling(4, 42) != random_tiling(4, 43)


def test_blow_up_identity(freeform4):
    assert blow_up_tiling(freeform4, 1) == freeform4


def test_blow_up_rows():
    big = blow_up_tiling(row_tiling(2), 2)
    assert big.m == 4
    assert big.block_of == (0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1)
    assert big.n_blocks == 2 and big.block_size == 8


def test_blow_up_freeform4_bands(freeform4):
    # in the 3-fold blow-up, block 2 covers the right column band of
    # rows 4..12 plus the subsquare of cell 6
    big = blow_up_tiling(freeform4, 3)
    assert big.m == 12
    for r in range(3, 12):
        for c in range(9, 12):
            assert big.block_of[r * 12 + c] == 2
    for r in range(3, 6):
        for c in range(3, 6):
            assert big.block_of[r * 12 + c] == 2


@given(tilings(), st.integers(1, 3))
@settings(max_examples=50, deadline=None)
def test_blow_up_valid_and_scaled(t, k):
    big = blow_up_tiling(t, k)
    assert big.m == k * t.m
    assert big.n_blocks == t.n_blocks
    assert big.block_size == k * k * t.block_size


@given(tilings(max_m=3), st.integers(1, 2), st.integers(1, 2))
@settings(max_examples=30, deadline=None)
def test_blow_up_composes(t, a, b):
    assert blow_up_tiling(blow_up_tiling(t, a), b) == blow_up_tiling(t, a * b)


@given(tilings())
@settings(max_examples=50, deadline=None)
def test_render_roundtrip(t):
    assert parse_tiling(render_tiling(t)) == t


@given(st.integers(1, 5), st.integers(0, 2**63))
@settings(max_examples=50, deadline=None)
def test_random_tiling_valid(m, seed):
    t = random_tiling(m, seed)
    assert t.n_blocks == t.m
    assert random_tiling(m, seed) == t
