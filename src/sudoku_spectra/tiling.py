"""Tilings: equal-size block partitions of an m-by-m cell grid.

A tiling assigns each of the m*m cells (row-major order) to a block; all
blocks have the same number of cells.  The square case -- m blocks of m
cells -- is the standard free-form puzzle; k-fold blow-ups keep the
original block count, so their blocks hold k*k*m cells on a km-grid.
Blocks need not be contiguous.  Cells are 0-based internally; user-facing
I/O (file format, reports) is 1-based.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

__all__ = [
    "Tiling",
    "TilingError",
    "TilingSyntaxError",
    "PartitionError",
    "parse_tiling",
    "render_tiling",
    "from_cell_sets",
    "classical_tiling",
    "row_tiling",
    "random_tiling",
    "blow_up_tiling",
]


class TilingError(ValueError):
    """Base class for tiling construction problems."""


class TilingSyntaxError(TilingError):
    """Malformed tiling text (bad tokens, wrong row/column counts)."""


class PartitionError(TilingError):
    """Block assignment is not an equal-size partition."""


@dataclass(frozen=True)
class Tiling:
    """Block partition of an m*m grid; ``block_of[c]`` is cell c's block id.

    Cells are numbered row-major starting at the top-left corner.  Block
    ids must be 0..n_blocks-1 with every block holding the same number of
    cells; square tilings have n_blocks == m.
    """

    m: int
    block_of: tuple[int, ...]

    def __post_init__(self):
        m = self.m
        if m < 1:
            raise PartitionError(f"m must be positive, got {m}")
        if len(self.block_of) != m * m:
            raise PartitionError(
                f"expected {m * m} cells, got {len(self.block_of)}"
            )
        for c, b in enumerate(self.block_of):
            if not 0 <= b < m:
                raise PartitionError(f"cell {c + 1}: block id {b} out of range 0..{m - 1}")
        nb = max(self.block_of) + 1
        counts = [0] * nb
        for b in self.block_of:
            counts[b] += 1
        size = m * m // nb
        bad = [b for b, n in enumerate(counts) if n != size]
        if bad or size * nb != m * m:
            b = bad[0] if bad else nb - 1
            raise PartitionError(
                f"blocks must have equal size; block {b} has {counts[b]} cells"
            )

    @property
    def n_cells(self) -> int:
        return self.m * self.m

    @property
    def n_blocks(self) -> int:
        return max(self.block_of) + 1

    @property
    def block_size(self) -> int:
        return self.n_cells // self.n_blocks

    def row_of(self, cell: int) -> int:
        """0-based row of a 0-based cell index."""
        return cell // self.m

    def col_of(self, cell: int) -> int:
        """0-based column of a 0-based cell index."""
        return cell % self.m

    def block_grid(self) -> list[list[int]]:
        """Block ids as m rows of m entries."""
        m = self.m
        return [list(self.block_of[r * m:(r + 1) * m]) for r in range(m)]


def parse_tiling(text: str) -> Tiling:
    """Parse the tiling text format.

    Line 1 is m; then m lines of m whitespace-separated block labels in
    {0..m-1}.  Lines starting with '#' are comments.  LF and CRLF both
    accepted.
    """
    lines = [ln.strip() for ln in text.lstrip("﻿").splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise TilingSyntaxError("empty tiling file")
    try:
        m = int(lines[0])
    except ValueError:
        raise TilingSyntaxError(f"first line must be the grid size, got {lines[0]!r}")
    if m < 1:
        raise TilingSyntaxError(f"grid size must be positive, got {m}")
    grid_lines = lines[1:]
    if len(grid_lines) != m:
        raise TilingSyntaxError(f"expected {m} grid rows, got {len(grid_lines)}")
    block_of: list[int] = []
    for r, ln in enumerate(grid_lines):
        toks = ln.split()
        if len(toks) != m:
            raise TilingSyntaxError(f"row {r + 1}: expected {m} labels, got {len(toks)}")
        for tok in toks:
            try:
                block_of.append(int(tok))
            except ValueError:
                raise TilingSyntaxError(f"row {r + 1}: bad block label {tok!r}")
    return Tiling(m, tuple(block_of))


def render_tiling(t: Tiling) -> str:
    """Inverse of parse_tiling; parse_tiling(render_tiling(t)) == t."""
    rows = [" ".join(str(b) for b in row) for row in t.block_grid()]
    return "\n".join([str(t.m)] + rows) + "\n"


def from_cell_sets(m: int, blocks: Iterable[Iterable[int]]) -> Tiling:
    """Build a tiling from blocks given as sets of 1-based cell indices."""
    block_of = [-1] * (m * m)
    for b, cells in enumerate(blocks):
        for cell in cells:
            if not 1 <= cell <= m * m:
                raise PartitionError(f"cell index {cell} outside 1..{m * m}")
            if block_of[cell - 1] != -1:
                raise PartitionError(f"cell {cell} assigned twice")
            block_of[cell - 1] = b
    if -1 in block_of:
        raise PartitionError(f"cell {block_of.index(-1) + 1} unassigned")
    return Tiling(m, tuple(block_of))


def classical_tiling(n: int) -> Tiling:
    """The standard arrangement: m = n*n, blocks are contiguous n-by-n boxes."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    m = n * n
    block_of = tuple((r // n) * n + (c // n) for r in range(m) for c in range(m))
    return Tiling(m, block_of)


def row_tiling(m: int) -> Tiling:
    """Degenerate tiling where every block is one full row."""
    if m < 1:
        raise ValueError(f"m must be positive, got {m}")
    return Tiling(m, tuple(c // m for c in range(m * m)))


# SplitMix64: fixed, documented generator so shuffles reproduce on every
# platform and Python version (unlike random.shuffle, whose integer stream
# is not guaranteed stable).
_MASK64 = (1 << 64) - 1


def _splitmix64(state: int):
    while True:
        state = (state + 0x9E3779B97F4A7C15) & _MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        yield z ^ (z >> 31)


def _rand_below(stream, n: int) -> int:
    # rejection sampling keeps the shuffle exactly uniform
    limit = _MASK64 - (_MASK64 + 1) % n
    while True:
        v = next(stream)
        if v <= limit:
            return v % n


def random_tiling(m: int, seed: int) -> Tiling:
    """Uniformly random equal-size block assignment, reproducible from seed.

    Samples uniformly over all assignments of m copies of each block id to
    the m*m cells (a Fisher-Yates shuffle driven by SplitMix64).  Uniform
    over raw assignments, not over any notion of "interesting" tilings.
    """
    if m < 1:
        raise ValueError(f"m must be positive, got {m}")
    ids = [b for b in range(m) for _ in range(m)]
    stream = _splitmix64(seed & _MASK64)
    for i in range(len(ids) - 1, 0, -1):
        j = _rand_below(stream, i + 1)
        ids[i], ids[j] = ids[j], ids[i]
    return Tiling(m, tuple(ids))


def blow_up_tiling(t: Tiling, k: int) -> Tiling:
    """Replace every cell by a k-by-k subsquare carrying the same block id.

    The grid side scales to k*m and every block collects the replacement
    cells of its original cells, so block sizes scale by k*k while the
    block count stays fixed.  Row-major over the big grid.
    """
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    m = t.m
    big = k * m
    block_of = tuple(
        t.block_of[(r // k) * m + (c // k)] for r in range(big) for c in range(big)
    )
    return Tiling(big, block_of)
