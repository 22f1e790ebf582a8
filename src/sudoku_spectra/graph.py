"""Free-form Sudoku graphs and their edge-layer decomposition.

Every cell is a vertex (row-major order, matching the tiling); two vertices
are adjacent exactly when their cells must hold different numbers.  The
edge set splits into three disjoint layers by cause: same block (B), same
row but different blocks (H), same column but different blocks (V), so the
adjacency matrix is l_b + l_h + l_v.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Literal

import numpy as np

from .tiling import Tiling

__all__ = [
    "Axis",
    "LayerDecomposition",
    "BlockRowProfile",
    "layers",
    "adjacency",
    "block_row_profile",
    "template",
]

Axis = Literal["row", "column"]


@dataclass(frozen=True, eq=False)
class LayerDecomposition:
    """The three 0/1 layer matrices of a tiling's graph (object dtype)."""

    l_b: np.ndarray
    l_h: np.ndarray
    l_v: np.ndarray


@dataclass(frozen=True, eq=False)
class BlockRowProfile:
    """p[i][j] = number of cells of row (or column) i lying in block j."""

    p: np.ndarray
    axis: Axis


def _layer_masks(t: Tiling) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Boolean masks of the block, row and column layers, in that order."""
    idx = np.arange(t.n_cells)
    row, col, blk = idx // t.m, idx % t.m, np.array(t.block_of)
    same_row = row[:, None] == row[None, :]
    same_col = col[:, None] == col[None, :]
    same_blk = blk[:, None] == blk[None, :]
    off_diag = ~np.eye(t.n_cells, dtype=bool)
    return same_blk & off_diag, same_row & ~same_blk, same_col & ~same_blk


def layers(t: Tiling) -> LayerDecomposition:
    """Split the rule-derived edges into block / row / column layers."""
    return LayerDecomposition(*(m.astype(np.int64).astype(object) for m in _layer_masks(t)))


def _adjacency_int64(t: Tiling) -> np.ndarray:
    """The adjacency matrix in int64: the sum of the three layer masks."""
    l_b, l_h, l_v = _layer_masks(t)
    adj = l_b.astype(np.int64)
    adj += l_h
    adj += l_v
    return adj


def adjacency(t: Tiling) -> np.ndarray:
    """Adjacency matrix of the graph: sum of the three disjoint layers.

    Summed in int64 and converted to object once; the conversion yields
    Python ints.  The matrix of the last tiling asked for is kept and
    returned again, read-only, so `spectrum --both` builds it once for the
    exact route's fallback and the float route."""
    return _last_adjacency(t)


@lru_cache(maxsize=1)
def _last_adjacency(t: Tiling) -> np.ndarray:
    adj = _adjacency_int64(t).astype(object)
    adj.flags.writeable = False
    return adj


def block_row_profile(t: Tiling, axis: Axis = "row") -> BlockRowProfile:
    """Count cells per (row-or-column, block) pair."""
    if axis not in ("row", "column"):
        raise ValueError(f"axis must be 'row' or 'column', got {axis!r}")
    m = t.m
    p = np.zeros((m, t.n_blocks), dtype=int)
    for c, b in enumerate(t.block_of):
        line = t.row_of(c) if axis == "row" else t.col_of(c)
        p[line, b] += 1
    return BlockRowProfile(p, axis)


def template(t: Tiling) -> np.ndarray:
    """Symbolic template matrix over {D, B, H, V, N}, read off `layers`.

    Diagonal is D; an off-diagonal entry names the layer holding that edge:
    same block B, same row (different block) H, same column (different
    block) V, no edge N.  Substituting B,H,V -> 1 and D,N -> 0
    reproduces the adjacency matrix.
    """
    d = layers(t)
    n = t.n_cells
    tmpl = np.full((n, n), "N", dtype="<U1")
    tmpl[d.l_b == 1] = "B"
    tmpl[d.l_h == 1] = "H"
    tmpl[d.l_v == 1] = "V"
    np.fill_diagonal(tmpl, "D")
    return tmpl
