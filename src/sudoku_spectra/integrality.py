"""Sufficient conditions for a free-form Sudoku graph to be integral.

The certificate has three parts: (i) every cell shares its row+block with
a common number q of cells (including itself), (ii) the column analogue
with the same q, (iii) the row and column layers commute.  When all three
hold the graph is guaranteed integral; otherwise the test is inconclusive
(the graph may still be integral -- the conditions are sufficient, not
necessary).

Every condition is read off the tiling itself: (i), (ii) and the layer
regularity from the m x m block/row and block/column profiles, (iii) from
single cells.  No adjacency matrix is built and no spectrum is computed;
the matrix forms of the conditions and the soundness of the verdict
against the exact spectrum are checked in the test suite.

The single q shared by (i) and (ii) is essential, not cosmetic: with
independent counts q_row != q_col the conclusion is false.  Exhaustive
enumeration at m=4 finds 864 tilings that meet (i), (ii) and (iii) with
unequal counts yet have irrational eigenvalues, e.g. rows AABB / BBCC /
CCDD / DDAA (q_row=2, q_col=1, eigenvalues include 2*sqrt(2)); with a
common q, all 792 qualifying m=4 tilings (and all 24 at m=3) have fully
commuting layers and integral spectra.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import graph
from .graph import Axis
from .tiling import Tiling

__all__ = [
    "GUARANTEED_INTEGRAL",
    "INCONCLUSIVE",
    "RegCommute",
    "ConditionReport",
    "check_condition_q",
    "check_condition_iii",
    "check_regcommute",
    "theorem_verdict",
]

GUARANTEED_INTEGRAL = "guaranteed-integral"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class RegCommute:
    """Two views of one layer's regularity.

    regular: every vertex of the layer has the same degree (equivalently,
    the layer matrix has constant row sums).  commutes_with_blocks: the
    layer commutes with the block layer.  The two coincide on generic
    tilings (random samples show no divergence) but can differ in both
    directions on structured ones: a layer can be regular without
    commuting (rows AABB/BBCC/CCDD/DDAA) and commute without being regular
    (two columns sharing two blocks next to two single-block columns), so
    both are reported.
    """

    regular: bool
    commutes_with_blocks: bool


@dataclass(frozen=True)
class ConditionReport:
    cond_i: int | None
    cond_ii: int | None
    cond_iii: bool
    regcommute_h: RegCommute
    regcommute_v: RegCommute
    verdict: str

    @property
    def guaranteed(self) -> bool:
        return self.verdict == GUARANTEED_INTEGRAL


def check_condition_q(t: Tiling, axis: Axis = "row") -> int | None:
    """The common row/block (or column/block) count q, if one exists.

    Returns q when every cell has exactly q cells sharing both its row
    (resp. column) and its block, counting the cell itself; equivalently,
    every nonzero entry of the block/row profile equals q.  None otherwise.
    """
    p = graph.block_row_profile(t, axis).p
    values = {int(v) for v in p.flat if v}
    return values.pop() if len(values) == 1 else None


# corner tests held in memory at once; past m = 64 they run in slices of r1
_CORNER_CHUNK = 1 << 24


def check_condition_iii(t: Tiling) -> bool:
    """Condition (iii): the row and column layers commute, read off cells.

    For cells c1 = (r1, k1), c2 = (r2, k2) in different rows and columns
    there are exactly two row-then-column paths between them, through the
    corner cells d1 = (r1, k2) and d2 = (r2, k1).  A corner is blocked when
    it shares a block with either endpoint.  The condition: for every such
    pair, d1 is blocked iff d2 is blocked -- which is precisely what
    entrywise equality of l_h·l_v and l_v·l_h means, counted path by path.
    The rule runs over numpy broadcasts of the m x m block grid, indexed
    (r1, r2, k1, k2).  Pairs in one row or one column need no mask: there
    each corner is an endpoint, so both are blocked.
    """
    m = t.m
    g = np.array(t.block_of).reshape(m, m)
    b2 = g[None, :, None, :]
    d2 = g[None, :, :, None]
    step = max(1, _CORNER_CHUNK // m**3)
    for start in range(0, m, step):
        rows = g[start:start + step]
        b1 = rows[:, None, :, None]
        d1 = rows[:, None, None, :]
        if np.any(((d1 == b1) | (d1 == b2)) != ((d2 == b1) | (d2 == b2))):
            return False
    return True


def check_regcommute(t: Tiling, axis: Axis = "row") -> RegCommute:
    """Regularity of the row (or column) layer, read off the profile P.

    A cell c has m - P[line(c), b(c)] neighbours in the layer, so the
    layer is regular iff that count is the same for every cell.

    For the layer L and the block layer L_B, (L_B L)[u, w] is
    [b(u) != b(w)] * (P[line(w), b(u)] - [line(u) = line(w)]), and L L_B is
    its transpose.  So they commute iff P[line(w), b(u)] == P[line(u), b(w)]
    for all cells u, w in different blocks; only the (line, block) pairs
    that hold a cell matter, i.e. the support of P.
    """
    p = graph.block_row_profile(t, axis).p
    lines, blocks = np.nonzero(p)
    regular = len(set(p[lines, blocks].tolist())) == 1
    # cross[s, r] = P[line of support entry r, block of support entry s]
    cross = p[lines[None, :], blocks[:, None]]
    other_block = blocks[:, None] != blocks[None, :]
    commutes = bool(np.all((cross == cross.T) | ~other_block))
    return RegCommute(regular, commutes)


def theorem_verdict(t: Tiling) -> ConditionReport:
    """Assemble the full certificate and the integrality verdict.

    Guaranteed-integral requires uniform row/block and column/block counts
    with one common q plus commuting row and column layers; see the module
    docstring for why the counts must agree across the two axes.  The
    verdict comes from the conditions alone; no spectrum is computed.
    """
    cond_i = check_condition_q(t, "row")
    cond_ii = check_condition_q(t, "column")
    cond_iii = check_condition_iii(t)
    return ConditionReport(
        cond_i=cond_i,
        cond_ii=cond_ii,
        cond_iii=cond_iii,
        regcommute_h=check_regcommute(t, "row"),
        regcommute_v=check_regcommute(t, "column"),
        verdict=(
            GUARANTEED_INTEGRAL
            if cond_i is not None and cond_i == cond_ii and cond_iii
            else INCONCLUSIVE
        ),
    )
