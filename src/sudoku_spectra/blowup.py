"""k-fold blow-ups, built two independent ways and reconciled.

The direct route scales the tiling (`blow_up_tiling`) and reads the graph
off the big grid.  The Kronecker route substitutes fixed k^2-by-k^2 blocks
into the template matrix, equivalently evaluates

    l_b (x) B  +  l_h (x) H  +  l_v (x) V  +  I (x) D

with H = I_k (x) J_k, V = J_k (x) I_k, B = J_{k^2}, D = J_{k^2} - I_{k^2}.
Vertices of the Kronecker route are ordered subsquare by subsquare (cell 1's
k*k replacement cells first, row-major inside the subsquare), which is the
order the eigenvector construction lives in; `subsquare_permutation`
translates to the big grid's row-major order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import graph
from .linalg import identity, kron, ones_matrix
from .tiling import Tiling, blow_up_tiling

__all__ = [
    "SubstitutionSet",
    "substitution_set",
    "blown_adjacency",
    "subsquare_permutation",
    "reconcile",
]


@dataclass(frozen=True, eq=False)
class SubstitutionSet:
    """The k^2-by-k^2 matrices replacing the template symbols H, V, B, D
    (N, no edge, becomes the zero block)."""

    h: np.ndarray
    v: np.ndarray
    b: np.ndarray
    d: np.ndarray


def substitution_set(k: int) -> SubstitutionSet:
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    i_k = identity(k)
    j_k = ones_matrix(k)
    return SubstitutionSet(
        h=kron(i_k, j_k),
        v=kron(j_k, i_k),
        b=ones_matrix(k * k),
        d=ones_matrix(k * k) - identity(k * k),
    )


def blown_adjacency(t: Tiling, k: int) -> np.ndarray:
    """Adjacency of the k-fold blow-up, subsquare vertex order, in int64.

    The Kronecker sum is accumulated in place: each layer's mask picks the
    N x N blocks (c, c') that gain its k^2 x k^2 substitution matrix, so no
    k^2 N x k^2 N temporary is formed.  The result stays int64: its readers
    (`reconcile`, the float oracle, the matrix file) compare, convert and
    print it without an object copy, and the exact routines convert int64
    input to Python ints themselves."""
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    l_b, l_h, l_v = graph._layer_masks(t)
    s = substitution_set(k)
    n, kk = t.n_cells, k * k
    out = np.zeros((n, kk, n, kk), dtype=np.int64)
    # block (c, c') of the Kronecker sum, as a view of the result
    blocks_of = out.transpose(0, 2, 1, 3)
    for mask, sub in ((l_b, s.b), (l_h, s.h), (l_v, s.v), (np.eye(n, dtype=bool), s.d)):
        blocks_of[mask] += sub.astype(np.int64)
    return out.reshape(n * kk, n * kk)


def subsquare_permutation(m: int, k: int) -> np.ndarray:
    """perm[s] = row-major big-grid index of subsquare-order vertex s (0-based).

    Subsquare order: vertex s = c*k^2 + a*k + b for original cell c (row-major)
    and offset (a, b) inside its k-by-k replacement square.
    """
    big = k * m
    perm = np.empty(k * k * m * m, dtype=int)
    s = 0
    for c in range(m * m):
        r0 = (c // m) * k
        c0 = (c % m) * k
        for a in range(k):
            for b in range(k):
                perm[s] = (r0 + a) * big + (c0 + b)
                s += 1
    return perm


# rows of the direct graph built at a time in `reconcile`: it runs beside
# the float oracle, so a band of a few tens of KB, not the whole bool
# matrix, is what it adds to peak memory
_BAND = 64


def reconcile(t: Tiling, k: int, blown: np.ndarray) -> bool:
    """True iff the direct and Kronecker constructions agree.

    Builds the direct graph of the scaled tiling in bool, already in
    subsquare order: vertex s sits at big-grid cell perm[s], and two
    vertices are adjacent iff they are distinct and share a row, a column
    or a block of the scaled tiling.  It is compared with `blown`, the
    Kronecker-route `blown_adjacency(t, k)`, shape first, then entry for
    entry one band of _BAND rows at a time, so a missing edge, a doubled
    one or a loop all differ.  This holds for every tiling; False signals
    an implementation bug.
    """
    big = blow_up_tiling(t, k)
    perm = subsquare_permutation(t.m, k)
    n = perm.size
    if blown.shape != (n, n):
        return False
    labels = (perm // big.m, perm % big.m, np.array(big.block_of)[perm])
    for lo in range(0, n, _BAND):
        hi = min(lo + _BAND, n)
        direct = np.zeros((hi - lo, n), dtype=bool)
        for label in labels:
            direct |= label[lo:hi, None] == label
        direct[np.arange(hi - lo), np.arange(lo, hi)] = False
        if not np.array_equal(blown[lo:hi], direct):
            return False
    return True
