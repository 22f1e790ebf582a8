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
    """Adjacency of the k-fold blow-up, subsquare vertex order.

    The 0/1 sum is formed in int64 from the layer masks and converted to
    object once; the conversion yields Python ints."""
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    l_b, l_h, l_v = graph._layer_masks(t)
    s = substitution_set(k)
    blocks = ((l_b, s.b), (l_h, s.h), (l_v, s.v), (np.eye(t.n_cells, dtype=bool), s.d))
    return sum(np.kron(mask, sub.astype(np.int64)) for mask, sub in blocks).astype(object)


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


def reconcile(t: Tiling, k: int, blown: np.ndarray) -> bool:
    """True iff the direct and Kronecker constructions agree.

    Conjugates the directly built adjacency of the scaled tiling by the
    subsquare permutation and compares with `blown`, the Kronecker-route
    `blown_adjacency(t, k)`, bit for bit.
    This holds for every tiling; False signals an implementation bug.
    """
    direct = graph.adjacency(blow_up_tiling(t, k))
    perm = subsquare_permutation(t.m, k)
    reordered = direct[np.ix_(perm, perm)]
    return bool(np.array_equal(reordered, blown))
