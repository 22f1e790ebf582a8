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

`block_spectrum` is the float oracle of `eigenbasis.verify`: it reads the
spectrum of any symmetric integer k^2 N x k^2 N matrix off N x N blocks,
once it has proven exactly that the fixed basis I_N (x) T_k (x) T_k
block-diagonalises that matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import graph, linalg
from .linalg import identity, kron, ones_matrix
from .tiling import Tiling, blow_up_tiling

__all__ = [
    "SubstitutionSet",
    "substitution_set",
    "blown_adjacency",
    "subsquare_permutation",
    "reconcile",
    "block_spectrum",
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


# rows of a k^2 N x k^2 N matrix handled at a time by `reconcile` (the
# direct graph, in bool) and by `block_spectrum` (a float copy): each runs
# beside the other, so a band of a few hundred KB at most, not a whole
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


def block_spectrum(a, k: int) -> list[float] | None:
    """All eigenvalues of a symmetric integer k^2 N x k^2 N matrix a,
    ascending, from N x N blocks; None when a is not block-diagonalised by
    I_N (x) T, T = T_k (x) T_k.

    The columns of T_k are 1_k and e_0 - e_i for i = 1 .. k-1, so
    det T_k = +-k, T is invertible and row 0 of T is all ones.
    R = a (I_N (x) T) is formed as R[j, c, s, c'] for row c k^2 + s and
    column c' k^2 + j.  A column of T has at most k^2 entries +-1, so each
    entry of R and every partial sum of it is an integer of size at most
    k^2 max|a_ij|.  While that is below 2**53, R is a float64 BLAS product,
    exact whatever order BLAS sums in, formed _BAND rows of a at a time;
    up to 2**63 it is an int64 product; past that OverflowError is raised
    before R or a float copy is allocated.  Then,
    one column t_j of T at a time, E_j = R[j, :, 0, :] and R[j] must equal
    E_j (x) t_j exactly.  If it does for every j, then
    a (I (x) T) = (I (x) T) P with P the E_j on a permuted block diagonal,
    so a is similar to the direct sum of the E_j and spec a is the union of
    their spectra; each E_j is symmetric, since a is.  Only then is a float
    computed: each distinct E_j goes once through `linalg.float_eigen`,
    held to its own power-sum check, and its values count once per column
    that gives it.  Nothing here reads the blow-up's structure theorem: if
    it failed on some a, so would the check.
    """
    a = linalg._require_symmetric(a)
    if a.dtype != np.int64:
        a = linalg._for_residues(linalg._require_ints(a))
    kk = k * k
    size = a.shape[0]
    bound = kk * max(-int(a.min(initial=0)), int(a.max(initial=0)))
    if a.dtype != np.int64 or bound >= 1 << 63:
        raise OverflowError(f"block_spectrum needs k^2 max|a_ij| < 2**63 (k = {k})")
    n = size // kk
    if n * kk != size:
        return None
    t_k = -np.eye(k, dtype=np.int64)
    t_k[0] = t_k[:, 0] = 1
    t = np.kron(t_k, t_k)
    # column j first, so each column's check reads contiguous memory
    if bound < linalg._FLOAT64_EXACT:
        r = np.empty((kk, size * n))
        t_f = t.T.astype(float)
        for lo in range(0, size, _BAND):
            hi = min(lo + _BAND, size)
            np.matmul(t_f, a[lo:hi].astype(float).reshape(-1, kk).T, out=r[:, lo * n:hi * n])
        r = r.reshape(kk, n, kk, n)
    else:
        r = (t.T @ a.reshape(-1, kk).T).reshape(kk, n, kk, n)
    blocks: list[np.ndarray] = []
    counts: list[int] = []
    for j in range(kk):
        e = r[j, :, 0, :]
        if not np.array_equal(r[j], e[:, None, :] * t[:, j, None]):
            return None
        same = next((i for i, b in enumerate(blocks) if np.array_equal(b, e)), None)
        if same is None:
            blocks.append(e.astype(np.int64))
            counts.append(1)
        else:
            counts[same] += 1
    return sorted(v for b, c in zip(blocks, counts) for v in linalg.float_eigen(b) * c)
