"""Exact spectra: integer eigenvalues with multiplicities plus a residual
certificate for the non-integer part.

`tiling_spectrum` is the one tiling-level entry point.  It tries three
routes in order, and all of them are exact:

1. The partition lattice (`_lattice_spectrum`), from the tiling's cell
   labels alone: when the row, column, block, row∩block and column∩block
   partitions have classes of one size each and their projections commute,
   the spectrum is read off the join class counts.  No matrix is built.
2. Annihilation (`linalg.integral_spectrum`), on the adjacency matrix:
   float eigenvalues propose the integer candidates S, the product of
   (A - lam I) over S is shown to vanish modulo enough primes, and power
   traces mod p give the multiplicities.  Floats never decide.
3. The characteristic polynomial (`linalg.char_poly`, then integer root
   extraction), whose residual polynomial certifies the non-integer part.
   Only this route is limited to n <= 512.

Routes 2 and 3 are `exact_spectrum`, which takes any symmetric integer
matrix.  On tilings, route 2 has never proven what the lattice had not:
the lattice accepts every integral tiling at m = 3 (24 of the 1680
labelled tilings) and at m = 4 (53 of the 2,627,625 partitions of the
4 x 4 grid into four blocks of four), so every tiling it rejects there is
decided by route 3.  The annihilation certificate still proves the
spectrum of the blow-up seed M in `eigenbasis.blowup_is_integral` (which
`search --blowup-k` calls) and, past 512 vertices, the candidates of
`linalg._candidate_limits` (M's in `blowup --verify`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import graph, linalg
from .tiling import Tiling

__all__ = [
    "Spectrum",
    "tiling_spectrum",
    "exact_spectrum",
    "is_integral",
    "multipartite_charpoly",
    "multipartite_spectrum",
]


@dataclass(frozen=True)
class Spectrum:
    """Exact spectrum: sorted (eigenvalue, multiplicity) pairs and the monic
    residual polynomial carrying all non-integer eigenvalues ((1,) when the
    matrix is integral)."""

    integer_part: tuple[tuple[int, int], ...]
    residual: tuple[int, ...]

    @property
    def dimension(self) -> int:
        return sum(mult for _, mult in self.integer_part) + self.residual_degree

    @property
    def residual_degree(self) -> int:
        return len(self.residual) - 1

    @property
    def is_integral(self) -> bool:
        return self.residual_degree == 0

    def digest(self) -> str:
        """Compact one-line form, e.g. '(-3)^1 0^4 3^1' or '... +deg2'."""
        parts = [
            (f"({lam})" if lam < 0 else str(lam)) + f"^{mult}"
            for lam, mult in self.integer_part
        ]
        if self.residual_degree:
            parts.append(f"+deg{self.residual_degree}")
        return " ".join(parts) if parts else "(empty)"


def exact_spectrum(a) -> Spectrum:
    """Exact spectrum of a symmetric integer matrix.

    First route, any size: `linalg.integral_spectrum` proves an integral
    spectrum by annihilation.  The rounded float eigenvalues form the
    candidate set S, prod_{lam in S} (A - lam I) must be 0 modulo primes
    whose product exceeds twice the entry bound prod (rho + |lam|), rho the
    Gershgorin bound, and the multiplicities solve
    sum m_lam lam^j = tr(A^j) mod p, j < |S|.  The residual is then (1,).

    When that finds no certificate (a float eigenvalue off an integer, or
    a nonzero residue), the fallback route computes the characteristic
    polynomial (n <= 512, DimensionMismatch past it) and finds the integer
    eigenvalues by trial division over the divisors of its constant term
    within the Gershgorin row-sum bound; everything left is returned as the
    residual polynomial.

    The annihilation route decides the blow-up seed M of
    `eigenbasis.blowup_is_integral`; on the adjacency of a tiling the
    partition lattice has so far caught every integral case first (see the
    module docstring).
    """
    roots = linalg.integral_spectrum(a)  # raises ValueError unless symmetric
    if roots is not None:
        return Spectrum(tuple(roots), (1,))
    poly = linalg.char_poly(a)
    bound = linalg.gershgorin_bound(a)
    roots, residual = linalg.integer_roots(poly, max_abs_root=bound)
    return Spectrum(tuple(roots), residual)


def tiling_spectrum(t: Tiling) -> Spectrum:
    """Exact spectrum of the tiling's graph: read off the partition lattice
    when that applies, otherwise `exact_spectrum` of the adjacency matrix
    (the routes in order are in the module docstring)."""
    s = _lattice_spectrum(t)
    return s if s is not None else exact_spectrum(graph.adjacency(t))


# ---------------------------------------------------------------------------
# the partition lattice
#
# Five partitions of the cells: rows R, columns C, blocks B, and the pieces
# RB (row ∩ block) and CB (column ∩ block).  With J_X the 0/1 matrix of
# "same X-class", inclusion-exclusion on the three relations gives
#     A + I = J_R + J_C + J_B - J_RB - J_CB,
# since R ∧ C is the diagonal.  When X's classes all have size s_X,
# J_X = s_X P_X, P_X the orthogonal projection onto U_X, the span of X's
# class indicators.  Commuting projections have a joint eigenbasis, and a
# product of them projects onto the intersection of their ranges, which is
# U_{∨T} for the join ∨T (its classes are the connected unions of
# classes); so tr prod_{X in T} P_X = #classes(∨T).  The joint eigenspace
# where P_X is 1 for X in E and 0 for X not in E then has dimension
# sum_{T ⊇ E} (-1)^{|T - E|} #classes(∨T), and A acts on it as
# sum_{X in E} ±s_X - 1, with minus for RB and CB.
#
# P_X and P_Y commute iff in every class z of X ∨ Y every X-class meets
# every Y-class in |x| |y| / |z| cells (Tjur's criterion for orthogonal
# factors, Internat. Statist. Rev. 52, 1984).  With one size per partition
# it is enough that every nonempty meet has s_X s_Y / |z| cells: then each
# x-class meets |z| / s_Y y-classes, which are all of those in z.
#
# Of the ten pairs, five always commute: R and C (each row meets each
# column once, and R ∨ C is one class), and the refinements RB of R and of
# B, CB of C and of B (P_X P_Y = P_Y when X refines Y).  R-B, C-B, R-CB and
# C-RB are tested.  RB-CB then commutes too: a CB piece meets each row in
# at most one cell, so R-CB commuting makes every class of R ∨ CB a band of
# q_col rows that each of its CB pieces spans; likewise C-RB gives stacks
# of q_row columns, so the classes of RB ∨ CB are the q_col x q_row
# rectangles band x stack, in which every RB piece meets every CB piece
# once.  RB ∨ CB thus has n / (q_row q_col) classes.  Refinement also makes
# ∨T the join of T's maximal members: none, one partition, R and C (one
# class, as is R, C and B), or one of the five pairs above.  Everything is
# integer counting on cell labels.

_R, _C, _B, _RB, _CB = (1 << i for i in range(5))
# the pairs whose commutation is tested (see above for the other six)
_TESTED_PAIRS = (_R | _B, _C | _B, _R | _CB, _C | _RB)


def _compact(labels: np.ndarray) -> np.ndarray:
    """The cell labels renumbered 0 .. #classes - 1."""
    return np.unique(labels, return_inverse=True)[1]


def _join(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Cell labels of the join of two partitions, each class labelled by
    the least x-label in it: the minimum is propagated over y-classes, then
    x-classes, until it is constant on both."""
    big = len(x)
    z = x
    while True:
        least = np.full(big, big)
        np.minimum.at(least, y, z)
        w = least[y]
        least[:] = big
        np.minimum.at(least, x, w)
        w = least[x]
        # w <= least over y-classes <= z, so w == z means z is constant on both
        if np.array_equal(w, z):
            return z
        z = w


def _commuting_join(x: np.ndarray, y: np.ndarray, sx: int, sy: int) -> int | None:
    """#classes(X ∨ Y) when P_X and P_Y commute (every nonempty meet has
    sx sy / |z| cells, z its class of the join), else None."""
    z = _join(x, y)
    z_size = np.bincount(z)
    _, meet, meet_size = np.unique(x * len(x) + y, return_inverse=True, return_counts=True)
    if not np.all(meet_size[meet] * z_size[z] == sx * sy):
        return None
    return int(np.count_nonzero(z_size))


def _lattice_spectrum(t: Tiling) -> Spectrum | None:
    """The spectrum read off the partition lattice (see the section
    comment), or None when the row∩block or column∩block pieces vary in
    size or a tested pair of projections does not commute."""
    m, nb = t.m, t.n_blocks
    n = m * m
    cell = np.arange(n)
    row, col, blk = cell // m, cell % m, np.array(t.block_of)
    labels = (row, col, blk, _compact(row * nb + blk), _compact(col * nb + blk))
    sizes = []
    classes = {0: n}
    for bit, x in enumerate(labels):
        counts = np.bincount(x)
        size = int(counts.max())
        if size * len(counts) != n:  # the sizes add up to n, so all equal size
            return None
        sizes.append(size)
        classes[1 << bit] = len(counts)
    classes[_R | _C] = 1
    classes[_RB | _CB] = n // (sizes[3] * sizes[4])
    for pair in _TESTED_PAIRS:
        i, j = (bit for bit in range(5) if pair >> bit & 1)
        count = _commuting_join(labels[i], labels[j], sizes[i], sizes[j])
        if count is None:
            return None
        classes[pair] = count

    def maximal(members: int) -> int:
        if members & (_R | _B):
            members &= ~_RB
        if members & (_C | _B):
            members &= ~_CB
        return _R | _C if members & _R and members & _C else members

    # dims[E] = sum over T ⊇ E of (-1)^|T - E| #classes(∨T), one bit at a time
    dims = [classes[maximal(members)] for members in range(32)]
    for bit in range(5):
        for members in range(32):
            if not members >> bit & 1:
                dims[members] -= dims[members | 1 << bit]
    signed = (sizes[0], sizes[1], sizes[2], -sizes[3], -sizes[4])
    spectrum: dict[int, int] = {}
    for pattern, dim in enumerate(dims):
        if dim:
            lam = sum(s for bit, s in enumerate(signed) if pattern >> bit & 1) - 1
            spectrum[lam] = spectrum.get(lam, 0) + dim
    return Spectrum(tuple(sorted(spectrum.items())), (1,))


def is_integral(a) -> bool:
    """True iff every eigenvalue of the symmetric matrix a is an integer."""
    return exact_spectrum(a).is_integral


def multipartite_charpoly(parts) -> tuple[int, ...]:
    """Characteristic polynomial of the complete multipartite graph with the
    given part sizes: x^(n-k) * (x^k - sum_{m=2..k} (m-1) sigma_m x^(k-m)),
    sigma_m the elementary symmetric functions of the part sizes."""
    sizes = [int(p) for p in parts]
    if not sizes or any(p < 1 for p in sizes):
        raise ValueError("part sizes must be positive integers")
    k = len(sizes)
    n = sum(sizes)
    sigma = (1,)
    for p in sizes:
        sigma = linalg.poly_mul(sigma, (1, p))
    top = [0] * (k + 1)
    top[k] = 1
    for m in range(2, k + 1):
        top[k - m] -= (m - 1) * sigma[m]
    return tuple([0] * (n - k) + top)


def multipartite_spectrum(q: int, k: int) -> Spectrum:
    """Spectrum of the complete k-partite graph with all parts of size q:
    {0 with multiplicity kq-k, (k-1)q once, -q with multiplicity k-1}."""
    if q < 1 or k < 1:
        raise ValueError("q and k must be positive")
    counts: dict[int, int] = {}
    for lam, mult in ((0, k * q - k), ((k - 1) * q, 1), (-q, k - 1)):
        if mult:
            counts[lam] = counts.get(lam, 0) + mult
    return Spectrum(tuple(sorted(counts.items())), (1,))
