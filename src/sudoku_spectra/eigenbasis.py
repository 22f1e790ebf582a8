"""Explicit eigenvector basis of a blown-up free-form Sudoku graph.

For a blow-up factor k, a full eigenbasis of the blown-up adjacency (in
subsquare vertex order) is assembled from Kronecker products x (x) w of an
N x N seed's eigenvector x and a k^2-vector w, one family per row of
`_family_table`:

  XV:  seed l_v,  w = 1_k (x) y   -> eigenvalue lam*k - 1
  XH:  seed l_h,  w = y (x) 1_k   -> eigenvalue lam*k - 1
  XE:  seeds e_i, w = y (x) z     -> eigenvalue -1
  XM:  seed M = k^2 l_b + k l_h + k l_v,  w = 1_{k^2}  -> eigenvalue lam + k^2 - 1

with lam the seed eigenvalue of x and y, z in ker(J_k).  With N cells in
the original grid the families have sizes (k-1)N, (k-1)N, (k-1)^2 N and N,
totalling k^2 N, and they are jointly independent; the largest eigenvalue
always comes from XM.  Eigenvector ingredients with integer eigenvalues
are exact (integer vectors from rational kernels); non-integer eigenpairs
come from the floating-point oracle and are flagged approximate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import graph, linalg, spectra
from .blowup import blown_adjacency
from .linalg import ConvergenceError, all_ones, kron, unit_vector
from .tiling import Tiling

__all__ = [
    "EigenSpace",
    "EigenFamily",
    "EigenBasisReport",
    "VerificationFailure",
    "kj_basis",
    "eigenvector_basis",
    "build_families",
    "blowup_is_integral",
    "predicted_spectrum",
    "verify",
]


class VerificationFailure(Exception):
    """An eigenbasis verification clause failed; names the clause."""

    def __init__(self, clause: str, detail: str = ""):
        self.clause = clause
        super().__init__(f"{clause}: {detail}" if detail else clause)


@dataclass(frozen=True, eq=False)
class EigenSpace:
    """One eigenvalue with a basis of its eigenspace.

    Exact spaces carry integer eigenvalues and primitive integer vectors;
    approximate ones carry a float eigenvalue and one unit float vector.
    """

    value: int | float
    vectors: tuple[np.ndarray, ...]
    exact: bool

    @property
    def dim(self) -> int:
        return len(self.vectors)


@dataclass(frozen=True, eq=False)
class EigenFamily:
    kind: str
    vectors: tuple[np.ndarray, ...]
    eigenvalues: tuple
    exact: tuple[bool, ...]

    def __len__(self) -> int:
        return len(self.vectors)


@dataclass(frozen=True, eq=False)
class EigenBasisReport:
    families: tuple[EigenFamily, EigenFamily, EigenFamily, EigenFamily]
    total_rank: int
    max_residual: float
    predicted: tuple
    oracle: tuple[float, ...]
    spectrum_max_error: float
    max_predicted: float
    max_family: str
    max_lower_bound: int

    @property
    def family_sizes(self) -> tuple[int, int, int, int]:
        return tuple(len(f) for f in self.families)  # type: ignore[return-value]


def kj_basis(k: int) -> list[np.ndarray]:
    """The k-1 vectors (1, -1, 0, ...), (1, 0, -1, ...), ...: a maximal
    independent subset of ker(J_k).  Empty for k = 1."""
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    out = []
    for i in range(1, k):
        v = np.full(k, 0, dtype=object)
        v[0] = 1
        v[i] = -1
        out.append(v)
    return out


def _match_residual_indices(w: np.ndarray, spectrum, atol: float = 1e-6) -> list[int]:
    """Indices of the float eigenvalues not accounted for by integer ones.

    Both lists are ascending and the integer multiset is a sub-multiset of
    the true spectrum, so a greedy sweep pairs them off.  The sweep is
    trusted only once `linalg.has_root_near` has shown, exactly, that the
    residual polynomial has no root within 2 * atol of any integer
    eigenvalue lam: then a float eigenvalue within atol of lam, computed
    with an error below atol, is lam itself.  ConvergenceError names lam
    otherwise.
    """
    den = round(1 / (2 * atol))
    for lam, _ in spectrum.integer_part:
        if linalg.has_root_near(spectrum.residual, lam, den):
            raise ConvergenceError(
                f"a non-integer eigenvalue lies within {2 * atol:g} of eigenvalue {lam}; "
                "the float eigenvalues cannot be paired"
            )
    ints = [lam for lam, mult in spectrum.integer_part for _ in range(mult)]
    leftover = []
    pos = 0
    for idx, val in enumerate(w):
        if pos < len(ints) and abs(val - ints[pos]) <= atol:
            pos += 1
        else:
            leftover.append(idx)
    if pos != len(ints):
        raise RuntimeError("exact integer eigenvalues not found in float spectrum")
    return leftover


def eigenvector_basis(a) -> list[EigenSpace]:
    """Maximal independent eigenvector sets of a symmetric integer matrix.

    Every integer eigenvalue gets an exact rational-kernel basis; if the
    spectrum has a non-integer part, those eigenpairs come from the float
    oracle (one vector each) and are flagged approximate.  The union spans
    the whole space.
    """
    a = linalg._require_symmetric(a)
    n = a.shape[0]
    spectrum = spectra.exact_spectrum(a)
    spaces = []
    for lam, mult in spectrum.integer_part:
        vecs = linalg.rational_kernel(a, lam)
        if len(vecs) != mult:
            raise RuntimeError(
                f"eigenvalue {lam}: kernel dimension {len(vecs)} != multiplicity {mult}"
            )
        vecs = sorted(vecs, key=lambda v: tuple(v))
        spaces.append(EigenSpace(lam, tuple(vecs), True))
    if spectrum.residual_degree:
        w, v = linalg._float_eigen_pairs(a)
        for idx in _match_residual_indices(w, spectrum):
            spaces.append(EigenSpace(float(w[idx]), (v[:, idx].copy(),), False))
    spaces.sort(key=lambda s: (float(s.value), not s.exact))
    if sum(s.dim for s in spaces) != n:
        raise RuntimeError("eigenspaces do not span")
    return spaces


def _family_table(t: Tiling, k: int) -> tuple:
    """The blow-up structure theorem, one row per family: (kind, N x N seed
    matrix or None for the unit-vector seeds of XE, the k^2-vectors each
    seed eigenvector is tensored with, seed eigenvalue -> blow-up eigenvalue).
    """
    kj = kj_basis(k)
    ones_k = all_ones(k)
    d = graph.layers(t)
    return (
        ("XV", d.l_v, [kron(ones_k, y) for y in kj], lambda lam: lam * k - 1),
        ("XH", d.l_h, [kron(y, ones_k) for y in kj], lambda lam: lam * k - 1),
        ("XE", None, [kron(y, z) for y in kj for z in kj], lambda lam: -1),
        ("XM", k * k * d.l_b + k * d.l_h + k * d.l_v, [all_ones(k * k)],
         lambda lam: lam + k * k - 1),
    )


def build_families(
    t: Tiling, k: int
) -> tuple[EigenFamily, EigenFamily, EigenFamily, EigenFamily]:
    """Assemble the four eigenvector families of the k-fold blow-up.

    For k = 1 the first three families are empty (ker(J_1) is trivial) and
    XM alone is a full eigenbasis of the original adjacency.
    """
    families = []
    for kind, seed, tails, to_blown in _family_table(t, k):
        vectors, values, exact = [], [], []
        if tails:
            if seed is None:  # XE: its eigenvalue map ignores the value
                units = tuple(unit_vector(t.n_cells, i) for i in range(t.n_cells))
                spaces = [EigenSpace(0, units, True)]
            else:
                spaces = eigenvector_basis(seed)
            for space in spaces:
                mu = to_blown(space.value)
                for x in space.vectors:
                    for w in tails:
                        vectors.append(kron(x, w))
                        values.append(mu)
                        exact.append(space.exact)
        families.append(EigenFamily(kind, tuple(vectors), tuple(values), tuple(exact)))
    return tuple(families)  # type: ignore[return-value]


def blowup_is_integral(t: Tiling, k: int) -> bool:
    """True iff the k-fold blow-up of t has an integral spectrum.

    Decided on the N x N seeds of the nonempty families, never on the
    k^2 N blown matrix: a seed eigenvalue lam is an algebraic integer, so
    lam*k - 1 and lam + k^2 - 1 are integers iff lam is.
    """
    return all(
        spectra.exact_spectrum(seed).is_integral
        for _, seed, tails, _ in _family_table(t, k)
        if tails and seed is not None
    )


def predicted_spectrum(t: Tiling, k: int) -> tuple:
    """Predicted eigenvalue multiset of the k-fold blow-up, sorted.

    lam*k - 1 for each eigenvalue lam of l_v and of l_h (each k-1 times),
    -1 with multiplicity (k-1)^2 * N, and lam + k^2 - 1 for each eigenvalue
    lam of M = k^2 l_b + k l_h + k l_v; N = number of original cells.
    Exact entries are ints, approximate ones floats.
    """
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    d = graph.layers(t)
    n = t.n_cells
    values: list[float | int] = []
    if k > 1:
        for layer in (d.l_v, d.l_h):
            for space in eigenvector_basis(layer):
                values.extend([space.value * k - 1] * (space.dim * (k - 1)))
        values.extend([-1] * ((k - 1) * (k - 1) * n))
    m_matrix = k * k * d.l_b + k * d.l_h + k * d.l_v
    for space in eigenvector_basis(m_matrix):
        values.extend([space.value + k * k - 1] * space.dim)
    return tuple(sorted(values, key=float))


def _as_float(vec: np.ndarray) -> np.ndarray:
    return np.asarray(vec, dtype=float)


# Integer products are exact in float64 while every partial sum stays below
# 2**53 (the FFLAS-FFPACK technique: Dumas, Giorgi, Pernet, ACM TOMS 35(3),
# 2008).  Exact family vectors are checked _CHUNK at a time in one product.
_CHUNK = 128


def _fits_float64(row_sum: int, mu_max: int, v_max: int) -> bool:
    """True when a @ V - V * diag(mu) is exact in float64 for an integer
    matrix a with max_i sum_j |a_ij| = row_sum, integer vectors V with
    entries at most v_max and integer eigenvalues at most mu_max in size:
    every entry, partial sum and difference is an integer of size at most
    (row_sum + mu_max) * v_max, so none rounds below 2**53."""
    return (row_sum + mu_max) * v_max < linalg._FLOAT64_EXACT


def _first_inexact(up_a: np.ndarray, up_f: np.ndarray, vecs, mus) -> int | None:
    """Index of the first integer vector with up_a @ vec != mu * vec, or None.

    Each chunk of _CHUNK vectors is one float64 product with up_f (up_a as
    floats) when `_fits_float64` proves it exact, and is checked vector by
    vector on the object array otherwise.
    """
    row_sum = int(np.abs(up_a).sum(axis=1).max())
    for start in range(0, len(vecs), _CHUNK):
        chunk, mu = vecs[start:start + _CHUNK], mus[start:start + _CHUNK]
        v_max = max(int(np.abs(vec).max()) for vec in chunk)
        if _fits_float64(row_sum, max(abs(m) for m in mu), v_max):
            v = np.array(chunk, dtype=float).T
            bad = np.flatnonzero(np.any(up_f @ v != v * np.array(mu, dtype=float), axis=0))
        else:
            bad = [
                j for j, (vec, m) in enumerate(zip(chunk, mu))
                if np.any(up_a[:, vec != 0] @ vec[vec != 0] != m * vec)
            ]
        if len(bad):
            return start + int(bad[0])
    return None


def _max_residual(families, up_a: np.ndarray, residual_tol: float) -> float:
    """Eigenvector clause: raise unless every family vector is an
    eigenvector of up_a for its eigenvalue; return the largest residual of
    the approximate ones (0.0 when all are exact).  The first failing
    vector in family order is the one reported."""
    up_f = np.asarray(up_a, dtype=float)
    fro = np.linalg.norm(up_f)
    entries = [
        (fam.kind, vec, mu, exact)
        for fam in families
        for vec, mu, exact in zip(fam.vectors, fam.eigenvalues, fam.exact)
    ]
    exact_at = [i for i, e in enumerate(entries) if e[3]]
    bad = _first_inexact(
        up_a, up_f, [entries[i][1] for i in exact_at], [entries[i][2] for i in exact_at]
    )
    stop = len(entries) if bad is None else exact_at[bad]
    max_residual = 0.0
    for kind, vec, mu, exact in entries[:stop]:
        if exact:
            continue
        vf = _as_float(vec)
        res = float(np.linalg.norm(up_f @ vf - mu * vf))
        allowed = residual_tol * fro * float(np.linalg.norm(vf))
        if res > allowed:
            raise VerificationFailure(
                "eigenvector-residual",
                f"{kind} eigenvalue {mu}: residual {res:.3e} > {allowed:.3e}",
            )
        max_residual = max(max_residual, res)
    if bad is not None:
        kind, _, mu, _ = entries[stop]
        raise VerificationFailure(
            "eigenvector-residual", f"{kind} vector for eigenvalue {mu} is not exact"
        )
    return max_residual


def _basis_rank(families, dim: int) -> int:
    """Rank clause: raise unless the stacked family vectors have rank dim;
    returns the rank."""
    stacked = [vec for fam in families for vec in fam.vectors]
    if len(stacked) != dim:
        raise VerificationFailure(
            "basis-rank", f"{len(stacked)} vectors for dimension {dim}"
        )
    if all(all(fam.exact) for fam in families):
        mat = np.empty((dim, dim), dtype=object)
        for i, vec in enumerate(stacked):
            mat[i, :] = vec
        total_rank = linalg.rank(mat)
    else:
        mat_f = np.array([_as_float(v) for v in stacked])
        sing = np.linalg.svd(mat_f, compute_uv=False)
        total_rank = int(np.sum(sing > 1e-8 * sing[0]))
    if total_rank != dim:
        raise VerificationFailure("basis-rank", f"rank {total_rank} != {dim}")
    return total_rank


def verify(
    t: Tiling,
    k: int,
    residual_tol: float = 1e-8,
    spectrum_tol: float = 1e-6,
    blown: np.ndarray | None = None,
) -> EigenBasisReport:
    """Verify the eigenbasis construction against the blown-up graph.

    Checks, in order: every family vector is an eigenvector for its
    predicted eigenvalue (exactly for integer-path vectors, within
    residual_tol * ||A|| * ||v|| for approximate ones; the first failing
    vector in family order is named); the stacked family
    has full rank (exact integer rank when every vector is exact, SVD with
    a relative 1e-8 threshold otherwise); the largest predicted
    eigenvalue comes from XM, is at least m*k^2 - 1 and matches the oracle
    maximum; and the predicted multiset -- the families' eigenvalues --
    matches the float oracle pairwise within spectrum_tol.  Raises
    VerificationFailure naming the first violated clause.  Pass `blown`
    when the caller already holds `blown_adjacency(t, k)`.

    The exact eigenvector clause is a proof, not a tolerance.  The integer
    vectors go through float64 products A @ V, a chunk at a time, and A @ V -
    V * diag(mu) must be exactly 0.  A chunk takes that route only when
    (max_i sum_j |a_ij| + max |mu|) * max |v| < 2**53: then every entry,
    partial sum and difference is an integer below 2**53, so nothing
    rounds, whatever order BLAS sums in.  A chunk past the bound is checked
    vector by vector on the object array.
    """
    families = build_families(t, k)
    up_a = blown_adjacency(t, k) if blown is None else blown
    # each clause's dense float and stacked copies are freed on return,
    # before the float oracle allocates its own
    max_residual = _max_residual(families, up_a, residual_tol)
    total_rank = _basis_rank(families, up_a.shape[0])

    # the families' own eigenvalues, in the concatenation order
    # predicted_spectrum uses, so the stable sort gives the same tuple
    predicted = tuple(
        sorted((v for fam in families for v in fam.eigenvalues), key=float)
    )
    oracle = tuple(linalg.float_eigen(up_a))

    xm = families[3]
    max_predicted = max(float(v) for v in xm.eigenvalues)
    overall_max = max(float(v) for v in predicted)
    if max_predicted < overall_max - spectrum_tol:
        raise VerificationFailure(
            "largest-not-from-XM",
            f"XM max {max_predicted} below overall {overall_max}",
        )
    # block size >= m, so M has k^2(J_s - I_s) as a principal submatrix and
    # interlacing puts its top eigenvalue above (m-1)k^2
    lower = t.m * k * k - 1
    if max_predicted < lower - spectrum_tol:
        raise VerificationFailure(
            "largest-eigenvalue-lower-bound",
            f"max {max_predicted} < {lower}",
        )
    if abs(max_predicted - oracle[-1]) > spectrum_tol:
        raise VerificationFailure(
            "largest-eigenvalue-mismatch",
            f"predicted {max_predicted} vs oracle {oracle[-1]}",
        )

    errs = [abs(float(p) - o) for p, o in zip(predicted, oracle)]
    spectrum_max_error = max(errs)
    if spectrum_max_error > spectrum_tol:
        raise VerificationFailure(
            "spectrum-oracle-mismatch", f"max pairing error {spectrum_max_error:.3e}"
        )

    return EigenBasisReport(
        families=families,
        total_rank=total_rank,
        max_residual=max_residual,
        predicted=predicted,
        oracle=oracle,
        spectrum_max_error=spectrum_max_error,
        max_predicted=max_predicted,
        max_family="XM",
        max_lower_bound=lower,
    )
