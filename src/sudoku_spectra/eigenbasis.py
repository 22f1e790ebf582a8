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

A family is kept in factored form, its seed eigenspaces and its tails w,
and `verify` proves the basis on those factors, never on the k^2 N blown
vectors:
  1. `blowup.reconcile` ties the directly built graph of the blown-up
     tiling to blown = l_b (x) B + l_h (x) H + l_v (x) V + I (x) D;
  2. each tail satisfies B w = beta w, H w = eta w, V w = nu w and
     D w = delta w, with (beta, eta, nu, delta) = (0, 0, k, -1) for XV,
     (0, k, 0, -1) for XH, (0, 0, 0, -1) for XE and (k^2, k, k, k^2 - 1)
     for XM, so by the mixed-product rule blown (x (x) w) = (E x) (x) w
     for E = beta l_b + eta l_h + nu l_v + delta I, and an N x N check
     E x = mu x makes x (x) w an eigenvector;
  3. tails of different families are orthogonal, hence so are their blown
     vectors, and the rank of the whole stack is the sum over families;
  4. rank(X (x) W) = rank X * rank W, so each family's rank comes from its
     N x N seed stack X and its k^2-vector tails W.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from . import graph, linalg, spectra
from .blowup import blown_adjacency, substitution_set
from .linalg import ConvergenceError, all_ones, identity, kron, unit_vector
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
    """One family of the blow-up eigenbasis, in factored form.

    Its blown vectors are x (x) w for every seed vector x of `spaces`
    (x-major) and every k^2-vector w of `tails` (tail-minor).  Each tail
    is an eigenvector of B, H, V and D (`blowup.substitution_set`) for
    `coefficients` = (beta, eta, nu, delta), and each space is an
    eigenspace of beta l_b + eta l_h + nu l_v + delta I whose value is the
    blown eigenvalue.  `vectors` expands the blown vectors on demand.
    """

    kind: str
    spaces: tuple[EigenSpace, ...]
    tails: tuple[np.ndarray, ...]
    coefficients: tuple[int, int, int, int]

    def __len__(self) -> int:
        return sum(s.dim for s in self.spaces) * len(self.tails)

    @property
    def eigenvalues(self) -> tuple:
        return tuple(s.value for s in self.spaces for _ in range(s.dim * len(self.tails)))

    @property
    def exact(self) -> tuple[bool, ...]:
        return tuple(s.exact for s in self.spaces for _ in range(s.dim * len(self.tails)))

    @property
    def vectors(self) -> tuple[np.ndarray, ...]:
        ws = np.array(self.tails, dtype=object)
        out = []
        for space in self.spaces:
            # row (a, b) is kron(x_a, w_b)
            xs = np.array(space.vectors, dtype=object)
            count = len(xs) * len(ws)
            out.extend((xs[:, None, :, None] * ws[None, :, None, :]).reshape(count, -1))
        return tuple(out)


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
    seed eigenvector is tensored with, their eigenvalues (beta, eta, nu,
    delta) under B, H, V and D, seed eigenvalue -> blow-up eigenvalue).
    """
    kj = kj_basis(k)
    ones_k = all_ones(k)
    d = graph.layers(t)
    return (
        ("XV", d.l_v, [kron(ones_k, y) for y in kj], (0, 0, k, -1), lambda lam: lam * k - 1),
        ("XH", d.l_h, [kron(y, ones_k) for y in kj], (0, k, 0, -1), lambda lam: lam * k - 1),
        ("XE", None, [kron(y, z) for y in kj for z in kj], (0, 0, 0, -1), lambda lam: -1),
        ("XM", k * k * d.l_b + k * d.l_h + k * d.l_v, [all_ones(k * k)],
         (k * k, k, k, k * k - 1), lambda lam: lam + k * k - 1),
    )


def build_families(
    t: Tiling, k: int
) -> tuple[EigenFamily, EigenFamily, EigenFamily, EigenFamily]:
    """Assemble the four eigenvector families of the k-fold blow-up, each
    as its seed eigenspaces (valued at the blow-up eigenvalue) and tails.

    For k = 1 the first three families are empty (ker(J_1) is trivial) and
    XM alone is a full eigenbasis of the original adjacency.
    """
    families = []
    for kind, seed, tails, coefficients, to_blown in _family_table(t, k):
        spaces: tuple[EigenSpace, ...] = ()
        if tails:
            if seed is None:  # XE: its eigenvalue map ignores the value
                units = tuple(unit_vector(t.n_cells, i) for i in range(t.n_cells))
                seed_spaces = [EigenSpace(0, units, True)]
            else:
                seed_spaces = eigenvector_basis(seed)
            spaces = tuple(EigenSpace(to_blown(s.value), s.vectors, s.exact) for s in seed_spaces)
        families.append(EigenFamily(kind, spaces, tuple(tails), coefficients))
    return tuple(families)  # type: ignore[return-value]


def blowup_is_integral(t: Tiling, k: int) -> bool:
    """True iff the k-fold blow-up of t has an integral spectrum.

    Decided on the N x N seeds of the nonempty families, never on the
    k^2 N blown matrix: a seed eigenvalue lam is an algebraic integer, so
    lam*k - 1 and lam + k^2 - 1 are integers iff lam is.
    """
    return all(
        spectra.exact_spectrum(seed).is_integral
        for _, seed, tails, _, _ in _family_table(t, k)
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
# 2008).  A family's exact seed vectors are checked in one such product.


def _fits_float64(row_sum: int, mu_max: int, v_max: int) -> bool:
    """True when a @ V - V * diag(mu) is exact in float64 for an integer
    matrix a with max_i sum_j |a_ij| = row_sum, integer vectors V with
    entries at most v_max and integer eigenvalues at most mu_max in size:
    every entry, partial sum and difference is an integer of size at most
    (row_sum + mu_max) * v_max, so none rounds below 2**53."""
    return (row_sum + mu_max) * v_max < linalg._FLOAT64_EXACT


def _inexact(e: np.ndarray, vecs, mus) -> np.ndarray:
    """Mask of the integer vectors with e @ vec != mu * vec: one float64
    product when `_fits_float64` proves it exact, vector by vector on the
    object array otherwise."""
    row_sum = int(np.abs(e).sum(axis=1).max())
    v_max = max(int(np.abs(vec).max()) for vec in vecs)
    if _fits_float64(row_sum, max(abs(m) for m in mus), v_max):
        v = np.array(vecs, dtype=float).T
        return np.any(e.astype(float) @ v != v * np.array(mus, dtype=float), axis=0)
    return np.array([
        bool(np.any(e[:, vec != 0] @ vec[vec != 0] != m * vec)) for vec, m in zip(vecs, mus)
    ])


def _blown_frobenius(d, subs, n: int) -> float:
    """||blown||_F from the factors.  The four Kronecker terms of blown
    have disjoint supports (the layers are disjoint with zero diagonals), so
    ||blown||_F^2 = sum ||L||_F^2 ||S||_F^2 over (l_b, B), (l_h, H), (l_v, V)
    and (I, D)."""
    def sq(mat):
        return int((mat * mat).sum())

    return math.sqrt(
        sq(d.l_b) * sq(subs.b) + sq(d.l_h) * sq(subs.h) + sq(d.l_v) * sq(subs.v)
        + n * sq(subs.d)
    )


def _bad_tail(fam: EigenFamily, subs) -> str | None:
    """Names the family's first tail w and factor S with S w != c w for its
    coefficient c, or None."""
    for j, w in enumerate(fam.tails):
        for name, mat, c in zip("BHVD", (subs.b, subs.h, subs.v, subs.d), fam.coefficients):
            if np.any(mat @ w != c * w):
                return f"{fam.kind} tail {j}: {name} w != {c} w"
    return None


def _seed_operator(d, coefficients, n: int) -> np.ndarray:
    """beta l_b + eta l_h + nu l_v + delta I, exact."""
    beta, eta, nu, delta = coefficients
    return beta * d.l_b + eta * d.l_h + nu * d.l_v + delta * identity(n)


def _max_residual(families, d, subs, n: int, residual_tol: float) -> float:
    """Eigenvector clause, at the factor level: raise unless every tail
    passes `_bad_tail` and every seed vector x of a space valued mu has
    E x = mu x, E = beta l_b + eta l_h + nu l_v + delta I the family's N x N
    operator; then every blown vector x (x) w is an eigenvector (see
    `verify`).  Exact seeds must satisfy it exactly, approximate ones within
    residual_tol * ||blown||_F * ||x (x) w||, and the residual of x (x) w is
    ||(E - mu) x|| * ||w||.  Returns the largest residual of an approximate
    blown vector (0.0 when all are exact).  Families, then seed vectors, are
    checked in order, and the first failure is named; a failing seed vector
    is named as its first blown vector is."""
    fro = _blown_frobenius(d, subs, n)
    max_residual = 0.0
    for fam in families:
        if not len(fam):
            continue
        bad_tail = _bad_tail(fam, subs)
        if bad_tail is not None:
            raise VerificationFailure("eigenvector-residual", bad_tail)
        e = _seed_operator(d, fam.coefficients, n)
        e_f = e.astype(float)
        w_norms = [float(np.linalg.norm(_as_float(w))) for w in fam.tails]
        seeds = [(x, s.value, s.exact) for s in fam.spaces for x in s.vectors]
        exact_at = [i for i, seed in enumerate(seeds) if seed[2]]
        bad = set()
        if exact_at:
            mask = _inexact(e, [seeds[i][0] for i in exact_at], [seeds[i][1] for i in exact_at])
            bad = {exact_at[i] for i in np.flatnonzero(mask)}
        for i, (x, mu, exact) in enumerate(seeds):
            if exact:
                if i in bad:
                    raise VerificationFailure(
                        "eigenvector-residual", f"{fam.kind} vector for eigenvalue {mu} is not exact"
                    )
                continue
            xf = _as_float(x)
            r = float(np.linalg.norm(e_f @ xf - mu * xf))
            res = r * w_norms[0]
            allowed = residual_tol * fro * float(np.linalg.norm(xf)) * w_norms[0]
            if res > allowed:
                raise VerificationFailure(
                    "eigenvector-residual",
                    f"{fam.kind} eigenvalue {mu}: residual {res:.3e} > {allowed:.3e}",
                )
            max_residual = max(max_residual, r * max(w_norms))
    return max_residual


def _exact_rank(vecs) -> int:
    """Rank over Q of integer vectors.  Full rank mod p is full rational
    rank, so only a short modular rank calls `linalg.rank`."""
    mat = np.array(vecs, dtype=object)
    found = linalg._rank_mod(mat, linalg._primes(1)[0])
    return found if found == min(mat.shape) else linalg.rank(mat)


def _seed_rank(fam: EigenFamily) -> int:
    """rank X_f: exact when every seed is, else an SVD with a relative
    1e-8 threshold."""
    xs = [x for s in fam.spaces for x in s.vectors]
    if all(s.exact for s in fam.spaces):
        return _exact_rank(xs)
    sing = np.linalg.svd(np.array([_as_float(x) for x in xs]), compute_uv=False)
    return int(np.sum(sing > 1e-8 * sing[0]))


def _basis_rank(families, dim: int) -> int:
    """Rank clause, at the factor level: raise unless the families hold dim
    blown vectors, the tails of different families are orthogonal and
    sum_f rank(X_f) * rank(W_f) = dim, X_f the seed vectors and W_f the
    tails of family f; returns that sum, the rank of the blown stack."""
    count = sum(len(fam) for fam in families)
    if count != dim:
        raise VerificationFailure("basis-rank", f"{count} vectors for dimension {dim}")
    present = [fam for fam in families if len(fam)]
    for a, b in combinations(present, 2):
        if np.any(np.array(a.tails, dtype=object) @ np.array(b.tails, dtype=object).T):
            raise VerificationFailure(
                "basis-rank", f"{a.kind} and {b.kind} tails are not orthogonal"
            )
    total_rank = sum(_seed_rank(fam) * _exact_rank(fam.tails) for fam in present)
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
    residual_tol * ||A||_F * ||v|| for approximate ones; the first failing
    vector in family order is named); the stacked family has full rank
    (per family, exact integer rank when every seed vector is exact, an SVD
    with a relative 1e-8 threshold otherwise); the largest predicted eigenvalue comes from
    XM, is at least m*k^2 - 1 and matches the oracle maximum; and the
    predicted multiset -- the families' eigenvalues -- matches the float
    oracle pairwise within spectrum_tol.  Raises VerificationFailure naming
    the first violated clause.  `blown`, when given, must be
    `blown_adjacency(t, k)`: only the float oracle reads it.

    The first two clauses never form a k^2 N-vector.  The proof chain:
    - `blowup.reconcile` ties the graph built directly from the blown-up
      tiling to blown_adjacency(t, k) = l_b (x) B + l_h (x) H + l_v (x) V
      + I (x) D;
    - by the mixed-product rule, if B w = beta w, H w = eta w, V w = nu w
      and D w = delta w, then blown (x (x) w) = (E x) (x) w with E = beta
      l_b + eta l_h + nu l_v + delta I, so E x = mu x makes x (x) w an
      eigenvector for mu, with residual ||(E - mu) x|| * ||w||;
    - tails of different families are orthogonal, so (x (x) w) . (x' (x) w')
      = (x . x')(w . w') = 0 across families, and the stack's rank is the
      sum of the families' ranks;
    - rank(X (x) W) = rank X * rank W (Van Loan, "The ubiquitous Kronecker
      product", J. Comput. Appl. Math. 123, 2000), for the N x N seed
      stack X and the k^2-vector tails W of each family.

    The exact eigenvector clause is a proof, not a tolerance.  A family's
    integer seed vectors go through one float64 product E @ X, and E @ X -
    X * diag(mu) must be exactly 0.  They take that route only when
    (max_i sum_j |e_ij| + max |mu|) * max |x| < 2**53: then every entry,
    partial sum and difference is an integer below 2**53, so nothing
    rounds, whatever order BLAS sums in.  Past the bound each vector is
    checked on the object array.
    """
    families = build_families(t, k)
    d = graph.layers(t)
    subs = substitution_set(k)
    max_residual = _max_residual(families, d, subs, t.n_cells, residual_tol)
    total_rank = _basis_rank(families, k * k * t.n_cells)

    # the families' own eigenvalues, in the concatenation order
    # predicted_spectrum uses, so the stable sort gives the same tuple
    predicted = tuple(
        sorted((v for fam in families for v in fam.eigenvalues), key=float)
    )
    up_a = blown_adjacency(t, k) if blown is None else blown
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
