"""Explicit eigenvector basis of a blown-up free-form Sudoku graph.

For a blow-up factor k, a full eigenbasis of the blown-up adjacency (in
subsquare vertex order) is assembled from Kronecker products x (x) w of an
N x N seed's eigenvector x and a k^2-vector w.  Each row of
`_family_table` is a family's tails w and their eigenvalues
(beta, eta, nu, delta) under B, H, V and D; its seeds x are eigenvectors of
S = beta l_b + eta l_h + nu l_v, and x (x) w has eigenvalue S-value + delta:

  XV:  w = 1_k (x) y,  (0, 0, k, -1):          S = k l_v,  value k lam - 1
  XH:  w = y (x) 1_k,  (0, k, 0, -1):          S = k l_h,  value k lam - 1
  XE:  w = y (x) z,    (0, 0, 0, -1):          S = 0,      value -1
  XM:  w = 1_{k^2},    (k^2, k, k, k^2 - 1):   S = M,      value lam + k^2 - 1

with lam an eigenvalue of l_v, l_h or M and y, z in ker(J_k).  With N
cells in the original grid the families have sizes (k-1)N, (k-1)N,
(k-1)^2 N and N, totalling k^2 N, and they are jointly independent, so the
blown spectrum is the union over the families f of spec S_f + delta_f,
each repeated once per tail of f; the largest eigenvalue always comes from
XM.  The seeds of XV and XH have closed-form eigenspaces
(`layer_eigenspaces`), with no kernel, scan or size limit; M's come from
`eigenvector_basis`, where exact kernels decide the integer eigenspaces
(M up to 512 x 512, or larger when proven integral) and floats never
decide which vectors are exact.  Non-integer eigenpairs, of M or of a
closed form, are flagged approximate and held to a residual contract.

A family is kept in factored form, its seed eigenspaces and its tails w,
and `verify` proves the basis on those factors, never on the k^2 N blown
vectors; its docstring states the proof chain, the clause order and which
thread runs what.
"""

from __future__ import annotations

import math
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from . import graph, linalg, spectra
from .blowup import blown_adjacency, reconcile, substitution_set
from .linalg import all_ones, identity, kron, unit_vector
from .tiling import Tiling

__all__ = [
    "EigenSpace",
    "EigenFamily",
    "EigenBasisReport",
    "VerificationFailure",
    "kj_basis",
    "eigenvector_basis",
    "layer_eigenspaces",
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
    blown eigenvalue.
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


def eigenvector_basis(a) -> list[EigenSpace]:
    """Maximal independent eigenvector sets of a symmetric integer matrix,
    ascending by eigenvalue.

    Every integer eigenvalue gets its exact rational-kernel basis from
    `linalg.integer_eigenspaces` (n <= 512, or any n with a spectrum proven
    integral), which alone decides which eigenvalues are exact.  The
    orthogonal complement of those vectors is invariant under a and holds
    the non-integer eigenpairs; `linalg._float_eigen_pairs`, an `eigh` on
    it, gives them, one vector each, flagged approximate and held to its
    residual contract.  The union spans the whole space.  a is checked once,
    by `linalg.integer_eigenspaces`.
    """
    spaces = [
        EigenSpace(lam, tuple(sorted(vecs, key=tuple)), True)
        for lam, vecs in linalg.integer_eigenspaces(a)
    ]
    a = np.asarray(a, dtype=object)  # checked: symmetric, Python ints
    exact = [x for s in spaces for x in s.vectors]
    if len(exact) < a.shape[0]:
        w, v = linalg._float_eigen_pairs(a, exact=exact)
        spaces.extend(EigenSpace(float(lam), (v[:, i].copy(),), False) for i, lam in enumerate(w))
    spaces.sort(key=lambda s: (float(s.value), not s.exact))
    return spaces


def _line_parts(t: Tiling, axis: graph.Axis):
    """For each grid row (axis "row") or column ("column"), the cells of
    each block it crosses, ascending, the parts in order of their first
    cell.  The line induces a complete multipartite graph on those parts
    in l_h or l_v, and the layer is the disjoint union of the lines."""
    m = t.m
    for i in range(m):
        cells = [i * m + j for j in range(m)] if axis == "row" else [j * m + i for j in range(m)]
        parts: dict[int, list[int]] = {}
        for c in cells:
            parts.setdefault(t.block_of[c], []).append(c)
        yield list(parts.values())


def _secular_roots(counts: dict[int, int]) -> list[int | None]:
    """The integer roots of g(x) = prod_a (x + a) - sum_a n_a a prod_{b != a}
    (x + b) over the distinct part sizes a, n_a = counts[a] parts of each:
    for each interval between consecutive -a, ascending, and then above
    -a_min, the root g has there (exactly one: sum_a n_a a / (x + a) falls
    from +inf to -inf, or to 0 on the last, and g = 0 where it is 1), or
    None when it is not an integer.  Decided by evaluating g exactly at
    every integer of the interval; the last one ends below n = sum n_a a,
    which bounds every eigenvalue."""
    sizes = sorted(counts, reverse=True)
    u = [counts[a] * a for a in sizes]

    def g(x: int) -> int:
        factors = [x + a for a in sizes]
        return math.prod(factors) - sum(
            ua * math.prod(factors[:i] + factors[i + 1:]) for i, ua in enumerate(u)
        )

    ends = [-a for a in sizes] + [sum(u)]
    return [next((x for x in range(lo + 1, hi) if g(x) == 0), None)
            for lo, hi in zip(ends, ends[1:])]


def _multipartite_pairs(parts: list[list[int]], n: int) -> list[tuple]:
    """(value, vector, exact) for a basis of eigenvectors of the complete
    multipartite graph whose parts are the index lists `parts` (ascending,
    ordered by first index), as n-vectors zero off the parts:
      - e_first - e_j inside each part, value 0;
      - 1_{P_1} - 1_{P_j} over the parts P_1, P_2, ... of equal size a,
        value -a;
      - one vector per root lam of `_secular_roots`, prod_{b != a} (lam + b)
        on every part of size a.
    An integer root gives a primitive integer vector whose first nonzero
    entry is positive.  Otherwise its value is the i-th eigenvalue of the
    d x d matrix sqrt(u) sqrt(u)^T - diag(a), u_a = n_a a, which is g's i-th
    root, and its vector is a unit float vector, flagged approximate; a
    LAPACK failure there raises ConvergenceError."""
    by_size: dict[int, list[list[int]]] = {}
    for part in parts:
        by_size.setdefault(len(part), []).append(part)
    out = []

    def difference(plus, minus):
        vec = np.full(n, 0, dtype=object)
        vec[plus], vec[minus] = 1, -1
        return vec

    for part in parts:
        out.extend((0, difference(part[0], c), True) for c in part[1:])
    for a, same in by_size.items():
        out.extend((-a, difference(same[0], other), True) for other in same[1:])
    sizes = sorted(by_size, reverse=True)
    roots = _secular_roots({a: len(same) for a, same in by_size.items()})
    if None in roots:
        r = np.sqrt([len(by_size[a]) * a for a in sizes])
        try:
            approx = np.linalg.eigvalsh(np.outer(r, r) - np.diag(np.array(sizes, dtype=float)))
        except np.linalg.LinAlgError as exc:
            raise linalg.ConvergenceError(f"LAPACK failed: {exc}") from exc
    for i, lam in enumerate(roots):
        exact = lam is not None
        if not exact:
            lam = float(approx[i])
        on = {a: math.prod(lam + b for b in sizes if b != a) for a in sizes}
        vec = np.full(n, 0, dtype=object if exact else float)
        for part in parts:
            vec[part] = on[len(part)]
        if exact:
            vec //= math.gcd(*on.values()) * (1 if on[len(parts[0])] > 0 else -1)
        else:
            vec /= np.linalg.norm(vec)
        out.append((lam, vec, exact))
    return out


def layer_eigenspaces(t: Tiling, axis: graph.Axis) -> list[EigenSpace]:
    """Maximal independent eigenvector sets of l_h (axis "row") or l_v
    ("column"), ascending by eigenvalue as from `eigenvector_basis`, in
    closed form: each line is a complete multipartite graph on the blocks
    it crosses (`_multipartite_pairs`).  No kernel, scan or size limit;
    exact integer roots decide which vectors are exact."""
    exact: dict[int, list[np.ndarray]] = {}
    spaces = []
    for parts in _line_parts(t, axis):
        for lam, vec, is_exact in _multipartite_pairs(parts, t.n_cells):
            if is_exact:
                exact.setdefault(lam, []).append(vec)
            else:
                spaces.append(EigenSpace(lam, (vec,), False))
    spaces.extend(EigenSpace(lam, tuple(vecs), True) for lam, vecs in exact.items())
    spaces.sort(key=lambda s: (float(s.value), not s.exact))
    return spaces


def _family_table(k: int) -> tuple:
    """The blow-up structure theorem, one row per family: (kind, the
    k^2-vectors each seed eigenvector is tensored with, their eigenvalues
    (beta, eta, nu, delta) under B, H, V and D); the module docstring
    states what the coefficients give the seeds and their values."""
    kj = kj_basis(k)
    ones_k = all_ones(k)
    return (
        ("XV", [kron(ones_k, y) for y in kj], (0, 0, k, -1)),
        ("XH", [kron(y, ones_k) for y in kj], (0, k, 0, -1)),
        ("XE", [kron(y, z) for y in kj for z in kj], (0, 0, 0, -1)),
        ("XM", [all_ones(k * k)], _m_coefficients(k)),
    )


def _m_coefficients(k: int) -> tuple[int, int, int, int]:
    """XM's (beta, eta, nu, delta): its seed operator is
    M = k^2 l_b + k l_h + k l_v, and its values are shifted by k^2 - 1."""
    return (k * k, k, k, k * k - 1)


def _seed_operator(d: graph.LayerDecomposition, coefficients) -> np.ndarray:
    """S = beta l_b + eta l_h + nu l_v, the N x N seed operator of the
    family with these (beta, eta, nu, delta)."""
    beta, eta, nu, _ = coefficients
    return beta * d.l_b + eta * d.l_h + nu * d.l_v


def _seed_spaces(t: Tiling, coefficients) -> list[EigenSpace]:
    """Maximal independent eigenvector sets of `_seed_operator`, valued
    under it.  S = 0 takes the unit vectors, value 0; S = c l_h or c l_v
    takes the closed form of that layer (`layer_eigenspaces`), values
    scaled by c; any other S (M) goes through `eigenvector_basis`, its
    candidate scan and exact kernels."""
    beta, eta, nu, _ = coefficients
    if beta or (eta and nu):
        return eigenvector_basis(_seed_operator(graph.layers(t), coefficients))
    if eta or nu:
        c, axis = (eta, "row") if eta else (nu, "column")
        return [EigenSpace(c * s.value, s.vectors, s.exact) for s in layer_eigenspaces(t, axis)]
    return [EigenSpace(0, tuple(unit_vector(t.n_cells, i) for i in range(t.n_cells)), True)]


def build_families(t: Tiling, k: int) -> tuple[EigenFamily, EigenFamily, EigenFamily, EigenFamily]:
    """Assemble the four eigenvector families of the k-fold blow-up, each
    as its seed eigenspaces (`_seed_spaces`, valued at the blow-up
    eigenvalue) and tails.

    For k = 1 the first three families are empty (ker(J_1) is trivial) and
    XM alone is a full eigenbasis of the original adjacency.
    """
    families = []
    for kind, tails, coefficients in _family_table(k):
        seeds = _seed_spaces(t, coefficients) if tails else []
        spaces = tuple(EigenSpace(s.value + coefficients[3], s.vectors, s.exact) for s in seeds)
        families.append(EigenFamily(kind, spaces, tuple(tails), coefficients))
    return tuple(families)  # type: ignore[return-value]


def blowup_is_integral(t: Tiling, k: int) -> bool:
    """True iff the k-fold blow-up of t has an integral spectrum.

    Decided on the seed operators, never on the k^2 N blown matrix: the
    blown spectrum is the union of spec S_f + delta_f over the nonempty
    families (k l_v, k l_h and 0 for k > 1, and M), so it is integral iff
    every such S_f is.  l_v and l_h are integral iff every secular root of
    every line is an integer (`_secular_roots`); M's exact spectrum decides
    the rest.
    """
    if k > 1 and any(None in _secular_roots(Counter(map(len, parts)))
                     for axis in ("column", "row") for parts in _line_parts(t, axis)):
        return False
    m = _seed_operator(graph.layers(t), _m_coefficients(k))
    return spectra.exact_spectrum(m).is_integral


def _predicted(families) -> tuple:
    """The families' eigenvalues as one multiset, sorted by value; a stable
    sort keeps the family order (XV, XH, XE, XM) among equal values."""
    return tuple(sorted((v for fam in families for v in fam.eigenvalues), key=float))


def predicted_spectrum(t: Tiling, k: int) -> tuple:
    """Predicted eigenvalue multiset of the k-fold blow-up, sorted: the
    eigenvalues of `build_families(t, k)`, each a seed's S-value plus its
    family's delta.  Exact entries are ints, approximate ones floats."""
    return _predicted(build_families(t, k))


def _check_tails(fam: EigenFamily, subs) -> None:
    """Raise unless S w = c w for every tail w of the family and every
    factor S of B, H, V, D with its coefficient c; names the first tail and
    factor that fail."""
    for j, w in enumerate(fam.tails):
        for name, mat, c in zip("BHVD", (subs.b, subs.h, subs.v, subs.d), fam.coefficients):
            if np.any(mat @ w != c * w):
                raise VerificationFailure(
                    "eigenvector-residual", f"{fam.kind} tail {j}: {name} w != {c} w"
                )


def _max_residual(families, d, subs, fro: float) -> float:
    """Eigenvector clause, at the factor level: raise unless every tail
    passes `_check_tails` and every seed vector x of a space valued mu has
    E x = mu x, E = beta l_b + eta l_h + nu l_v + delta I the family's N x N
    operator; then every blown vector x (x) w is an eigenvector (see
    `verify`).  Exact seeds must satisfy it exactly (`linalg.eigen_mismatch`),
    approximate ones within linalg.RESIDUAL_TOL * fro * ||x (x) w||, fro =
    ||blown||_F, and the residual of x (x) w is ||(E - mu) x|| * ||w||.
    Returns the largest residual of an approximate blown vector (0.0 when
    all are exact).  Families, then seed vectors, are checked in order, and
    the first failure is named; a failing seed vector is named as its first
    blown vector is."""
    n = d.l_b.shape[0]
    max_residual = 0.0
    for fam in families:
        if not len(fam):
            continue
        _check_tails(fam, subs)
        e = _seed_operator(d, fam.coefficients) + fam.coefficients[3] * identity(n)
        e_f = e.astype(float)
        w_norms = [float(np.linalg.norm(np.asarray(w, dtype=float))) for w in fam.tails]
        seeds = [(x, s.value, s.exact) for s in fam.spaces for x in s.vectors]
        exact = [(x, mu) for x, mu, is_exact in seeds if is_exact]
        # one exact check for all of the family's exact seeds, read in order
        mismatch = iter(linalg.eigen_mismatch(e, *zip(*exact)) if exact else ())
        for x, mu, is_exact in seeds:
            if is_exact:
                if next(mismatch):
                    raise VerificationFailure(
                        "eigenvector-residual", f"{fam.kind} vector for eigenvalue {mu} is not exact"
                    )
                continue
            xf = np.asarray(x, dtype=float)
            r = float(np.linalg.norm(e_f @ xf - mu * xf))
            res = r * w_norms[0]
            allowed = linalg.RESIDUAL_TOL * fro * float(np.linalg.norm(xf)) * w_norms[0]
            if res > allowed:
                raise VerificationFailure(
                    "eigenvector-residual",
                    f"{fam.kind} eigenvalue {mu}: residual {res:.3e} > {allowed:.3e}",
                )
            max_residual = max(max_residual, r * max(w_norms))
    return max_residual


def _seed_rank(fam: EigenFamily) -> int:
    """rank X_f: exact when every seed is, else an SVD with a relative
    1e-8 threshold."""
    xs = [x for s in fam.spaces for x in s.vectors]
    if all(s.exact for s in fam.spaces):
        return linalg.rank(xs)
    sing = np.linalg.svd(np.array(xs, dtype=float), compute_uv=False)
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
    total_rank = sum(_seed_rank(fam) * linalg.rank(fam.tails) for fam in present)
    if total_rank != dim:
        raise VerificationFailure("basis-rank", f"rank {total_rank} != {dim}")
    return total_rank


def _factor_clauses(
    t: Tiling, k: int, blown: np.ndarray
) -> tuple[tuple[EigenFamily, ...], float, int]:
    """Reconciliation, the families and the two factor-level clauses:
    (families, largest approximate residual, rank of the blown stack)."""
    if not reconcile(t, k, blown):
        raise VerificationFailure("direct and Kronecker constructions differ")
    # reconciled, blown is a 0/1 adjacency, so ||blown||_F^2 counts its ones
    fro = math.sqrt(np.count_nonzero(blown))
    families = build_families(t, k)
    max_residual = _max_residual(families, graph.layers(t), substitution_set(k), fro)
    return families, max_residual, _basis_rank(families, k * k * t.n_cells)


# predicted and oracle eigenvalues must agree this closely; read at call time
_SPECTRUM_TOL = 1e-6


def verify(t: Tiling, k: int, blown: np.ndarray | None = None) -> EigenBasisReport:
    """Verify the eigenbasis construction against the blown-up graph.

    Checks, in order: `blowup.reconcile` ties the directly built graph to
    the Kronecker-route blown matrix (a failure's clause is the whole
    message, "direct and Kronecker constructions differ"); every family
    vector is an eigenvector for its predicted eigenvalue (exactly for
    integer-path vectors, within linalg.RESIDUAL_TOL * ||A||_F * ||v|| for
    approximate ones; the first failing vector in family order is named);
    the stacked family has full rank (per family, exact integer rank when
    every seed vector is exact, an SVD with a relative 1e-8 threshold
    otherwise); the largest predicted eigenvalue comes from XM, is at least
    m*k^2 - 1 and matches the oracle maximum; and the predicted multiset --
    the families' eigenvalues -- matches the float oracle pairwise within
    _SPECTRUM_TOL.  Raises VerificationFailure naming the first violated
    clause.  `blown`, when given, must be `blown_adjacency(t, k)`; it is
    built here otherwise.

    The eigenvector and rank clauses never form a k^2 N-vector.  The proof
    chain:
    - `blowup.reconcile` ties the graph built directly from the blown-up
      tiling to blown_adjacency(t, k) = l_b (x) B + l_h (x) H + l_v (x) V
      + I (x) D;
    - each tail satisfies B w = beta w, H w = eta w, V w = nu w and
      D w = delta w, its family's coefficients in `_family_table` (listed
      in the module docstring).  By the mixed-product rule
      blown (x (x) w) = (E x) (x) w with E = beta l_b + eta l_h + nu l_v
      + delta I, so the N x N check E x = mu x makes x (x) w an
      eigenvector for mu, with residual ||(E - mu) x|| * ||w||.  For an
      exact seed the check is a proof, not a tolerance:
      `linalg.eigen_mismatch` decides E X = X diag(mu) exactly;
    - tails of different families are orthogonal, so (x (x) w) . (x' (x) w')
      = (x . x')(w . w') = 0 across families, and the stack's rank is the
      sum of the families' ranks;
    - rank(X (x) W) = rank X * rank W (Van Loan, "The ubiquitous Kronecker
      product", J. Comput. Appl. Math. 123, 2000), for the N x N seed
      stack X and the k^2-vector tails W of each family.

    Threads: the calling thread first runs the limit gate
    (`linalg._candidate_limits` on M: its size and scan cap, and past 512
    its annihilation certificate), so an input past a limit is refused
    before any blown matrix, kernel or oracle.  It then builds the blown
    matrix and runs the float oracle, `linalg.float_eigen`: a values-only
    `eigvalsh` on the k^2 N blown matrix, held to its power-sum check, that
    spends most of its time in LAPACK with the GIL released, while one
    worker thread runs `reconcile`, the families (XV and XH in closed form,
    M scanned and kernelled) and the two factor-level clauses; both are
    joined before the spectrum clauses.  When both fail, the worker's
    VerificationFailure is raised, not the oracle's ConvergenceError, so
    failures come in the order listed above.
    """
    linalg._candidate_limits(_seed_operator(graph.layers(t), _m_coefficients(k)))
    up_a = blown_adjacency(t, k) if blown is None else blown
    with ThreadPoolExecutor(max_workers=1) as pool:
        clauses = pool.submit(_factor_clauses, t, k, up_a)
        try:
            oracle = tuple(linalg.float_eigen(up_a))
        except Exception:
            clauses.result()  # a failed worker clause is reported first
            raise
        families, max_residual, total_rank = clauses.result()

    predicted = _predicted(families)

    max_predicted = max(float(v) for v in families[3].eigenvalues)
    overall_max = max(float(v) for v in predicted)
    if max_predicted < overall_max - _SPECTRUM_TOL:
        raise VerificationFailure(
            "largest-not-from-XM",
            f"XM max {max_predicted} below overall {overall_max}",
        )
    # block size >= m, so M has k^2(J_s - I_s) as a principal submatrix and
    # interlacing puts its top eigenvalue above (m-1)k^2
    lower = t.m * k * k - 1
    if max_predicted < lower - _SPECTRUM_TOL:
        raise VerificationFailure(
            "largest-eigenvalue-lower-bound",
            f"max {max_predicted} < {lower}",
        )
    if abs(max_predicted - oracle[-1]) > _SPECTRUM_TOL:
        raise VerificationFailure(
            "largest-eigenvalue-mismatch",
            f"predicted {max_predicted} vs oracle {oracle[-1]}",
        )

    spectrum_max_error = max(abs(float(p) - o) for p, o in zip(predicted, oracle))
    if spectrum_max_error > _SPECTRUM_TOL:
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
