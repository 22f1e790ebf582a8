"""Independent routes kept as test oracles.

None is used by the library, whose one exact elimination is Gauss-Jordan
mod a prime (`linalg._rref_mod`):
- `charpoly_berkowitz` cross-checks the multi-modular `char_poly`;
- `bareiss_det` gives det(lam*I - A) for checking characteristic-polynomial
  evaluations;
- `bareiss_echelon` is fraction-free elimination over the integers: its
  pivot count is the reference rank for `linalg.rank`, and
  `kernel_bareiss` solves on it for the kernel the modular
  `linalg.rational_kernel` must reproduce byte for byte;
- `rank_mod_dense` is the whole-row modular elimination whose rank
  `linalg._rref_mod`'s live-row updates must reproduce;
- `hessenberg_charpoly_scalar` is the one-term-at-a-time recurrence the
  table recurrence of `linalg._charpoly_mod` must reproduce;
- `substitute_template` builds the blow-up symbol by symbol as the
  reference for `blown_adjacency`;
- `dense_max_residual` and `dense_basis_rank` are the eigenvector and rank
  clauses on the expanded k^2 N-vectors of the blow-up families
  (`blown_vectors`), which the factor-level clauses of `eigenbasis.verify`
  must agree with.
- `condition_iii_cells` is condition (iii) as four loops over cell pairs,
  the reference for the broadcast `integrality.check_condition_iii`;
- `scaled_projection` builds a partition's class-indicator projection as a
  dense integer matrix, for the commutation test of the partition lattice
  in `spectra`;
`spectrum_charpoly`, `poly_eval`, `trace` and `eigenvalue_sum` read a
spectrum back as the quantities `char_poly` and the float oracle are
checked against; `int_matrix` and `zeros_matrix` build the tests'
object-int matrices.
"""

import operator
from math import gcd, lcm

import numpy as np

from sudoku_spectra.blowup import substitution_set
from sudoku_spectra.eigenbasis import VerificationFailure
from sudoku_spectra.graph import template
from sudoku_spectra import linalg
from sudoku_spectra.linalg import (
    DimensionMismatch,
    _require_ints,
    _require_square,
    poly_mul,
    rank,
)


def int_matrix(rows) -> np.ndarray:
    """Validate and convert nested iterables to a square object-int matrix."""
    data = [[operator.index(x) for x in row] for row in rows]
    n = len(data)
    if any(len(row) != n for row in data):
        raise DimensionMismatch("square matrix required")
    arr = np.empty((n, n), dtype=object)
    for i, row in enumerate(data):
        arr[i, :] = row
    return arr


def zeros_matrix(n: int) -> np.ndarray:
    """The n x n zero matrix of Python ints."""
    return np.full((n, n), 0, dtype=object)


def charpoly_berkowitz(a) -> tuple[int, ...]:
    """Division-free characteristic polynomial (slow); ascending coeffs."""
    a = _require_square(a)
    n = a.shape[0]
    poly = [1, -int(a[0, 0])]  # descending
    for k in range(1, n):
        r = a[k, :k]
        c = a[:k, k]
        sub = a[:k, :k]
        dt = [1, -int(a[k, k])]
        v = c
        for t in range(k):
            dt.append(-int(r @ v))
            if t < k - 1:
                v = sub @ v
        new = [0] * (k + 2)
        for d, tc in enumerate(dt):
            if tc:
                for jj, pc in enumerate(poly):
                    if d + jj < k + 2:
                        new[d + jj] += tc * pc
        poly = new
    return tuple(reversed(poly))


def bareiss_det(a) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    a = _require_square(a)
    mat = a.copy()
    n = mat.shape[0]
    denom = 1
    sign = 1
    for c in range(n):
        piv_row = next((i for i in range(c, n) if mat[i, c] != 0), None)
        if piv_row is None:
            return 0
        if piv_row != c:
            mat[[c, piv_row]] = mat[[piv_row, c]]
            sign = -sign
        piv = mat[c, c]
        if c + 1 < n:
            block = mat[c + 1:, c:]
            mat[c + 1:, c:] = (piv * block - np.outer(mat[c + 1:, c], mat[c, c:])) // denom
        denom = piv
    return sign * int(mat[n - 1, n - 1])


def bareiss_echelon(mat: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Row echelon form by fraction-free (Bareiss) elimination, in place;
    returns (mat, pivot cols).  The number of pivots is the rank."""
    n_rows, n_cols = mat.shape
    denom = 1
    r = 0
    pivots: list[int] = []
    for c in range(n_cols):
        piv_row = next((i for i in range(r, n_rows) if mat[i, c] != 0), None)
        if piv_row is None:
            continue
        if piv_row != r:
            mat[[r, piv_row]] = mat[[piv_row, r]]
        piv = mat[r, c]
        if r + 1 < n_rows:
            block = mat[r + 1:, c:]
            mat[r + 1:, c:] = (piv * block - np.outer(mat[r + 1:, c], mat[r, c:])) // denom
        denom = piv
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return mat, pivots


def kernel_bareiss(a, lam: int) -> list[np.ndarray]:
    """Basis of ker(a - lam*I) by fraction-free (Bareiss) elimination and
    integer back-substitution, one primitive vector per free column
    (ascending), first nonzero entry positive.

    Before solving piv * x[pc] = -s the partial vector is scaled by
    piv / g, with g = gcd(s, piv), and x[pc] = -s / g.  Since
    gcd(piv / g, s / g) == 1, the vector stays primitive at every step.
    """
    a = _require_ints(_require_square(a))
    lam = operator.index(lam)
    n = a.shape[0]
    mat = a.copy()
    for i in range(n):
        mat[i, i] -= lam
    ech, pivots = bareiss_echelon(mat)
    rows = ech[: len(pivots)].tolist()
    pivot_set = set(pivots)
    basis = []
    for fc in range(n):
        if fc in pivot_set:
            continue
        x = [0] * n
        x[fc] = 1
        for ri in range(len(pivots) - 1, -1, -1):
            pc = pivots[ri]
            if pc > fc:
                continue
            row = rows[ri]
            # x is zero beyond fc
            s = 0
            for j in range(pc + 1, fc + 1):
                if x[j] and row[j]:
                    s += row[j] * x[j]
            if not s:
                continue
            piv = row[pc]
            g = gcd(s, piv)
            scale = piv // g
            if scale != 1:
                x = [v * scale for v in x]
            x[pc] = -s // g
        if next(v for v in x if v) < 0:
            x = [-v for v in x]
        vec = np.empty(n, dtype=object)
        vec[:] = x
        basis.append(vec)
    return basis


def rank_mod_dense(mat, p: int) -> int:
    """Rank mod p by Gaussian elimination that updates every row below the
    pivot, over all columns."""
    h = (np.asarray(mat, dtype=object) % p).astype(np.int64)
    n_rows, n_cols = h.shape
    r = 0
    for c in range(n_cols):
        nz = np.flatnonzero(h[r:, c])
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            h[[r, piv]] = h[[piv, r]]
        inv = pow(int(h[r, c]), -1, p)
        f = h[r + 1:, c] * inv % p
        h[r + 1:, :] = (h[r + 1:, :] - f[:, None] * h[r, :]) % p
        r += 1
        if r == n_rows:
            break
    return r


def hessenberg_charpoly_scalar(h, p: int) -> np.ndarray:
    """Characteristic polynomial mod p (ascending, in [0, p)) of an upper
    Hessenberg int64 matrix h with entries in [0, p), by the Hessenberg
    recurrence with one slice update per term.  Each update subtracts a
    single product c * p_{j-1} with both factors below p and reduces at
    once, so no int64 intermediate exceeds p^2 < 2**54."""
    n = h.shape[0]
    polys = [np.array([1], dtype=np.int64)]
    for i in range(1, n + 1):
        prev = polys[i - 1]
        cur = np.zeros(i + 1, dtype=np.int64)
        cur[1:] = prev
        d = int(h[i - 1, i - 1])
        if d:
            cur[:i] = (cur[:i] - d * prev) % p
        prod = 1
        for j in range(i - 1, 0, -1):
            prod = prod * int(h[j, j - 1]) % p
            if prod == 0:
                break
            c = int(h[j - 1, i - 1]) * prod % p
            if c:
                cur[:j] = (cur[:j] - c * polys[j - 1]) % p
        polys.append(cur % p)
    return polys[n]


def substitute_template(t, k: int) -> np.ndarray:
    """Blow-up adjacency by literal symbol-by-symbol block substitution."""
    tmpl = template(t)
    s = substitution_set(k)
    block = {"H": s.h, "V": s.v, "B": s.b, "D": s.d, "N": zeros_matrix(k * k)}
    n = t.n_cells
    kk = k * k
    out = np.empty((n * kk, n * kk), dtype=object)
    for i in range(n):
        for j in range(n):
            out[i * kk:(i + 1) * kk, j * kk:(j + 1) * kk] = block[tmpl[i, j]]
    return out


def blown_vectors(fam) -> tuple[np.ndarray, ...]:
    """The k^2 N-vectors x (x) w of an `eigenbasis.EigenFamily`, for every
    seed vector x of its spaces (x-major) and every tail w (tail-minor)."""
    ws = np.array(fam.tails, dtype=object)
    out = []
    for space in fam.spaces:
        # row (a, b) is kron(x_a, w_b)
        xs = np.array(space.vectors, dtype=object)
        count = len(xs) * len(ws)
        out.extend((xs[:, None, :, None] * ws[None, :, None, :]).reshape(count, -1))
    return tuple(out)


def dense_max_residual(families, up_a: np.ndarray) -> float:
    """Eigenvector clause on the blown vectors themselves: raise
    VerificationFailure unless each family vector v is an eigenvector of
    up_a for its eigenvalue mu, exactly when v is exact and within
    linalg.RESIDUAL_TOL * ||up_a||_F * ||v|| otherwise; return the largest
    residual of the approximate ones.  The first failing vector in family
    order is named.  Exact products run in int64 when (row sum + |mu|) * max |v| <
    2**63, so nothing overflows, and on the object array otherwise."""
    up_f = np.asarray(up_a, dtype=float)
    up_i = np.asarray(up_a, dtype=np.int64)
    row_sum = int(np.abs(up_i).sum(axis=1).max())
    fro = np.linalg.norm(up_f)
    max_residual = 0.0
    for fam in families:
        for vec, mu, exact in zip(blown_vectors(fam), fam.eigenvalues, fam.exact):
            if exact:
                if (row_sum + abs(mu)) * int(np.abs(vec).max()) < 2**63:
                    v = vec.astype(np.int64)
                    ok = not np.any(up_i @ v != mu * v)
                else:
                    ok = not np.any(up_a @ vec != mu * vec)
                if not ok:
                    raise VerificationFailure(
                        "eigenvector-residual",
                        f"{fam.kind} vector for eigenvalue {mu} is not exact",
                    )
                continue
            vf = np.asarray(vec, dtype=float)
            res = float(np.linalg.norm(up_f @ vf - mu * vf))
            allowed = linalg.RESIDUAL_TOL * fro * float(np.linalg.norm(vf))
            if res > allowed:
                raise VerificationFailure(
                    "eigenvector-residual",
                    f"{fam.kind} eigenvalue {mu}: residual {res:.3e} > {allowed:.3e}",
                )
            max_residual = max(max_residual, res)
    return max_residual


def dense_basis_rank(families, dim: int) -> int:
    """Rank clause on the stacked blown vectors: raise VerificationFailure
    unless there are dim of them with rank dim (exact rank when every
    vector is exact, an SVD with a relative 1e-8 threshold otherwise);
    returns the rank."""
    stacked = [vec for fam in families for vec in blown_vectors(fam)]
    if len(stacked) != dim:
        raise VerificationFailure("basis-rank", f"{len(stacked)} vectors for dimension {dim}")
    if all(all(fam.exact) for fam in families):
        total_rank = rank(np.array(stacked, dtype=object))
    else:
        sing = np.linalg.svd(np.array(stacked, dtype=float), compute_uv=False)
        total_rank = int(np.sum(sing > 1e-8 * sing[0]))
    if total_rank != dim:
        raise VerificationFailure("basis-rank", f"rank {total_rank} != {dim}")
    return total_rank


def spectrum_charpoly(s) -> tuple[int, ...]:
    """Reassemble prod (x - lam)^mult * residual of a `Spectrum`."""
    poly = (1,)
    for lam, mult in s.integer_part:
        for _ in range(mult):
            poly = poly_mul(poly, (-lam, 1))
    return poly_mul(poly, s.residual)


def poly_eval(p, x: int) -> int:
    """Value at x of a polynomial with ascending coefficients (Horner)."""
    acc = 0
    for c in reversed(p):
        acc = acc * x + c
    return acc


def trace(a) -> int:
    return int(sum(a[i, i] for i in range(a.shape[0])))


def eigenvalue_sum(s) -> int:
    """Sum of all eigenvalues (trace) of a `Spectrum`; residual roots enter
    via the coefficient of its second-highest term."""
    total = sum(lam * mult for lam, mult in s.integer_part)
    if s.residual_degree > 0:
        total -= s.residual[-2]
    return total


def condition_iii_cells(t) -> bool:
    """Condition (iii) cell pair by cell pair: for cells (r1, c1), (r2, c2)
    in different rows and columns, the corner (r1, c2) shares a block with
    an endpoint iff the corner (r2, c1) does."""
    m = t.m
    b = t.block_of
    for r1 in range(m):
        for r2 in range(r1 + 1, m):
            for c1 in range(m):
                for c2 in range(m):
                    if c1 == c2:
                        continue
                    b1 = b[r1 * m + c1]
                    b2 = b[r2 * m + c2]
                    d1 = b[r1 * m + c2]
                    d2 = b[r2 * m + c1]
                    if (d1 in (b1, b2)) != (d2 in (b1, b2)):
                        return False
    return True


def scaled_projection(labels) -> tuple[np.ndarray, int]:
    """(L P, L) for the orthogonal projection P onto the span of the class
    indicators of a cell partition (one label per cell): P = Phi D Phi^T,
    Phi the cell-by-class indicator matrix and D the inverse class sizes,
    scaled by L, the lcm of the class sizes, to an int64 matrix."""
    _, cls, sizes = np.unique(np.asarray(labels), return_inverse=True, return_counts=True)
    scale = lcm(*sizes.tolist())
    phi = (cls[:, None] == np.arange(len(sizes))[None, :]).astype(np.int64)
    return (phi * (scale // sizes)) @ phi.T, scale
