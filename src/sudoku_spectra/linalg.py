"""Exact dense linear algebra over Python integers.

Matrices and vectors are numpy arrays with ``dtype=object`` holding Python
ints only, so the usual numpy operators -- ``@``, ``+``, scalar ``*``,
``.T``, ``np.array_equal`` -- are exact and unbounded; shape errors surface
as numpy's usual exceptions; `rank` and `rational_kernel` raise TypeError
on any other entry.  Floating point enters only through the eigenvalue
oracle `float_eigen`, which is kept as an independent cross-check of the
exact path and never feeds integrality decisions.

Polynomials are tuples of Python ints, coefficients in ascending degree
order.
"""

from __future__ import annotations

import operator
from math import comb, gcd, isqrt

import numpy as np

__all__ = [
    "DimensionMismatch",
    "ConvergenceError",
    "int_matrix",
    "identity",
    "ones_matrix",
    "zeros_matrix",
    "all_ones",
    "unit_vector",
    "kron",
    "gershgorin_bound",
    "char_poly",
    "integer_roots",
    "poly_mul",
    "rational_kernel",
    "rank",
    "float_eigen",
]


class DimensionMismatch(ValueError):
    """Operand shapes do not admit the requested operation."""


class ConvergenceError(RuntimeError):
    """The floating-point eigensolver missed its residual target."""


# ---------------------------------------------------------------------------
# constructors


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


def identity(n: int) -> np.ndarray:
    arr = zeros_matrix(n)
    for i in range(n):
        arr[i, i] = 1
    return arr


def ones_matrix(n: int) -> np.ndarray:
    return np.full((n, n), 1, dtype=object)


def zeros_matrix(n: int) -> np.ndarray:
    return np.full((n, n), 0, dtype=object)


def all_ones(n: int) -> np.ndarray:
    """All-ones vector."""
    return np.full(n, 1, dtype=object)


def unit_vector(n: int, i: int) -> np.ndarray:
    v = np.full(n, 0, dtype=object)
    v[i] = 1
    return v


def kron(a, b) -> np.ndarray:
    """Kronecker product (matrices or vectors), exact over object dtype."""
    return np.kron(np.asarray(a, dtype=object), np.asarray(b, dtype=object))


def gershgorin_bound(a) -> int:
    """max_i sum_j |a_ij|; every real eigenvalue lies in [-bound, bound]."""
    return max(int(sum(abs(x) for x in row)) for row in a)


def _require_square(a) -> np.ndarray:
    a = np.asarray(a, dtype=object)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"square matrix required, got shape {a.shape}")
    return a


def _require_ints(a) -> np.ndarray:
    a = np.asarray(a, dtype=object)
    for x in a.flat:
        if type(x) is not int:
            raise TypeError(f"Python int entries required, got {type(x).__name__}")
    return a


def _require_symmetric(a) -> np.ndarray:
    a = _require_square(a)
    if not np.array_equal(a, a.T):
        raise ValueError("symmetric matrix required")
    return a


# ---------------------------------------------------------------------------
# exact characteristic polynomial
#
# det(xI - A) is computed per prime p < 2**27 on A mod p (Hessenberg
# reduction, then the standard recurrence for Hessenberg characteristic
# polynomials) and the integer coefficients are recovered by CRT.  The
# prime count is driven by a provable coefficient bound from the Frobenius
# norm (Schur's inequality, then Maclaurin's; see `_coeff_bound`), so the
# result is exact; reduction mod p commutes with the characteristic
# polynomial, hence there are no unlucky primes.  All per-prime work runs
# vectorized in int64 (27-bit primes keep products and length<=512 dot
# products inside 63 bits).

_PRIME_LIMIT = (1 << 27) - 1
_primes_cache: list[int] = []


def _is_prime(n: int) -> bool:
    if n % 2 == 0:
        return n == 2
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7):  # deterministic below 3.2e9
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _primes(count: int) -> list[int]:
    p = _primes_cache[-1] - 2 if _primes_cache else _PRIME_LIMIT
    while len(_primes_cache) < count:
        if _is_prime(p):
            _primes_cache.append(p)
        p -= 2
    return _primes_cache[:count]


def _coeff_bound(a) -> int:
    """Bound on |coefficients| of char_poly(a): max_j C(n,j) * r^j, r^2*n >= ||a||_F^2.

    The coefficient of x^(n-j) is +-e_j(lambda), so its size is at most
    e_j(|lambda|) <= C(n,j) * (sum|lambda_i| / n)^j by Maclaurin's
    inequality, and sum|lambda_i| / n <= sqrt(sum|lambda_i|^2 / n) by the
    power-mean inequality.  Schur's inequality sum|lambda_i|^2 <= ||a||_F^2
    holds for every complex square matrix (the Frobenius norm of a Schur
    form T = Q* a Q is ||a||_F and its diagonal holds the eigenvalues), so
    non-symmetric input is covered and r = ceil(sqrt(||a||_F^2 / n))
    bounds the mean.
    """
    n = a.shape[0]
    fro2 = sum(int(x) * int(x) for x in a.flat)
    if fro2 == 0:
        return 1
    mean2 = -(-fro2 // n)  # r^2 * n >= fro2 iff r^2 >= ceil(fro2 / n)
    r = isqrt(mean2 - 1) + 1
    return max(comb(n, j) * r**j for j in range(n + 1))


def _charpoly_mod(a_mod: np.ndarray, p: int) -> np.ndarray:
    """char poly of a matrix over F_p, coefficients ascending, in [0, p).

    Reduces a_mod (int64, entries in [0, p)) to Hessenberg form in place.
    """
    h = a_mod
    n = h.shape[0]
    for j in range(n - 2):
        nz = np.flatnonzero(h[j + 1:, j])
        if nz.size == 0:
            continue
        piv = j + 1 + int(nz[0])
        # rows j+1.. are already zero left of column j, so row operations
        # touch columns j.. only; column operations need every row
        if piv != j + 1:
            h[[j + 1, piv], j:] = h[[piv, j + 1], j:]
            h[:, [j + 1, piv]] = h[:, [piv, j + 1]]
        inv = pow(int(h[j + 1, j]), -1, p)
        f = h[j + 2:, j] * inv % p
        # a row whose multiplier is 0 mod p is left unchanged
        live = np.flatnonzero(f)
        if live.size:
            rows, f = j + 2 + live, f[live]
            h[rows, j:] = (h[rows, j:] - f[:, None] * h[j + 1, j:]) % p
            h[:, j + 1] = (h[:, j + 1] + h[:, rows] @ f) % p
    # p_i = (x - h_ii) p_{i-1} - sum_j h_{j,i} (prod of subdiagonal) p_{j-1}
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


def char_poly(a) -> tuple[int, ...]:
    """Monic characteristic polynomial det(xI - a), exact, ascending coeffs."""
    a = _require_square(a)
    n = a.shape[0]
    if n > 512:
        # 27-bit primes guarantee int64-safe dot products only up to n=512
        raise DimensionMismatch(f"char_poly supports n <= 512, got {n}")
    target = 2 * _coeff_bound(a) + 1
    try:
        # int64 once, so each prime reduces with one vectorized %
        a_int = a.astype(np.int64)
    except OverflowError:
        a_int = a  # entries past 63 bits are reduced on the object array
    coeffs = [0] * (n + 1)
    modulus = 1
    i = 0
    while modulus < target:
        p = _primes(i + 1)[i]
        i += 1
        residues = _charpoly_mod((a_int % p).astype(np.int64, copy=False), p)
        if modulus == 1:
            coeffs = [int(r) for r in residues]
        else:
            inv = pow(modulus % p, -1, p)
            for idx in range(n + 1):
                t = (int(residues[idx]) - coeffs[idx]) * inv % p
                coeffs[idx] += modulus * t
        modulus *= p
    half = modulus // 2
    return tuple(c - modulus if c > half else c for c in coeffs)


# ---------------------------------------------------------------------------
# polynomials


def poly_mul(p, q) -> tuple[int, ...]:
    out = [0] * (len(p) + len(q) - 1)
    for i, pi in enumerate(p):
        if pi:
            for j, qj in enumerate(q):
                out[i + j] += pi * qj
    return tuple(out)


def _deflate(coeffs: list[int], r: int) -> tuple[list[int], int]:
    """Divide by (x - r); returns (quotient ascending, remainder)."""
    deg = len(coeffs) - 1
    q = [0] * deg
    acc = coeffs[deg]
    for i in range(deg - 1, -1, -1):
        q[i] = acc
        acc = coeffs[i] + r * acc
    return q, acc


def integer_roots(
    p, max_abs_root: int | None = None
) -> tuple[list[tuple[int, int]], tuple[int, ...]]:
    """All integer roots of a monic polynomial, with multiplicities.

    Candidates are the integers in [-max_abs_root, max_abs_root] dividing
    the constant term; for eigenvalue work callers pass the Gershgorin
    row-sum bound of the matrix.  Without a bound the Cauchy bound
    1 + max|c_i| is used, which is refused when impractically large.
    Returns (sorted (root, multiplicity) list, residual polynomial); the
    residual has no integer roots and
    prod (x-r)^mult * residual == p exactly.
    """
    coeffs = [operator.index(c) for c in p]
    if not coeffs or coeffs[-1] != 1:
        raise ValueError("monic polynomial required")
    roots: list[tuple[int, int]] = []
    mult0 = next(i for i, c in enumerate(coeffs) if c != 0)
    if mult0:
        roots.append((0, mult0))
        coeffs = coeffs[mult0:]
    if max_abs_root is None:
        bound = 1 + max(abs(c) for c in coeffs)
        if bound > 10**6:
            raise ValueError("coefficients too large; pass max_abs_root")
    else:
        bound = max_abs_root
    for r in range(-bound, bound + 1):
        if r == 0 or len(coeffs) == 1:
            continue
        if coeffs[0] % r:
            continue
        mult = 0
        while len(coeffs) > 1:
            q, rem = _deflate(coeffs, r)
            if rem != 0:
                break
            coeffs = q
            mult += 1
        if mult:
            roots.append((r, mult))
    return sorted(roots), tuple(coeffs)


# ---------------------------------------------------------------------------
# exact kernels and rank
#
# Kernels come from fraction-free (Bareiss) elimination over the integers.
# `rank` first eliminates mod one 27-bit prime in int64, as the Hessenberg
# step does: the pivot swap and the row update touch columns c.. only, and
# only rows whose multiplier is nonzero mod p, so a sparse matrix such as a
# stacked eigenvector family costs little more than its nonzeros.  Bareiss
# decides only when that rank falls short of full.


def _bareiss_echelon(mat: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Row echelon form by fraction-free (Bareiss) elimination, in place;
    returns (mat, pivot cols)."""
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


def _rank_mod(mat: np.ndarray, p: int) -> int:
    h = (mat % p).astype(np.int64)
    n_rows, n_cols = h.shape
    r = 0
    for c in range(n_cols):
        nz = np.flatnonzero(h[r:, c])
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        # rows r.. are already zero left of column c, so the swap and the
        # update touch columns c.. only
        if piv != r:
            h[[r, piv], c:] = h[[piv, r], c:]
        inv = pow(int(h[r, c]), -1, p)
        f = h[r + 1:, c] * inv % p
        # a row whose multiplier is 0 mod p is left unchanged
        live = np.flatnonzero(f)
        if live.size:
            rows = r + 1 + live
            h[rows, c:] = (h[rows, c:] - f[live, None] * h[r, c:]) % p
        r += 1
        if r == n_rows:
            break
    return r


def rank(a) -> int:
    """Exact rank over the rationals of an integer matrix.

    Entries must be Python ints (TypeError otherwise).  A single-prime
    modular elimination runs first; it updates only columns from the pivot
    on and only rows with a nonzero multiplier mod p, which eliminates the
    same matrix as whole-row updates.  Rank mod p never exceeds the
    rational rank, so a full-rank result is already a certificate and the
    fraction-free (Bareiss) elimination is only needed otherwise.
    """
    mat = _require_ints(a)
    if mat.size == 0:
        return 0
    p = _primes(1)[0]
    modular = _rank_mod(mat, p)
    if modular == min(mat.shape):
        return modular
    _, pivots = _bareiss_echelon(mat.copy())
    return len(pivots)


def rational_kernel(a, lam: int) -> list[np.ndarray]:
    """Exact basis of ker(a - lam*I), as primitive integer vectors.

    Entries of a must be Python ints (TypeError otherwise).  Empty iff lam
    is not an eigenvalue.  Basis vectors are indexed by the free columns of
    the echelon form (ascending) and sign-normalized so the first nonzero
    entry is positive.  Back-substitution stays in the integers: before
    solving piv * x[pc] = -s the partial vector is scaled by piv / g, with
    g = gcd(s, piv), and x[pc] = -s / g.  Since gcd(piv / g, s / g) == 1,
    the vector stays primitive at every step and needs no final division.
    """
    a = _require_ints(_require_square(a))
    lam = operator.index(lam)
    n = a.shape[0]
    mat = a.copy()
    for i in range(n):
        mat[i, i] -= lam
    ech, pivots = _bareiss_echelon(mat)
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


# ---------------------------------------------------------------------------
# floating-point oracle


def _float_eigen_pairs(a, tol: float = 1e-8) -> tuple[np.ndarray, np.ndarray]:
    a = _require_symmetric(a)
    af = np.asarray(a, dtype=float)
    w, v = np.linalg.eigh(af)
    fro = np.linalg.norm(af)
    resid = np.linalg.norm(af @ v - v * w, axis=0)
    if np.any(resid > tol * fro):
        raise ConvergenceError(
            f"eigenvector residual {resid.max():.3e} exceeds {tol:.1e} * ||a||_F"
        )
    return w, v


def float_eigen(a, tol: float = 1e-8) -> list[float]:
    """All eigenvalues of a symmetric integer matrix, ascending.

    Backed by LAPACK's dense symmetric solver; the residual contract
    ||a v - lambda v|| <= tol * ||a||_F is verified explicitly for every
    computed eigenvector and violation raises ConvergenceError.  Advisory
    only: integrality verdicts always come from the exact path.
    """
    w, _ = _float_eigen_pairs(a, tol)
    return [float(x) for x in w]
