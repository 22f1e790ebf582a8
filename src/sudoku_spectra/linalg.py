"""Exact dense linear algebra over Python integers.

Matrices and vectors are numpy arrays with ``dtype=object`` holding Python
ints only, so the usual numpy operators -- ``@``, ``+``, scalar ``*``,
``.T``, ``np.array_equal`` -- are exact and unbounded; shape errors surface
as numpy's usual exceptions; `rank` and `rational_kernel` raise TypeError
on any other entry.  Floating point enters through the eigenvalue oracle
`float_eigen`, an independent cross-check of the exact path, and through
`integral_spectrum`, whose float eigenvalues only propose the candidates
that its exact annihilation certificate then proves or rejects.

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
    "CertificateError",
    "identity",
    "ones_matrix",
    "zeros_matrix",
    "all_ones",
    "unit_vector",
    "kron",
    "gershgorin_bound",
    "char_poly",
    "integer_roots",
    "has_root_near",
    "integral_spectrum",
    "poly_mul",
    "rational_kernel",
    "rank",
    "float_eigen",
]


class DimensionMismatch(ValueError):
    """Operand shapes do not admit the requested operation."""


class ConvergenceError(RuntimeError):
    """The floating-point eigensolver missed its residual target, or its
    eigenvalues are too close to tell apart."""


class CertificateError(ArithmeticError):
    """An exact certificate contradicts itself: an internal error, never a
    property of the input."""


# ---------------------------------------------------------------------------
# constructors


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
    return int(np.abs(np.asarray(a, dtype=object)).sum(axis=1).max())


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


def _sturm_chain(p) -> list[list[int]]:
    """Sturm sequence p, p', -rem, ... of an integer polynomial (ascending
    coefficients), each remainder scaled by a positive integer.

    The pseudo-remainder multiplies by |lc| instead of lc and each member is
    divided by its (positive) content, so the chain stays in the integers
    and every member is a positive multiple of the classical one: the sign
    variations at any point are unchanged.
    """
    chain = [list(p), [i * c for i, c in enumerate(p)][1:]]
    while len(chain[-1]) > 1:
        a, b = chain[-2][:], chain[-1]
        db, lc = len(b) - 1, b[-1]
        scale, sign = abs(lc), 1 if lc > 0 else -1
        while len(a) > db:
            head, shift = a[-1], len(a) - 1 - db
            a = [scale * x for x in a]
            for i, c in enumerate(b):
                a[shift + i] -= sign * head * c
            while len(a) > 1 and a[-1] == 0:
                a.pop()
        if not any(a):
            break
        g = 0
        for c in a:
            g = gcd(g, c)
        chain.append([-c // g for c in a])
    return chain


def _sign_variations(chain, num: int, den_powers) -> int:
    """Sign changes along the chain at x = num / den_powers[1]."""
    signs = []
    for poly in chain:
        value = _value_at(poly, num, den_powers[1], den_powers)
        if value:
            signs.append(value > 0)
    return sum(x != y for x, y in zip(signs, signs[1:]))


def _value_at(poly, num: int, den: int, den_powers) -> int:
    """den**deg * poly(num / den), which has the sign of poly(num / den)
    (den > 0); den_powers[k] == den**k."""
    value = 0
    for k, c in enumerate(reversed(poly)):
        value = value * num + c * den_powers[k]
    return value


def _taylor_shift(coeffs: list[int], center: int) -> list[int]:
    """Coefficients (ascending) of p(center + y) in y."""
    out = list(coeffs)
    for i in range(len(out) - 1):
        for j in range(len(out) - 2, i - 1, -1):
            out[j] += center * out[j + 1]
    return out


def has_root_near(p, center: int, den: int) -> bool:
    """True iff the integer polynomial p (ascending coefficients) has a real
    root x with |x - center| <= 1 / den; exact, integers throughout.

    With y = x - center and p(center + y) = sum b_k y^k, the interval holds
    no root when |b_0| den^d > sum_{k>=1} |b_k| den^(d-k), since then
    |p(center + y)| >= |b_0| - sum |b_k| |y|^k > 0 for |y| <= 1 / den.  When
    that bound cannot exclude the interval, Sturm's theorem counts the
    distinct roots in it.
    """
    coeffs = [operator.index(c) for c in p]
    if den < 1:
        raise ValueError(f"den must be positive, got {den}")
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    if len(coeffs) < 2:
        return not coeffs[0]  # the zero polynomial vanishes everywhere
    d = len(coeffs) - 1
    b = _taylor_shift(coeffs, center)
    if abs(b[0]) * den**d > sum(abs(c) * den ** (d - k) for k, c in enumerate(b) if k):
        return False
    den_powers = [den**k for k in range(d + 1)]
    lo, hi = center * den - 1, center * den + 1
    if not _value_at(coeffs, lo, den, den_powers) or not _value_at(coeffs, hi, den, den_powers):
        return True
    # neither endpoint is a root, so V(lo) - V(hi) counts the roots inside
    chain = _sturm_chain(coeffs)
    return _sign_variations(chain, lo, den_powers) > _sign_variations(chain, hi, den_powers)


# ---------------------------------------------------------------------------
# integral spectra by annihilation
#
# For a symmetric integer matrix whose float eigenvalues all round to
# integers, the distinct rounded values S are only a proposal.  A is
# diagonalizable, so spec A is contained in S iff prod_{lam in S} (A - lam I)
# is 0.  Every entry of that product is at most prod (rho + |lam|) in size
# (rho the Gershgorin bound: ||A - lam I||_inf <= rho + |lam| and
# ||XY||_inf <= ||X||_inf ||Y||_inf), so it is 0 iff it vanishes mod primes
# whose product exceeds twice that.  Each product runs in float64 BLAS on
# residues in [0, p) and entries of A, with n (p-1)^2 < 2**53 and
# 2 rho < p, so every dot product is an integer below 2**53 and exact in any
# summation order (the FFLAS-FFPACK technique: Dumas, Giorgi, Pernet,
# ACM TOMS 35(3), 2008).  The multiplicities then solve
# sum_lam m_lam lam^j = tr(A^j) mod one such prime, j < |S|: p > 2 rho keeps
# the lam distinct mod p, so the Vandermonde system is invertible, and
# 0 <= m_lam <= n < p makes its solution the multiplicities themselves.

# integers below this are exact in float64, as are sums that stay below it
_FLOAT64_EXACT = 1 << 53
# a float eigenvalue this close to an integer proposes that integer
_INT_TOL = 1e-6


def _certificate_primes(n: int, rho: int, values) -> list[int] | None:
    """Primes p with n (p-1)^2 < 2**53 and p > max(n, 2 rho), largest first,
    whose product exceeds 2 prod_{lam in values} (rho + |lam|); at least one.
    None when the primes in that range run out first."""
    p = isqrt((_FLOAT64_EXACT - 1) // n) + 1  # largest p with n (p-1)^2 < 2**53
    floor = max(n, 2 * rho)
    bound = 2
    for lam in values:
        bound *= rho + abs(lam)
    primes: list[int] = []
    modulus = 1
    while not primes or modulus <= bound:
        while p > floor and not _is_prime(p):
            p -= 1
        if p <= floor:
            return None
        primes.append(p)
        modulus *= p
        p -= 1
    return primes


def _annihilates_mod(a_f: np.ndarray, values, p: int) -> bool:
    """True iff prod_{lam in values} (A - lam I) == 0 mod p.

    a_f is A in float64.  Each step is prod (A - lam I) = prod @ A - lam prod
    with prod reduced to [0, p), so every partial sum is at most
    (p - 1) * 2 rho <= (p - 1)**2 in size: exact.  Two n x n buffers.
    """
    diag = np.arange(a_f.shape[0])
    prod = a_f.copy()
    prod[diag, diag] -= values[0]
    np.mod(prod, p, out=prod)
    out = np.empty_like(prod)
    for lam in values[1:]:
        np.matmul(prod, a_f, out=out)
        prod *= lam
        out -= prod
        np.mod(out, p, out=prod)
    return not prod.any()


def _power_traces_mod(a_f: np.ndarray, count: int, p: int) -> list[int]:
    """tr(A^j) mod p for j < count, A symmetric, given as float64 a_f.

    With P_i = A^i mod p (each P_i @ A has partial sums at most
    (p - 1) rho), tr(A^(2i)) = <P_i, P_i> and tr(A^(2i+1)) = <P_i, P_(i+1)>:
    entrywise sums whose row sums stay below n (p-1)^2 < 2**53.
    """
    def inner(x, y) -> int:
        return int(np.mod(np.einsum("ij,ij->i", x, y), p).sum()) % p

    cur = np.mod(a_f, p)
    traces = [a_f.shape[0] % p, int(np.trace(cur)) % p]
    while len(traces) < count:
        traces.append(inner(cur, cur))
        if len(traces) < count:
            nxt = np.mod(cur @ a_f, p)
            traces.append(inner(cur, nxt))
            cur = nxt
    return traces[:count]


def _solve_mod(rows: list[list[int]], rhs: list[int], p: int) -> list[int]:
    """The solution mod p of an invertible square system, by elimination."""
    size = len(rows)
    aug = [row[:] + [b] for row, b in zip(rows, rhs)]
    for c in range(size):
        piv = next(r for r in range(c, size) if aug[r][c] % p)
        aug[c], aug[piv] = aug[piv], aug[c]
        inv = pow(aug[c][c], -1, p)
        aug[c] = [x * inv % p for x in aug[c]]
        for r in range(size):
            f = aug[r][c]
            if r != c and f:
                aug[r] = [(x - f * y) % p for x, y in zip(aug[r], aug[c])]
    return [row[size] for row in aug]


def integral_spectrum(a) -> list[tuple[int, int]] | None:
    """Exact (eigenvalue, multiplicity) pairs of a symmetric integer matrix
    whose eigenvalues are all integers, or None.

    None means only that no certificate was found: some float eigenvalue is
    more than 1e-6 from an integer, a rounded one lies outside the
    Gershgorin bound, the primes run out, or the annihilation product has a
    nonzero residue.  A returned spectrum is proven: the product of
    (A - lam I) over the rounded values vanishes exactly and the
    multiplicities come from the power traces (see the section comment).
    A trace solution outside [0, n], or one not summing to n, raises
    CertificateError.
    """
    a = _require_symmetric(a)
    n = a.shape[0]
    if n == 0:
        return None
    try:
        a_f = np.asarray(a, dtype=float)
        w = np.linalg.eigvalsh(a_f)
    except (np.linalg.LinAlgError, OverflowError):
        return None
    rounded = np.round(w)
    if not np.all(np.abs(w - rounded) <= _INT_TOL):
        return None
    rho = gershgorin_bound(a)
    values = sorted({int(x) for x in rounded})
    if any(abs(lam) > rho for lam in values):
        return None
    primes = _certificate_primes(n, rho, values)
    if primes is None:
        return None
    # |a_ij| <= rho < p / 2 < 2**53, so a_f holds the entries exactly
    if not all(_annihilates_mod(a_f, values, p) for p in primes):
        return None
    p = primes[0]
    traces = _power_traces_mod(a_f, len(values), p)
    vandermonde = [[pow(lam, j, p) for lam in values] for j in range(len(values))]
    mults = _solve_mod(vandermonde, traces, p)
    if any(m > n for m in mults) or sum(mults) != n:
        raise CertificateError(
            f"trace solve gave multiplicities {mults} for {values} at n = {n}"
        )
    return [(lam, m) for lam, m in zip(values, mults) if m]


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
