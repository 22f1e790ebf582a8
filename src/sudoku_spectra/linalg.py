"""Exact dense linear algebra over Python integers.

Matrices and vectors are numpy arrays with ``dtype=object`` holding Python
ints only, so the usual numpy operators -- ``@``, ``+``, scalar ``*``,
``.T``, ``np.array_equal`` -- are exact and unbounded; shape errors surface
as numpy's usual exceptions; `rank` and `rational_kernel` raise TypeError
on any other entry; an int64 array is accepted as well (the blown-up
adjacency is one) and converted where exact arithmetic needs Python ints.
Floating point enters through the eigenvalue oracle `float_eigen`, an
independent cross-check of the exact path: values only, each power-sum
check held to EIGENVALUE_TOL, and a LAPACK failure raised as
ConvergenceError; through `_float_eigen_pairs`, which gives the
approximate eigenvectors orthogonal to exact ones, each held to
RESIDUAL_TOL; and through `integral_spectrum`, whose float eigenvalues only
propose the candidates that its exact annihilation certificate then proves
or rejects.
`eigen_mismatch` checks integer eigenpairs exactly, in one float64 product
while the 2**53 bound allows.

`integer_eigenspaces` finds every integer eigenvalue with its eigenspace:
the characteristic polynomial mod one prime, evaluated at every integer
within the Gershgorin bound, proposes the candidates (after
`_candidate_limits` checks the size and scan limits), and an exact kernel
decides each one.  The prime table is shared and safe to extend from any
thread.

One elimination, Gauss-Jordan mod a prime in int64 (`_rref_mod`), decides
every exact rank, kernel and linear solve.  `rational_kernel` is
multimodular: that elimination mod 27-bit primes, CRT and rational
reconstruction after each prime, and a lift returned only once
(a - lam I) X == 0 holds exactly, which proves it (see the section comment
on kernels).  `rank` is the rank mod one
prime when that is full, and otherwise the side of a zero-padded square
minus the length of its `rational_kernel`.  `integral_spectrum` solves its
trace system mod one prime with the same elimination.

Polynomials are tuples of Python ints, coefficients in ascending degree
order.
"""

from __future__ import annotations

import itertools
import operator
import threading
from math import comb, gcd, isqrt, sqrt

import numpy as np

__all__ = [
    "DimensionMismatch",
    "ConvergenceError",
    "CertificateError",
    "CandidateLimitError",
    "identity",
    "ones_matrix",
    "all_ones",
    "unit_vector",
    "kron",
    "gershgorin_bound",
    "char_poly",
    "integer_roots",
    "integral_spectrum",
    "poly_mul",
    "rational_kernel",
    "eigen_mismatch",
    "integer_eigenspaces",
    "rank",
    "RESIDUAL_TOL",
    "EIGENVALUE_TOL",
    "float_eigen",
]


class DimensionMismatch(ValueError):
    """Operand shapes do not admit the requested operation."""


class ConvergenceError(RuntimeError):
    """The floating-point eigensolver failed in LAPACK or missed its
    a-posteriori check."""


class CertificateError(ArithmeticError):
    """An exact certificate contradicts itself: an internal error, never a
    property of the input."""


class CandidateLimitError(ArithmeticError):
    """An exact search has more candidates than its explicit limit, which
    the message names."""


# ---------------------------------------------------------------------------
# constructors


def identity(n: int) -> np.ndarray:
    arr = np.full((n, n), 0, dtype=object)
    for i in range(n):
        arr[i, i] = 1
    return arr


def ones_matrix(n: int) -> np.ndarray:
    return np.full((n, n), 1, dtype=object)


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
    """max_i sum_j |a_ij|; every real eigenvalue lies in [-bound, bound].
    0 for an empty matrix.  An int64 array is summed in int64 while
    n max|a_ij| < 2**63 keeps every row sum exact, anything else on Python
    ints (converting an object array costs more than its int64 sums save)."""
    if isinstance(a, np.ndarray) and a.dtype == np.int64 \
            and max(-int(a.min(initial=0)), int(a.max(initial=0))) * a.shape[1] < 1 << 63:
        return int(np.abs(a).sum(axis=1).max(initial=0))
    return int(np.abs(np.asarray(a, dtype=object)).sum(axis=1).max(initial=0))


def _require_square(a) -> np.ndarray:
    """a as a square array: an int64 array stays int64, so vectorized
    checks on it stay cheap; anything else becomes object."""
    if not (isinstance(a, np.ndarray) and a.dtype == np.int64):
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
# vectorized in int64: the recurrence keeps p_0 .. p_n as the rows of one
# (n+1) x (n+1) table and forms each p_i with one dot product.

_PRIME_LIMIT = (1 << 27) - 1
# The size limit of `char_poly` and of the candidate scan of
# `integer_eigenspaces`, 512: each dot product of `_charpoly_mod` (the
# Hessenberg column update and each recurrence step) sums at most n terms
# of at most (p-1)^2, so it is exact in int64 while n (p-1)^2 < 2**63, and
# every table prime is at most _PRIME_LIMIT.
_CHARPOLY_MAX_N = ((1 << 63) - 1) // (_PRIME_LIMIT - 1) ** 2
# descending primes below _PRIME_LIMIT; only ever extended, under the lock
_primes_cache: list[int] = []
_primes_lock = threading.Lock()


def _is_prime(n: int) -> bool:
    """Miller-Rabin with the witnesses 2, 3, 5, 7: exact for n below 3.2e9."""
    if n < 2:
        return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7):
        if n % a == 0:
            return n == a
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
    """The `count` largest primes below 2**27, descending.  Safe from any
    thread: an extension is built locally and published in one `extend`
    under the lock, so no prime is ever appended twice."""
    if len(_primes_cache) < count:
        with _primes_lock:
            found: list[int] = []
            p = _primes_cache[-1] - 2 if _primes_cache else _PRIME_LIMIT
            while len(_primes_cache) + len(found) < count:
                if _is_prime(p):
                    found.append(p)
                p -= 2
            _primes_cache.extend(found)
    return _primes_cache[:count]


def _for_residues(a: np.ndarray) -> np.ndarray:
    """a in int64 when its entries fit (an int64 a itself, not a copy), so
    each prime reduces it with one vectorized %; otherwise a itself, reduced
    on the object array.  Callers only read the result."""
    try:
        return a.astype(np.int64, copy=False)
    except OverflowError:
        return a


def _exact_power_sums(a: np.ndarray) -> tuple[int, int]:
    """tr(a) and ||a||_F^2 of a square integer matrix (int64 or object) as
    exact integers: summed in int64 (`_for_residues`, so an int64 a is not
    copied) while n^2 max|a_ij|^2 < 2**63 keeps every partial sum exact,
    and on Python ints past it."""
    n = a.shape[0]
    a = _for_residues(a)
    if a.dtype == np.int64 \
            and (n * max(-int(a.min(initial=0)), int(a.max(initial=0)))) ** 2 < 1 << 63:
        return int(np.trace(a)), int(np.vdot(a, a))
    ints = [int(x) for x in a.flat]
    return sum(ints[:: n + 1]), sum(x * x for x in ints)


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
    fro2 = _exact_power_sums(a)[1]
    if fro2 == 0:
        return 1
    mean2 = -(-fro2 // n)  # r^2 * n >= fro2 iff r^2 >= ceil(fro2 / n)
    r = isqrt(mean2 - 1) + 1
    return max(comb(n, j) * r**j for j in range(n + 1))


def _charpoly_mod(a_mod: np.ndarray, p: int) -> np.ndarray:
    """char poly of a matrix over F_p, coefficients ascending, in [0, p).

    Reduces a_mod (int64, entries in [0, p)) to Hessenberg form h in place,
    then runs the Hessenberg recurrence (Cohen, A Course in Computational
    Algebraic Number Theory, Alg. 2.2.9)

        p_i = x p_{i-1} - sum_{j=1..i} h_{j,i} h_{j+1,j} ... h_{i,i-1} p_{j-1}

    (1-based; the j = i term is h_{i,i} p_{i-1}).  Row t of an int64 table
    holds p_t, so step i forms its coefficients c_j in Python ints and
    subtracts one dot product c @ table[rows p_{j-1}], exact in int64 for
    n <= _CHARPOLY_MAX_N (see there).  The products of subdiagonal entries
    run from j = i-1 down and stop at the first one that is 0 mod p, since
    every term below it vanishes too.
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
    # c[t] multiplies table row lo + t, that is p_{j-1} for j = lo + t + 1
    hrows = h.tolist()
    table = np.zeros((n + 1, n + 1), dtype=np.int64)
    table[0, 0] = 1
    for i in range(1, n + 1):
        c = [hrows[i - 1][i - 1]]
        prod = 1
        for j in range(i - 1, 0, -1):
            prod = prod * hrows[j][j - 1] % p
            if prod == 0:
                break
            c.append(hrows[j - 1][i - 1] * prod % p)
        c.reverse()
        lo = i - len(c)
        table[i, 1:i + 1] = table[i - 1, :i]
        table[i, :i] = (table[i, :i] - np.array(c, dtype=np.int64) @ table[lo:i, :i]) % p
    return table[n]


def char_poly(a) -> tuple[int, ...]:
    """Monic characteristic polynomial det(xI - a), exact, ascending coeffs."""
    a = _require_square(a)
    n = a.shape[0]
    if n > _CHARPOLY_MAX_N:
        raise DimensionMismatch(f"char_poly supports n <= {_CHARPOLY_MAX_N}, got {n}")
    a_int = _for_residues(a)
    target = 2 * _coeff_bound(a_int) + 1
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


# integer_roots tries every integer of size at most this; past it, a sieve
# modulo small primes proposes the candidates
_ROOT_SCAN = 1 << 15
# the sieve refuses to track more residue classes than this
_ROOT_SIEVE_LIMIT = 1 << 16


def _horner_mod(coeffs, x: np.ndarray, p: int) -> np.ndarray:
    """The polynomial with ascending coeffs mod p at each int64 residue of
    x, by Horner's rule; exact while p**2 < 2**63."""
    value = np.zeros_like(x)
    for c in reversed(coeffs):
        value *= x
        value += c % p
        value %= p
    return value


def _sieved_root_candidates(coeffs: list[int], cap: int) -> list[int]:
    """Ascending nonzero integers of [-cap, cap] that include every integer
    root of the polynomial (ascending coeffs).

    An integer root is a root mod every prime q, so it lies in one of the
    residue classes, modulo a product Q of the first primes, built by CRT
    from the roots mod each q.  Primes are added until Q > 2 cap, when each
    class holds at most one integer of [-cap, cap].  Raises
    CandidateLimitError when the classes would pass _ROOT_SIEVE_LIMIT.
    """
    classes, modulus = [0], 1
    for q in filter(_is_prime, itertools.count(2)):
        if modulus > 2 * cap:
            break
        roots = np.flatnonzero(_horner_mod(coeffs, np.arange(q, dtype=np.int64), q) == 0).tolist()
        if len(classes) * len(roots) > _ROOT_SIEVE_LIMIT:
            raise CandidateLimitError(
                f"integer_roots: more than {_ROOT_SIEVE_LIMIT} candidate root classes "
                f"mod {modulus * q} for roots up to {cap} in size"
            )
        inv = pow(modulus, -1, q)
        classes = [u + modulus * ((r - u) * inv % q) for u in classes for r in roots]
        if not classes:
            return []
        modulus *= q
    # u and u - modulus cannot both lie in [-cap, cap] since modulus > 2 cap
    return sorted(v for u in classes for v in (u, u - modulus) if v and -cap <= v <= cap)


def _deflate_roots(coeffs: list[int], candidates, roots: list) -> list[int]:
    """Divide out each ascending nonzero candidate that is a root, as often
    as it divides, appending (root, multiplicity) to roots; returns the
    quotient.  Deflation by nonzero roots keeps c_0 nonzero, and a root
    divides it, so candidates past |c_0| are not tried."""
    for r in candidates:
        if len(coeffs) == 1 or r > abs(coeffs[0]):
            break
        if r and coeffs[0] % r == 0:
            mult = 0
            while len(coeffs) > 1:
                q, rem = _deflate(coeffs, r)
                if rem != 0:
                    break
                coeffs = q
                mult += 1
            if mult:
                roots.append((r, mult))
    return coeffs


def integer_roots(
    p, max_abs_root: int | None = None
) -> tuple[list[tuple[int, int]], tuple[int, ...]]:
    """All integer roots of a monic polynomial, with multiplicities.

    A nonzero integer root divides the constant term c_0, so candidates are
    the nonzero integers of size at most cap = min(max_abs_root, |c_0|)
    that divide c_0; for eigenvalue work callers pass the Gershgorin
    row-sum bound of the matrix.  Every integer up to _ROOT_SCAN in size is
    tried; the larger ones only when a sieve over the roots mod small primes
    (`_sieved_root_candidates`, run after the small roots are divided out)
    leaves them, which raises CandidateLimitError when too many residue
    classes survive.  Returns (sorted (root, multiplicity) list, residual
    polynomial); the residual has no integer roots of size at most cap and
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
    cap = abs(coeffs[0]) if max_abs_root is None else min(abs(coeffs[0]), max_abs_root)
    scan = min(cap, _ROOT_SCAN)
    coeffs = _deflate_roots(coeffs, range(-scan, scan + 1), roots)
    cap = min(cap, abs(coeffs[0]))
    if cap > scan and len(coeffs) > 1:
        big = [r for r in _sieved_root_candidates(coeffs, cap) if abs(r) > scan]
        coeffs = _deflate_roots(coeffs, big, roots)
    return sorted(roots), tuple(coeffs)


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
    p, size = primes[0], len(values)
    traces = _power_traces_mod(a_f, size, p)
    # [V | traces] with V_jl = lam_l^j mod p; the certificate primes keep
    # p**2 < 2**63, so `_rref_mod` solves it in int64
    aug = np.array(
        [[pow(lam, j, p) for lam in values] + [traces[j]] for j in range(size)], dtype=np.int64
    )
    if _rref_mod(aug, p) != list(range(size)):
        raise CertificateError(f"trace solve: singular mod {p} for {values} at n = {n}")
    mults = aug[:, size].tolist()
    if any(m > n for m in mults) or sum(mults) != n:
        raise CertificateError(
            f"trace solve gave multiplicities {mults} for {values} at n = {n}"
        )
    return [(lam, m) for lam, m in zip(values, mults) if m]


# ---------------------------------------------------------------------------
# exact kernels and rank
#
# `_rref_mod` is the one exact elimination of the library: Gauss-Jordan mod
# a prime in int64, as the Hessenberg step runs.  The pivot swap, scaling
# and row update touch columns c.. only, and only rows nonzero in column c,
# so a sparse matrix such as a stack of seed eigenvectors costs little more
# than its nonzeros.  `integral_spectrum` solves its trace system with it.
#
# `rank` takes the rank mod one 27-bit prime.  A minor nonzero mod p is
# nonzero over Z, so that rank never exceeds the rational one, and full rank
# mod p decides.  Short of full, a is zero-padded to a square S of its larger
# side and rank a = size - dim ker S: S adds zero columns, whose coordinates
# join the kernel, or zero rows, which change nothing, so rank S = rank a.
# The kernel comes from `rational_kernel`, whose verified basis is
# independent (see below), so its length is dim ker S.
#
# `rational_kernel` runs Gauss-Jordan mod p and reads the free-column basis
# (1 at its free column, 0 at the others) off the reduced form.  After each
# prime the basis mod the product of the primes is lifted by CRT and
# rational reconstruction (Wang's algorithm; multimodular with early
# termination, cf. Monagan, ISSAC 2004) and returned once (a - lam I) X == 0
# holds exactly (`eigen_mismatch` with every value 0).
#
# A verified lift is the rational answer.  Vectors independent mod p are
# independent over Q, so the lift spans the kernel; each vector puts its
# free column in the Q-span of the pivot columns before it, so the mod-p
# pivot set is the greedy rational one, and the lift is the unique kernel
# basis with that pattern on the free columns.  A prime whose (rank, pivot
# list) lags the best seen (lower rank, or a lexicographically later list at
# equal rank) cannot give that basis and is skipped; a better one restarts
# the lift.  A Hadamard bound caps the primes (`_kernel_prime_budget`).


def _rref_mod(h: np.ndarray, p: int) -> list[int]:
    """Reduce h (int64 residues in [0, p)) in place to reduced row echelon
    form mod p by Gauss-Jordan elimination; returns the pivot columns.

    Rows r.. are zero left of column c and the rows above are zero in the
    earlier pivot columns, so the swap, the scaling and the update touch
    columns c.. only, and the update only rows nonzero in column c.
    """
    n_rows, n_cols = h.shape
    pivots: list[int] = []
    r = 0
    for c in range(n_cols):
        # columns are 1-d, so nonzero() skips flatnonzero's ravel
        nz = h[r:, c].nonzero()[0]
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            h[[r, piv], c:] = h[[piv, r], c:]
        h[r, c:] = h[r, c:] * pow(int(h[r, c]), -1, p) % p
        live = h[:, c].nonzero()[0]
        live = live[live != r]
        if live.size:
            h[live, c:] = (h[live, c:] - h[live, c, None] * h[r, c:]) % p
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return pivots


def _kernel_prime_budget(mat: np.ndarray) -> int:
    """Primes after which the kernel lift of mat cannot fail.

    Every minor of mat is at most H = sqrt(prod_i max(1, ||row_i||^2)) in
    size (Hadamard).  The primes whose pivot set is not the rational one
    all divide one nonzero minor, so their product is at most H; the others
    reconstruct every entry once their product exceeds 2 H^2.  Each table
    prime exceeds 2**26, so this many primes multiply past h (2 h^2 + 1)
    with h > H.
    """
    h2 = 1
    for row_sq in (mat * mat).sum(axis=1):
        h2 *= max(1, int(row_sq))
    h = isqrt(h2) + 1
    return -(-(h * (2 * h * h + 1)).bit_length() // 26)


def _reconstruct(u: int, modulus: int, bound: int) -> tuple[int, int] | None:
    """(num, den) with num == u * den mod modulus, |num| <= bound and
    0 < den <= bound, or None.  The fraction is unique when
    2 bound^2 < modulus (Wang's rational reconstruction, by the half
    extended Euclidean algorithm)."""
    r0, r1, t0, t1 = modulus, u % modulus, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if not t1 or abs(t1) > bound or gcd(r1, t1) != 1:
        return None
    return (r1, t1) if t1 > 0 else (-r1, -t1)


def _lift_vector(residues: list[int], modulus: int, bound: int) -> tuple[list[int], int] | None:
    """(d * x_i for each i, d) for the rationals x_i == residues[i] mod
    modulus whose numerators and denominators are at most bound, d their
    common denominator; None when some entry does not reconstruct.

    d grows as the entries are read: u * d, reduced to (-modulus/2,
    modulus/2], is already the answer when it is at most bound in size
    (it is then the unique fraction with denominator 1), so only the other
    entries run the Euclidean algorithm.
    """
    half = modulus // 2
    d = 1
    for u in residues:
        v = u * d % modulus
        if min(v, modulus - v) > bound:
            frac = _reconstruct(v, modulus, bound)
            if frac is None:
                return None
            d *= frac[1]
    nums = []
    for u in residues:
        v = u * d % modulus
        v = v - modulus if v > half else v
        if abs(v) > bound:
            return None
        nums.append(v)
    return nums, d


def _lift_basis(acc, modulus: int, pivots: list[int], free: list[int], n: int):
    """Primitive, sign-normalized integer vectors from the free-column
    basis mod modulus (acc[i, j] is entry pivots[i] of the vector of column
    free[j]), or None when some entry does not reconstruct."""
    bound = isqrt((modulus - 1) // 2)
    basis = []
    for j, fc in enumerate(free):
        lifted = _lift_vector(acc[:, j].tolist(), modulus, bound)
        if lifted is None:
            return None
        nums, d = lifted
        g = d
        for v in nums:
            g = gcd(g, v)
        x = [0] * n
        for pc, v in zip(pivots, nums):
            x[pc] = v // g
        x[fc] = d // g
        if next(v for v in x if v) < 0:
            x = [-v for v in x]
        vec = np.empty(n, dtype=object)
        vec[:] = x
        basis.append(vec)
    return basis


def _exact_in_float64(row_sum: int, mu_max: int, x_max: int) -> bool:
    """True when mat @ x - mu * x is exact in float64 for an integer mat
    with max_i sum_j |mat_ij| = row_sum, integer vectors x with entries at
    most x_max and integers mu at most mu_max in size: every entry, partial
    sum and difference is an integer of size at most
    (row_sum + mu_max) * x_max, so none rounds below 2**53, whatever order
    BLAS sums in (the FFLAS-FFPACK technique: Dumas, Giorgi, Pernet, ACM
    TOMS 35(3), 2008)."""
    return (row_sum + mu_max) * x_max < _FLOAT64_EXACT


def eigen_mismatch(mat, vectors, values) -> np.ndarray:
    """Boolean mask over `vectors`, a nonempty list of integer vectors:
    True where mat @ x != mu * x, mu the integer in `values` at the same
    position, decided exactly: in one float64 product when
    `_exact_in_float64` allows it, vector by vector on the object array
    past it.  The row sums and the float copy come from mat in int64, so
    the object array is read once."""
    x = np.array(vectors, dtype=object)
    mu = np.array(values, dtype=object)
    a = _for_residues(mat)
    if _exact_in_float64(gershgorin_bound(a), int(np.abs(mu).max()), int(np.abs(x).max())):
        # past the bound whenever a did not fit in int64, so a is int64 here
        xf = x.T.astype(float)
        return np.any(a.astype(float) @ xf != xf * mu.astype(float), axis=0)
    return np.array([bool(np.any(mat[:, v != 0] @ v[v != 0] != m * v)) for v, m in zip(x, mu)])


def rational_kernel(a, lam: int) -> list[np.ndarray]:
    """Exact basis of ker(a - lam*I), as primitive integer vectors.

    Entries of a must be Python ints (TypeError otherwise).  Empty iff lam
    is not an eigenvalue.  Basis vectors are indexed by the free columns of
    the echelon form (ascending): the vector of free column fc is 1 at fc
    and 0 at the other free columns, then made primitive and
    sign-normalized so its first nonzero entry is positive.

    Gauss-Jordan elimination of a - lam*I modulo 27-bit primes gives those
    vectors mod p; CRT and rational reconstruction lift them after each
    prime, and a lift is returned only when (a - lam*I) X == 0 holds
    exactly, which proves it is the rational basis (see the section
    comment).  Past `_kernel_prime_budget` primes (a Hadamard bound) the
    lift cannot fail, so reaching it raises CertificateError.
    """
    return _rational_kernel(_require_ints(_require_square(a)), operator.index(lam))


def _rational_kernel(a: np.ndarray, lam: int) -> list[np.ndarray]:
    """`rational_kernel` for an a already checked to be a square object
    array of Python ints and an int lam."""
    n = a.shape[0]
    mat = a.copy()
    for i in range(n):
        mat[i, i] -= lam
    mat_int = _for_residues(mat)
    best = None
    i, budget = 0, None
    while budget is None or i < budget:
        p = _primes(i + 1)[i]
        i += 1
        h = (mat_int % p).astype(np.int64, copy=False)
        pivots = _rref_mod(h, p)
        key = (-len(pivots), pivots)
        if best is not None and key > best:
            continue
        pivot_set = set(pivots)
        free = [c for c in range(n) if c not in pivot_set]
        if not free:
            return []  # full rank mod p, hence over the rationals
        # the vector of free column fc holds -h[row of pc, fc] at pivot pc
        residues = (-h[: len(pivots), free] % p).astype(object)
        if best is None or key < best:
            best, acc, modulus = key, residues, p
        else:
            inv = pow(modulus % p, -1, p)
            acc = acc + modulus * ((residues - acc % p) * inv % p)
            modulus *= p
        basis = _lift_basis(acc, modulus, pivots, free, n)
        if basis is not None and not eigen_mismatch(mat, basis, [0] * len(basis)).any():
            return basis
        if budget is None:
            budget = _kernel_prime_budget(mat)
    raise CertificateError(
        f"kernel of a - {lam} I (n = {n}) did not lift after {budget} primes"
    )


def rank(a) -> int:
    """Exact rank over the rationals of an integer matrix.

    Entries must be Python ints (TypeError otherwise).  The rank mod the
    first table prime comes first: rank mod p never exceeds the rational
    rank, so full rank mod p is already a certificate.  Otherwise a is
    zero-padded to a size x size square S, size = max(a.shape), and the
    rank is size - dim ker S.  That is exact: ker S is ker a plus the
    padded coordinates, so rank S = rank a, and `rational_kernel` returns
    a verified basis whose free-column pattern makes it independent, so
    its length is the rational nullity of S.
    """
    mat = _require_ints(a)
    if mat.size == 0:
        return 0
    p = _primes(1)[0]
    modular = len(_rref_mod((_for_residues(mat) % p).astype(np.int64, copy=False), p))
    if modular == min(mat.shape):
        return modular
    size = max(mat.shape)
    square = np.full((size, size), 0, dtype=object)
    square[: mat.shape[0], : mat.shape[1]] = mat
    return size - len(rational_kernel(square, 0))


# ---------------------------------------------------------------------------
# integer eigenspaces: one prime proposes, exact kernels decide
#
# An integer eigenvalue lam of a is a root of chi = det(xI - a), so
# chi(lam) = 0 mod p for every prime p, and every integer eigenvalue lies
# in [-rho, rho], rho the Gershgorin bound.  Evaluating chi mod one prime at
# each integer of that range therefore proposes all of them, together with
# the rare false candidates, p | chi(lam) != 0.  `rational_kernel` decides
# each candidate exactly: a false one has an empty kernel, and a symmetric
# a is diagonalizable, so the kernel's dimension is the multiplicity.  No
# coefficient bound, CRT or root extraction is needed.  Past
# _CHARPOLY_MAX_N (512), where chi mod p is no longer exact in int64, only a
# spectrum that annihilation proves integral (`integral_spectrum`, any n)
# supplies the candidates.  `_candidate_limits` checks both limits without
# the scan, so a caller can refuse an input before it starts other work.

# chi mod p comes from the first table prime
_SCAN_PRIME = _primes(1)[0]
# the scan evaluates chi mod p at 2 rho + 1 integers, at most this many
_EIGEN_SCAN_LIMIT = 1 << 22


def _candidate_limits(a: np.ndarray) -> int | list[int]:
    """The limits of `integer_eigenspaces`, checked without its scan, for
    an a already checked to be symmetric ints.  Past n = 512, the
    eigenvalues of a spectrum `integral_spectrum` proves integral
    (DimensionMismatch when it does not); up to 512, the Gershgorin bound
    rho once the scan of 2 rho + 1 integers is within _EIGEN_SCAN_LIMIT
    (CandidateLimitError otherwise)."""
    n = a.shape[0]
    if n > _CHARPOLY_MAX_N:
        certified = integral_spectrum(a)
        if certified is None:
            raise DimensionMismatch(
                f"integer_eigenspaces supports n <= {_CHARPOLY_MAX_N} unless the spectrum is "
                f"proven integral, got {n}"
            )
        return [lam for lam, _ in certified]
    rho = gershgorin_bound(a)
    if 2 * rho + 1 > _EIGEN_SCAN_LIMIT:
        raise CandidateLimitError(
            f"integer_eigenspaces: {2 * rho + 1} integers in [-{rho}, {rho}] to scan, "
            f"more than {_EIGEN_SCAN_LIMIT}"
        )
    return rho


def integer_eigenspaces(a) -> list[tuple[int, list[np.ndarray]]]:
    """(lam, basis of ker(a - lam I)) for every integer eigenvalue lam of a
    symmetric integer matrix, ascending; bases as from `rational_kernel`.

    After `_candidate_limits`, the scan of chi mod one prime, or past 512
    the certified spectrum, proposes the eigenvalues and `rational_kernel`
    decides each candidate (see the section comment).  a is checked once,
    here, and not again for each kernel.
    """
    a = _require_ints(_require_symmetric(a))
    limits = _candidate_limits(a)
    candidates = limits if isinstance(limits, list) else _scanned_candidates(a, limits)
    out = []
    for lam in candidates:
        basis = _rational_kernel(a, lam)
        if basis:
            out.append((lam, basis))
    return out


def _scanned_candidates(a: np.ndarray, rho: int) -> list[int]:
    """The integers lam of [-rho, rho] with chi(lam) = 0 mod _SCAN_PRIME,
    ascending; a is n x n with n <= 512 and passed `_candidate_limits`,
    which gave its Gershgorin bound rho."""
    p = _SCAN_PRIME
    chi = _charpoly_mod((_for_residues(a) % p).astype(np.int64, copy=False), p)
    value = _horner_mod(chi.tolist(), np.arange(-rho, rho + 1, dtype=np.int64) % p, p)
    return (np.flatnonzero(value == 0) - rho).tolist()


# ---------------------------------------------------------------------------
# floating-point oracle

# an approximate eigenpair (lambda, v) must have ||a v - lambda v|| at most
# this times ||a||_F ||v||; read at call time
RESIDUAL_TOL = 1e-8
# each eigenvalue of `float_eigen` may be off by at most this times ||a||_F
# in its power-sum check; read at call time
EIGENVALUE_TOL = 1e-10


def _float_eigen_pairs(a: np.ndarray, exact=()) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues, ascending, and unit eigenvectors (columns) of a
    symmetric integer matrix already checked to be one (int64 or object),
    each held to ||a v - lambda v|| <= RESIDUAL_TOL * ||a||_F; a pair past
    it, or a LAPACK failure, raises ConvergenceError.  Given `exact`,
    independent eigenvectors of a, only the pairs of their orthogonal
    complement, which a maps into itself: eigh of Q^T a Q, Q an orthonormal
    basis of the complement (complete QR), with eigenvectors Q y.  The only
    caller of `eigh` in the library."""
    af = a.astype(float)
    try:
        if len(exact):
            q = np.linalg.qr(np.array(exact, dtype=float).T, mode="complete")[0][:, len(exact):]
            w, y = np.linalg.eigh(q.T @ af @ q)
            v = q @ y
        else:
            w, v = np.linalg.eigh(af)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"LAPACK failed: {exc}") from exc
    fro = np.linalg.norm(af)
    resid = np.linalg.norm(af @ v - v * w, axis=0)
    if np.any(resid > RESIDUAL_TOL * fro):
        raise ConvergenceError(
            f"eigenvector residual {resid.max():.3e} exceeds {RESIDUAL_TOL:.1e} * ||a||_F"
        )
    return w, v


def float_eigen(a) -> list[float]:
    """All eigenvalues of a symmetric integer matrix, ascending.

    Values only, from LAPACK's dense symmetric solver (`eigvalsh`); a LAPACK
    failure raises ConvergenceError.  The solver is backward stable: its
    values are the exact eigenvalues of a + E with ||E||_2 <= c(n) u ||a||_2,
    u = 2**-53 and c(n) a modest function of n, so by Weyl's inequality
    each is off by at most ||E||_2, and ||a||_2 <= ||a||_F.  With
    d = EIGENVALUE_TOL * ||a||_F standing for that bound, with room for the
    rounding of the sums, the first two power sums are then held a
    posteriori to exact integers (`_exact_power_sums`):

        |sum w_i - tr a| <= n d,
        |sum w_i^2 - ||a||_F^2| <= d (2 sqrt(n) ||a||_F + n d),

    the second since sum |lambda_i| <= sqrt(n) ||a||_F; either one missed
    raises ConvergenceError.  Advisory only: integrality verdicts always
    come from the exact path.
    """
    a = _require_symmetric(a)
    af = a.astype(float)
    try:
        w = np.linalg.eigvalsh(af)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"LAPACK failed: {exc}") from exc
    n = a.shape[0]
    trace, fro2 = _exact_power_sums(a)
    fro = sqrt(fro2)
    d = EIGENVALUE_TOL * fro
    sums = (
        ("sum of eigenvalues", float(w.sum()), trace, n * d),
        ("sum of squared eigenvalues", float(w @ w), fro2, d * (2 * sqrt(n) * fro + n * d)),
    )
    for name, got, want, slack in sums:
        # written so that a NaN fails too
        if not abs(got - want) <= slack:
            raise ConvergenceError(f"{name} {got!r} is not within {slack:.3e} of {want}")
    return w.tolist()
