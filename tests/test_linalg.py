import time
from fractions import Fraction
from math import comb, gcd, isqrt

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import tilings
from oracles import (
    bareiss_det,
    bareiss_echelon,
    charpoly_berkowitz,
    hessenberg_charpoly_scalar,
    int_matrix,
    kernel_bareiss,
    poly_eval,
    rank_mod_dense,
    rref_mod_eager,
    trace,
)
from sudoku_spectra import linalg as la
from sudoku_spectra.graph import layers
from sudoku_spectra.spectra import exact_spectrum
from sudoku_spectra.tiling import classical_tiling, random_tiling


def square_rows(n):
    return st.lists(
        st.lists(st.integers(-3, 3), min_size=n, max_size=n), min_size=n, max_size=n
    )


small_matrices = st.integers(1, 4).flatmap(square_rows)


@st.composite
def kron_quadruples(draw):
    """(a, c) of one size and (b, d) of another, for the mixed-product law."""
    n_a = draw(st.integers(1, 4))
    n_b = draw(st.integers(1, 4))
    return tuple(
        int_matrix(draw(square_rows(n)))
        for n in (n_a, n_b, n_a, n_b)
    )


def sym01(n, rng):
    s = rng.integers(0, 2, size=(n, n))
    s = np.triu(s, 1)
    return int_matrix((s + s.T).tolist())


def test_constructors():
    assert la.identity(3).tolist() == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert la.all_ones(3).tolist() == [1, 1, 1]
    assert la.unit_vector(3, 1).tolist() == [0, 1, 0]
    with pytest.raises(la.DimensionMismatch):
        int_matrix([[1, 2], [3]])
    with pytest.raises(TypeError):
        int_matrix([[1.5]])


def test_kron_identity():
    b = int_matrix([[1, 2], [3, 4]])
    assert np.array_equal(la.kron(la.identity(1), b), b)


def test_kron_is_h_block():
    h = la.kron(la.identity(2), la.ones_matrix(2))
    assert h.tolist() == [[1, 1, 0, 0], [1, 1, 0, 0], [0, 0, 1, 1], [0, 0, 1, 1]]


@given(kron_quadruples())
@settings(max_examples=40, deadline=None)
def test_kron_mixed_product(quad):
    # (A x B)(C x D) == AC x BD for compatible squares
    a, b, c, d = quad
    lhs = la.kron(a, b) @ la.kron(c, d)
    rhs = la.kron(a @ c, b @ d)
    assert np.array_equal(lhs, rhs)


def test_charpoly_known():
    assert la.char_poly(la.ones_matrix(2) - la.identity(2)) == (-1, 0, 1)
    assert la.char_poly(la.ones_matrix(3)) == (0, 0, -3, 1)
    assert la.char_poly(la.ones_matrix(4)) == (0, 0, 0, -4, 1)


@given(small_matrices)
@settings(max_examples=60, deadline=None)
def test_charpoly_matches_berkowitz(rows):
    a = int_matrix(rows)
    assert la.char_poly(a) == charpoly_berkowitz(a)


@given(small_matrices, st.integers(-4, 4))
@settings(max_examples=40, deadline=None)
def test_charpoly_eval_is_det(rows, lam):
    a = int_matrix(rows)
    n = a.shape[0]
    value = poly_eval(la.char_poly(a), lam)
    assert value == bareiss_det(lam * la.identity(n) - a)


@st.composite
def permuted_block_diagonals(draw, min_n=6, max_n=12):
    """A block-diagonal matrix, rows and columns permuted alike: its
    Hessenberg form has zero subdiagonal entries between the blocks."""
    n = draw(st.integers(min_n, max_n))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), min_size=1, max_size=4)))
    a = np.zeros((n, n), dtype=object)
    for lo, hi in zip([0, *cuts], [*cuts, n]):
        size = hi - lo
        block = draw(st.lists(st.integers(-3, 3), min_size=size * size, max_size=size * size))
        a[lo:hi, lo:hi] = np.array(block, dtype=object).reshape(size, size)
    perm = draw(st.permutations(range(n)))
    return a[np.ix_(perm, perm)]


@given(permuted_block_diagonals())
@settings(max_examples=40, deadline=None)
def test_charpoly_matches_berkowitz_block_diagonal(a):
    assert la.char_poly(a) == charpoly_berkowitz(a)


@given(permuted_block_diagonals(20, 40))
@settings(max_examples=10, deadline=None)
def test_charpoly_matches_berkowitz_block_diagonal_large(a):
    # subdiagonal zeros cut the recurrence's dot products at this size too
    assert la.char_poly(a) == charpoly_berkowitz(a)


@pytest.mark.parametrize("subdiagonal", ["p-1", "1"])
def test_charpoly_recurrence_int64_edge(subdiagonal):
    # entries p - 1 on and above the diagonal, no zero subdiagonal product,
    # so every step sums the most terms, each up to (p - 1)^2.  With a
    # subdiagonal of 1 every coefficient is p - 1 and the unreduced sums
    # reach about 2**62, half the int64 range; with p - 1 they reach 2**60
    p = la._primes(1)[0]
    h = np.triu(np.full((512, 512), p - 1, dtype=np.int64))
    h += np.diag(np.full(511, p - 1 if subdiagonal == "p-1" else 1, dtype=np.int64), -1)
    expected = hessenberg_charpoly_scalar(h, p)
    got = la._charpoly_mod(h.copy(), p)
    assert got.dtype == np.int64 and got.tolist() == expected.tolist()


@st.composite
def hessenberg_residues(draw):
    """An upper Hessenberg int64 matrix mod the first CRT prime, entries
    0, 1 or p - 1, so subdiagonal products vanish at random places."""
    p = la._primes(1)[0]
    n = draw(st.integers(1, 14))
    values = st.sampled_from([0, 1, p - 1])
    h = np.array(draw(st.lists(values, min_size=n * n, max_size=n * n)), dtype=np.int64)
    return np.triu(h.reshape(n, n), -1), p


@given(hessenberg_residues())
@settings(max_examples=60, deadline=None)
def test_charpoly_recurrence_matches_scalar(case):
    h, p = case
    assert la._charpoly_mod(h.copy(), p).tolist() == hessenberg_charpoly_scalar(h, p).tolist()


@st.composite
def prime_multiple_matrices(draw):
    """Entries c + u * p with p the first CRT prime: many vanish mod p but
    not mod the next primes, so the pivot rows differ between primes."""
    p = la._primes(1)[0]
    n = draw(st.integers(2, 8))
    entries = st.builds(lambda c, u: c + u * p, st.integers(-1, 1), st.integers(-2, 2))
    return int_matrix(draw(st.lists(st.lists(entries, min_size=n, max_size=n),
                                    min_size=n, max_size=n)))


@given(prime_multiple_matrices())
@settings(max_examples=40, deadline=None)
def test_charpoly_matches_berkowitz_prime_multiples(a):
    assert la.char_poly(a) == charpoly_berkowitz(a)


@pytest.mark.parametrize("n", range(1, 9))
def test_coeff_bound_scaled_identity(n):
    # c*I has char poly (x - c)^n, whose coefficients C(n,j)*|c|^j are the
    # bound's equality case
    for c in range(-5, 6):
        bound = la._coeff_bound(c * la.identity(n))
        assert all(bound >= comb(n, j) * abs(c) ** j for j in range(n + 1))


@given(st.integers(1, 7).flatmap(
    lambda n: st.lists(st.lists(st.integers(-10**6, 10**6), min_size=n, max_size=n),
                       min_size=n, max_size=n)))
@settings(max_examples=60, deadline=None)
def test_coeff_bound_covers_coefficients(rows):
    # non-symmetric input: the Schur inequality still bounds the eigenvalues
    a = int_matrix(rows)
    assert la._coeff_bound(a) >= max(abs(c) for c in charpoly_berkowitz(a))


def test_coeff_bound_classical4_bits():
    # the Frobenius-norm bound: 765 bits (29 primes); the amax bound was
    # 1065 bits (40 primes); the coefficients themselves have 462 bits
    from sudoku_spectra.graph import adjacency
    from sudoku_spectra.tiling import classical_tiling, random_tiling

    assert la._coeff_bound(adjacency(classical_tiling(4))).bit_length() <= 766


def test_charpoly_big_entries():
    big = 10**25
    a = int_matrix([[big, 1], [1, -big]])
    assert la.char_poly(a) == (-(big * big) - 1, 0, 1)


def test_integer_roots_basic():
    assert la.integer_roots((-1, 0, 1)) == ([(-1, 1), (1, 1)], (1,))
    assert la.integer_roots((0, 0, -3, 1)) == ([(0, 2), (3, 1)], (1,))
    assert la.integer_roots((-2, 0, 1)) == ([], (-2, 0, 1))


def _integer_roots_scan(p, bound):
    """Reference: deflate by every integer in [-bound, bound] in turn."""
    coeffs, roots = list(p), []
    for r in range(-bound, bound + 1):
        mult = 0
        while len(coeffs) > 1:
            q = [0] * (len(coeffs) - 1)
            acc = coeffs[-1]
            for i in range(len(coeffs) - 2, -1, -1):
                q[i] = acc
                acc = coeffs[i] + r * acc
            if acc:
                break
            coeffs, mult = q, mult + 1
        if mult:
            roots.append((r, mult))
    return roots, tuple(coeffs)


@given(st.lists(st.integers(-5, 5), max_size=4), st.integers(1, 5), st.integers(0, 4000))
@example([3, -2, 5, 5], 4, 4000)  # |c_0| = 600 < bound
@example([5, 5, -4], 2, 30)  # bound < |c_0| = 200, and below no root
@settings(max_examples=60, deadline=None)
def test_integer_roots_constant_term_caps_candidates(roots_in, c, bound):
    # times x^2 + x + c, which has no real roots
    poly = (c, 1, 1)
    for r in roots_in:
        poly = la.poly_mul(poly, (-r, 1))
    assert la.integer_roots(poly, bound) == _integer_roots_scan(poly, bound)


def test_integer_roots_large_bound_small_constant_term():
    # x^2 - 10**7 x - 1, the characteristic polynomial of [[0, 1], [1, 10**7]]:
    # its bound is 10**7 + 1 but c_0 = -1 leaves only the candidates +-1
    poly = la.char_poly(int_matrix([[0, 1], [1, 10**7]]))
    assert poly == (-1, -10**7, 1)
    assert la.integer_roots(poly, 10**7 + 1) == ([], poly)


@given(st.lists(st.integers(-5, 5), max_size=4), st.integers(1, 5), st.integers(0, 4000))
@example([3, -2, 5, 5], 4, 4000)
@example([0, 1, -1, 2], 1, 3)
@settings(max_examples=60, deadline=None)
def test_integer_roots_sieve_matches_scan(roots_in, c, bound):
    # with no integer scanned, every candidate comes from the sieve; at
    # degree <= 6 its classes stay below 2 * 3 * 5 * 6**3, far under the limit
    poly = (c, 1, 1)
    for r in roots_in:
        poly = la.poly_mul(poly, (-r, 1))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(la, "_ROOT_SCAN", 0)
        assert la.integer_roots(poly, bound) == _integer_roots_scan(poly, bound)


@given(st.integers(-10**15, 10**15), st.lists(st.integers(-6, 6), max_size=3),
       st.integers(1, 5))
@example(2**40, [], 1)
@example(-(2**45 + 1), [3, 3, -6], 5)
@settings(max_examples=60, deadline=None)
def test_integer_roots_large_root(big, small, c):
    # one root far past the scan, small ones inside it, times x^2 + x + c,
    # which has no real roots.  The small roots are divided out first, and
    # for c <= 5 the quadratic splits mod few enough of the first primes
    # that the sieve keeps under 9000 classes, far below its limit
    roots_in = [big, *small]
    poly = (c, 1, 1)
    for r in roots_in:
        poly = la.poly_mul(poly, (-r, 1))
    roots, resid = la.integer_roots(poly)
    assert roots == sorted((r, roots_in.count(r)) for r in set(roots_in))
    assert resid == (c, 1, 1)


def test_exact_spectrum_huge_entry_terminates():
    # no certificate prime exceeds 2 * 2**40, so the char_poly route runs,
    # and its one candidate root 2**40 comes from the sieve
    start = time.perf_counter()
    s = exact_spectrum(np.array([[2**40]], dtype=object))
    assert time.perf_counter() - start < 1.0
    assert s.integer_part == ((2**40, 1),) and s.residual == (1,)


def test_integer_roots_candidate_limit_exits_3(capsys):
    # thirty consecutive roots past the scan are roots mod every small
    # prime: the sieve's classes multiply past its limit
    from sudoku_spectra import cli

    poly = (1,)
    for i in range(30):
        poly = la.poly_mul(poly, (-(2**40 + i), 1))
    with pytest.raises(la.CandidateLimitError, match=f"more than {la._ROOT_SIEVE_LIMIT} "):
        la.integer_roots(poly)
    assert cli.run_guarded(lambda args: la.integer_roots(poly), None) == 3
    assert f"compute error: integer_roots: more than {la._ROOT_SIEVE_LIMIT}" in capsys.readouterr().err


def test_integer_roots_requires_monic():
    with pytest.raises(ValueError):
        la.integer_roots((1, 2))


def test_integer_roots_respects_bound():
    # root 7 outside the supplied bound is not extracted
    poly = la.poly_mul((-7, 1), (-1, 1))
    roots, resid = la.integer_roots(poly, max_abs_root=3)
    assert roots == [(1, 1)]
    assert resid == (-7, 1)


@given(st.lists(st.integers(-6, 6), min_size=1, max_size=6))
@settings(max_examples=60, deadline=None)
def test_integer_roots_reconstruction(roots_in):
    poly = (1,)
    for r in roots_in:
        poly = la.poly_mul(poly, (-r, 1))
    poly = la.poly_mul(poly, (1, 0, 1))  # irreducible x^2 + 1 factor
    roots, resid = la.integer_roots(poly, max_abs_root=10)
    rebuilt = (1,)
    for r, mult in roots:
        for _ in range(mult):
            rebuilt = la.poly_mul(rebuilt, (-r, 1))
    assert la.poly_mul(rebuilt, resid) == poly
    assert sorted(r for r, _ in roots) == sorted(set(roots_in))


# ---------------------------------------------------------------------------
# the annihilation certificate's primes


def _is_prime_trial(p: int) -> bool:
    return p > 1 and all(p % d for d in range(2, int(p**0.5) + 1))


@pytest.mark.parametrize("n, rho, values", [
    (1, 0, [0]),
    (16, 7, [-3, -1, 1, 3, 7]),
    (256, 39, [-5, -1, 7, 11, 23, 39]),
    (625, 64, [-6, -1, 14, 19, 39, 64]),
    (729, 44, [-9, -3, -1, 2, 8, 17, 26, 44]),
    (2, 10**7 + 1, [0, 10**7]),
])
def test_certificate_primes(n, rho, values):
    primes = la._certificate_primes(n, rho, values)
    bound = 2
    for lam in values:
        bound *= rho + abs(lam)
    assert len(set(primes)) == len(primes) >= 1
    for p in primes:
        assert _is_prime_trial(p)
        assert n * (p - 1) ** 2 < 2**53  # float64 dot products stay exact
        assert p > max(n, 2 * rho)
    product = 1
    for p in primes:
        product *= p
    assert product > bound  # a product entry that vanishes mod all is 0
    assert len(primes) == 1 or product // primes[-1] <= bound  # none beyond need


def test_is_prime_matches_trial_division():
    # the witnesses 3, 5 and 7 are primes themselves, and n = 1 has no odd
    # part to reduce to; a thread with a timeout makes a hang fail
    import threading

    results = {}
    worker = threading.Thread(
        target=lambda: results.update((n, la._is_prime(n)) for n in (0, 1)), daemon=True
    )
    worker.start()
    worker.join(timeout=5)
    assert results == {0: False, 1: False}
    assert [n for n in range(10**4) if la._is_prime(n)] == [
        n for n in range(10**4) if _is_prime_trial(n)
    ]


def test_certificate_primes_run_out():
    # every p with 4 (p - 1)**2 < 2**53 is below 2 * rho
    assert la._certificate_primes(4, 2**26, [0]) is None


def test_rational_kernel_examples():
    j2 = la.ones_matrix(2)
    assert [v.tolist() for v in la.rational_kernel(j2, 0)] == [[1, -1]]
    j3 = la.ones_matrix(3)
    assert [v.tolist() for v in la.rational_kernel(j3, 3)] == [[1, 1, 1]]
    assert la.rational_kernel(j2, 5) == []


def test_rational_kernel_scaled_matrix():
    a = int_matrix([[2, 2], [2, 2]])
    assert [v.tolist() for v in la.rational_kernel(a, 4)] == [[1, 1]]
    assert [v.tolist() for v in la.rational_kernel(a, 0)] == [[1, -1]]


def test_rational_kernel_clears_denominators():
    # the pivot 2 does not divide the back-substituted sum, so the partial
    # vector is scaled up before solving; the result is primitive
    a = int_matrix([[0, 2], [2, 3]])  # eigenvalues 4 and -1
    assert [v.tolist() for v in la.rational_kernel(a, 4)] == [[1, 2]]
    assert [v.tolist() for v in la.rational_kernel(a, -1)] == [[2, -1]]


def test_rational_kernel_two_dimensional():
    b = int_matrix([[2, 3, 0], [3, 2, 0], [0, 0, 5]])
    assert [v.tolist() for v in la.rational_kernel(b, 5)] == [[1, 1, 0], [0, 0, 1]]
    assert [v.tolist() for v in la.rational_kernel(b, -1)] == [[1, -1, 0]]


@st.composite
def singular_shifts(draw):
    """(a, lam) with a - lam*I = u @ w of rank < n, so the kernel is nonempty."""
    n = draw(st.integers(1, 5))
    r = draw(st.integers(0, n - 1))
    u = np.array(draw(st.lists(st.lists(st.integers(-4, 4), min_size=r, max_size=r),
                               min_size=n, max_size=n)), dtype=object).reshape(n, r)
    w = np.array(draw(st.lists(st.lists(st.integers(-4, 4), min_size=n, max_size=n),
                               min_size=r, max_size=r)), dtype=object).reshape(r, n)
    lam = draw(st.integers(-4, 4))
    return u @ w + lam * la.identity(n), lam


@given(singular_shifts())
@settings(max_examples=60, deadline=None)
def test_rational_kernel_vectors_are_primitive(case):
    a, lam = case
    vecs = la.rational_kernel(a, lam)
    assert vecs
    for v in vecs:
        assert all(type(x) is int for x in v)
        assert gcd(*v) == 1
        assert next(x for x in v if x) > 0
        assert not np.any((a - lam * la.identity(a.shape[0])) @ v)


@given(small_matrices, st.integers(-3, 3))
@settings(max_examples=40, deadline=None)
def test_rational_kernel_is_kernel(rows, lam):
    a = int_matrix(rows)
    a = a + a.T  # symmetric
    n = a.shape[0]
    vecs = la.rational_kernel(a, lam)
    shifted = a - lam * la.identity(n)
    for v in vecs:
        assert not np.any(shifted @ v)
    # dimension check: rank of (a - lam I) + kernel dim == n
    assert la.rank(shifted) + len(vecs) == n


def _same_kernel(a, lam):
    """rational_kernel(a, lam) equals the Bareiss oracle byte for byte."""
    got = la.rational_kernel(a, lam)
    want = kernel_bareiss(a, lam)
    assert [v.dtype for v in got] == [v.dtype for v in want]
    assert [v.tolist() for v in got] == [v.tolist() for v in want]
    assert all(type(x) is int for v in got for x in v)
    return got


@st.composite
def kernel_cases(draw):
    """(a, lam) with a square, up to 9 x 9 and not symmetric, a - lam0*I of
    rank at most r for a drawn lam0, and lam near lam0.  Entries of the
    factors are sometimes multiples of the first table prime p, and a
    multiple of p is sometimes added to the product, so the pivot set mod p
    can fall behind the rational one."""
    n = draw(st.integers(1, 9))
    r = draw(st.integers(0, n))
    p = la._primes(1)[0]
    entries = st.integers(-3, 3).flatmap(lambda x: st.sampled_from([0, x, x, x * p]))
    u = _draw_matrix(draw, n, r, entries)
    w = _draw_matrix(draw, r, n, entries)
    a = u @ w if r else np.full((n, n), 0, dtype=object)
    if draw(st.booleans()):
        a = a + p * _draw_matrix(draw, n, n, st.integers(-1, 1))
    lam0 = draw(st.integers(-4, 4))
    return a + lam0 * la.identity(n), lam0 + draw(st.sampled_from([0, 0, 0, 1, -1]))


@given(kernel_cases())
@settings(max_examples=200, deadline=None)
def test_rational_kernel_matches_bareiss(case):
    _same_kernel(*case)


@given(tilings(min_m=1, max_m=5), st.integers(1, 3))
@settings(max_examples=25, deadline=None)
def test_rational_kernel_matches_bareiss_on_seeds(t, k):
    # the blow-up seeds l_h, l_v and M = k^2 l_b + k l_h + k l_v
    d = layers(t)
    for seed in (d.l_h, d.l_v, k * k * d.l_b + k * d.l_h + k * d.l_v):
        for lam, mult in exact_spectrum(seed).integer_part:
            assert len(_same_kernel(seed, lam)) == mult


@pytest.mark.parametrize("modulus", [211, 7 * 11 * 13])
def test_reconstruct_exhaustive(modulus):
    # every residue: the unique a / b in lowest terms with |a|, b <= bound
    # and a == u b mod modulus, or None when there is none; with factors
    # of the modulus below the bound, the Euclidean remainder and cofactor
    # can share one, and that pair is no answer
    bound = isqrt((modulus - 1) // 2)
    for u in range(modulus):
        fracs = set()
        for b in range(1, bound + 1):
            a = u * b % modulus
            a = a - modulus if a > modulus // 2 else a
            if abs(a) <= bound and gcd(a, b) == 1:
                fracs.add((a, b))
        assert len(fracs) <= 1
        fracs = sorted(fracs)
        assert la._reconstruct(u, modulus, bound) == (fracs[0] if fracs else None)


@given(st.integers(-2**40, 2**40), st.integers(1, 2**40))
@settings(max_examples=100, deadline=None)
def test_reconstruct_recovers_fraction(num, den):
    # four table primes exceed 2 bound^2 for bound 2**40
    modulus = 1
    for p in la._primes(4):
        modulus *= p
    g = gcd(num, den)
    num, den = num // g, den // g
    assume(gcd(den, modulus) == 1)
    u = num * pow(den, -1, modulus) % modulus
    assert la._reconstruct(u, modulus, 2**40) == (num, den)
    assert la._lift_vector([u, 0, 1], modulus, 2**40) == ([num, 0, den], den)


def test_in_kernel_past_float64_bound():
    # (1, 1) . (2**60, 1 - 2**60) = 1, but float64 rounds 1 - 2**60 to
    # -2**60 and would report 0; past the 2**53 bound the product is exact
    a = int_matrix([[1, 1], [0, 0]])
    vectors = [[2**60, -(2**60)], [2**60, 1 - 2**60], [1, 0]]
    assert la.eigen_mismatch(a, vectors, [0, 0, 0]).tolist() == [False, True, True]
    assert la.eigen_mismatch(a, vectors[2:], [0]).tolist() == [True]


def test_float64_bound_counts_the_eigenvalue():
    # (row_sum + |mu|) * max|x| < 2**53, strictly
    assert la._exact_in_float64(6, 1, 2**50)
    assert not la._exact_in_float64(7, 1, 2**50)
    # row_sum * max|x| alone is below 2**53 here
    assert not la._exact_in_float64(23, 23, 2**48)
    assert not la._exact_in_float64(2**52, 2**52, 1)


def test_eigen_mismatch_bound_reads_all_three_sizes(monkeypatch):
    # the route is chosen from the largest row sum, |mu| and |x| entry
    seen = []
    real = la._exact_in_float64
    monkeypatch.setattr(la, "_exact_in_float64", lambda *args: seen.append(args) or real(*args))
    a = int_matrix([[1, -2], [-2, 5]])
    assert la.eigen_mismatch(a, [[2, 1], [1, -3]], [0, -4]).tolist() == [True, True]
    assert seen == [(7, 4, 3)]


@pytest.mark.parametrize("rows", [
    [[1, -2], [-2, 5]],
    [[0, 0], [0, 0]],
    [[-(2**62), -(2**62)], [0, 1]],  # a row sum of 2**63: Python ints
    [[-(2**63), 0], [0, 0]],  # fits int64, but its absolute value does not
    [[2**70, 3], [3, -(2**70)]],  # does not fit int64
])
def test_max_row_sum_is_the_gershgorin_bound(rows):
    # the int64 sums, where the 2**63 guard allows them, give the bound of
    # the Python-int sums
    a = int_matrix(rows)
    assert la.gershgorin_bound(la._for_residues(a)) == la.gershgorin_bound(a)
    assert la.gershgorin_bound(np.zeros((0, 0), dtype=np.int64)) == 0


def _count_rref_calls(monkeypatch) -> list:
    calls = []
    real = la._rref_mod

    def counting(h, p):
        calls.append(p)
        return real(h, p)

    monkeypatch.setattr(la, "_rref_mod", counting)
    return calls


@pytest.mark.parametrize("which", [0, 1], ids=["first", "second"])
def test_rational_kernel_skips_unlucky_prime(monkeypatch, which):
    # mod p the pivot is column 1, not column 0.  As the first prime, p
    # gives the vector (1, 0), which fails the exact check, and the next
    # prime restarts the lift; as the second, p must be skipped, not
    # combined with the first prime's residues (-1/p lifts only from three
    # primes other than p)
    p = la._primes(which + 1)[which]
    calls = _count_rref_calls(monkeypatch)
    got = _same_kernel(int_matrix([[p, 1], [0, 0]]), 0)
    assert [v.tolist() for v in got] == [[1, -p]]
    assert calls[which] == p and len(calls) > which + 1


def test_rational_kernel_lifts_by_crt(monkeypatch):
    # kernel (c, b) with b, c near 2**20: one 27-bit prime reconstructs
    # fractions only up to 2**13, so a second prime must be combined
    b, c = 2**20 + 7, 2**19 + 3
    calls = _count_rref_calls(monkeypatch)
    got = _same_kernel(int_matrix([[b, -c], [0, 0]]), 0)
    assert [v.tolist() for v in got] == [[c, b]]
    assert len(calls) == 2


def test_rational_kernel_budget_exhausted_raises(monkeypatch):
    b, c = 2**20 + 7, 2**19 + 3
    monkeypatch.setattr(la, "_kernel_prime_budget", lambda mat: 1)
    with pytest.raises(la.CertificateError):
        la.rational_kernel(int_matrix([[b, -c], [0, 0]]), 0)


@pytest.mark.parametrize("rows", [[[2**20 + 7, -(2**19 + 3)], [0, 0]],
                                  [[3, 1, 4], [1, 5, 9], [2, 6, 5]],
                                  [[0, 0], [0, 0]]])
def test_kernel_prime_budget_covers_hadamard(rows):
    # the budget's primes multiply past h (2 h^2 + 1), h above every minor
    a = int_matrix(rows)
    h2 = 1
    for row in rows:
        h2 *= max(1, sum(x * x for x in row))
    h = isqrt(h2) + 1
    product = 1
    for p in la._primes(la._kernel_prime_budget(a)):
        product *= p
    assert product > h * (2 * h * h + 1)


# ---------------------------------------------------------------------------
# integer eigenspaces: one prime proposes, exact kernels decide


@given(st.integers(1, 7).flatmap(square_rows))
@settings(max_examples=100, deadline=None)
def test_integer_eigenspaces_match_exact_spectrum(rows):
    a = int_matrix(rows)
    a = a + a.T
    got = la.integer_eigenspaces(a)
    assert [(lam, len(basis)) for lam, basis in got] == list(exact_spectrum(a).integer_part)
    for lam, basis in got:
        assert [v.tolist() for v in basis] == [v.tolist() for v in la.rational_kernel(a, lam)]


def test_integer_eigenspaces_false_candidate(monkeypatch):
    # l_h of classical n=2 has eigenvalues -2, 0, 2.  Mod 3, 1 = -2 and
    # -1 = 2 are roots of chi as well: false candidates, whose kernels are
    # empty, and the answer is unchanged
    a = layers(classical_tiling(2)).l_h
    expected = la.integer_eigenspaces(a)
    kernels = []
    real = la._rational_kernel

    def recorded(mat, lam):
        kernels.append((lam, len(real(mat, lam))))
        return real(mat, lam)

    monkeypatch.setattr(la, "_SCAN_PRIME", 3)
    monkeypatch.setattr(la, "_rational_kernel", recorded)
    got = la.integer_eigenspaces(a)
    assert kernels == [(-2, 4), (-1, 0), (0, 8), (1, 0), (2, 4)]
    assert [(lam, [v.tolist() for v in basis]) for lam, basis in got] == \
        [(lam, [v.tolist() for v in basis]) for lam, basis in expected]


def test_limits_raise_before_any_kernel(monkeypatch):
    # both limits of `integer_eigenspaces` raise from `_candidate_limits`,
    # before any scan or kernel is computed
    def no_kernel(*args):
        raise AssertionError("a scan or kernel before the limits were checked")

    monkeypatch.setattr(la, "_rational_kernel", no_kernel)
    monkeypatch.setattr(la, "_scanned_candidates", no_kernel)
    past_scan = int_matrix([[la._EIGEN_SCAN_LIMIT // 2]])
    path = np.zeros((513, 513), dtype=np.int64)
    path[np.arange(512), np.arange(1, 513)] = path[np.arange(1, 513), np.arange(512)] = 1
    for check in (la._candidate_limits, la.integer_eigenspaces):
        with pytest.raises(la.CandidateLimitError):
            check(past_scan)
        with pytest.raises(la.DimensionMismatch,
                           match="n <= 512 unless the spectrum is proven integral"):
            check(path)


def test_integer_eigenspaces_scan_limit(capsys):
    # [[rho]] scans 2 rho + 1 integers: one under the limit and one past it
    from sudoku_spectra import cli

    rho = la._EIGEN_SCAN_LIMIT // 2 - 1
    got = la.integer_eigenspaces(int_matrix([[rho]]))
    assert [(lam, [v.tolist() for v in basis]) for lam, basis in got] == [(rho, [[1]])]
    past = int_matrix([[rho + 1]])
    with pytest.raises(la.CandidateLimitError, match=f"more than {la._EIGEN_SCAN_LIMIT}"):
        la.integer_eigenspaces(past)
    assert cli.run_guarded(lambda args: la.integer_eigenspaces(past), None) == 3
    assert "compute error: integer_eigenspaces:" in capsys.readouterr().err


def test_integer_eigenspaces_size_limit(capsys):
    # chi mod p comes from `_charpoly_mod`, whose int64 sums are exact up
    # to n = 512; past it only a spectrum proven integral is accepted.  The
    # path on 513 vertices has the eigenvalues 2 cos(j pi / 514), all but
    # one of them irrational
    from sudoku_spectra import cli

    path = np.zeros((513, 513), dtype=np.int64)
    path[np.arange(512), np.arange(1, 513)] = path[np.arange(1, 513), np.arange(512)] = 1
    with pytest.raises(la.DimensionMismatch, match="n <= 512 unless the spectrum is proven integral"):
        la.integer_eigenspaces(path)
    assert cli.run_guarded(lambda args: la.integer_eigenspaces(path), None) == 3
    assert "compute error: integer_eigenspaces supports n <= 512" in capsys.readouterr().err
    # J_513 - I: eigenvalues 512 once and -1 with multiplicity 512
    got = la.integer_eigenspaces(la.ones_matrix(513) - la.identity(513))
    assert [(lam, len(basis)) for lam, basis in got] == [(-1, 512), (512, 1)]
    assert got[1][1][0].tolist() == [1] * 513
    assert la.integer_eigenspaces(np.zeros((0, 0), dtype=object)) == []
    with pytest.raises(ValueError):
        la.integer_eigenspaces(int_matrix([[0, 1], [0, 0]]))


def test_rank():
    assert la.rank(la.ones_matrix(3)) == 1
    assert la.rank(la.identity(4)) == 4
    assert la.rank(int_matrix([[1, 2], [2, 4]])) == 1


def _draw_matrix(draw, n_rows, n_cols, elements):
    cells = draw(st.lists(elements, min_size=n_rows * n_cols, max_size=n_rows * n_cols))
    return np.array(cells, dtype=object).reshape(n_rows, n_cols)


@st.composite
def low_rank_matrices(draw):
    """Rectangular u @ w of rank at most r: u and w under random sparsity
    masks, some rows and columns zeroed, and sometimes multiples of the
    first CRT prime p added, so the rank mod p falls below the rational
    rank and `rank` needs its kernel fallback."""
    n_rows, n_cols = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    r = draw(st.integers(0, min(n_rows, n_cols)))
    sparse = st.integers(-3, 3).flatmap(lambda x: st.sampled_from([0, x]))
    u = _draw_matrix(draw, n_rows, r, sparse)
    w = _draw_matrix(draw, r, n_cols, sparse)
    a = u @ w if r else np.full((n_rows, n_cols), 0, dtype=object)
    a[draw(st.lists(st.integers(0, n_rows - 1), max_size=2)), :] = 0
    a[:, draw(st.lists(st.integers(0, n_cols - 1), max_size=2))] = 0
    if draw(st.booleans()):
        a = a + la._primes(1)[0] * _draw_matrix(draw, n_rows, n_cols, st.integers(-1, 1))
    return a


def _rref_rank(a, p: int) -> int:
    return len(la._rref_mod((np.asarray(a, dtype=object) % p).astype(np.int64), p))


@given(low_rank_matrices())
@settings(max_examples=200, deadline=None)
def test_rank_matches_bareiss(a):
    # the modular rank certifies only full rank; otherwise the padded
    # square's rational kernel decides, and Bareiss is the reference
    assert la.rank(a) == len(bareiss_echelon(a.copy())[1])
    p = la._primes(1)[0]
    # the live-row Gauss-Jordan finds the rank the whole-row update does
    assert _rref_rank(a, p) == rank_mod_dense(a, p)


def test_rank_mod_below_rational_rank():
    # diag(1, p) has rank 2 over the rationals and rank 1 mod p
    p = la._primes(1)[0]
    a = int_matrix([[1, 0], [0, p]])
    assert _rref_rank(a, p) == rank_mod_dense(a, p) == 1
    assert la.rank(a) == 2


# primes whose delayed reduction runs every 2, 8 and 512 pivots (the table
# primes), and one whose bound is never reached
RREF_PRIMES = [2**31 - 1, 1073741789, la._primes(1)[0], 3]


def _both_rrefs(a, p: int):
    eager = (np.asarray(a, dtype=object) % p).astype(np.int64)
    delayed = eager.copy()
    return (rref_mod_eager(eager, p), eager), (la._rref_mod(delayed, p), delayed)


@pytest.mark.parametrize("p", RREF_PRIMES)
@given(a=low_rank_matrices(), dense=st.integers(0, 2**31 - 2))
@settings(max_examples=40, deadline=None)
def test_rref_mod_matches_eager_reduction(p, a, dense):
    # the reduced form mod p is unique, so reducing only the pivot column
    # and row at each step must leave the same matrix and pivots as reducing
    # every entry, on sparse rank-deficient matrices and dense residues alike
    (eager_pivots, eager), (pivots, delayed) = _both_rrefs(a, p)
    assert pivots == eager_pivots and np.array_equal(delayed, eager)
    full = (a * dense + np.arange(a.size).reshape(a.shape) * 7919) % p
    (eager_pivots, eager), (pivots, delayed) = _both_rrefs(full, p)
    assert pivots == eager_pivots and np.array_equal(delayed, eager)


@pytest.mark.parametrize("shape, rank", [((520, 530), 520), ((530, 520), 515)],
                         ids=["full", "deficient"])
def test_rref_mod_past_one_reduction_period(shape, rank):
    # more than 511 pivots with a table prime, so the columns right of the
    # pivot are reduced mid-way, at the 512th; random residues drift about
    # p^2 / 4 per step, so it is the primes of period 2 and 8 above whose
    # entries wrap int64 when that reduction is skipped
    p = la._primes(1)[0]
    rng = np.random.default_rng(11)
    a = rng.integers(0, p, shape, dtype=np.int64)
    if rank < min(shape):
        a[rank:] = rng.integers(0, 3, (shape[0] - rank, rank)) @ a[:rank] % p
    (eager_pivots, eager), (pivots, delayed) = _both_rrefs(a, p)
    assert len(pivots) == rank
    assert pivots == eager_pivots and np.array_equal(delayed, eager)


@pytest.mark.parametrize("entry", [Fraction(1, 2), 0.5, Fraction(2, 1), 2.0],
                         ids=["Fraction", "float", "integral Fraction", "integral float"])
def test_exact_routines_reject_non_int_entries(entry):
    # reducing mod p would truncate such an entry to an int without error,
    # and would take an integral Fraction or float for the int it equals
    arr = int_matrix([[1, 1], [3, 2]])
    arr[0, 0] = entry
    with pytest.raises(TypeError):
        la.rank(arr)
    with pytest.raises(TypeError):
        la.rational_kernel(arr, 0)
    with pytest.raises(TypeError):
        la.rational_kernel(int_matrix([[1, 1], [3, 2]]), entry)


def test_float_eigen_known():
    w = la.float_eigen(la.ones_matrix(2) - la.identity(2))
    assert w == pytest.approx([-1.0, 1.0], abs=1e-10)


def test_float_eigen_requires_symmetric():
    with pytest.raises(ValueError):
        la.float_eigen(int_matrix([[0, 1], [0, 0]]))
    with pytest.raises(ValueError):
        la.float_eigen(np.array([[0, 1], [0, 0]], dtype=np.int64))


def test_float_eigen_int64_matches_object():
    a = sym01(9, np.random.default_rng(3))
    w_obj, v_obj = la._float_eigen_pairs(a)
    w_int, v_int = la._float_eigen_pairs(a.astype(np.int64))
    assert np.array_equal(w_obj, w_int) and np.array_equal(v_obj, v_int)


def test_float_eigen_pairs_on_complement(monkeypatch):
    # given exact eigenvectors, only the pairs orthogonal to them: here the
    # path P3 beside an isolated vertex, whose exact eigenvalue 0 has the
    # vectors e_0 and (0, 1, 0, -1)
    a = int_matrix([[0, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 1], [0, 0, 1, 0]])
    exact = [np.array([1, 0, 0, 0], dtype=object), np.array([0, 1, 0, -1], dtype=object)]
    w, v = la._float_eigen_pairs(a, exact=exact)
    assert w == pytest.approx([-np.sqrt(2), np.sqrt(2)], abs=1e-12)
    assert v.shape == (4, 2)
    assert np.allclose(np.array(exact, dtype=float) @ v, 0, atol=1e-12)
    monkeypatch.setattr(la, "RESIDUAL_TOL", 0.0)
    with pytest.raises(la.ConvergenceError):
        la._float_eigen_pairs(a, exact=exact)


def test_float_eigen_matches_exact_roots():
    rng = np.random.default_rng(7)
    for _ in range(10):
        n = int(rng.integers(2, 12))
        a = sym01(n, rng)
        w = la.float_eigen(a)
        cp = la.char_poly(a)
        roots, resid = la.integer_roots(cp, max_abs_root=la.gershgorin_bound(a))
        exact = sorted(r for r, mult in roots for _ in range(mult))
        if len(resid) > 1:
            extra = np.roots(list(reversed(resid)))
            assert np.all(np.abs(extra.imag) < 1e-8)
            exact = sorted(exact + [float(x) for x in extra.real])
        assert np.allclose(sorted(w), exact, atol=1e-6)


def test_float_eigen_rounding_reproduces_integer_spectrum():
    # fully integer spectrum: rounding the floats gives back the multiset
    from sudoku_spectra.graph import adjacency
    from sudoku_spectra.tiling import classical_tiling, random_tiling

    a = adjacency(classical_tiling(2))
    cp = la.char_poly(a)
    roots, resid = la.integer_roots(cp, max_abs_root=la.gershgorin_bound(a))
    assert resid == (1,)
    exact = sorted(r for r, mult in roots for _ in range(mult))
    assert [round(x) for x in la.float_eigen(a)] == exact


def test_float_eigen_convergence_error(monkeypatch):
    # an impossible residual target must be reported, not silently ignored;
    # the residual contract lives in the pair routine, float_eigen being
    # values-only
    p3 = int_matrix([[0, 1, 0], [1, 0, 1], [0, 1, 0]])
    monkeypatch.setattr(la, "RESIDUAL_TOL", 0.0)
    with pytest.raises(la.ConvergenceError, match="eigenvector residual"):
        la._float_eigen_pairs(p3)


def _lapack_failure(*args, **kwargs):
    raise np.linalg.LinAlgError("Eigenvalues did not converge")


def test_float_eigen_lapack_failure(monkeypatch):
    # a LAPACK failure is a ConvergenceError, which the CLI reports as exit 3
    monkeypatch.setattr(np.linalg, "eigvalsh", _lapack_failure)
    with pytest.raises(la.ConvergenceError, match="^LAPACK failed: Eigenvalues did not converge$"):
        la.float_eigen(la.ones_matrix(3) - la.identity(3))


@pytest.mark.parametrize("routine", ["eigh", "qr"])
def test_float_eigen_pairs_lapack_failure(routine, monkeypatch):
    a = int_matrix([[0, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 1], [0, 0, 1, 0]])
    exact = [np.array([1, 0, 0, 0], dtype=object), np.array([0, 1, 0, -1], dtype=object)]
    monkeypatch.setattr(np.linalg, routine, _lapack_failure)
    with pytest.raises(la.ConvergenceError, match="^LAPACK failed: "):
        la._float_eigen_pairs(a, exact=exact)


@pytest.mark.parametrize("change", [1e-3, np.nan], ids=["shifted", "nan"])
def test_float_eigen_power_sum_check(change, monkeypatch):
    # one value moved by 1e-3, or lost to NaN, misses the exact trace
    a = la.ones_matrix(9) - la.identity(9)
    real = np.linalg.eigvalsh

    def moved(x):
        w = real(x)
        w[4] += change
        return w

    monkeypatch.setattr(np.linalg, "eigvalsh", moved)
    with pytest.raises(la.ConvergenceError, match="^sum of eigenvalues "):
        la.float_eigen(a)


def test_float_eigen_power_sums_no_false_alarm():
    # the power-sum slack holds on every matrix the CLI and verify feed the
    # oracle: graphs of classical and random tilings, blow-ups up to 1296
    # vertices, and int64 input as well as object
    from sudoku_spectra.blowup import blown_adjacency
    from sudoku_spectra.graph import adjacency

    matrices = [adjacency(classical_tiling(n)) for n in (2, 3, 4)]
    matrices += [adjacency(random_tiling(m, seed)) for m in range(2, 10) for seed in (0, 1)]
    matrices += [blown_adjacency(t, k) for t in (classical_tiling(3), random_tiling(9, 1))
                 for k in (2, 3, 4)]
    for a in matrices:
        w = la.float_eigen(a)
        assert len(w) == a.shape[0] and w == sorted(w)


def test_exact_power_sums_past_float64():
    # entries too large for exact float64 sums are summed in Python ints
    big = 1 << 40
    a = int_matrix([[big, 1], [1, -big]])
    assert la._exact_power_sums(a) == (0, 2 * big * big + 2)
    small = int_matrix([[2, -3], [-3, 5]])
    assert la._exact_power_sums(small) == (7, 47)


def test_trace_and_gershgorin():
    a = int_matrix([[1, -2], [-2, 5]])
    assert trace(a) == 6
    assert la.gershgorin_bound(a) == 7
    assert la.gershgorin_bound(np.zeros((0, 0), dtype=object)) == 0


def test_charpoly_dimension_guard():
    with pytest.raises(la.DimensionMismatch):
        la.char_poly(np.zeros((2, 3), dtype=object))


def test_charpoly_size_limit():
    # int64 dot products of 27-bit residues are exact up to n = 512
    with pytest.raises(la.DimensionMismatch, match="n <= 512"):
        la.char_poly(np.zeros((513, 513), dtype=object))


@pytest.mark.parametrize("counts", [[40] * 8, [5 * (i + 1) for i in range(8)]],
                         ids=["same-count", "growing-counts"])
def test_primes_table_is_thread_safe(counts, monkeypatch):
    # threads extending an empty table at once each get the largest primes,
    # distinct and descending; a slow primality test and a short switch
    # interval make a check-then-append race likely, and growing counts
    # catch an extension that starts from a stale end of the table
    import sys
    import threading

    expected = []
    p = la._PRIME_LIMIT
    while len(expected) < 40:
        if la._is_prime(p):
            expected.append(p)
        p -= 2
    real = la._is_prime

    def slow_is_prime(n):
        time.sleep(1e-5)
        return real(n)

    monkeypatch.setattr(la, "_primes_cache", [])
    monkeypatch.setattr(la, "_is_prime", slow_is_prime)
    start = threading.Barrier(len(counts))
    results = [None] * len(counts)

    def extend(i):
        start.wait(timeout=10)
        time.sleep(i * 2e-4)  # smaller counts tend to reach the lock first
        results[i] = la._primes(counts[i])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=extend, args=(i,)) for i in range(len(counts))]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert results == [expected[:c] for c in counts]
    assert la._primes_cache == expected
