from fractions import Fraction
from math import comb, gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    bareiss_det,
    charpoly_berkowitz,
    int_matrix,
    poly_eval,
    rank_mod_dense,
    trace,
)
from sudoku_spectra import linalg as la


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
def permuted_block_diagonals(draw):
    """A block-diagonal matrix, rows and columns permuted alike: its
    Hessenberg form has zero subdiagonal entries between the blocks."""
    n = draw(st.integers(6, 12))
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
    from sudoku_spectra.tiling import classical_tiling

    assert la._coeff_bound(adjacency(classical_tiling(4))).bit_length() <= 766


def test_charpoly_big_entries():
    big = 10**25
    a = int_matrix([[big, 1], [1, -big]])
    assert la.char_poly(a) == (-(big * big) - 1, 0, 1)


def test_integer_roots_basic():
    assert la.integer_roots((-1, 0, 1)) == ([(-1, 1), (1, 1)], (1,))
    assert la.integer_roots((0, 0, -3, 1)) == ([(0, 2), (3, 1)], (1,))
    assert la.integer_roots((-2, 0, 1)) == ([], (-2, 0, 1))


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
# roots near a point: Taylor exclusion, then Sturm


def _poly_from_rational_roots(roots, extra=(1,)):
    """Ascending coefficients of prod (b x - a) * extra over (a, b) roots."""
    poly = tuple(extra)
    for a, b in roots:
        poly = la.poly_mul(poly, (-a, b))
    return poly


@given(
    st.lists(st.tuples(st.integers(-30, 30), st.sampled_from([1, 2, 3, 999_999, 10**6, 10**6 + 1])),
             min_size=1, max_size=4),
    st.sampled_from([(1,), (1, 0, 1), (2, 0, 1)]),  # no real roots
    st.integers(-3, 3),
    st.sampled_from([1, 3, 500_000, 10**6]),
)
@settings(max_examples=150, deadline=None)
def test_has_root_near_matches_exact_roots(roots, extra, center, den):
    poly = _poly_from_rational_roots(roots, extra)
    expected = any(abs(Fraction(a, b) - center) <= Fraction(1, den) for a, b in roots)
    assert la.has_root_near(poly, center, den) == expected


@pytest.mark.parametrize("roots, expected", [
    # roots 1/(2 * 10**6) and 1/10**6 + 1/10**12, inside and just outside
    ([(1, 2 * 10**6), (10**6 + 1, 10**12)], True),
    # roots 1.5e-6 and 1.6e-6, both outside
    ([(3, 2 * 10**6), (16, 10**7)], False),
    # a double root just inside, and one just outside
    ([(-999_999, 10**12), (-999_999, 10**12)], True),
    ([(-1_000_001, 10**12), (-1_000_001, 10**12)], False),
])
def test_has_root_near_sturm_decides(roots, expected, monkeypatch):
    # roots this close to [-1e-6, 1e-6] defeat the Taylor bound, so each
    # case is decided by the Sturm count
    calls = []
    real = la._sturm_chain
    monkeypatch.setattr(la, "_sturm_chain", lambda p: calls.append(p) or real(p))
    assert la.has_root_near(_poly_from_rational_roots(roots), 0, 10**6) == expected
    assert len(calls) == 1


def test_has_root_near_edge_cases():
    assert la.has_root_near((5,), 0, 1) is False
    assert la.has_root_near((0,), 0, 1) is True
    assert la.has_root_near((0, 0, 1), 0, 10**6) is True  # root at the center
    assert la.has_root_near((-1, 10**6), 0, 10**6) is True  # at an endpoint
    with pytest.raises(ValueError):
        la.has_root_near((1, 1), 0, 0)


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
    rank and `rank` needs its Bareiss fallback."""
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


@given(low_rank_matrices())
@settings(max_examples=200, deadline=None)
def test_rank_matches_bareiss(a):
    # the modular rank certifies only full rank; otherwise Bareiss decides
    assert la.rank(a) == len(la._bareiss_echelon(a.copy())[1])
    p = la._primes(1)[0]
    # the sparse update eliminates exactly what the whole-row update does
    assert la._rank_mod(a, p) == rank_mod_dense(a, p)


def test_rank_mod_below_rational_rank():
    # diag(1, p) has rank 2 over the rationals and rank 1 mod p
    p = la._primes(1)[0]
    a = int_matrix([[1, 0], [0, p]])
    assert la._rank_mod(a, p) == rank_mod_dense(a, p) == 1
    assert la.rank(a) == 2


@pytest.mark.parametrize("entry", [Fraction(1, 2), 0.5], ids=["Fraction", "float"])
def test_exact_routines_reject_non_int_entries(entry):
    # reducing mod p would truncate such an entry to an int without error
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
    from sudoku_spectra.tiling import classical_tiling

    a = adjacency(classical_tiling(2))
    cp = la.char_poly(a)
    roots, resid = la.integer_roots(cp, max_abs_root=la.gershgorin_bound(a))
    assert resid == (1,)
    exact = sorted(r for r, mult in roots for _ in range(mult))
    assert [round(x) for x in la.float_eigen(a)] == exact


def test_float_eigen_convergence_error():
    # an impossible residual target must be reported, not silently ignored
    p3 = int_matrix([[0, 1, 0], [1, 0, 1], [0, 1, 0]])
    with pytest.raises(la.ConvergenceError):
        la.float_eigen(p3, tol=0.0)


def test_trace_and_gershgorin():
    a = int_matrix([[1, -2], [-2, 5]])
    assert trace(a) == 6
    assert la.gershgorin_bound(a) == 7


def test_charpoly_dimension_guard():
    with pytest.raises(la.DimensionMismatch):
        la.char_poly(np.zeros((2, 3), dtype=object))


def test_charpoly_size_limit():
    # int64 dot products of 27-bit residues are exact up to n = 512
    with pytest.raises(la.DimensionMismatch, match="n <= 512"):
        la.char_poly(np.zeros((513, 513), dtype=object))
