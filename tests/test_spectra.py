import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sudoku_spectra import linalg as la
from sudoku_spectra.graph import adjacency
from sudoku_spectra.spectra import (
    Spectrum,
    exact_spectrum,
    is_integral,
    multipartite_charpoly,
    multipartite_spectrum,
)
from sudoku_spectra.tiling import classical_tiling, random_tiling

from conftest import tilings
from oracles import spectrum_charpoly, trace

# pinned: exact spectrum of the classical 16-cell graph (7-regular)
SHIDOKU_SPECTRUM = ((-3, 4), (-1, 5), (1, 4), (3, 2), (7, 1))
# pinned: exact spectrum of the classical 81-cell graph (20-regular)
CLASSICAL3_SPECTRUM = ((-4, 24), (-1, 36), (2, 4), (5, 12), (11, 4), (20, 1))


def complete_multipartite(parts) -> np.ndarray:
    """Explicit adjacency of the complete multipartite graph (oracle)."""
    labels = [i for i, p in enumerate(parts) for _ in range(p)]
    n = len(labels)
    return la.int_matrix(
        [[1 if labels[i] != labels[j] else 0 for j in range(n)] for i in range(n)]
    )


def test_exact_spectrum_classical2():
    s = exact_spectrum(adjacency(classical_tiling(2)))
    assert s.integer_part == SHIDOKU_SPECTRUM
    assert s.is_integral and s.residual == (1,)
    assert s.eigenvalue_sum == 0
    # cross-check against the float oracle
    floats = la.float_eigen(adjacency(classical_tiling(2)))
    exact = [lam for lam, mult in s.integer_part for _ in range(mult)]
    assert np.allclose(floats, exact, atol=1e-8)


def test_exact_spectrum_j4():
    s = exact_spectrum(la.ones_matrix(4))
    assert s.integer_part == ((0, 3), (4, 1))
    assert s.is_integral


def test_exact_spectrum_nonintegral_tiling():
    # pinned seed: fully irrational nontrivial part
    t = random_tiling(4, 0)
    s = exact_spectrum(adjacency(t))
    assert not s.is_integral
    assert s.residual_degree == 16


def test_is_integral_path_graph():
    p3 = la.int_matrix([[0, 1, 0], [1, 0, 1], [0, 1, 0]])
    assert not is_integral(p3)  # eigenvalues 0, +-sqrt(2)


def test_is_integral_complete_graph():
    for k in (2, 3, 5):
        assert is_integral(la.ones_matrix(k) - la.identity(k))


def test_multipartite_charpoly_examples():
    assert multipartite_charpoly([1, 1]) == (-1, 0, 1)
    assert multipartite_charpoly([1, 2]) == (0, -2, 0, 1)


def test_multipartite_charpoly_equal_parts_factors():
    # q parts of equal size: x^(kq-k) (x - (k-1)q) (x + q)^(k-1)
    for q, k in [(2, 3), (3, 2), (4, 4)]:
        poly = (1,)
        for _ in range(k * q - k):
            poly = la.poly_mul(poly, (0, 1))
        poly = la.poly_mul(poly, (-(k - 1) * q, 1))
        for _ in range(k - 1):
            poly = la.poly_mul(poly, (q, 1))
        assert multipartite_charpoly([q] * k) == poly


def test_multipartite_spectrum_examples():
    assert multipartite_spectrum(3, 2).integer_part == ((-3, 1), (0, 4), (3, 1))
    assert multipartite_spectrum(1, 5).integer_part == ((-1, 4), (4, 1))
    # K_{2,2,2} is the octahedron: {4, 0^3, -2^2} (six eigenvalues)
    assert multipartite_spectrum(2, 3).integer_part == ((-2, 2), (0, 3), (4, 1))
    assert multipartite_spectrum(1, 1).integer_part == ((0, 1),)


@pytest.mark.parametrize("q", range(1, 5))
@pytest.mark.parametrize("k", range(1, 5))
def test_multipartite_spectrum_matches_closed_charpoly(q, k):
    assert spectrum_charpoly(multipartite_spectrum(q, k)) == multipartite_charpoly([q] * k)


def test_multipartite_spectrum_matches_explicit_graph():
    s = multipartite_spectrum(2, 3)
    assert exact_spectrum(complete_multipartite([2, 2, 2])) == s


@given(st.lists(st.integers(1, 4), min_size=1, max_size=4))
@settings(max_examples=30, deadline=None)
def test_multipartite_charpoly_matches_explicit(parts):
    a = complete_multipartite(parts)
    assert multipartite_charpoly(parts) == la.char_poly(a)


def test_spectrum_charpoly_roundtrip():
    s = Spectrum(((-1, 2), (3, 1)), (5, 0, 1))
    poly = spectrum_charpoly(s)
    assert poly == la.poly_mul(la.poly_mul(la.poly_mul((1, 1), (1, 1)), (-3, 1)), (5, 0, 1))
    assert s.dimension == 5
    assert s.eigenvalue_sum == 1  # -1 -1 +3 + (sum of residual roots = 0)


def test_classical3_pinned():
    s = exact_spectrum(adjacency(classical_tiling(3)))
    assert s.integer_part == CLASSICAL3_SPECTRUM
    assert s.is_integral


# pinned by a run cross-checked against the float oracle: the free-form
# example graph keeps only eigenvalue -2 integral (three times)
FREEFORM4_RESIDUAL = (
    -9600, 2080, 21264, -5184, -17852, 4542, 7182,
    -1775, -1476, 336, 150, -30, -6, 1,
)


def test_freeform4_spectrum_pinned(freeform4):
    s = exact_spectrum(adjacency(freeform4))
    assert s.integer_part == ((-2, 3),)
    assert s.residual == FREEFORM4_RESIDUAL
    # residual roots (floats) complete the oracle spectrum
    floats = la.float_eigen(adjacency(freeform4))
    rebuilt = [-2.0] * 3 + [float(x.real) for x in np.roots(list(reversed(s.residual)))]
    assert np.allclose(sorted(rebuilt), floats, atol=1e-6)


def test_digest():
    s = Spectrum(((-3, 2), (0, 1)), (1,))
    assert s.digest() == "(-3)^2 0^1"
    s2 = Spectrum(((2, 1),), (-2, 0, 1))
    assert s2.digest() == "2^1 +deg2"


@given(tilings(min_m=1, max_m=4))
@settings(max_examples=25, deadline=None)
def test_spectrum_invariants(t):
    a = adjacency(t)
    s = exact_spectrum(a)
    assert s.dimension == t.n_cells
    assert s.eigenvalue_sum == trace(a)  # trace of adjacency = 0
    assert spectrum_charpoly(s) == la.char_poly(a)


@given(tilings(min_m=2, max_m=4))
@settings(max_examples=15, deadline=None)
def test_adjacency_invariant_under_block_relabeling(t):
    from sudoku_spectra.tiling import Tiling

    relabel = {b: t.n_blocks - 1 - b for b in range(t.n_blocks)}
    t2 = Tiling(t.m, tuple(relabel[b] for b in t.block_of))
    assert np.array_equal(adjacency(t), adjacency(t2))


@given(tilings(min_m=2, max_m=4), st.randoms(use_true_random=False))
@settings(max_examples=20, deadline=None)
def test_integrality_invariant_under_relabeling(t, rnd):
    a = adjacency(t)
    base = is_integral(a)
    perm = list(range(t.n_cells))
    rnd.shuffle(perm)
    conj = a[np.ix_(perm, perm)]
    assert is_integral(conj) == base


def test_float_exact_agreement_random_symmetric():
    rng = np.random.default_rng(123)
    for _ in range(15):
        n = int(rng.integers(2, 25))
        s = rng.integers(0, 2, size=(n, n))
        s = np.triu(s, 1)
        a = la.int_matrix((s + s.T).tolist())
        spec = exact_spectrum(a)
        floats = la.float_eigen(a)
        exact = [lam for lam, mult in spec.integer_part for _ in range(mult)]
        if spec.residual_degree:
            extra = np.roots(list(reversed(spec.residual)))
            exact += [float(x) for x in extra.real]
        assert np.allclose(sorted(floats), sorted(exact), atol=1e-6)
