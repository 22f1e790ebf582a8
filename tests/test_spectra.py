import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from sudoku_spectra import linalg as la
from sudoku_spectra.blowup import blown_adjacency
from sudoku_spectra.graph import adjacency
from sudoku_spectra.spectra import (
    Spectrum,
    exact_spectrum,
    is_integral,
    multipartite_charpoly,
    multipartite_spectrum,
)
from sudoku_spectra.tiling import classical_tiling, random_tiling, row_tiling

from conftest import tilings
from oracles import eigenvalue_sum, int_matrix, spectrum_charpoly, trace

# pinned: exact spectrum of the classical 16-cell graph (7-regular)
SHIDOKU_SPECTRUM = ((-3, 4), (-1, 5), (1, 4), (3, 2), (7, 1))
# pinned: exact spectrum of the classical 81-cell graph (20-regular)
CLASSICAL3_SPECTRUM = ((-4, 24), (-1, 36), (2, 4), (5, 12), (11, 4), (20, 1))
# pinned: exact spectrum of the classical 256-cell graph (39-regular)
CLASSICAL4_SPECTRUM = ((-5, 72), (-1, 144), (7, 9), (11, 24), (23, 6), (39, 1))


def complete_multipartite(parts) -> np.ndarray:
    """Explicit adjacency of the complete multipartite graph (oracle)."""
    labels = [i for i, p in enumerate(parts) for _ in range(p)]
    n = len(labels)
    return int_matrix(
        [[1 if labels[i] != labels[j] else 0 for j in range(n)] for i in range(n)]
    )


def test_exact_spectrum_classical2():
    s = exact_spectrum(adjacency(classical_tiling(2)))
    assert s.integer_part == SHIDOKU_SPECTRUM
    assert s.is_integral and s.residual == (1,)
    assert eigenvalue_sum(s) == 0
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
    p3 = int_matrix([[0, 1, 0], [1, 0, 1], [0, 1, 0]])
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
    assert eigenvalue_sum(s) == 1  # -1 -1 +3 + (sum of residual roots = 0)


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


def test_exact_spectrum_of_empty_matrix():
    # as char_poly, integer_eigenspaces, rank and float_eigen do, the exact
    # spectrum accepts the 0 x 0 matrix
    s = exact_spectrum(np.zeros((0, 0), dtype=object))
    assert s == Spectrum((), (1,))
    assert s.digest() == "(empty)"


@given(tilings(min_m=1, max_m=4))
@settings(max_examples=25, deadline=None)
def test_spectrum_invariants(t):
    a = adjacency(t)
    s = exact_spectrum(a)
    assert s.dimension == t.n_cells
    assert eigenvalue_sum(s) == trace(a)  # trace of adjacency = 0
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
        a = int_matrix((s + s.T).tolist())
        spec = exact_spectrum(a)
        floats = la.float_eigen(a)
        exact = [lam for lam, mult in spec.integer_part for _ in range(mult)]
        if spec.residual_degree:
            extra = np.roots(list(reversed(spec.residual)))
            exact += [float(x) for x in extra.real]
        assert np.allclose(sorted(floats), sorted(exact), atol=1e-6)


# ---------------------------------------------------------------------------
# the annihilation certificate against the characteristic-polynomial route


@given(tilings(min_m=1, max_m=5), st.integers(1, 3))
@example(classical_tiling(2), 3)
@example(row_tiling(5), 2)
@example(random_tiling(4, 0), 2)
@settings(max_examples=30, deadline=None)
def test_integral_spectrum_matches_char_poly_route(t, k):
    assume(k * k * t.n_cells <= 225)
    a = blown_adjacency(t, k)
    roots, residual = la.integer_roots(la.char_poly(a), la.gershgorin_bound(a))
    certified = la.integral_spectrum(a)
    if residual == (1,):
        assert certified == roots  # an integral input never falls back
    else:
        assert certified is None


@pytest.fixture
def no_char_poly(monkeypatch):
    def forbidden(a):
        raise AssertionError("char_poly called")

    monkeypatch.setattr(la, "char_poly", forbidden)


@pytest.mark.parametrize("n, expected", [
    (2, SHIDOKU_SPECTRUM), (3, CLASSICAL3_SPECTRUM), (4, CLASSICAL4_SPECTRUM),
])
def test_classical_spectrum_without_char_poly(n, expected, no_char_poly):
    s = exact_spectrum(adjacency(classical_tiling(n)))
    assert s.integer_part == expected and s.residual == (1,)


def test_near_integer_eigenvalue_falls_back():
    # eigenvalues (10**7 +- sqrt(10**14 + 4)) / 2: one about 1e-7 from 0
    a = int_matrix([[0, 1], [1, 10**7]])
    w = np.linalg.eigvalsh(a.astype(float))
    assert np.abs(w - np.round(w)).max() < 1e-6  # the floats propose {0, 10**7}
    assert la.integral_spectrum(a) is None
    s = exact_spectrum(a)
    assert s.integer_part == () and s.residual == (-1, -10**7, 1)


def _patched_eigvalsh(monkeypatch, change):
    real = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda x: change(real(x)))


def _counting_char_poly(monkeypatch) -> list:
    calls = []
    real = la.char_poly

    def counted(a):
        calls.append(a.shape[0])
        return real(a)

    monkeypatch.setattr(la, "char_poly", counted)
    return calls


@pytest.mark.parametrize("change", [
    lambda w: w[:-1],  # drop the simple top eigenvalue 7
    lambda w: w - np.eye(1, len(w), len(w) - 1)[0],  # shift it to 6
], ids=["drop", "shift"])
def test_wrong_float_proposal_falls_back(change, monkeypatch):
    a = adjacency(classical_tiling(2))
    _patched_eigvalsh(monkeypatch, change)
    calls = _counting_char_poly(monkeypatch)
    assert la.integral_spectrum(a) is None  # 7 is missing from S
    s = exact_spectrum(a)
    assert calls == [16]
    assert s.integer_part == SHIDOKU_SPECTRUM and s.residual == (1,)


def test_multiplicities_come_from_traces_not_floats(monkeypatch, no_char_poly):
    # one float -3 reported as -1: the candidate set is unchanged, the float
    # counts are wrong, and the trace solve still finds 4 and 5
    a = adjacency(classical_tiling(2))

    def recount(w):
        w = w.copy()
        w[0] = -1.0
        return np.sort(w)

    _patched_eigvalsh(monkeypatch, recount)
    assert exact_spectrum(a).integer_part == SHIDOKU_SPECTRUM


def _traces_with_extra_top(a_f, count, p):
    """tr(A^j) mod p of the classical 16-cell spectrum with one more copy of
    its top eigenvalue 7: multiplicities in [0, 16] that sum to 17."""
    mults = dict(SHIDOKU_SPECTRUM)
    mults[7] += 1
    return [sum(m * pow(lam, j, p) for lam, m in mults.items()) % p for j in range(count)]


@pytest.mark.parametrize("traces", [
    _traces_with_extra_top,
    lambda a_f, count, p: [(16 + 1) % p] + [0] * (count - 1),  # one above n
], ids=["sum", "range"])
def test_inconsistent_trace_solve_raises(traces, monkeypatch):
    # traces that no multiplicities in [0, n] summing to n can produce are
    # an internal error, never a fallback
    monkeypatch.setattr(la, "_power_traces_mod", traces)
    with pytest.raises(la.CertificateError, match="trace solve"):
        la.integral_spectrum(adjacency(classical_tiling(2)))


def test_singular_trace_system_raises(monkeypatch):
    # mod 2 the Shidoku eigenvalues -3, -1, 1, 3 and 7 all reduce to 1, so
    # the Vandermonde system is singular: an internal error, not a
    # traceback from the elimination
    monkeypatch.setattr(la, "_certificate_primes", lambda n, rho, values: [2])
    with pytest.raises(la.CertificateError, match="trace solve: singular mod 2"):
        la.integral_spectrum(adjacency(classical_tiling(2)))


def test_proposal_past_gershgorin_bound_falls_back(monkeypatch):
    # 7 + p, p the trace prime, is congruent to the eigenvalue 7 mod p, so
    # the Vandermonde system would be singular; |7 + p| > rho = 7 rejects it
    a = adjacency(classical_tiling(2))
    p = la._certificate_primes(16, 7, [0])[0]  # the largest prime for n = 16

    def alias(w):
        w = w.copy()
        w[0] = 7.0 + p  # one of the four -3s
        return np.sort(w)

    _patched_eigvalsh(monkeypatch, alias)
    assert la.integral_spectrum(a) is None
    assert exact_spectrum(a).integer_part == SHIDOKU_SPECTRUM


def test_exact_spectrum_requires_symmetric():
    with pytest.raises(ValueError, match="symmetric"):
        exact_spectrum(int_matrix([[0, 1], [0, 0]]))


def test_entries_past_the_prime_range_find_no_certificate():
    # 2 * rho exceeds every prime p with (p - 1)**2 < 2**53, so there is no
    # certificate and the char_poly route would decide
    assert la.integral_spectrum(int_matrix([[2**40]])) is None
