import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sudoku_spectra import eigenbasis as eigenbasis_mod
from sudoku_spectra import linalg as la
from sudoku_spectra.blowup import blown_adjacency
from sudoku_spectra.eigenbasis import (
    VerificationFailure,
    blowup_is_integral,
    build_families,
    eigenvector_basis,
    kj_basis,
    predicted_spectrum,
    verify,
)
from sudoku_spectra.graph import adjacency, layers
from sudoku_spectra.spectra import exact_spectrum
from sudoku_spectra.tiling import classical_tiling, random_tiling, row_tiling

from conftest import tilings
from oracles import int_matrix


def test_kj_basis():
    assert [v.tolist() for v in kj_basis(2)] == [[1, -1]]
    assert [v.tolist() for v in kj_basis(3)] == [[1, -1, 0], [1, 0, -1]]
    assert kj_basis(1) == []
    # each vector really lies in ker(J_k)
    for k in (2, 3, 4):
        j = la.ones_matrix(k)
        for v in kj_basis(k):
            assert not np.any(j @ v)


def test_eigenvector_basis_j2():
    spaces = eigenvector_basis(la.ones_matrix(2))
    assert [(s.value, [v.tolist() for v in s.vectors]) for s in spaces] == [
        (0, [[1, -1]]),
        (2, [[1, 1]]),
    ]
    assert all(s.exact for s in spaces)


def test_eigenvector_basis_lh_classical2():
    # every grid row of the classical 16-cell tiling induces a complete
    # bipartite graph with parts of size 2: eigenvalues 2, 0, 0, -2
    d = layers(classical_tiling(2))
    spaces = eigenvector_basis(d.l_h)
    by_value = {s.value: s.dim for s in spaces}
    assert by_value == {2: 4, 0: 8, -2: 4}


def test_eigenvector_basis_lb_any_tiling(freeform4):
    d = layers(freeform4)
    spaces = eigenvector_basis(d.l_b)
    by_value = {s.value: s.dim for s in spaces}
    assert by_value == {3: 4, -1: 12}


def test_eigenvector_basis_approximate_part(freeform4):
    # the row layer here has three complete multipartite components with
    # parts (2,1,1) whose spectra are irrational
    d = layers(freeform4)
    spaces = eigenvector_basis(d.l_h)
    approx = [s for s in spaces if not s.exact]
    assert len(approx) == 6
    a_f = np.asarray(d.l_h, dtype=float)
    for s in approx:
        v = np.asarray(s.vectors[0], dtype=float)
        assert np.linalg.norm(a_f @ v - s.value * v) < 1e-8 * np.linalg.norm(a_f)


def _zero_plus_pendants(*cs):
    """[0] (+) [[0, 1], [1, c]] (+) ...: eigenvalue 0 once, and each block
    adds the non-integer eigenvalues (c +- sqrt(c**2 + 4)) / 2, one of them
    about -1/c."""
    n = 1 + 2 * len(cs)
    rows = [[0] * n for _ in range(n)]
    for i, c in enumerate(cs):
        j = 1 + 2 * i
        rows[j][j + 1] = rows[j + 1][j] = 1
        rows[j + 1][j + 1] = c
    return int_matrix(rows)


@pytest.mark.parametrize("c", [2 * 10**6, 666_667])
def test_eigenvector_basis_refuses_ambiguous_pairing(c):
    # -1/c = -5e-7 is within the 1e-6 pairing tolerance of the integer
    # eigenvalue 0, so the float sweep cannot tell which of the two floats
    # near 0 is the integer one.  -1/c = -1.5e-6 is outside it, but a float
    # error below the tolerance could bring it in, so the guard covers twice
    # the tolerance
    a = _zero_plus_pendants(c)
    s = exact_spectrum(a)
    assert s.integer_part == ((0, 1),) and s.residual_degree == 2
    with pytest.raises(la.ConvergenceError, match="eigenvalue 0"):
        eigenvector_basis(a)


def test_eigenvector_basis_pairs_roots_outside_the_guard(monkeypatch):
    # -1/c near -3.3e-6 and -3.1e-6: outside twice the tolerance, though
    # close enough that the Sturm count, not the Taylor bound, decides
    calls = []
    real = la._sturm_chain
    monkeypatch.setattr(la, "_sturm_chain", lambda p: calls.append(p) or real(p))
    spaces = eigenvector_basis(_zero_plus_pendants(300_000, 320_000))
    assert len(calls) == 1
    exact = [sp for sp in spaces if sp.exact]
    assert [(sp.value, [v.tolist() for v in sp.vectors]) for sp in exact] == [(0, [[1, 0, 0, 0, 0]])]
    approx = sorted(sp.value for sp in spaces if not sp.exact)
    assert np.allclose(approx, [-1 / 300_000, -1 / 320_000, 300_000, 320_000], rtol=1e-6)


def test_family_sizes_m2():
    # 2x2 grid, k=3: sizes ((k-1)N, (k-1)N, (k-1)^2 N, N) with N = 4
    fams = build_families(row_tiling(2), 3)
    assert tuple(len(f) for f in fams) == (8, 8, 16, 4)
    assert sum(len(f) for f in fams) == 36


def test_family_sizes_m2_k2():
    fams = build_families(row_tiling(2), 2)
    assert tuple(len(f) for f in fams) == (4, 4, 4, 4)


def test_family_sizes_k2(freeform4):
    fams = build_families(freeform4, 2)
    assert tuple(len(f) for f in fams) == (16, 16, 16, 16)


def test_xe_vectors_are_eigenvectors(freeform4):
    k = 3
    fams = build_families(freeform4, k)
    xe = fams[2]
    up = blown_adjacency(freeform4, k)
    for vec, mu in zip(xe.vectors[:8], xe.eigenvalues[:8]):
        assert mu == -1
        assert not np.any(up @ vec - mu * vec)


def test_counting_identity(freeform4):
    for k in (1, 2, 3):
        fams = build_families(freeform4, k)
        n = freeform4.n_cells
        assert tuple(len(f) for f in fams) == (
            (k - 1) * n,
            (k - 1) * n,
            (k - 1) * (k - 1) * n,
            n,
        )


def test_span_intersection_rank(freeform4):
    # stacked XV and XH alone must already be independent: rank 2(k-1)N
    # (their all-ones middle/last slots are orthogonal to ker(J_k))
    k = 2
    xv, xh, _, _ = build_families(freeform4, k)
    mat = np.array([np.asarray(v, dtype=float) for v in xv.vectors + xh.vectors])
    sing = np.linalg.svd(mat, compute_uv=False)
    assert int(np.sum(sing > 1e-8 * sing[0])) == 2 * (k - 1) * freeform4.n_cells


def test_span_intersection_rank_exact():
    # all-exact variant over the rationals
    from sudoku_spectra.tiling import classical_tiling

    t = classical_tiling(2)
    k = 2
    xv, xh, _, _ = build_families(t, k)
    assert all(xv.exact) and all(xh.exact)
    vectors = list(xv.vectors) + list(xh.vectors)
    mat = np.empty((len(vectors), vectors[0].size), dtype=object)
    for i, v in enumerate(vectors):
        mat[i, :] = v
    assert la.rank(mat) == 2 * (k - 1) * t.n_cells


def test_predicted_spectrum_k1_is_original(freeform4):
    pred = predicted_spectrum(freeform4, 1)
    oracle = la.float_eigen(adjacency(freeform4))
    assert len(pred) == 16
    assert np.allclose([float(x) for x in pred], oracle, atol=1e-8)


@given(tilings(min_m=1, max_m=3), st.integers(1, 3))
@settings(max_examples=15, deadline=None)
def test_predicted_spectrum_matches_family_eigenvalues(t, k):
    # two code paths to the same multiset: per-vector family eigenvalues
    # vs the layer-spectrum composition
    fams = build_families(t, k)
    from_families = sorted(
        (float(v) for fam in fams for v in fam.eigenvalues)
    )
    predicted = [float(v) for v in predicted_spectrum(t, k)]
    assert np.allclose(from_families, predicted, atol=1e-9)


@pytest.mark.parametrize("t, k", [
    (classical_tiling(2), 2), (random_tiling(3, 1), 3), (random_tiling(4, 0), 1),
], ids=["classical2-k2", "random3-k3", "random4-k1"])
def test_verify_predicted_is_predicted_spectrum(t, k):
    # verify reads the predicted spectrum off its families; the layer-spectrum
    # composition must give the same tuple, value for value and type for type
    predicted = verify(t, k).predicted
    reference = predicted_spectrum(t, k)
    assert [(type(v), v) for v in predicted] == [(type(v), v) for v in reference]


def test_predicted_spectrum_oracle_match(freeform4):
    for k in (2, 3):
        pred = predicted_spectrum(freeform4, k)
        oracle = la.float_eigen(blown_adjacency(freeform4, k))
        assert len(pred) == len(oracle)
        assert np.allclose([float(x) for x in pred], oracle, atol=1e-6)


def test_verify_freeform4_k3(freeform4):
    rep = verify(freeform4, 3)
    assert rep.family_sizes == (32, 32, 64, 16)
    assert rep.total_rank == 144
    assert rep.spectrum_max_error < 1e-6
    assert rep.max_family == "XM"
    assert rep.max_predicted >= rep.max_lower_bound == 4 * 9 - 1


def test_verify_classical2_k2():
    rep = verify(classical_tiling(2), 2)
    assert rep.total_rank == 64
    assert rep.max_residual == 0.0  # fully exact construction
    assert rep.max_predicted == pytest.approx(rep.oracle[-1], abs=1e-6)


def test_verify_largest_from_xm_matches_m_shift(freeform4):
    for k in (2, 3):
        d = layers(freeform4)
        m_matrix = k * k * d.l_b + k * d.l_h + k * d.l_v
        lam_max = la.float_eigen(m_matrix)[-1]
        rep = verify(freeform4, k)
        assert rep.max_predicted == pytest.approx(lam_max + k * k - 1, abs=1e-9)


def test_verify_k1_trivial(freeform4):
    rep = verify(freeform4, 1)
    assert rep.family_sizes == (0, 0, 0, 16)
    assert rep.total_rank == 16


def test_verify_nonintegral_tiling():
    # everything flows through the approximate path and still verifies
    t = random_tiling(3, 1)
    rep = verify(t, 2)
    assert rep.total_rank == 36
    assert rep.spectrum_max_error < 1e-6


def test_lemma_eigen_relations_random():
    # spot-check the four eigenvalue maps on random small cases in exact
    # arithmetic whenever the ingredients are exact
    checked = 0
    for seed in range(8):
        t = random_tiling(3 + seed % 2, seed)
        k = 2 + seed % 2
        up = blown_adjacency(t, k)
        for fam in build_families(t, k):
            for vec, mu, exact in zip(fam.vectors, fam.eigenvalues, fam.exact):
                if exact:
                    assert not np.any(up @ vec - mu * vec)
                    checked += 1
    assert checked >= 200


@given(tilings(min_m=1, max_m=3), st.integers(1, 3))
@settings(max_examples=15, deadline=None)
def test_verify_random(t, k):
    rep = verify(t, k)
    assert rep.total_rank == t.n_cells * k * k


def test_verification_failure_names_clause():
    # an impossible residual tolerance trips the first clause on any case
    # that goes through the approximate path (random_tiling(3, 1) has a
    # fully irrational nontrivial part)
    with pytest.raises(VerificationFailure) as info:
        verify(random_tiling(3, 1), 2, residual_tol=0.0)
    assert info.value.clause == "eigenvector-residual"


@given(tilings(min_m=1, max_m=4), st.integers(1, 3))
@settings(max_examples=15, deadline=None)
def test_blowup_is_integral_matches_blown_spectrum(t, k):
    # the N x N seeds decide what the k^2 N blown matrix's spectrum says
    assume(k * k * t.n_cells <= 512)
    expected = exact_spectrum(blown_adjacency(t, k)).is_integral
    assert blowup_is_integral(t, k) == expected


@pytest.mark.parametrize("k", [1, 2, 3])
def test_blowup_is_integral_classical2(k):
    t = classical_tiling(2)
    assert blowup_is_integral(t, k)
    assert exact_spectrum(blown_adjacency(t, k)).is_integral


def test_build_families_k1_skips_empty_families(freeform4, monkeypatch):
    # at k = 1 only XM has k^2-vectors, so only M's spectrum is computed
    import sudoku_spectra.spectra as spectra_mod

    real = spectra_mod.exact_spectrum
    seen = []

    def recorded(a):
        seen.append(a)
        return real(a)

    monkeypatch.setattr(spectra_mod, "exact_spectrum", recorded)
    families = build_families(freeform4, 1)
    assert [len(f) for f in families] == [0, 0, 0, 16]
    assert len(seen) == 1 and np.array_equal(seen[0], adjacency(freeform4))


def _with_vector(families, kind, index, change):
    """families with vector `index` of family `kind` replaced by change(vec)."""
    out = []
    for fam in families:
        if fam.kind == kind:
            vectors = list(fam.vectors)
            vectors[index] = change(vectors[index].copy())
            fam = dataclasses.replace(fam, vectors=tuple(vectors))
        out.append(fam)
    return tuple(out)


def _off_by_one(vec):
    vec[int(np.flatnonzero(vec != 0)[0])] += 1
    return vec


def _verify_with(monkeypatch, t, k, families, **kwargs):
    monkeypatch.setattr(eigenbasis_mod, "build_families", lambda t_, k_: families)
    return verify(t, k, **kwargs)


@pytest.mark.parametrize("kind, index, mu", [
    ("XV", 0, -5), ("XH", 12, 3), ("XE", 7, -1), ("XM", 13, 15), ("XM", 15, 23),
])
def test_exact_vector_off_by_one_fails(kind, index, mu, monkeypatch):
    t = classical_tiling(2)
    families = build_families(t, 2)
    assert all(all(fam.exact) for fam in families)
    bad = _with_vector(families, kind, index, _off_by_one)
    with pytest.raises(VerificationFailure) as info:
        _verify_with(monkeypatch, t, 2, bad)
    assert info.value.clause == "eigenvector-residual"
    assert str(info.value) == f"eigenvector-residual: {kind} vector for eigenvalue {mu} is not exact"


@pytest.mark.parametrize("index", [5, 13, 47, 61])
def test_exact_failure_names_vector_past_first_chunk(index, monkeypatch):
    # eight chunks of eight: the failing vector's position is chunk start
    # plus its place in the chunk
    monkeypatch.setattr(eigenbasis_mod, "_CHUNK", 8)
    t = classical_tiling(2)
    families = build_families(t, 2)  # four families of 16
    fam = families[index // 16]
    mu = fam.eigenvalues[index % 16]
    bad = _with_vector(families, fam.kind, index % 16, _off_by_one)
    with pytest.raises(VerificationFailure, match=rf"^eigenvector-residual: {fam.kind} vector "
                       rf"for eigenvalue {mu} is not exact$"):
        _verify_with(monkeypatch, t, 2, bad)


def test_float64_bound_counts_the_eigenvalue():
    # (row_sum + |mu|) * max|v| < 2**53, strictly
    assert eigenbasis_mod._fits_float64(6, 1, 2**50)
    assert not eigenbasis_mod._fits_float64(7, 1, 2**50)
    # row_sum * max|v| alone is below 2**53 here
    assert not eigenbasis_mod._fits_float64(23, 23, 2**48)
    assert not eigenbasis_mod._fits_float64(2**52, 2**52, 1)


@pytest.mark.parametrize("scale", [2**50, 2**60, 2**200])
def test_scaled_exact_vector_takes_object_fallback(scale, monkeypatch):
    # the blown classical n=2 matrix has row sums 23, so a vector scaled
    # past 2**53 / 46 fails the float64 bound; at 2**60 and beyond, float64
    # could not even hold the entries of the vector off by one
    t = classical_tiling(2)
    families = build_families(t, 2)
    assert families[3].eigenvalues[15] == 23
    scaled = _with_vector(families, "XM", 15, lambda v: v * scale)
    assert not eigenbasis_mod._fits_float64(23, 23, scale)
    rep = _verify_with(monkeypatch, t, 2, scaled)
    assert rep.total_rank == 64 and rep.max_residual == 0.0
    bad = _with_vector(families, "XM", 15, lambda v: _off_by_one(v * scale))
    with pytest.raises(VerificationFailure, match="XM vector for eigenvalue 23 is not exact"):
        _verify_with(monkeypatch, t, 2, bad)


@pytest.mark.parametrize("kind, index, tol, message", [
    ("XE", 0, 1e-8, "XE vector for eigenvalue -1 is not exact"),
    ("XH", 2, 1e-8, "XH vector for eigenvalue -3 is not exact"),
    # an approximate vector ahead of the broken exact one fails first
    ("XE", 0, 0.0, "XV eigenvalue -3.8"),
    ("XV", 2, 0.0, "XV eigenvalue -3.8"),
])
def test_first_failure_in_family_order(kind, index, tol, message, monkeypatch):
    # random_tiling(3, 1) mixes approximate and exact vectors in XV and XH
    t = random_tiling(3, 1)
    families = build_families(t, 2)
    fam = next(f for f in families if f.kind == kind)
    assert fam.exact[index] and not families[0].exact[0]
    bad = _with_vector(families, kind, index, _off_by_one)
    with pytest.raises(VerificationFailure) as info:
        _verify_with(monkeypatch, t, 2, bad, residual_tol=tol)
    assert str(info.value).startswith(f"eigenvector-residual: {message}")


@pytest.mark.parametrize("t", [classical_tiling(3), random_tiling(9, 1)],
                         ids=["classical3", "random9-1"])
def test_build_families_kernels_are_modular(monkeypatch, t):
    # the seeds' exact eigenvectors come from the modular kernel alone
    def no_bareiss(mat):
        raise AssertionError("Bareiss elimination on the production path")

    monkeypatch.setattr(la, "_bareiss_echelon", no_bareiss)
    families = build_families(t, 3)
    n = t.n_cells
    assert tuple(len(f) for f in families) == (2 * n, 2 * n, 4 * n, n)


@pytest.mark.parametrize("t, k", [(classical_tiling(2), 2), (random_tiling(3, 1), 3),
                                  (random_tiling(4, 2), 2)],
                         ids=["classical2-k2", "random3-1-k3", "random4-2-k2"])
def test_build_families_match_vectorwise_kron(t, k):
    # one product per family gives kron(x, w) for each seed vector x and
    # tail w, x-major and tail-minor, with the same entry types
    families = build_families(t, k)
    for kind, seed, tails, _ in eigenbasis_mod._family_table(t, k):
        fam = next(f for f in families if f.kind == kind)
        if seed is None:
            xs = [la.unit_vector(t.n_cells, i) for i in range(t.n_cells)] if tails else []
        else:
            xs = [x for space in eigenvector_basis(seed) for x in space.vectors]
        expected = [la.kron(x, w) for x in xs for w in tails]
        assert len(fam.vectors) == len(expected)
        for got, want in zip(fam.vectors, expected):
            assert got.dtype == want.dtype and got.tolist() == want.tolist()
            assert [type(v) for v in got] == [type(v) for v in want]


def test_basis_rank_falls_back_when_short_mod_p(monkeypatch):
    # a vector scaled by the rank prime is 0 mod p but keeps the rational
    # rank full: the short modular rank hands over to linalg.rank
    t = classical_tiling(2)
    p = la._primes(1)[0]
    families = _with_vector(build_families(t, 2), "XM", 15, lambda v: v * p)
    calls = []
    real = la.rank
    monkeypatch.setattr(la, "rank", lambda mat: calls.append(mat.shape) or real(mat))
    assert eigenbasis_mod._basis_rank(families, 64) == 64
    assert calls == [(64, 64)]


def test_basis_rank_deficient_stack_fails():
    t = classical_tiling(2)
    families = build_families(t, 2)
    doubled = _with_vector(families, "XE", 3, lambda v: families[2].vectors[2].copy())
    with pytest.raises(VerificationFailure, match=r"^basis-rank: rank 63 != 64$"):
        eigenbasis_mod._basis_rank(doubled, 64)
