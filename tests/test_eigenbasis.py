import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from sudoku_spectra import eigenbasis as eigenbasis_mod
from sudoku_spectra import linalg as la
from sudoku_spectra import spectra
from sudoku_spectra.blowup import blown_adjacency, substitution_set
from sudoku_spectra.eigenbasis import (
    VerificationFailure,
    blowup_is_integral,
    build_families,
    eigenvector_basis,
    kj_basis,
    layer_eigenspaces,
    predicted_spectrum,
    verify,
)
from sudoku_spectra.graph import adjacency, layers
from sudoku_spectra.spectra import exact_spectrum
from sudoku_spectra.tiling import (
    Tiling,
    blow_up_tiling,
    classical_tiling,
    random_tiling,
    row_tiling,
)

from conftest import tilings
from test_lattice import transpose
from oracles import blown_vectors, dense_basis_rank, dense_max_residual, int_matrix


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


def _assert_approximate_pairs(a, spaces, expected):
    # each approximate vector meets the residual contract against a, and a
    # symmetric matrix has an eigenvalue within the residual of each value
    a_f = np.asarray(a, dtype=float)
    tol = 1e-8 * np.linalg.norm(a_f)
    approx = sorted((sp for sp in spaces if not sp.exact), key=lambda sp: sp.value)
    assert len(approx) == len(expected)
    for sp, want in zip(approx, expected):
        v = np.asarray(sp.vectors[0], dtype=float)
        assert np.linalg.norm(a_f @ v - sp.value * v) <= tol * np.linalg.norm(v)
        assert abs(sp.value - want) <= tol


@pytest.mark.parametrize("c", [2 * 10**6, 666_667])
def test_eigenvector_basis_refuses_ambiguous_pairing(c):
    # -1/c = -5e-7 and -1.5e-6 lie within a float pairing tolerance of the
    # integer eigenvalue 0; the exact kernels alone decide that 0 is exact,
    # so no float eigenvalue has to be paired with it
    a = _zero_plus_pendants(c)
    s = exact_spectrum(a)
    assert s.integer_part == ((0, 1),) and s.residual_degree == 2
    spaces = eigenvector_basis(a)
    exact = [sp for sp in spaces if sp.exact]
    assert [(sp.value, [v.tolist() for v in sp.vectors]) for sp in exact] == [(0, [[1, 0, 0]])]
    root = math.sqrt(c * c + 4)
    _assert_approximate_pairs(a, spaces, [-2 / (c + root), (c + root) / 2])


def test_eigenvector_basis_pairs_roots_outside_the_guard():
    # -1/c near -3.3e-6 and -3.1e-6, each close to the integer eigenvalue 0
    a = _zero_plus_pendants(300_000, 320_000)
    spaces = eigenvector_basis(a)
    exact = [sp for sp in spaces if sp.exact]
    assert [(sp.value, [v.tolist() for v in sp.vectors]) for sp in exact] == [(0, [[1, 0, 0, 0, 0]])]
    approx = sorted(sp.value for sp in spaces if not sp.exact)
    assert np.allclose(approx, [-1 / 300_000, -1 / 320_000, 300_000, 320_000], rtol=1e-6)
    sums = [c + math.sqrt(c * c + 4) for c in (300_000, 320_000)]
    _assert_approximate_pairs(a, spaces, sorted([-2 / x for x in sums] + [x / 2 for x in sums]))


@given(tilings(min_m=1, max_m=9), st.integers(1, 3))
@settings(max_examples=20, deadline=None)
def test_eigenvector_basis_matches_exact_spectrum_on_seeds(t, k):
    # the blow-up seeds l_h, l_v and M = k^2 l_b + k l_h + k l_v: the exact
    # spaces are the integer part with its multiplicities, and there is one
    # approximate vector per root of the residual polynomial
    d = layers(t)
    for seed in (d.l_h, d.l_v, k * k * d.l_b + k * d.l_h + k * d.l_v):
        spectrum = exact_spectrum(seed)
        spaces = eigenvector_basis(seed)
        exact = [(s.value, s.dim) for s in spaces if s.exact]
        assert tuple(exact) == spectrum.integer_part
        assert sum(not s.exact for s in spaces) == spectrum.residual_degree
        assert all(s.dim == 1 for s in spaces if not s.exact)


@given(tilings(min_m=1, max_m=9), st.sampled_from(["row", "column"]))
@settings(max_examples=20, deadline=None)
def test_layer_eigenspaces_match_eigenvector_basis(t, axis):
    # the closed form against the kernels: the same exact eigenvalues with
    # the same dimensions and spans, Python-int entries, and the same
    # approximate values, one vector each
    layer = layers(t).l_h if axis == "row" else layers(t).l_v
    closed, kernel = layer_eigenspaces(t, axis), eigenvector_basis(layer)
    exact = [s for s in closed if s.exact]
    assert [(s.value, s.dim) for s in exact] == [(s.value, s.dim) for s in kernel if s.exact]
    for s, ref in zip(exact, (s for s in kernel if s.exact)):
        assert all(type(x) is int for vec in s.vectors for x in vec)
        assert la.rank(np.array(s.vectors + ref.vectors, dtype=object)) == s.dim
    approx = [s for s in closed if not s.exact]
    ref_approx = [s for s in kernel if not s.exact]
    assert all(s.dim == 1 for s in approx) and len(approx) == len(ref_approx)
    tol = 1e-8 * np.linalg.norm(np.asarray(layer, dtype=float))
    for s, ref in zip(approx, ref_approx):
        assert abs(s.value - ref.value) <= tol


def _parts(sizes):
    """Consecutive index blocks of the given sizes."""
    starts = np.cumsum([0] + sizes)
    return [list(range(starts[i], starts[i + 1])) for i in range(len(sizes))]


@pytest.mark.parametrize("sizes", [
    [3],             # a single part: a zero row
    [4, 1],          # K_{1,4}: roots +-2, exact
    [1, 3],          # K_{1,3}: roots +-sqrt 3, approximate
    [2, 2, 2],
    [1],             # m = 1
    [4, 1, 2, 1],    # secular roots -3 and (3 +- sqrt 41) / 2
], ids=["one-part", "K14", "K13", "K222", "m1", "mixed"])
def test_multipartite_pairs_match_charpoly(sizes):
    # the exact values are the integer roots of the characteristic
    # polynomial with their multiplicities, the approximate ones its other
    # roots; every vector is an eigenvector (exactly, primitive and
    # sign-normalised, or within the residual contract) and together they
    # span the whole space
    from sudoku_spectra.spectra import multipartite_charpoly

    n = sum(sizes)
    parts = _parts(sizes)
    pairs = eigenbasis_mod._multipartite_pairs(parts, n)
    roots, residual = la.integer_roots(multipartite_charpoly(sizes), max_abs_root=n)
    values = sorted(lam for lam, _, exact in pairs if exact)
    assert [(lam, values.count(lam)) for lam in sorted(set(values))] == roots
    approx = sorted(lam for lam, _, exact in pairs if not exact)
    assert np.allclose(approx, sorted(np.roots(residual[::-1]).real), atol=1e-12)
    part_of = [i for i, part in enumerate(parts) for _ in part]
    a = int_matrix([[int(p != q) for q in part_of] for p in part_of])
    for lam, vec, exact in pairs:
        if exact:
            assert all(type(x) is int for x in vec) and not np.any(a @ vec - lam * vec)
            assert math.gcd(*vec) == 1 and vec[np.flatnonzero(vec)[0]] > 0
        else:
            assert np.linalg.norm(a.astype(float) @ vec - lam * vec) < 1e-12
    assert np.linalg.matrix_rank(np.array([vec for _, vec, _ in pairs], dtype=float)) == n


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
    for vec, mu in zip(blown_vectors(xe)[:8], xe.eigenvalues[:8]):
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
    mat = np.array([np.asarray(v, dtype=float) for v in blown_vectors(xv) + blown_vectors(xh)])
    sing = np.linalg.svd(mat, compute_uv=False)
    assert int(np.sum(sing > 1e-8 * sing[0])) == 2 * (k - 1) * freeform4.n_cells


def test_span_intersection_rank_exact():
    # all-exact variant over the rationals
    from sudoku_spectra.tiling import classical_tiling

    t = classical_tiling(2)
    k = 2
    xv, xh, _, _ = build_families(t, k)
    assert all(xv.exact) and all(xh.exact)
    vectors = list(blown_vectors(xv)) + list(blown_vectors(xh))
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
            for vec, mu, exact in zip(blown_vectors(fam), fam.eigenvalues, fam.exact):
                if exact:
                    assert not np.any(up @ vec - mu * vec)
                    checked += 1
    assert checked >= 200


@given(tilings(min_m=1, max_m=3), st.integers(1, 3))
@settings(max_examples=15, deadline=None)
def test_verify_random(t, k):
    rep = verify(t, k)
    assert rep.total_rank == t.n_cells * k * k


def test_verification_failure_names_clause(monkeypatch):
    # an impossible residual tolerance trips the first clause on any case
    # that goes through the approximate path (random_tiling(3, 1) has a
    # fully irrational nontrivial part).  The families are built first, as
    # M's own eigenpairs are held to the same tolerance; the oracle fails
    # too, and the clause is reported ahead of it
    t = random_tiling(3, 1)
    families = build_families(t, 2)
    monkeypatch.setattr(la, "RESIDUAL_TOL", 0.0)
    with pytest.raises(VerificationFailure) as info:
        _verify_with(monkeypatch, t, 2, families)
    assert info.value.clause == "eigenvector-residual"


@given(tilings(min_m=1, max_m=4), st.integers(1, 3))
@settings(max_examples=15, deadline=None)
def test_blowup_is_integral_matches_blown_spectrum(t, k):
    # the N x N seeds decide what the k^2 N blown matrix's spectrum says
    assume(k * k * t.n_cells <= 512)
    expected = exact_spectrum(blown_adjacency(t, k)).is_integral
    assert blowup_is_integral(t, k) == expected


@given(tilings(min_m=1, max_m=9), st.integers(1, 3))
@settings(max_examples=15, deadline=None)
@example(classical_tiling(3), 2)
@example(row_tiling(3), 3)
def test_blowup_is_integral_matches_seed_spectra(t, k):
    # the secular roots decide l_v and l_h as their exact spectra do
    d = layers(t)
    for axis, layer in (("column", d.l_v), ("row", d.l_h)):
        integral = all(s.exact for s in layer_eigenspaces(t, axis))
        assert integral == exact_spectrum(layer).is_integral
    seeds = [d.l_v, d.l_h] if k > 1 else []
    seeds.append(k * k * d.l_b + k * d.l_h + k * d.l_v)
    assert blowup_is_integral(t, k) == all(exact_spectrum(s).is_integral for s in seeds)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_blowup_is_integral_classical2(k):
    t = classical_tiling(2)
    assert blowup_is_integral(t, k)
    assert exact_spectrum(blown_adjacency(t, k)).is_integral


def test_blowup_is_integral_past_char_poly_limit(monkeypatch):
    # classical n=5 at k=2: M is 625 x 625, past char_poly's 512 limit.  The
    # partition lattice accepts the tiling, so neither M nor a certificate
    # is computed; the annihilation certificate, the one matrix route past
    # 512, proves the same M integral, once
    real = la.integral_spectrum
    seen = []

    def recorded(a):
        out = real(a)
        seen.append((a.shape, out is not None))
        return out

    monkeypatch.setattr(la, "integral_spectrum", recorded)
    built = []
    real_seed = eigenbasis_mod._seed_operator
    monkeypatch.setattr(eigenbasis_mod, "_seed_operator",
                        lambda *args: built.append(args) or real_seed(*args))
    t = classical_tiling(5)
    assert blowup_is_integral(t, 2)
    assert seen == [] and built == []
    d = layers(t)
    assert exact_spectrum(4 * d.l_b + 2 * d.l_h + 2 * d.l_v).is_integral
    assert seen == [((625, 625), True)]


def test_build_families_k1_skips_empty_families(freeform4, monkeypatch):
    # at k = 1 only XM has k^2-vectors, so only M's eigenspaces are computed
    real = la.integer_eigenspaces
    seen = []

    def recorded(a):
        seen.append(a)
        return real(a)

    monkeypatch.setattr(la, "integer_eigenspaces", recorded)
    families = build_families(freeform4, 1)
    assert [len(f) for f in families] == [0, 0, 0, 16]
    assert len(seen) == 1 and np.array_equal(seen[0], adjacency(freeform4))


def _with_seed(families, kind, index, change):
    """families with seed vector `index` of family `kind` (counted across
    its spaces) replaced by change(vec)."""
    out = []
    for fam in families:
        if fam.kind == kind:
            spaces, pos = [], 0
            for space in fam.spaces:
                vectors = list(space.vectors)
                if pos <= index < pos + len(vectors):
                    vectors[index - pos] = change(vectors[index - pos].copy())
                pos += len(vectors)
                spaces.append(dataclasses.replace(space, vectors=tuple(vectors)))
            fam = dataclasses.replace(fam, spaces=tuple(spaces))
        out.append(fam)
    return tuple(out)


def _with_tail(families, kind, index, change):
    """families with tail `index` of family `kind` replaced by change(w)."""
    out = []
    for fam in families:
        if fam.kind == kind:
            tails = list(fam.tails)
            tails[index] = change(tails[index].copy())
            fam = dataclasses.replace(fam, tails=tuple(tails))
        out.append(fam)
    return tuple(out)


def _off_by_one(vec):
    vec[int(np.flatnonzero(vec != 0)[0])] += 1
    return vec


def _verify_with(monkeypatch, t, k, families, **kwargs):
    monkeypatch.setattr(eigenbasis_mod, "_build_families", lambda t_, k_, m_, lattice_: families)
    return verify(t, k, **kwargs)


def _seed_count(fam):
    return sum(s.dim for s in fam.spaces)


def _xe_off_by_one_fails_only_through_tail(monkeypatch, families, index):
    # XE's seed operator is -I, so every vector is an XE seed: XE seed
    # `index` off by one still verifies, and XE breaks only through its tail
    t = classical_tiling(2)
    rep = _verify_with(monkeypatch, t, 2, _with_seed(families, "XE", index, _off_by_one))
    assert rep.total_rank == 64 and rep.max_residual == 0.0
    with pytest.raises(VerificationFailure,
                       match=r"^eigenvector-residual: XE tail 0: B w != 0 w$"):
        _verify_with(monkeypatch, t, 2, _with_tail(families, "XE", 0, _off_by_one))


@pytest.mark.parametrize("kind, index, mu", [
    ("XV", 0, -5), ("XH", 12, 3), ("XE", 7, -1), ("XM", 13, 15), ("XM", 15, 23),
])
def test_exact_vector_off_by_one_fails(kind, index, mu, monkeypatch):
    # at k = 2 each family has one tail, so seed `index` is blown vector `index`
    t = classical_tiling(2)
    families = build_families(t, 2)
    assert all(all(fam.exact) for fam in families)
    fam = next(f for f in families if f.kind == kind)
    assert fam.eigenvalues[index] == mu
    if kind == "XE":
        _xe_off_by_one_fails_only_through_tail(monkeypatch, families, index)
        return
    bad = _with_seed(families, kind, index, _off_by_one)
    with pytest.raises(VerificationFailure) as info:
        _verify_with(monkeypatch, t, 2, bad)
    assert info.value.clause == "eigenvector-residual"
    assert str(info.value) == f"eigenvector-residual: {kind} vector for eigenvalue {mu} is not exact"


@pytest.mark.parametrize("index", [5, 13, 47, 61])
def test_exact_failure_names_vector_past_first_chunk(index, monkeypatch):
    # the failing seed vector sits past the first space of its family, or
    # in a later family: its family and eigenvalue are still the ones named
    t = classical_tiling(2)
    families = build_families(t, 2)  # four families of 16, one tail each
    fam = families[index // 16]
    mu = fam.eigenvalues[index % 16]
    if fam.kind == "XE":
        _xe_off_by_one_fails_only_through_tail(monkeypatch, families, index % 16)
        return
    bad = _with_seed(families, fam.kind, index % 16, _off_by_one)
    with pytest.raises(VerificationFailure, match=rf"^eigenvector-residual: {fam.kind} vector "
                       rf"for eigenvalue {mu} is not exact$"):
        _verify_with(monkeypatch, t, 2, bad)


@pytest.mark.parametrize("scale", [2**50, 2**60, 2**200])
def test_scaled_exact_vector_takes_object_fallback(scale, monkeypatch):
    # XM's seed operator 4 l_b + 2 l_h + 2 l_v + 3 I on classical n=2 has
    # row sums 23, so a seed vector scaled past 2**53 / 46 fails the
    # float64 bound; at 2**60 and beyond, float64 could not even hold the
    # entries of the vector off by one
    t = classical_tiling(2)
    families = build_families(t, 2)
    assert families[3].eigenvalues[15] == 23
    scaled = _with_seed(families, "XM", 15, lambda v: v * scale)
    assert not la._exact_in_float64(23, 23, scale)
    rep = _verify_with(monkeypatch, t, 2, scaled)
    assert rep.total_rank == 64 and rep.max_residual == 0.0
    bad = _with_seed(families, "XM", 15, lambda v: _off_by_one(v * scale))
    with pytest.raises(VerificationFailure, match="XM vector for eigenvalue 23 is not exact"):
        _verify_with(monkeypatch, t, 2, bad)


@pytest.mark.parametrize("kind, index, tol, message", [
    pytest.param("XE", 0, 1e-8, "XE tail 0: B w != 0 w", id="XE-tail-0-1e-08"),
    ("XH", 2, 1e-8, "XH vector for eigenvalue -3 is not exact"),
    # an approximate vector ahead of the broken exact one fails first
    ("XE", 0, 0.0, "XV eigenvalue -3.8"),
    ("XV", 2, 0.0, "XV eigenvalue -3.8"),
])
def test_first_failure_in_family_order(kind, index, tol, message, monkeypatch):
    # random_tiling(3, 1) mixes approximate and exact seeds in XV and XH.
    # Every vector is an XE seed, so XE is broken through its tail
    t = random_tiling(3, 1)
    families = build_families(t, 2)
    fam = next(f for f in families if f.kind == kind)
    assert fam.exact[index] and not families[0].exact[0]
    change = _with_tail if kind == "XE" else _with_seed
    bad = change(families, kind, index, _off_by_one)
    with pytest.raises(VerificationFailure) as info:
        monkeypatch.setattr(la, "RESIDUAL_TOL", tol)
        _verify_with(monkeypatch, t, 2, bad)
    assert str(info.value).startswith(f"eigenvector-residual: {message}")


def test_wrong_tail_coefficient_fails(monkeypatch):
    # XV's tails 1_k (x) y have V w = k w, not (k + 1) w; the tails are
    # checked before the seeds, which now come from 3 l_v
    real = eigenbasis_mod._family_table

    def table(k):
        return tuple((kind, tails, (0, 0, 3, -1) if kind == "XV" else coefficients)
                     for kind, tails, coefficients in real(k))

    monkeypatch.setattr(eigenbasis_mod, "_family_table", table)
    with pytest.raises(VerificationFailure,
                       match=r"^eigenvector-residual: XV tail 0: V w != 3 w$"):
        verify(classical_tiling(2), 2)


def test_shifted_seed_value_fails(monkeypatch):
    # l_v's smallest closed-form eigenvalue -2 shifted to -1: its vectors
    # have blown value 2 * -2 - 1 = -5, but the family claims 2 * -1 - 1 = -3
    real = eigenbasis_mod.layer_eigenspaces

    def shifted(t, axis):
        spaces = real(t, axis)
        if axis == "column":
            low = spaces[0]
            assert low.value == -2 and low.exact
            spaces[0] = dataclasses.replace(low, value=low.value + 1)
        return spaces

    monkeypatch.setattr(eigenbasis_mod, "layer_eigenspaces", shifted)
    with pytest.raises(VerificationFailure,
                       match=r"^eigenvector-residual: XV vector for eigenvalue -3 is not exact$"):
        verify(classical_tiling(2), 2)


def test_non_orthogonal_tails_fail(monkeypatch):
    # XH replaced by a copy of XV: every clause before the rank holds, but
    # the two families share their tails, so the stack repeats XV
    t = classical_tiling(2)
    xv, _, xe, xm = build_families(t, 2)
    families = (xv, dataclasses.replace(xv, kind="XH"), xe, xm)
    with pytest.raises(VerificationFailure,
                       match=r"^basis-rank: XV and XH tails are not orthogonal$"):
        _verify_with(monkeypatch, t, 2, families)
    with pytest.raises(VerificationFailure, match=r"^basis-rank: rank 48 != 64$"):
        dense_basis_rank(families, 64)


_MUTATIONS = ("none", "seed-off-by-one", "seed-duplicated", "eigenvalue-shifted",
              "tail-duplicated", "tails-shared")


def _mutate(families, mutation, i, j):
    """families under `mutation`, at positions chosen by i and j, or None
    where it does not apply.  Each mutation leaves the tails' coefficients
    true, so the factor-level and dense clauses must agree on it."""
    present = [f for f in families if len(f)]
    fam = present[i % len(present)]
    n = _seed_count(fam)
    if mutation == "none":
        return families
    if mutation == "seed-off-by-one":
        exact = [x for x in range(n) if fam.exact[x * len(fam.tails)]]
        if not exact:
            return None
        return _with_seed(families, fam.kind, exact[j % len(exact)], _off_by_one)
    if mutation == "seed-duplicated":
        # within one eigenspace, so only the rank can notice
        starts, pos = [], 0
        for space in fam.spaces:
            if space.dim > 1:
                starts.append((pos, space))
            pos += space.dim
        if not starts:
            return None
        pos, space = starts[j % len(starts)]
        src = (j // len(starts)) % space.dim
        dst = (src + 1) % space.dim
        return _with_seed(families, fam.kind, pos + dst, lambda v: space.vectors[src].copy())
    if mutation == "eigenvalue-shifted":
        spaces = list(fam.spaces)
        s = spaces[j % len(spaces)]
        spaces[j % len(spaces)] = dataclasses.replace(s, value=s.value + 1)
        mutated = dataclasses.replace(fam, spaces=tuple(spaces))
        return tuple(mutated if f is fam else f for f in families)
    if mutation == "tail-duplicated":
        w = len(fam.tails)
        if w < 2:
            return None
        return _with_tail(families, fam.kind, (j % (w - 1)) + 1, lambda v: fam.tails[0].copy())
    # tails-shared: XH becomes a copy of XV
    xv, xh = families[0], families[1]
    if not len(xv):
        return None
    return (xv, dataclasses.replace(xv, kind="XH")) + tuple(families[2:])


def _clauses(run):
    """(clause or "ok", rank) of the eigenvector and rank clauses."""
    try:
        return "ok", run()
    except VerificationFailure as exc:
        return exc.clause, None


@given(tilings(min_m=1, max_m=4), st.integers(1, 3), st.sampled_from(_MUTATIONS),
       st.integers(0, 10**6), st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_factor_clauses_match_dense_reference(t, k, mutation, i, j):
    families = _mutate(build_families(t, k), mutation, i, j)
    assume(families is not None)
    d = layers(t)
    subs = substitution_set(k)
    dim = k * k * t.n_cells
    up = blown_adjacency(t, k)
    fro = np.linalg.norm(np.asarray(up, dtype=float))

    def factor():
        eigenbasis_mod._max_residual(families, d, subs, fro)
        return eigenbasis_mod._basis_rank(families, dim)

    def dense():
        dense_max_residual(families, up)
        return dense_basis_rank(families, dim)

    assert _clauses(factor) == _clauses(dense)


@pytest.mark.parametrize("k", [2, 3])
def test_perturbed_residual_matches_dense(k):
    # an approximate XM seed moved by 1e-9 along a unit vector keeps its
    # residual under the bound but far above rounding, so the factor-level
    # residual ||(E - mu) x|| * max ||w|| must equal the dense one
    t = random_tiling(3, 1)

    def nudge(x):
        x[0] += 1e-9
        return x

    families = _with_seed(build_families(t, k), "XM", 0, nudge)
    assert not families[3].exact[0]
    up = blown_adjacency(t, k)
    fro = np.linalg.norm(np.asarray(up, dtype=float))
    factor = eigenbasis_mod._max_residual(families, layers(t), substitution_set(k), fro)
    dense = dense_max_residual(families, up)
    assert dense > 1e-10
    assert factor == pytest.approx(dense, rel=1e-6)


@pytest.mark.parametrize("t, k", [(classical_tiling(2), 3), (random_tiling(4, 2), 2),
                                  (random_tiling(9, 1), 3)],
                         ids=["classical2-k3", "random4-2-k2", "random9-1-k3"])
def test_residual_bound_scales_with_blown_norm(t, k, monkeypatch):
    # verify hands the eigenvector clause ||blown||_F, read off the
    # reconciled 0/1 matrix
    seen = []
    real = eigenbasis_mod._max_residual

    def recorded(families, d, subs, fro):
        seen.append(fro)
        return real(families, d, subs, fro)

    monkeypatch.setattr(eigenbasis_mod, "_max_residual", recorded)
    verify(t, k)
    dense = np.linalg.norm(np.asarray(blown_adjacency(t, k), dtype=float))
    assert seen == [pytest.approx(dense, rel=1e-15)]


def test_duplicated_tail_fails_rank():
    # XE's second tail made equal to its first: rank(W_XE) is 3 of 4, so the
    # blown stack loses N = 16 vectors
    families = build_families(classical_tiling(2), 3)
    first = families[2].tails[0]
    doubled = _with_tail(families, "XE", 1, lambda w: first.copy())
    with pytest.raises(VerificationFailure, match=r"^basis-rank: rank 128 != 144$"):
        eigenbasis_mod._basis_rank(doubled, 144)


@pytest.mark.parametrize("t", [classical_tiling(3), random_tiling(9, 1)],
                         ids=["classical3", "random9-1"])
def test_build_families_kernels_are_modular(t):
    # the seeds' exact eigenvectors come from the modular kernel alone:
    # linalg keeps no Bareiss routine for them to fall back to
    assert [name for name in vars(la) if "bareiss" in name.lower()] == []
    families = build_families(t, 3)
    n = t.n_cells
    assert tuple(len(f) for f in families) == (2 * n, 2 * n, 4 * n, n)


@pytest.mark.parametrize("t, k", [(classical_tiling(2), 2), (random_tiling(3, 1), 3),
                                  (random_tiling(4, 2), 2)],
                         ids=["classical2-k2", "random3-1-k3", "random4-2-k2"])
def test_build_families_match_vectorwise_kron(t, k):
    # the expanded vectors are kron(x, w) for each seed vector x and tail
    # w, x-major and tail-minor, with the same entry types
    families = build_families(t, k)
    d = layers(t)
    lattice = spectra._lattice(t)  # M's seeds come off it when it accepts t
    m_spaces = lattice and spectra._lattice_eigenspaces(lattice, (k * k, k, k))
    seeds = {
        "XV": layer_eigenspaces(t, "column"),  # the closed-form layer seeds
        "XH": layer_eigenspaces(t, "row"),
        "XE": [eigenbasis_mod.EigenSpace(0, tuple(la.unit_vector(t.n_cells, i)
                                                  for i in range(t.n_cells)), True)],
        "XM": [eigenbasis_mod.EigenSpace(lam, tuple(vecs), True) for lam, vecs in m_spaces]
        if m_spaces else eigenvector_basis(k * k * d.l_b + k * d.l_h + k * d.l_v),
    }
    for kind, tails, _ in eigenbasis_mod._family_table(k):
        fam = next(f for f in families if f.kind == kind)
        xs = [x for space in seeds[kind] for x in space.vectors] if tails else []
        expected = [la.kron(x, w) for x in xs for w in tails]
        got_vectors = blown_vectors(fam)
        assert len(got_vectors) == len(expected)
        for got, want in zip(got_vectors, expected):
            assert got.dtype == want.dtype and got.tolist() == want.tolist()
            assert [type(v) for v in got] == [type(v) for v in want]


def test_basis_rank_falls_back_when_short_mod_p(monkeypatch):
    # a seed vector scaled by the rank prime is 0 mod p but keeps the
    # rational rank full: the short modular rank of XM's 16 x 16 seed stack
    # hands over to the exact kernel, and no other stack does
    t = classical_tiling(2)
    p = la._primes(1)[0]
    families = _with_seed(build_families(t, 2), "XM", 15, lambda v: v * p)
    calls = []
    real = la.rational_kernel
    monkeypatch.setattr(
        la, "rational_kernel", lambda mat, lam: calls.append((mat.shape, lam)) or real(mat, lam)
    )
    assert eigenbasis_mod._basis_rank(families, 64) == 64
    assert calls == [((16, 16), 0)]


def test_basis_rank_deficient_stack_fails():
    t = classical_tiling(2)
    families = build_families(t, 2)
    xe_seeds = families[2].spaces[0].vectors
    doubled = _with_seed(families, "XE", 3, lambda v: xe_seeds[2].copy())
    with pytest.raises(VerificationFailure, match=r"^basis-rank: rank 63 != 64$"):
        eigenbasis_mod._basis_rank(doubled, 64)


def _failing_oracle(a):
    raise la.ConvergenceError("injected")


def test_factor_failure_outranks_oracle_error(monkeypatch):
    # the exact clauses run beside the float oracle; when both fail, the
    # clause is reported, with the message it has when the oracle passes
    t = classical_tiling(2)
    bad = _with_seed(build_families(t, 2), "XV", 0, _off_by_one)
    monkeypatch.setattr(la, "float_eigen", _failing_oracle)
    with pytest.raises(VerificationFailure) as info:
        _verify_with(monkeypatch, t, 2, bad)
    assert str(info.value) == "eigenvector-residual: XV vector for eigenvalue -5 is not exact"


def test_oracle_error_alone_exits_3(tmp_path, monkeypatch, capsys):
    from sudoku_spectra import cli
    from sudoku_spectra.tiling import render_tiling

    path = tmp_path / "c2.tiling"
    path.write_text(render_tiling(classical_tiling(2)))
    monkeypatch.setattr(la, "float_eigen", _failing_oracle)
    assert cli.main(["blowup", str(path), "--k", "2", "--verify"]) == 3
    assert capsys.readouterr().err == "compute error: injected\n"


def test_verify_leaves_no_thread_behind(monkeypatch):
    # each verify shuts its pool down and waits for the worker, whether it
    # passes, the oracle fails or a clause fails
    import threading

    shutdowns = []

    class Recorded(eigenbasis_mod.ThreadPoolExecutor):
        def shutdown(self, wait=True, **kwargs):
            shutdowns.append(wait)
            super().shutdown(wait, **kwargs)

    monkeypatch.setattr(eigenbasis_mod, "ThreadPoolExecutor", Recorded)
    t = classical_tiling(2)
    baseline = threading.active_count()
    verify(t, 2)
    assert threading.active_count() == baseline
    with monkeypatch.context() as patch:
        patch.setattr(la, "float_eigen", _failing_oracle)
        with pytest.raises(la.ConvergenceError):
            verify(t, 2)
    assert threading.active_count() == baseline
    bad = _with_seed(build_families(t, 2), "XM", 3, _off_by_one)
    with pytest.raises(VerificationFailure):
        _verify_with(monkeypatch, t, 2, bad)
    assert threading.active_count() == baseline
    assert shutdowns == [True] * 3


def test_limits_are_checked_before_the_oracle(monkeypatch):
    # random_tiling(23, 0) has 529 cells: l_v and l_h are proven integral,
    # M is not, so its seed is refused before any kernel, blown matrix or
    # oracle is computed
    calls = []

    def count(module, name):
        real = getattr(module, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    count(la, "float_eigen")
    count(la, "rational_kernel")
    count(eigenbasis_mod, "blown_adjacency")
    with pytest.raises(la.DimensionMismatch,
                       match="n <= 512 unless the spectrum is proven integral, got 529"):
        verify(random_tiling(23, 0), 2)
    assert calls == []


def _one_edge_off(t, k):
    a = blown_adjacency(t, k)
    a[0, 1] = a[1, 0] = 1 - a[0, 1]
    return a


def test_verify_without_blown_reconciles(monkeypatch):
    # verify builds the blown matrix itself and still reconciles it
    monkeypatch.setattr(eigenbasis_mod, "blown_adjacency", _one_edge_off)
    with pytest.raises(VerificationFailure) as info:
        verify(classical_tiling(2), 2)
    assert str(info.value) == "direct and Kronecker constructions differ"


@pytest.mark.parametrize("factor, oracle", [(True, False), (False, True), (True, True)],
                         ids=["factor", "oracle", "both"])
def test_reconcile_failure_outranks_the_rest(factor, oracle, monkeypatch):
    # reconcile is the worker's first clause: its failure is reported ahead
    # of a failing factor-level clause and of an oracle error
    t = classical_tiling(2)
    families = build_families(t, 2)
    if factor:
        families = _with_seed(families, "XV", 0, _off_by_one)
    if oracle:
        monkeypatch.setattr(la, "float_eigen", _failing_oracle)
    with pytest.raises(VerificationFailure) as info:
        _verify_with(monkeypatch, t, 2, families, blown=_one_edge_off(t, 2))
    assert str(info.value) == "direct and Kronecker constructions differ"


def _record_exact_routes(monkeypatch) -> list:
    seen = []
    for name in ("_candidate_limits", "_scanned_candidates", "_rational_kernel",
                 "integral_spectrum"):
        real = getattr(la, name)

        def recorded(a, *args, _real=real, _name=name):
            seen.append((_name, a))
            return _real(a, *args)

        monkeypatch.setattr(la, name, recorded)
    return seen


def test_only_m_is_scanned_and_kernelled(freeform4, monkeypatch):
    # the lattice rejects the free-form example, and at k=3 XV and XH take
    # their seeds in closed form, so the limit gate, the candidate scan and
    # the exact kernels see M alone
    seen = _record_exact_routes(monkeypatch)
    verify(freeform4, 3)
    d = layers(freeform4)
    m = 9 * d.l_b + 3 * d.l_h + 3 * d.l_v
    assert {name for name, _ in seen} == {"_candidate_limits", "_scanned_candidates",
                                          "_rational_kernel"}
    assert all(np.array_equal(a, m) for _, a in seen)


def test_lattice_accepted_m_is_neither_gated_scanned_nor_kernelled(monkeypatch):
    # classical n=3, k=3 (the benchmark's exact input): M's eigenspaces come
    # off the partition lattice, so no limit gate, scan, kernel or
    # certificate runs, and the seeds are still proven by the clauses
    seen = _record_exact_routes(monkeypatch)
    rep = verify(classical_tiling(3), 3)
    assert seen == []
    assert rep.total_rank == 729 and rep.max_residual == 0.0
    assert all(s.exact for s in rep.families[3].spaces)


def test_short_lattice_rank_falls_back_to_the_kernels(monkeypatch):
    # mod 2 some Pi_E of classical n=2 falls short of rank dims[E] (its class
    # sizes are powers of 2), so M's seeds come from the kernel route, with
    # the same values and dimensions, and verify still passes
    t = classical_tiling(2)
    want = [(s.value, s.dim) for s in build_families(t, 2)[3].spaces]
    monkeypatch.setattr(spectra, "_LATTICE_PRIME", 2)
    assert spectra._lattice_eigenspaces(spectra._lattice(t), (4, 2, 2)) is None
    seen = _record_exact_routes(monkeypatch)
    rep = verify(t, 2)
    assert [(s.value, s.dim) for s in rep.families[3].spaces] == want
    assert {name for name, _ in seen} == {"_candidate_limits", "_scanned_candidates",
                                          "_rational_kernel"}


LATTICE_TILINGS = [
    classical_tiling(1), classical_tiling(2), classical_tiling(3),
    row_tiling(2), row_tiling(3), row_tiling(4), transpose(row_tiling(3)),
    blow_up_tiling(classical_tiling(1), 3), blow_up_tiling(classical_tiling(2), 2),
    blow_up_tiling(row_tiling(2), 2), blow_up_tiling(row_tiling(3), 2),
]


@st.composite
def lattice_tilings(draw) -> Tiling:
    """A lattice-accepted tiling with its block labels permuted."""
    t = draw(st.sampled_from(LATTICE_TILINGS))
    perm = draw(st.permutations(range(t.n_blocks)))
    return Tiling(t.m, tuple(perm[b] for b in t.block_of))


@given(lattice_tilings(), st.integers(1, 3))
@settings(max_examples=30, deadline=None)
@example(classical_tiling(3), 3)
def test_lattice_m_spaces_match_the_kernel_route(t, k):
    # M's eigenspaces off the lattice against `eigenvector_basis(M)`: the
    # same (value, dimension) list, exact eigenvectors, full rank, and
    # primitive integer vectors whose first nonzero entry is positive
    lattice = spectra._lattice(t)
    assert lattice is not None
    coefficients = eigenbasis_mod._m_coefficients(k)
    m = eigenbasis_mod._seed_operator(layers(t), coefficients)
    spaces = spectra._lattice_eigenspaces(lattice, coefficients[:3])
    assert [(lam, len(vecs)) for lam, vecs in spaces] \
        == [(s.value, s.dim) for s in eigenvector_basis(m)]
    vectors = [x for _, vecs in spaces for x in vecs]
    values = [lam for lam, vecs in spaces for _ in vecs]
    assert not la.eigen_mismatch(m, vectors, values).any()
    assert la.rank(vectors) == t.n_cells
    for x in vectors:
        assert all(type(v) is int for v in x)
        assert math.gcd(*x) == 1 and next(v for v in x if v) > 0


def test_m_is_validated_once(freeform4, monkeypatch):
    # the free-form example at k=3, which the lattice rejects: M is checked
    # once, by `integer_eigenspaces`, and neither its kernel nor the
    # candidate scan checks it again; the other counts are the oracle's
    # checks (the blown matrix once, then each of its 4 distinct N x N
    # blocks in `float_eigen`), the ranks of the exact seed and the tail
    # stacks, and the Gershgorin bounds of M's limit gate (on both threads,
    # on the object M) and of the exact eigenvector checks of the kernel
    # lift and of the factor-level residual clause (on int64 copies)
    calls, bound_dtypes = [], []
    for name in ("_require_ints", "_require_symmetric", "gershgorin_bound"):
        real = getattr(la, name)

        def counted(*args, _real=real, _name=name):
            calls.append(_name)
            if _name == "gershgorin_bound":
                bound_dtypes.append(args[0].dtype)
            return _real(*args)

        monkeypatch.setattr(la, name, counted)
    verify(freeform4, 3)
    counts = {name: calls.count(name) for name in set(calls)}
    assert counts == {"_require_ints": 6, "_require_symmetric": 6, "gershgorin_bound": 7}
    assert bound_dtypes.count(np.int64) == 5


def test_blown_matrix_never_reaches_eigh(monkeypatch):
    # the oracle is values-only: eigh sees only M's complement of its exact
    # eigenvectors, never the k^2 N blown matrix; eigvalsh sees the
    # oracle's N x N blocks and the closed-form seeds' small matrices
    shapes = {"eigh": [], "eigvalsh": []}
    for name in shapes:
        real = getattr(np.linalg, name)

        def recorded(a, *args, _real=real, _name=name, **kwargs):
            shapes[_name].append(a.shape)
            return _real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recorded)
    t = random_tiling(9, 1)
    verify(t, 2)
    assert shapes["eigh"] and all(shape[0] < t.n_cells for shape in shapes["eigh"])
    assert shapes["eigvalsh"].count((t.n_cells, t.n_cells)) == 4
    assert all(shape[0] <= t.n_cells for shape in shapes["eigvalsh"])


def test_broken_block_structure_is_an_oracle_mismatch(monkeypatch):
    # with reconcile passed over, a blown matrix with one symmetric pair
    # flipped reaches the oracle, whose block check refuses it before any
    # float value is computed
    t = classical_tiling(2)
    monkeypatch.setattr(eigenbasis_mod, "reconcile", lambda *args: True)
    calls = []
    monkeypatch.setattr(la, "float_eigen", lambda a: calls.append(a.shape))
    with pytest.raises(VerificationFailure) as info:
        verify(t, 2, blown=_one_edge_off(t, 2))
    assert str(info.value) == (
        "spectrum-oracle-mismatch: "
        "the blown matrix is not block-diagonalised by I_N (x) T_k (x) T_k"
    )
    assert calls == []


def test_multipartite_lapack_failure(monkeypatch):
    # K_{2,1} has the irrational secular roots +-sqrt(2), valued by eigvalsh
    def failing(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", failing)
    with pytest.raises(la.ConvergenceError, match="^LAPACK failed: "):
        eigenbasis_mod._multipartite_pairs([[0, 1], [2]], 3)
