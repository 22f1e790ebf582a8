import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sudoku_spectra import eigenbasis as eigenbasis_mod
from sudoku_spectra import linalg as la
from sudoku_spectra.blowup import blown_adjacency, substitution_set
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
from oracles import dense_basis_rank, dense_max_residual, int_matrix


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
    monkeypatch.setattr(eigenbasis_mod, "build_families", lambda t_, k_: families)
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


def test_float64_bound_counts_the_eigenvalue():
    # (row_sum + |mu|) * max|v| < 2**53, strictly
    assert eigenbasis_mod._fits_float64(6, 1, 2**50)
    assert not eigenbasis_mod._fits_float64(7, 1, 2**50)
    # row_sum * max|v| alone is below 2**53 here
    assert not eigenbasis_mod._fits_float64(23, 23, 2**48)
    assert not eigenbasis_mod._fits_float64(2**52, 2**52, 1)


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
    assert not eigenbasis_mod._fits_float64(23, 23, scale)
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
        _verify_with(monkeypatch, t, 2, bad, residual_tol=tol)
    assert str(info.value).startswith(f"eigenvector-residual: {message}")


def _patched_table(monkeypatch, kind, **changes):
    """Patch `_family_table` so family `kind` gets a wrong coefficient
    tuple or eigenvalue map."""
    real = eigenbasis_mod._family_table

    def table(t, k):
        rows = []
        for row in real(t, k):
            if row[0] == kind:
                name, seed, tails, coefficients, to_blown = row
                row = (name, seed, tails, changes.get("coefficients", coefficients),
                       changes.get("to_blown", to_blown))
            rows.append(row)
        return tuple(rows)

    monkeypatch.setattr(eigenbasis_mod, "_family_table", table)


def test_wrong_tail_coefficient_fails(monkeypatch):
    # XV's tails 1_k (x) y have V w = k w, not (k + 1) w
    _patched_table(monkeypatch, "XV", coefficients=(0, 0, 3, -1))
    with pytest.raises(VerificationFailure,
                       match=r"^eigenvector-residual: XV tail 0: V w != 3 w$"):
        verify(classical_tiling(2), 2)


def test_wrong_eigenvalue_map_fails(monkeypatch):
    # lam * k instead of lam * k - 1: l_v's smallest eigenvalue -2 maps to -4
    _patched_table(monkeypatch, "XV", to_blown=lambda lam: lam * 2)
    with pytest.raises(VerificationFailure,
                       match=r"^eigenvector-residual: XV vector for eigenvalue -4 is not exact$"):
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
    n, dim = t.n_cells, k * k * t.n_cells
    up = blown_adjacency(t, k)

    def factor():
        eigenbasis_mod._max_residual(families, d, subs, n, 1e-8)
        return eigenbasis_mod._basis_rank(families, dim)

    def dense():
        dense_max_residual(families, up, 1e-8)
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
    factor = eigenbasis_mod._max_residual(families, layers(t), substitution_set(k),
                                          t.n_cells, 1e-8)
    dense = dense_max_residual(families, blown_adjacency(t, k), 1e-8)
    assert dense > 1e-10
    assert factor == pytest.approx(dense, rel=1e-6)


@pytest.mark.parametrize("t, k", [(classical_tiling(2), 3), (random_tiling(4, 2), 2),
                                  (random_tiling(9, 1), 3)],
                         ids=["classical2-k3", "random4-2-k2", "random9-1-k3"])
def test_blown_frobenius_matches_dense(t, k):
    # the factor-level norm the residual bound scales with
    dense = np.linalg.norm(np.asarray(blown_adjacency(t, k), dtype=float))
    factor = eigenbasis_mod._blown_frobenius(layers(t), substitution_set(k), t.n_cells)
    assert factor == pytest.approx(dense, rel=1e-15)


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
    # the expanded vectors are kron(x, w) for each seed vector x and tail
    # w, x-major and tail-minor, with the same entry types
    families = build_families(t, k)
    for kind, seed, tails, _, _ in eigenbasis_mod._family_table(t, k):
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
    # a seed vector scaled by the rank prime is 0 mod p but keeps the
    # rational rank full: the short modular rank of XM's 16 x 16 seed stack
    # hands over to linalg.rank
    t = classical_tiling(2)
    p = la._primes(1)[0]
    families = _with_seed(build_families(t, 2), "XM", 15, lambda v: v * p)
    calls = []
    real = la.rank
    monkeypatch.setattr(la, "rank", lambda mat: calls.append(mat.shape) or real(mat))
    assert eigenbasis_mod._basis_rank(families, 64) == 64
    assert calls == [(16, 16)]


def test_basis_rank_deficient_stack_fails():
    t = classical_tiling(2)
    families = build_families(t, 2)
    xe_seeds = families[2].spaces[0].vectors
    doubled = _with_seed(families, "XE", 3, lambda v: xe_seeds[2].copy())
    with pytest.raises(VerificationFailure, match=r"^basis-rank: rank 63 != 64$"):
        eigenbasis_mod._basis_rank(doubled, 64)
