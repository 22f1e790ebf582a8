"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; every tolerance is pinned here.
"""

import time

import numpy as np

from sudoku_spectra import linalg as la
from sudoku_spectra.blowup import blown_adjacency, reconcile, substitution_set
from sudoku_spectra.eigenbasis import verify
from sudoku_spectra.graph import adjacency, template
from sudoku_spectra.integrality import (
    GUARANTEED_INTEGRAL,
    check_condition_iii,
    check_regcommute,
    theorem_verdict,
)
from sudoku_spectra.spectra import exact_spectrum, is_integral, multipartite_spectrum
from sudoku_spectra.tiling import classical_tiling, random_tiling, row_tiling

from golden import BLOWUP3_H, BLOWUP3_V, FREEFORM4_ADJACENCY, FREEFORM4_TEMPLATE
from oracles import int_matrix, trace
from test_integrality import layer_regcommute, layers_commute
from test_spectra import complete_multipartite

SPECTRUM_TOL = 1e-6
TRACE_TOL = 1e-6


def report(num: int, text: str) -> None:
    print(f"ACCEPTANCE {num:2d}: PASS - {text}")


def test_criterion_01_golden_matrices(freeform4):
    started = time.perf_counter()
    assert np.array_equal(
        adjacency(freeform4), np.array(FREEFORM4_ADJACENCY, dtype=object)
    )
    expected_template = np.array([list(row) for row in FREEFORM4_TEMPLATE])
    assert np.array_equal(template(freeform4), expected_template)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    report(1, f"16x16 adjacency and template reproduced bit-exactly ({elapsed:.3f}s)")


def test_criterion_02_substitution_matrices():
    s = substitution_set(3)
    assert np.array_equal(s.h, np.array(BLOWUP3_H, dtype=object))
    assert np.array_equal(s.v, np.array(BLOWUP3_V, dtype=object))
    report(2, "9x9 substitution blocks H and V reproduced bit-exactly")


def test_criterion_03_multipartite_closed_form():
    started = time.perf_counter()
    for q in range(1, 6):
        for k in range(1, 6):
            closed = multipartite_spectrum(q, k)
            explicit = exact_spectrum(complete_multipartite([q] * k))
            assert closed == explicit, (q, k)
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    report(3, f"closed-form spectra match explicit graphs for q,k <= 5 ({elapsed:.2f}s)")


def test_criterion_04_classical_integrality():
    started = time.perf_counter()
    for n in (2, 3):
        t = classical_tiling(n)
        assert is_integral(adjacency(t)), n
        assert theorem_verdict(t).verdict == GUARANTEED_INTEGRAL, n
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    report(4, f"classical n=2,3 integral and guaranteed by the theorem ({elapsed:.2f}s)")


def test_criterion_05_regcommute_equivalence(random_sample_100):
    # const row sum and commuting with l_b come from the layer matrices
    assert len(random_sample_100) >= 100
    for t in random_sample_100:
        for axis in ("row", "column"):
            rc = check_regcommute(t, axis)
            const_row_sum, commutes = layer_regcommute(t, axis)
            assert rc.regular == const_row_sum == commutes == rc.commutes_with_blocks, (t, axis)
    report(5, "regular / const-row-sum / commutes agree on 100 random tilings, both axes")


def test_criterion_06_condition_iii_crosscheck(random_sample_100, noncommuting4):
    # the cell form (production) against the matrix form (reference)
    for t in random_sample_100:
        assert check_condition_iii(t) == layers_commute(t), t
    for axis in ("row", "column"):
        const_row_sum, _ = layer_regcommute(noncommuting4, axis)
        assert const_row_sum
    assert check_condition_iii(noncommuting4) is False
    assert layers_commute(noncommuting4) is False
    report(6, "condition (iii) formulations agree on 100 tilings; "
              "const-row-sum non-commuting tiling detected")


def test_criterion_07_blowup_reconciliation(freeform4):
    for k in (2, 3):
        for t in (freeform4, classical_tiling(2)):
            assert reconcile(t, k, blown_adjacency(t, k))
    count = 0
    for i in range(50):
        m = 2 + i % 3
        k = 1 + i % 3
        t = random_tiling(m, seed=1000 + i)
        assert reconcile(t, k, blown_adjacency(t, k))
        count += 1
    assert count >= 50
    assert np.array_equal(blown_adjacency(freeform4, 1), adjacency(freeform4))
    report(7, "direct and Kronecker blow-ups agree (named cases + 50 random; k=1 identity)")


def test_criterion_08_eigenbasis_theorem(freeform4):
    started = time.perf_counter()
    rep = verify(freeform4, 3)
    assert rep.family_sizes == (32, 32, 64, 16)
    assert rep.total_rank == 144
    assert rep.spectrum_max_error <= SPECTRUM_TOL
    elapsed_a = time.perf_counter() - started
    assert elapsed_a < 30.0

    # the same construction on a 2x2 grid carries the literal family sizes
    # (8, 8, 16, 4) with rank 36
    rep_small = verify(row_tiling(2), 3)
    assert rep_small.family_sizes == (8, 8, 16, 4)
    assert rep_small.total_rank == 36

    started = time.perf_counter()
    rep2 = verify(classical_tiling(2), 2)
    assert rep2.family_sizes == (16, 16, 16, 16)
    assert rep2.total_rank == 64
    assert rep2.max_residual == 0.0
    assert rep2.spectrum_max_error <= SPECTRUM_TOL
    elapsed_b = time.perf_counter() - started
    assert elapsed_b < 30.0
    report(8, "eigenbasis exact, full rank, spectrum matches oracle "
              f"({elapsed_a:.2f}s / {elapsed_b:.2f}s)")


def test_criterion_09_largest_eigenvalue(freeform4):
    from sudoku_spectra.graph import layers

    for t, k in ((freeform4, 3), (classical_tiling(2), 2), (row_tiling(2), 3)):
        rep = verify(t, k)
        assert rep.max_family == "XM"
        d = layers(t)
        m_matrix = k * k * d.l_b + k * d.l_h + k * d.l_v
        lam_max = la.float_eigen(m_matrix)[-1]
        assert abs(rep.max_predicted - (lam_max + k * k - 1)) <= SPECTRUM_TOL
        assert abs(rep.max_predicted - rep.oracle[-1]) <= SPECTRUM_TOL
        assert rep.max_predicted >= t.m * k * k - 1 - SPECTRUM_TOL
    report(9, "largest eigenvalue always from XM, equals max(M) + k^2 - 1, >= m*k^2 - 1")


def test_criterion_10_blowup_integrality():
    t = classical_tiling(2)
    for k in (2, 3):
        s = exact_spectrum(blown_adjacency(t, k))
        assert s.residual_degree == 0, k
    report(10, "blow-ups of the classical 16-cell graph stay integral for k=2,3")


def test_criterion_11_oracle_self_consistency():
    rng = np.random.default_rng(2024)
    for trial in range(50):
        n = int(rng.integers(2, 31))
        s = rng.integers(0, 2, size=(n, n))
        s = np.triu(s, 1)
        a = int_matrix((s + s.T).tolist())
        floats = la.float_eigen(a)
        spectrum = exact_spectrum(a)
        exact = [float(lam) for lam, mult in spectrum.integer_part for _ in range(mult)]
        if spectrum.residual_degree:
            roots = np.roots(list(reversed(spectrum.residual)))
            assert np.all(np.abs(roots.imag) < 1e-6), trial
            exact.extend(float(x) for x in roots.real)
        assert len(exact) == n
        assert np.allclose(sorted(floats), sorted(exact), atol=SPECTRUM_TOL), trial
        assert abs(sum(floats) - trace(a)) <= TRACE_TOL * n, trial
    report(11, "float oracle matches exact roots and trace on 50 random matrices")
