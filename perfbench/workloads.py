"""Workloads: seeded inputs, the CLI jobs run on them, and output checks.

Every workload runs two commands, and each one feeds one of the generic
end-to-end metrics `cmd1_s` and `cmd2_s` (seconds per command). The
`SLOT_NAMES` maps them to the per-command names used in reports, such
as `spectrum_s` and `check_s`.

Every check uses an oracle computed here. The graph is rebuilt from cell
labels alone (same row, column or block), without calling the program. Its
float eigenvalues come from numpy, and its characteristic polynomial is
evaluated exactly, mod a prime, by Gaussian elimination. Checks run outside
the timed region.
"""

from __future__ import annotations

import json
import math
import random
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable

import numpy as np

from sudoku_spectra.tiling import Tiling, classical_tiling, random_tiling, render_tiling

# rounding tolerance for "this float eigenvalue is an integer"
INT_TOL = 1e-6
BLOWUP_K = 3
SEARCH_M = 6
SEARCH_COUNT = 100
# Products of two residues mod this prime fit in int64.
DET_PRIME = 2**31 - 1


def det_mod_p(a: np.ndarray) -> int:
    """det(a) mod DET_PRIME, by Gaussian elimination over GF(DET_PRIME)."""
    p = DET_PRIME
    a = a.astype(np.int64) % p
    det = 1
    for k in range(len(a)):
        nonzero = np.flatnonzero(a[k:, k])
        if not len(nonzero):
            return 0
        pivot_row = k + int(nonzero[0])
        if pivot_row != k:
            a[[k, pivot_row]] = a[[pivot_row, k]]
            det = -det
        pivot = int(a[k, k])
        det = det * pivot % p
        factors = a[k + 1:, k] * pow(pivot, -1, p) % p
        a[k + 1:, k:] = (a[k + 1:, k:] - np.outer(factors, a[k, k:])) % p
    return det % p


class Oracle:
    """Float spectrum of the k-fold blow-up of a tiling (k=1: the tiling)."""

    def __init__(self, t: Tiling, k: int = 1):
        self.t = t
        self.k = k
        self._charpoly_at: dict[int, int] = {}

    @cached_property
    def adjacency(self) -> np.ndarray:
        m, k = self.t.m, self.k
        side = m * k
        cell = np.arange(side * side)
        row, col = cell // side, cell % side
        block = np.asarray(self.t.block_of)[(row // k) * m + col // k]
        adj = (
            (row[:, None] == row[None, :])
            | (col[:, None] == col[None, :])
            | (block[:, None] == block[None, :])
        )
        np.fill_diagonal(adj, False)
        return adj

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.adjacency.astype(float))

    def charpoly_at(self, x: int) -> int:
        """det(xI - A) mod DET_PRIME."""
        if x not in self._charpoly_at:
            a = -self.adjacency.astype(np.int64)
            np.fill_diagonal(a, x)
            self._charpoly_at[x] = det_mod_p(a)
        return self._charpoly_at[x]

    @property
    def integral(self) -> bool:
        w = self.eigenvalues
        return bool(np.all(np.abs(w - np.round(w)) < INT_TOL))


@dataclass
class Job:
    """One CLI command; `check` maps its stdout to an error message or None."""

    slot: str  # "cmd1" or "cmd2"
    argv: list[str]
    check: Callable[[str], str | None]
    oracles: tuple[Oracle, ...] = ()
    point: int | None = None  # where a spectrum check evaluates the polynomial

    def prepare(self) -> None:
        for o in self.oracles:  # computing them once fills the caches
            o.eigenvalues
            if self.point is not None:
                o.charpoly_at(self.point)


# Per-command metric names used in reports, by workload and slot. Why each
# workload exists is stated in BENCHMARK.json, and for random-sweep in build().
SLOT_NAMES = {
    "exact-classical": {"cmd1": "spectrum_s", "cmd2": "check_s"},
    "blowup-verify": {"cmd1": "verify_exact_s", "cmd2": "verify_approx_s"},
    "random-sweep": {"cmd1": "search_s", "cmd2": "spectrum_s"},
}

# Which end-to-end metric each traced function's per-layer metrics should
# move, and on which workload. The traced report prints this next to them.
LAYER_MOVES = {
    "linalg.char_poly": "spectrum_s, check_s on exact-classical; spectrum_s, search_s on "
                        "random-sweep; no change predicted on blowup-verify",
    "spectra.is_integral": "check_s on exact-classical only",
    **dict.fromkeys(
        ("integrality.theorem_verdict", "integrality.check_condition_iii",
         "integrality.check_regcommute"),
        "check_s on exact-classical; search_s on random-sweep"),
    **dict.fromkeys(("linalg.integer_roots", "spectra.exact_spectrum"),
                    "spectrum_s on random-sweep"),
    **dict.fromkeys(("linalg.rank", "linalg.rational_kernel", "eigenbasis.verify"),
                    "verify_exact_s on blowup-verify"),
    **dict.fromkeys(("linalg.float_eigen", "linalg._float_eigen_pairs"),
                    "verify_approx_s on blowup-verify"),
    **dict.fromkeys(
        ("eigenbasis.build_families", "eigenbasis.eigenvector_basis",
         "eigenbasis.predicted_spectrum", "blowup.reconcile", "blowup.blown_adjacency",
         "linalg.kron"),
        "verify_exact_s, verify_approx_s on blowup-verify"),
    **dict.fromkeys(("graph.layers", "graph.adjacency", "tiling.random_tiling", "cli.main"),
                    "search_s on random-sweep"),
}


# ---------------------------------------------------------------------------
# output checks


def _check_spectrum(oracle: Oracle, point: int, expect_integral: bool | None) -> Callable:
    def check(out: str) -> str | None:
        rep = json.loads(out)["exact"]
        w = oracle.eigenvalues
        ints = Counter({lam: mult for lam, mult in rep["integer_part"]})
        if sum(ints.values()) + rep["residual_degree"] != len(w):
            return f"multiplicities + residual degree != {len(w)}"
        near = Counter(int(round(x)) for x in w if abs(x - round(x)) < INT_TOL)
        if near != ints:
            return f"integer eigenvalues {dict(ints)} != rounded oracle {dict(near)}"
        coeffs = [int(c) for c in rep["residual_coeffs"]]
        if len(coeffs) != rep["residual_degree"] + 1 or coeffs[-1] != 1:
            return "residual polynomial is not monic of the stated degree"
        # Exact, no floats: the reported factorisation, prod (x - lam)^mult
        # times the residual, must equal det(xI - A) at `point` mod DET_PRIME.
        # A wrong coefficient or multiplicity passes with chance <= n / DET_PRIME.
        value = math.prod(pow(point - lam, mult, DET_PRIME) for lam, mult in ints.items())
        residual = 0
        for c in reversed(coeffs):
            residual = (residual * point + c) % DET_PRIME
        if value * residual % DET_PRIME != oracle.charpoly_at(point):
            return "reported characteristic polynomial != det(xI - A) at a random point"
        if rep["integral"] != (rep["residual_degree"] == 0):
            return "integral flag disagrees with residual degree"
        if expect_integral is not None and rep["integral"] != expect_integral:
            return f"integral={rep['integral']}, expected {expect_integral}"
        return None

    return check


def _check_verdict(oracle: Oracle, expect: str) -> Callable:
    def check(out: str) -> str | None:
        verdict = json.loads(out)["conditions"]["verdict"]
        if verdict != expect:
            return f"verdict {verdict!r}, expected {expect!r}"
        if verdict == "guaranteed-integral" and not oracle.integral:
            return "guaranteed-integral but the oracle spectrum is not integral"
        return None

    return check


def _check_verify(oracle: Oracle, expect_exact: bool) -> Callable:
    def check(out: str) -> str | None:
        rep = json.loads(out)["verify"]
        w = oracle.eigenvalues
        dim = len(w)
        if rep["rank"] != dim:
            return f"rank {rep['rank']} != k^2 N = {dim}"
        if sum(rep["family_sizes"]) != dim or not rep["reconciled"]:
            return f"family sizes {rep['family_sizes']} do not cover {dim}"
        predicted = np.sort([p["eigenvalue"] for p in rep["predicted"]])
        if len(predicted) != dim:
            return f"{len(predicted)} predicted eigenvalues for {dim}"
        err = float(np.max(np.abs(predicted - w)))
        if err > INT_TOL:
            return f"predicted spectrum off the oracle by {err:.3e}"
        if oracle.integral != expect_exact:
            return f"oracle integral={oracle.integral}, expected exact={expect_exact}"
        if expect_exact and rep["max_residual"] != 0.0:
            return "exact families report a float residual"
        return None

    return check


def _check_search(oracles: list[Oracle], base_seed: int) -> Callable:
    def check(out: str) -> str | None:
        records = [json.loads(line) for line in out.splitlines() if line.strip()]
        if len(records) != len(oracles):
            return f"{len(records)} records for {len(oracles)} tilings"
        for i, (rec, oracle) in enumerate(zip(records, oracles)):
            if rec["seed"] != base_seed + i or rec["m"] != oracle.t.m:
                return f"record {i} has seed {rec['seed']}, m {rec['m']}"
            if rec["integral"] != oracle.integral:
                return f"seed {rec['seed']}: integral={rec['integral']}, oracle {oracle.integral}"
        return None

    return check


# ---------------------------------------------------------------------------
# inputs


def _relabel(t: Tiling, rng: random.Random) -> Tiling:
    """The same tiling with its block labels permuted (an identical graph)."""
    perm = list(range(t.n_blocks))
    rng.shuffle(perm)
    return Tiling(t.m, tuple(perm[b] for b in t.block_of))


def _nonintegral_random(m: int, rng: random.Random) -> Tiling:
    """A random m x m tiling with a non-integral spectrum (the common case)."""
    while True:
        t = random_tiling(m, rng.getrandbits(32))
        if not Oracle(t).integral:
            return t


def _write(directory: Path, label: str, t: Tiling) -> str:
    path = directory / f"{label}.tiling"
    path.write_text(render_tiling(t), encoding="utf-8")
    return str(path)


def _spectrum_job(slot, directory, label, t, rng, expect_integral=None) -> Job:
    oracle = Oracle(t)
    point = rng.randrange(DET_PRIME)
    path = _write(directory, label, t)
    return Job(slot, ["spectrum", path, "--exact", "--json"],
               _check_spectrum(oracle, point, expect_integral), (oracle,), point)


def _check_job(slot, directory, label, t, expect) -> Job:
    oracle = Oracle(t)
    path = _write(directory, label, t)
    return Job(slot, ["check", path, "--json"], _check_verdict(oracle, expect), (oracle,))


def _verify_job(slot, directory, label, t, k, expect_exact) -> Job:
    oracle = Oracle(t, k)
    path = _write(directory, label, t)
    return Job(slot, ["blowup", path, "--k", str(k), "--verify", "--json"],
               _check_verify(oracle, expect_exact), (oracle,))


def _search_job(slot, m, count, base_seed) -> Job:
    oracles = [Oracle(random_tiling(m, base_seed + i)) for i in range(count)]
    argv = ["search", "--m", str(m), "--count", str(count), "--seed", str(base_seed), "--jobs", "1"]
    return Job(slot, argv, _check_search(oracles, base_seed), tuple(oracles))


def build(name: str, seed: int, directory: Path) -> tuple[list[Job], list[Job]]:
    """Write the workload's inputs under `directory`; return (round, warm-up) jobs.

    A round runs every input once; the timed loop repeats rounds. Warm-up
    jobs take the same code paths on small inputs, so lazy set-up (numpy's
    linalg, LAPACK, the prime table) is done before timing starts.
    """
    rng = random.Random(f"{name}:{seed}")
    directory.mkdir(parents=True, exist_ok=True)
    guaranteed = "guaranteed-integral"
    if name == "exact-classical":
        c4 = _relabel(classical_tiling(4), rng)
        c2 = _relabel(classical_tiling(2), rng)
        round_jobs = [
            _spectrum_job("cmd1", directory, "c4", c4, rng, expect_integral=True),
            _check_job("cmd2", directory, "c4", c4, guaranteed),
        ]
        warmup = [
            _spectrum_job("cmd1", directory, "c2", c2, rng, expect_integral=True),
            _check_job("cmd2", directory, "c2", c2, guaranteed),
        ]
    elif name == "blowup-verify":
        c3 = _relabel(classical_tiling(3), rng)
        r9 = [_nonintegral_random(9, rng) for _ in range(2)]
        c2 = _relabel(classical_tiling(2), rng)
        r4 = _nonintegral_random(4, rng)
        round_jobs = [
            _verify_job("cmd1", directory, "c3", c3, BLOWUP_K, expect_exact=True),
            _verify_job("cmd2", directory, "r9a", r9[0], BLOWUP_K, expect_exact=False),
            _verify_job("cmd2", directory, "r9b", r9[1], BLOWUP_K, expect_exact=False),
        ]
        warmup = [
            _verify_job("cmd1", directory, "c2", c2, 2, expect_exact=True),
            _verify_job("cmd2", directory, "r4", r4, 2, expect_exact=False),
        ]
    elif name == "random-sweep":
        # Small non-integral matrices, where per-call overhead outweighs prime
        # count; the post-hoc is_integral never fires here.
        r12 = [random_tiling(12, rng.getrandbits(32)) for _ in range(2)]
        r6 = random_tiling(6, rng.getrandbits(32))
        round_jobs = [
            _search_job("cmd1", SEARCH_M, SEARCH_COUNT, rng.getrandbits(31)),
            _spectrum_job("cmd2", directory, "r12a", r12[0], rng),
            _spectrum_job("cmd2", directory, "r12b", r12[1], rng),
        ]
        warmup = [
            _search_job("cmd1", 4, 5, rng.getrandbits(31)),
            _spectrum_job("cmd2", directory, "r6", r6, rng),
        ]
    else:
        raise ValueError(f"unknown workload {name!r}")
    return round_jobs, warmup
