"""Command-line front end.

Subcommands: spectrum, check, blowup, search, gen.  Exit codes: 0 ok,
2 input error, 3 computational error, 4 verification failure.  JSON
reports emit integers that may exceed 64 bits (polynomial coefficients,
matrix entries) as decimal strings.  The blow-up modules (`blowup`,
`eigenbasis`) are imported only by the commands that use them: `blowup`,
and `search` with a blow-up factor above 1.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from . import graph, integrality, linalg, spectra
from .linalg import ConvergenceError
from .tiling import (
    Tiling,
    TilingError,
    blow_up_tiling,
    classical_tiling,
    parse_tiling,
    random_tiling,
    render_tiling,
    row_tiling,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_COMPUTE = 3
EXIT_VERIFY = 4

# smallest grid a search draws tilings on
SEARCH_MIN_M = 2


def positive_int(text: str) -> int:
    """argparse type for counts and sizes: a bad value exits 2 with usage."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _poly_json(poly) -> list[str]:
    # always strings: characteristic polynomial coefficients overflow
    # 64-bit JSON consumers long before the matrices get interesting
    return [str(c) for c in poly]


def _matrix_json(a) -> list[list[str]]:
    return [[str(x) for x in row] for row in a]


def _spectrum_json(s: spectra.Spectrum) -> dict:
    return {
        "integer_part": [[lam, mult] for lam, mult in s.integer_part],
        "residual_degree": s.residual_degree,
        "residual_coeffs": _poly_json(s.residual),
        "integral": s.is_integral,
    }


def _tiling_json(t: Tiling) -> dict:
    return {"m": t.m, "n_blocks": t.n_blocks, "blocks": t.block_grid()}


def _condition_json(rep: integrality.ConditionReport) -> dict:
    def rc(r: integrality.RegCommute) -> dict:
        return {
            "regular": r.regular,
            # a layer's row sum at a cell is its degree, so this is regularity
            "const_row_sum": r.regular,
            "commutes_with_blocks": r.commutes_with_blocks,
        }

    return {
        "cond_i_q": rep.cond_i,
        "cond_ii_q": rep.cond_ii,
        "cond_iii": rep.cond_iii,
        "regcommute_row": rc(rep.regcommute_h),
        "regcommute_column": rc(rep.regcommute_v),
        "verdict": rep.verdict,
    }


def _load_tiling(path: str) -> Tiling:
    return parse_tiling(Path(path).read_text(encoding="utf-8"))


def _emit(report: dict, as_json: bool, lines: list[str]) -> None:
    if as_json:
        print(json.dumps(report, indent=2))
    else:
        print("\n".join(lines))


def cmd_spectrum(args) -> int:
    t = _load_tiling(args.tiling)
    started = time.perf_counter()
    report: dict = {"command": "spectrum", "input": _tiling_json(t)}
    lines = [f"tiling: {args.tiling} (m={t.m}, {t.n_blocks} blocks)"]
    if args.mode in ("exact", "both"):
        s = spectra.tiling_spectrum(t)
        report["exact"] = _spectrum_json(s)
        lines.append(f"exact spectrum: {s.digest()}")
        lines.append(f"integral: {s.is_integral} (residual degree {s.residual_degree})")
    if args.mode in ("float", "both"):
        ev = linalg.float_eigen(graph.adjacency(t))
        report["float"] = ev
        lines.append("float eigenvalues: " + " ".join(f"{x:.6f}" for x in ev))
    report["seconds"] = time.perf_counter() - started
    _emit(report, args.json, lines)
    return EXIT_OK


def cmd_check(args) -> int:
    t = _load_tiling(args.tiling)
    started = time.perf_counter()
    rep = integrality.theorem_verdict(t)
    report = {
        "command": "check",
        "input": _tiling_json(t),
        "conditions": _condition_json(rep),
        "seconds": time.perf_counter() - started,
    }
    lines = [
        f"tiling: {args.tiling} (m={t.m})",
        f"condition (i): q = {rep.cond_i}" if rep.cond_i is not None else "condition (i): fails",
        f"condition (ii): q = {rep.cond_ii}" if rep.cond_ii is not None else "condition (ii): fails",
        f"condition (iii): {'holds' if rep.cond_iii else 'fails'}",
        f"row layer: {rep.regcommute_h}",
        f"column layer: {rep.regcommute_v}",
        f"verdict: {rep.verdict}",
    ]
    _emit(report, args.json, lines)
    return EXIT_OK


def cmd_blowup(args) -> int:
    from . import blowup, eigenbasis

    t = _load_tiling(args.tiling)
    k = args.k
    started = time.perf_counter()
    big = blow_up_tiling(t, k)
    report: dict = {
        "command": "blowup",
        "input": _tiling_json(t),
        "k": k,
        "blown": _tiling_json(big),
    }
    lines = [f"blow-up k={k}: {t.m}x{t.m} -> {big.m}x{big.m}"]
    if args.out:
        Path(args.out).write_text(render_tiling(big), encoding="utf-8")
        lines.append(f"wrote blown tiling to {args.out}")
    # built once: the matrix file and the eigenbasis check, reconciliation
    # included, read the same Kronecker-route adjacency
    a = blowup.blown_adjacency(t, k) if args.matrix_out or args.verify else None
    if args.matrix_out:
        if args.matrix_format == "json":
            Path(args.matrix_out).write_text(
                json.dumps(_matrix_json(a)), encoding="utf-8"
            )
        else:
            rows = ["".join(str(x) for x in row) for row in a]
            Path(args.matrix_out).write_text("\n".join(rows) + "\n", encoding="utf-8")
        lines.append(f"wrote adjacency ({a.shape[0]}x{a.shape[0]}) to {args.matrix_out}")
    if args.verify:
        try:
            rep = eigenbasis.verify(t, k, blown=a)
        except eigenbasis.VerificationFailure as exc:
            print(f"verification failed: {exc}", file=sys.stderr)
            return EXIT_VERIFY
        report["verify"] = {
            "reconciled": True,
            "family_sizes": list(rep.family_sizes),
            "rank": rep.total_rank,
            "max_residual": rep.max_residual,
            "spectrum_max_error": rep.spectrum_max_error,
            "max_eigenvalue": rep.max_predicted,
            "max_family": rep.max_family,
            "max_lower_bound": rep.max_lower_bound,
            "predicted": [
                {"family": fam.kind, "eigenvalue": float(v)}
                for fam in rep.families
                for v in fam.eigenvalues
            ],
        }
        lines.append("verify: reconciliation ok")
        lines.append(
            f"verify: families {rep.family_sizes} rank {rep.total_rank}, "
            f"spectrum error {rep.spectrum_max_error:.2e}"
        )
        lines.append(
            f"verify: largest eigenvalue {rep.max_predicted:.6f} from {rep.max_family} "
            f"(lower bound {rep.max_lower_bound})"
        )
        counts: dict = {}
        for fam in rep.families:
            for v in fam.eigenvalues:
                key = (fam.kind, round(float(v), 9))
                counts[key] = counts.get(key, 0) + 1
        for (kind, v), c in sorted(counts.items(), key=lambda kv: (kv[0][1], kv[0][0])):
            lines.append(f"  {kind}: {v:g} x{c}")
    report["seconds"] = time.perf_counter() - started
    _emit(report, args.json, lines)
    return EXIT_OK


def search_record(m: int, seed: int, blowup_k: int | None = None) -> dict:
    """The search record of random_tiling(m, seed): exact integrality, the
    certificate's verdict and, given blowup_k, integrality of that blow-up,
    read off the blow-up's N x N seeds (`eigenbasis.blowup_is_integral`).
    At k = 1 the blow-up is the tiling itself, whose spectrum is at hand."""
    t = random_tiling(m, seed)
    s = spectra.tiling_spectrum(t)
    rep = integrality.theorem_verdict(t)
    record = {
        "seed": seed,
        "m": m,
        "integral": s.is_integral,
        "theorem_verdict": rep.verdict,
        "spectrum": s.digest(),
    }
    if blowup_k is not None:
        record["blowup_k"] = blowup_k
        if blowup_k == 1:
            record["blowup_integral"] = s.is_integral
        else:
            from . import eigenbasis

            record["blowup_integral"] = eigenbasis.blowup_is_integral(t, blowup_k)
    return record


def search_counts(records) -> dict[str, int]:
    """Summary counts of search records: integral tilings, certified ones,
    integral ones the certificate leaves inconclusive, and non-integral ones
    whose blow-up is integral."""
    certified = [r["theorem_verdict"] == integrality.GUARANTEED_INTEGRAL for r in records]
    return {
        "integral": sum(r["integral"] for r in records),
        "guaranteed": sum(certified),
        "integral_inconclusive": sum(r["integral"] and not c for r, c in zip(records, certified)),
        "nonintegral_blowup_integral": sum(
            not r["integral"] and r.get("blowup_integral", False) for r in records
        ),
    }


def cmd_search(args) -> int:
    if args.m < SEARCH_MIN_M:
        print(f"search needs m >= {SEARCH_MIN_M}", file=sys.stderr)
        return EXIT_INPUT
    seeds = range(args.seed, args.seed + args.count)
    one = functools.partial(search_record, args.m, blowup_k=args.blowup_k)
    jobs = min(args.jobs, os.cpu_count() or 1)
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            records = list(pool.map(one, seeds))
    else:
        records = list(map(one, seeds))

    out = open(args.out, "w", encoding="utf-8") if args.out else sys.stdout
    try:
        for rec in records:
            print(json.dumps(rec), file=out)
    finally:
        if args.out:
            out.close()

    counts = search_counts(records)
    if args.blowup_k is None:
        del counts["nonintegral_blowup_integral"]
    summary = {"summary": True, "m": args.m, "count": args.count, "seed": args.seed, **counts}
    print(json.dumps(summary), file=sys.stderr if args.out is None else sys.stdout)
    return EXIT_OK


def cmd_gen(args) -> int:
    if args.kind == "classical":
        t = classical_tiling(args.n)
    elif args.kind == "row":
        t = row_tiling(args.m)
    else:
        t = random_tiling(args.m, args.seed)
    text = render_tiling(t)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        print(text, end="")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sudoku-spectra",
        description="Spectra of free-form Sudoku graphs: exact eigenvalues, "
        "integrality certificates, blow-ups and eigenvector bases.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="exact and/or float spectrum of a tiling's graph")
    p.add_argument("tiling", help="tiling file")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--exact", dest="mode", action="store_const", const="exact")
    mode.add_argument("--float", dest="mode", action="store_const", const="float")
    mode.add_argument("--both", dest="mode", action="store_const", const="both")
    p.set_defaults(mode="both", func=cmd_spectrum)
    p.add_argument("--json", action="store_true", help="emit a JSON report")

    p = sub.add_parser("check", help="integrality conditions and verdict")
    p.add_argument("tiling")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("blowup", help="k-fold blow-up; optionally verify the eigenbasis")
    p.add_argument("tiling")
    p.add_argument("--k", type=positive_int, required=True)
    p.add_argument("--out", help="write the blown-up tiling file here")
    p.add_argument("--matrix-out", help="write the blown-up adjacency matrix here")
    p.add_argument("--matrix-format", choices=("text", "json"), default="text")
    p.add_argument("--verify", action="store_true",
                   help="reconcile constructions and verify the eigenvector basis")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_blowup)

    p = sub.add_parser("search", help="test random tilings; JSONL records, summary at the end")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--count", type=positive_int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--blowup-k", type=positive_int, default=None, dest="blowup_k")
    p.add_argument("--out", help="write records to this file instead of stdout")
    p.add_argument("--jobs", type=positive_int, default=1,
                   help="worker processes, at most the number of CPUs")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("gen", help="emit classical/row/random tiling files")
    gen_sub = p.add_subparsers(dest="kind", required=True)
    g = gen_sub.add_parser("classical")
    g.add_argument("--n", type=positive_int, required=True)
    g.add_argument("--out")
    g = gen_sub.add_parser("row")
    g.add_argument("--m", type=positive_int, required=True)
    g.add_argument("--out")
    g = gen_sub.add_parser("random")
    g.add_argument("--m", type=positive_int, required=True)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out")
    p.set_defaults(func=cmd_gen)

    return parser


def run_guarded(func, args) -> int:
    """func(args)'s exit code; an input error (a bad tiling, or a file that
    cannot be read or is not UTF-8) exits 2 and a computational error exits
    3, each with a one-line message instead of a traceback."""
    try:
        return func(args)
    except (TilingError, OSError, UnicodeDecodeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (ConvergenceError, linalg.DimensionMismatch, ArithmeticError) as exc:
        print(f"compute error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return run_guarded(args.func, args)


if __name__ == "__main__":
    sys.exit(main())
