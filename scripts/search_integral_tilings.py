#!/usr/bin/env python3
"""Sweep random tilings over a range of grid sizes and tabulate how often
they are integral, how often the sufficient conditions certify it, and --
optionally -- whether any non-integral tiling acquires an integral blow-up
(an open-question candidate that has never shown up so far).  Records
are the ones `sudoku-spectra search` writes; with --blowup-k every
tiling's blow-up is tested.

Example:
    python scripts/search_integral_tilings.py --m-min 2 --m-max 5 \
        --count 200 --seed 0 --blowup-k 2 --out records.jsonl
"""

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from sudoku_spectra.cli import SEARCH_MIN_M, positive_int, run_guarded, search_counts, search_record


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--m-min", type=positive_int, default=SEARCH_MIN_M)
    ap.add_argument("--m-max", type=positive_int, default=5)
    ap.add_argument("--count", type=positive_int, default=100)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--blowup-k", type=positive_int, default=None)
    ap.add_argument("--out", default=None, help="write per-tiling JSONL records here")
    args = ap.parse_args()
    if args.m_min < SEARCH_MIN_M:
        ap.error(f"--m-min must be at least {SEARCH_MIN_M}, got {args.m_min}")
    if args.m_min > args.m_max:
        ap.error(f"--m-min {args.m_min} exceeds --m-max {args.m_max}")
    return run_guarded(sweep, args)


def sweep(args) -> int:
    sink = open(args.out, "w", encoding="utf-8") if args.out else None
    header = f"{'m':>3} {'total':>6} {'integral':>9} {'guaranteed':>11} {'int&inconcl':>12}"
    if args.blowup_k is not None:
        header += f" {'nonint->blowup-int':>19}"
    print(header)
    try:
        for m in range(args.m_min, args.m_max + 1):
            records = [search_record(m, args.seed + i, args.blowup_k) for i in range(args.count)]
            if sink:
                for record in records:
                    print(json.dumps(record), file=sink)
            counts = search_counts(records)
            line = (
                f"{m:>3} {len(records):>6} {counts['integral']:>9} "
                f"{counts['guaranteed']:>11} {counts['integral_inconclusive']:>12}"
            )
            if args.blowup_k is not None:
                line += f" {counts['nonintegral_blowup_integral']:>19}"
            print(line)
    finally:
        if sink:
            sink.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
