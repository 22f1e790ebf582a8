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
from dataclasses import dataclass
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from sudoku_spectra.cli import positive_int, search_record
from sudoku_spectra.integrality import GUARANTEED_INTEGRAL


@dataclass
class Tally:
    total: int = 0
    integral: int = 0
    guaranteed: int = 0
    integral_inconclusive: int = 0
    blowup_integral_of_nonintegral: int = 0


def run(m: int, count: int, seed: int, blowup_k: int | None, sink) -> Tally:
    tally = Tally()
    for i in range(count):
        record = search_record(m, seed + i, blowup_k)
        tally.total += 1
        if record["integral"]:
            tally.integral += 1
            if record["theorem_verdict"] == GUARANTEED_INTEGRAL:
                tally.guaranteed += 1
            else:
                tally.integral_inconclusive += 1
        elif record.get("blowup_integral"):
            tally.blowup_integral_of_nonintegral += 1
        if sink:
            print(json.dumps(record), file=sink)
    return tally


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--m-min", type=positive_int, default=2)
    ap.add_argument("--m-max", type=positive_int, default=5)
    ap.add_argument("--count", type=positive_int, default=100)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--blowup-k", type=positive_int, default=None)
    ap.add_argument("--out", default=None, help="write per-tiling JSONL records here")
    args = ap.parse_args()
    if args.m_min > args.m_max:
        ap.error(f"--m-min {args.m_min} exceeds --m-max {args.m_max}")

    sink = open(args.out, "w", encoding="utf-8") if args.out else None
    header = f"{'m':>3} {'total':>6} {'integral':>9} {'guaranteed':>11} {'int&inconcl':>12}"
    if args.blowup_k is not None:
        header += f" {'nonint->blowup-int':>19}"
    print(header)
    try:
        for m in range(args.m_min, args.m_max + 1):
            tally = run(m, args.count, args.seed, args.blowup_k, sink)
            line = (
                f"{m:>3} {tally.total:>6} {tally.integral:>9} "
                f"{tally.guaranteed:>11} {tally.integral_inconclusive:>12}"
            )
            if args.blowup_k is not None:
                line += f" {tally.blowup_integral_of_nonintegral:>19}"
            print(line)
    finally:
        if sink:
            sink.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
