#!/usr/bin/env python3
"""Print how a tiling's spectrum evolves under k-fold blow-ups.

For each k the predicted eigenvalues are grouped by the family they come
from, the eigenbasis is verified against the blown-up graph, and the
largest eigenvalue is compared with its lower bound m*k^2 - 1.

Example:
    python scripts/blowup_eigen_report.py --builtin freeform4 --k-max 3
    python scripts/blowup_eigen_report.py --tiling my.tiling --k-max 2
"""

import argparse
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from sudoku_spectra.cli import positive_int, run_guarded
from sudoku_spectra.eigenbasis import verify
from sudoku_spectra.tiling import classical_tiling, from_cell_sets, parse_tiling

BUILTINS = {
    "freeform4": lambda: from_cell_sets(
        4, [{1, 2, 3, 4}, {5, 9, 13, 14}, {6, 8, 12, 16}, {7, 10, 11, 15}]
    ),
    "classical2": lambda: classical_tiling(2),
    "classical3": lambda: classical_tiling(3),
}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    src = ap.add_mutually_exclusive_group(required=True)
    src.add_argument("--tiling", help="tiling file")
    src.add_argument("--builtin", choices=sorted(BUILTINS))
    ap.add_argument("--k-max", type=positive_int, default=3)
    return run_guarded(report, ap.parse_args())


def report(args) -> int:
    if args.builtin:
        t = BUILTINS[args.builtin]()
    else:
        t = parse_tiling(Path(args.tiling).read_text(encoding="utf-8"))

    print(f"grid {t.m}x{t.m}, {t.n_blocks} blocks of {t.block_size}")
    for k in range(1, args.k_max + 1):
        rep = verify(t, k)
        print(f"\nk={k}: {t.n_cells * k * k} vertices, families {rep.family_sizes}, "
              f"rank {rep.total_rank}, spectrum error {rep.spectrum_max_error:.2e}")
        print(f"  largest eigenvalue {rep.max_predicted:.6f} from {rep.max_family} "
              f"(lower bound {rep.max_lower_bound})")
        for fam in rep.families:
            if not fam.vectors:
                continue
            grouped = Counter(round(float(v), 9) for v in fam.eigenvalues)
            desc = "  ".join(f"{v:g} (x{c})" for v, c in sorted(grouped.items()))
            print(f"  {fam.kind}: {desc}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
