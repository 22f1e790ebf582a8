"""Run every workload, untraced and then traced, and print all metrics.

    python3 perfbench/report.py [--seed N]

For each workload, random-sweep included, this runs `run.py --trace 0` and
then `run.py --trace 1`, one after the other. It relays their readable
lines: the end-to-end metrics under their per-command names,
`ops_failed_frac`, and the per-layer table with the tracing overhead. It ends with one summary table.
Each run measures for BENCHMARK.json's `run_seconds`. It exits 1 if any
run fails or reports `correct: false`.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS

HERE = Path(__file__).resolve().parent
RUN_SECONDS = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]
RUN_TIMEOUT_S = 900


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    ok = True
    rows = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                    "--seed", str(args.seed), "--seconds", str(RUN_SECONDS), "--trace", str(trace)]
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0 or not lines:
                print(f"{workload} trace={trace}: exit {proc.returncode}")
                ok = False
                continue
            result = json.loads(lines[-1])
            ok = ok and result["correct"]
            print()
            if trace == 0:
                rows += [(workload, line) for line in lines if " = " in line]
            else:
                rows += [(workload, line) for line in lines if line.startswith("tracing overhead")]

    print("summary")
    for workload, line in rows:
        print(f"  {workload:16s} {line}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
