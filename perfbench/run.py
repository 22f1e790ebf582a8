"""Benchmark of the sudoku-spectra command line, run in one process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each command goes through the public entry point
`sudoku_spectra.cli.main(argv)`. The timed loop repeats rounds, and a
round runs every input of the workload once. Every command's output is
checked against an oracle outside its timer (see workloads.py). A failed
check counts toward `failed` and never stops the run.

`--trace 0` reports the end-to-end metrics listed in BENCHMARK.json:
- `cmd1_s`, `cmd2_s`: the median over rounds of seconds per command, for
  the workload's two commands;
- `setup_s`: the median over the set-ups that start every round after
  the first. A set-up is a fresh import of the program, input generation
  and warm-up. The first set-up, which also loads numpy, is not counted;
- `peak_rss_mb`: the process's maximum RSS.

`--trace 1` alternates untraced and traced rounds. Traced rounds have
timing wrappers on the program's public functions (see tracing.py). The
run reports the per-layer metrics of BENCHMARK.json and the tracing
overhead. Call counts must be identical in every traced round.

The last line of stdout is the result as JSON. Spans, the environment and
the result are also written under `.perfbench-out/`. The program is used
from `src/`, which must sit beside this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = "sudoku_spectra"
OUT = ROOT / ".perfbench-out"
# BENCHMARK.json lists the first two. random-sweep runs the same way but is
# reported only: on a shared 2-core machine the quartiles of its per-run
# command times lie about 30% of the median apart, more than any bound the
# benchmark may set.
WORKLOADS = ("exact-classical", "blowup-verify", "random-sweep")
# One process runs one command at a time; more BLAS threads would only add
# noise from the other core. Never above nproc.
BLAS_THREADS = 1
# A set-up takes a few hundredths of a second; several per round give
# setup_s enough samples for a steady median.
SETUPS_PER_ROUND = 5


# workloads.py and tracing.py import numpy and the program, so they are
# imported inside functions, after _prepare() has run.
def _prepare() -> None:
    """Pin BLAS threads and put `src/` first on the path; before numpy loads."""
    if not (SRC / PACKAGE / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program sources at {SRC}")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))


class Tally:
    """Operations attempted and failed, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def record(self, label: str, problem: str | None) -> None:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if len(self.errors) < 10:
                self.errors.append(f"{label}: {problem}")


def run_job(cli, job, tally: Tally) -> float:
    """Run one command and return its seconds; check its output untimed.

    `cli.main` is looked up on every call so that a traced round reaches
    the wrapper installed on the module.
    """
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = perf_counter()
            rc = cli.main(job.argv)
            seconds = perf_counter() - start
    except (Exception, SystemExit) as exc:  # a crashing command is a failed operation
        seconds = perf_counter() - start
        problem = f"raised {exc!r}"
    else:
        problem = None
        if rc != 0:
            problem = f"exit {rc}: {err.getvalue().strip()[-300:]}"
        else:
            try:
                problem = job.check(out.getvalue())
            except (ValueError, KeyError, TypeError) as exc:
                problem = f"unreadable output: {exc!r}"
    tally.record(" ".join(Path(a).name if a.endswith(".tiling") else a for a in job.argv), problem)
    return seconds


def run_round(cli, jobs, tally: Tally) -> dict[str, list[float]]:
    seconds: dict[str, list[float]] = {}
    for job in jobs:
        seconds.setdefault(job.slot, []).append(run_job(cli, job, tally))
    return seconds


def set_up(workload: str, seed: int, tally: Tally):
    """Import the program afresh, write the inputs, run the warm-up jobs.

    Returns (seconds, cli module, round jobs). The seconds leave out the
    output checks of the warm-up jobs. The program's modules are dropped
    from `sys.modules` first, so every set-up pays their import and refills
    their lazy caches. The same seed writes the same inputs every time.
    """
    gc.collect()
    start = perf_counter()
    for name in [m for m in sys.modules if m.partition(".")[0] == PACKAGE]:
        del sys.modules[name]
    cli = importlib.import_module(f"{PACKAGE}.cli")
    import workloads

    round_jobs, warmup = workloads.build(workload, seed, OUT / "inputs")
    seconds = perf_counter() - start
    if Path(cli.__file__).resolve().parent != SRC / PACKAGE:
        raise SystemExit(f"perfbench: imported {cli.__file__}, not the program under {SRC}")
    for job in warmup:
        job.prepare()
        seconds += run_job(cli, job, tally)
    return seconds, cli, round_jobs


# ---------------------------------------------------------------------------
# reporting helpers


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return f"unknown ({ref})"


def _blas_threads() -> int | str:
    """OpenBLAS's own thread count, read from the library numpy loaded."""
    import ctypes

    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")) if libs.is_dir() else ():
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return f"unknown (requested {BLAS_THREADS})"


def environment(args) -> dict:
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": _blas_threads(),
        "commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _spread(values: list[float]) -> str:
    n = len(values)
    text = f"n={n}"
    if n >= 4:
        q1, _, q3 = statistics.quantiles(values, n=4)
        text += f", quartiles {q1:.4f}..{q3:.4f}"
    if n >= 20:
        # the highest percentile that still has ten samples beyond it
        text += f", p{100 * (n - 10) // n} {sorted(values)[n - 11]:.4f}"
    else:
        text += ", no tail percentile (needs 20 samples)"
    return text


# ---------------------------------------------------------------------------
# the two modes


def measure(args, cli, jobs, tally: Tally) -> tuple[dict, list[str]]:
    """Timed rounds, at least two; every round after the first starts with
    SETUPS_PER_ROUND set-ups.

    Set-ups are spread over the window like the rounds, so both sample the
    same stretch of time. Each round runs on the program its last set-up
    imported; the round jobs (and their oracles) are the first set-up's.
    """
    import workloads

    setups: list[float] = []
    samples: dict[str, list[float]] = {"cmd1": [], "cmd2": []}
    rounds: list[float] = []
    deadline = perf_counter() + args.seconds
    while len(rounds) < 2 or perf_counter() + statistics.median(rounds) <= deadline:
        start = perf_counter()
        for _ in range(SETUPS_PER_ROUND if rounds else 0):
            seconds, cli, _ = set_up(args.workload, args.seed, tally)
            setups.append(seconds)
        for slot, seconds in run_round(cli, jobs, tally).items():
            samples[slot].append(statistics.fmean(seconds))
        rounds.append(perf_counter() - start)

    values = {
        "cmd1_s": statistics.median(samples["cmd1"]),
        "cmd2_s": statistics.median(samples["cmd2"]),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    lines = []
    for slot, name in workloads.SLOT_NAMES[args.workload].items():
        lines.append(f"{name} = {values[slot + '_s']:.4f} s  ({slot}_s; {_spread(samples[slot])})")
        if name == "search_s":
            rate = workloads.SEARCH_COUNT / values["cmd1_s"]
            lines.append(f"search_tilings_per_s = {rate:.2f} 1/s  ({workloads.SEARCH_COUNT} tilings per search)")
    lines.append(f"setup_s = {values['setup_s']:.4f} s  ({SETUPS_PER_ROUND} per round after "
                 f"the first; {_spread(setups)})")
    lines.append(f"peak_rss_mb = {values['peak_rss_mb']:.1f} MB")
    return values, lines


def trace(args, cli, jobs, tally: Tally, spec: dict) -> tuple[dict, list[str], bool, dict]:
    import tracing
    import workloads

    def round_seconds() -> float:
        return sum(sum(s) for s in run_round(cli, jobs, tally).values())

    untraced: list[float] = []
    traced: list[tuple[float, tracing.Recorder]] = []
    deadline = perf_counter() + args.seconds
    while len(traced) < 2 or perf_counter() + statistics.median(untraced) * 2 <= deadline:
        untraced.append(round_seconds())
        rec = tracing.Recorder()
        undo = tracing.install(rec)
        try:
            traced.append((round_seconds(), rec))
        finally:
            tracing.uninstall(undo)

    summaries = [rec.summary() for _, rec in traced]
    counters = [{"linalg.char_poly.max_n": rec.max_n, "linalg.char_poly.coeff_bits": rec.coeff_bits}
                for _, rec in traced]
    counts = [{**{f: row["calls"] for f, row in summ.items()}, **ctr}
              for summ, ctr in zip(summaries, counters)]
    same = all(c == counts[0] for c in counts)
    # per function: calls (identical in every round when `same`), median s and self_s
    table = {
        f: {"calls": summaries[0].get(f, {}).get("calls", 0),
            **{field: statistics.median(x.get(f, {}).get(field, 0.0) for x in summaries)
               for field in ("s", "self_s")}}
        for f in tracing.traced_names()
    }
    traced_s = statistics.median(w for w, _ in traced)
    untraced_s = statistics.median(untraced)
    derived = {
        "trace.overhead_ratio": traced_s / untraced_s,
        "trace.traced_round_s": traced_s,
        "trace.untraced_round_s": untraced_s,
        **counters[0],
    }
    values = {}
    for metric in spec["per_layer"]:
        name = metric["name"]
        function, field = name.rsplit(".", 1)
        if name in derived:
            values[name] = derived[name]
        elif function in table and field in table[function]:
            values[name] = table[function][field]
        else:
            raise SystemExit(f"perfbench: BENCHMARK.json names unknown layer metric {name}")

    lines = [
        f"tracing overhead = {derived['trace.overhead_ratio']:.4f}x  (traced {traced_s:.4f} s vs "
        f"untraced {untraced_s:.4f} s per round; {len(traced)} rounds each)",
        f"call counts, max_n and coeff_bits identical across {len(traced)} traced rounds: {same}",
        f"{'function':36s} {'calls':>7s} {'s':>9s} {'self_s':>9s}  should move (median over traced rounds)",
    ]
    for f, row in sorted(table.items(), key=lambda kv: -kv[1]["s"]):
        if row["calls"]:
            lines.append(f"{f:36s} {row['calls']:7d} {row['s']:9.4f} {row['self_s']:9.4f}  "
                         f"{workloads.LAYER_MOVES.get(f, '')}")
    lines.append(f"linalg.char_poly max_n {counters[0]['linalg.char_poly.max_n']}, "
                 f"coeff_bits {counters[0]['linalg.char_poly.coeff_bits']}")
    dump = {"traced_rounds": [{"seconds": w, "spans": rec.spans} for w, rec in traced]}
    return values, lines, same, dump


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    _prepare()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    tally = Tally()
    _, cli, jobs = set_up(args.workload, args.seed, tally)
    for job in jobs:
        job.prepare()

    env = environment(args)
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("env " + json.dumps(env))
    same = True
    dump: dict = {}
    if args.trace:
        values, lines, same, dump = trace(args, cli, jobs, tally, spec)
    else:
        values, lines = measure(args, cli, jobs, tally)
    print("\n".join(lines))
    print(f"ops_failed_frac = {tally.failed / tally.attempted:.4f}  ({tally.failed}/{tally.attempted})")
    for error in tally.errors:
        print(f"FAILED {error}", file=sys.stderr)

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    result = {
        "correct": tally.failed == 0 and same,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in values.items()},
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{stem}.json").write_text(json.dumps({"env": env, "result": result, **dump}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
