"""Span recorder that wraps the program's public functions from outside.

`install` replaces every public function of the traced modules with a
timing wrapper. The wrapper goes at the function's home module and at
every module of the package that imported it by name, such as
`eigenbasis.blown_adjacency`, `blowup.kron` or `cli.random_tiling`, so
nested calls are caught too. Spans (name, start, end, parent) stay in
memory. `summary` derives calls, inclusive time and self time from them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from time import perf_counter

PACKAGE = "sudoku_spectra"
MODULES = ("tiling", "graph", "linalg", "spectra", "integrality", "blowup", "eigenbasis", "cli")
# private, but eigenbasis calls it directly: it is the float_eigen pair routine
EXTRA = {"linalg": ("_float_eigen_pairs",)}


class Recorder:
    """Spans of one traced pass, plus the char_poly size counters."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.stack: list[int] = []
        self.max_n = 0
        self.coeff_bits = 0

    def observe_char_poly(self, args, result) -> None:
        self.max_n = max(self.max_n, args[0].shape[0])
        self.coeff_bits = max(self.coeff_bits, max(abs(c).bit_length() for c in result))

    def summary(self) -> dict[str, dict]:
        """Per function: calls, inclusive seconds `s` and `self_s`.

        `s` counts only outermost spans of a name, so recursion is not
        counted twice; self time is a span's duration minus its children's.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict] = {}
        for i, (name, start, end, parent) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["self_s"] += end - start - child[i]
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < 0:
                row["s"] += end - start
        return out


def _wrap(fn, name: str, rec: Recorder):
    observe = rec.observe_char_poly if name == "linalg.char_poly" else None

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = len(rec.spans)
        span = [name, 0.0, 0.0, rec.stack[-1] if rec.stack else -1]
        rec.spans.append(span)
        rec.stack.append(idx)
        span[1] = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = perf_counter()
            rec.stack.pop()
        if observe is not None:
            observe(args, result)
        return result

    return wrapper


def traced_names() -> list[str]:
    """`module.function` for every function `install` wraps."""
    names = []
    for short in MODULES:
        mod = importlib.import_module(f"{PACKAGE}.{short}")
        for attr, obj in vars(mod).items():
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and (
                not attr.startswith("_") or attr in EXTRA.get(short, ())
            ):
                names.append(f"{short}.{attr}")
    return names


def install(rec: Recorder) -> list[tuple]:
    """Wrap every traced function everywhere it is bound; return the undo list."""
    wrappers = {}
    for name in traced_names():
        short, attr = name.split(".")
        fn = getattr(importlib.import_module(f"{PACKAGE}.{short}"), attr)
        wrappers[id(fn)] = (fn, _wrap(fn, name, rec))
    undo = []
    modules = [m for key, m in sys.modules.items() if key == PACKAGE or key.startswith(PACKAGE + ".")]
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            hit = wrappers.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, attr, hit[1])
                undo.append((mod, attr, obj))
    return undo


def uninstall(undo: list[tuple]) -> None:
    for mod, attr, obj in undo:
        setattr(mod, attr, obj)
