import ast
import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCE_DIR = ROOT / "src" / "sudoku_spectra"
SCRIPTS_DIR = ROOT / "scripts"
# private, but timed by the benchmark: the float eigenpair routine
PRIVATE_LAYERS = {"linalg._float_eigen_pairs"}


def parsed_sources(*dirs):
    sources = [path for d in dirs or (SOURCE_DIR,) for path in sorted(d.glob("*.py"))]
    assert sources
    return [
        (path, ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        for path in sources
    ]


def test_no_assert_statements():
    # `python -O` strips assert statements, so no check in the library or
    # the user-facing scripts may rely on one
    found = [
        f"{path.parent.name}/{path.name}:{node.lineno}"
        for path, tree in parsed_sources(SOURCE_DIR, SCRIPTS_DIR)
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_no_fractions_import():
    # exact linear algebra holds Python ints only; kernels and ranks come
    # from elimination mod primes, lifted by CRT and rational reconstruction
    # to integer vectors, never from fractions
    found = []
    for path, tree in parsed_sources():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "fractions" for name in modules):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_benchmark_layers_are_functions():
    # the benchmark's traced run exits on a per-layer metric whose function
    # is gone; `trace.*` metrics are derived, not functions
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    missing = []
    for metric in spec["per_layer"]:
        if metric["name"].startswith("trace."):
            continue
        function = metric["name"].rsplit(".", 1)[0]
        module, attr = function.split(".")
        mod = importlib.import_module(f"sudoku_spectra.{module}")
        obj = getattr(mod, attr, None)
        public = not attr.startswith("_") or function in PRIVATE_LAYERS
        if not (public and inspect.isfunction(obj) and obj.__module__ == mod.__name__):
            missing.append(function)
    assert missing == []


def test_eigenbasis_reads_only_allowed_private_linalg_names():
    # the 2**53 exactness decision, the residual tolerance and the input
    # checks live in linalg; eigenbasis calls linalg's public names for
    # them, and reads only these private ones
    allowed = {"_float_eigen_pairs", "_candidate_limits"}
    [(_, tree)] = [(p, t) for p, t in parsed_sources() if p.name == "eigenbasis.py"]
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id == "linalg" and node.attr.startswith("_"):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").endswith("linalg"):
            read.update(alias.name for alias in node.names if alias.name.startswith("_"))
    assert read == allowed


def test_one_home_for_the_char_poly_ceiling():
    # the n <= 512 limit of char_poly and of the candidate scan is derived
    # once, in linalg, from the int64 rule n (p-1)^2 < 2**63 for the table
    # primes; no other code constant, number or message text, is 512
    # (docstrings and comments are not code)
    from sudoku_spectra import linalg

    assert linalg._CHARPOLY_MAX_N == 512
    found = []
    for path, tree in parsed_sources():
        docstrings = {
            id(node.body[0].value) for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            and node.body and isinstance(node.body[0], ast.Expr)
            and isinstance(node.body[0].value, ast.Constant)
        }
        for node in ast.walk(tree):
            if not isinstance(node, ast.Constant) or id(node) in docstrings:
                continue
            value = node.value
            if isinstance(value, str) and "512" in value \
                    or isinstance(value, (int, float)) and not isinstance(value, bool) and value == 512:
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_eigh_only_in_the_pair_routine():
    # the float oracle is values-only (eigvalsh); eigenvectors come from one
    # routine, whose vectors the eigenbasis uses, so the oracle cannot drift
    # back to eigenpairs
    found = set()
    for path, tree in parsed_sources():
        for top in tree.body:
            where = f"{path.stem}.{getattr(top, 'name', top.lineno)}"
            for node in ast.walk(top):
                if isinstance(node, ast.Attribute) and node.attr == "eigh" \
                        or isinstance(node, ast.alias) and node.name.split(".")[-1] == "eigh":
                    found.add(where)
    assert found == {"linalg._float_eigen_pairs"}


def _run_python(code: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SOURCE_DIR.parent)] + os.environ.get("PYTHONPATH", "").split(os.pathsep))}
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)


def test_cli_import_leaves_the_blowup_modules_unloaded():
    # `spectrum` and `check` pay no import for the blow-up modules
    proc = _run_python(
        "import sys, sudoku_spectra.cli\n"
        "print(sorted(m for m in sys.modules if m.startswith('sudoku_spectra')))"
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(eval(proc.stdout))
    assert "sudoku_spectra.cli" in loaded
    assert not loaded & {"sudoku_spectra.eigenbasis", "sudoku_spectra.blowup"}


def test_package_exports_load_on_first_use():
    proc = _run_python(
        "import sys\n"
        "from sudoku_spectra import verify, blown_adjacency\n"
        "import sudoku_spectra.blowup as b, sudoku_spectra.eigenbasis as e\n"
        "print(verify is e.verify, blown_adjacency is b.blown_adjacency)"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True", "True"]
    import sudoku_spectra

    assert all(hasattr(sudoku_spectra, name) for name in sudoku_spectra.__all__)
    with pytest.raises(AttributeError):
        sudoku_spectra.no_such_name


def test_cli_and_scripts_reach_spectra_only_through_tiling_spectrum():
    # one tiling-level entry point: no caller outside the library picks an
    # exact route itself (`is_integral` is also a `Spectrum` property, so
    # only its read from spectra would count)
    routes = {"exact_spectrum", "integral_spectrum", "char_poly", "integer_roots",
              "_lattice_spectrum"}
    read_from_spectra, routes_named = set(), set()
    trees = [(p, t) for p, t in parsed_sources(SOURCE_DIR, SCRIPTS_DIR)
             if p.parent == SCRIPTS_DIR or p.name == "cli.py"]
    for path, tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                if isinstance(node.value, ast.Name) and node.value.id == "spectra":
                    read_from_spectra.add(node.attr)
                if node.attr in routes:
                    routes_named.add(f"{path.name}:{node.attr}")
            elif isinstance(node, ast.Name) and node.id in routes:
                routes_named.add(f"{path.name}:{node.id}")
            elif isinstance(node, ast.ImportFrom):
                names = {alias.name for alias in node.names}
                if (node.module or "").endswith("spectra"):
                    read_from_spectra |= names
                routes_named |= {f"{path.name}:{name}" for name in names & routes}
    assert len(trees) == 3
    assert read_from_spectra == {"tiling_spectrum", "Spectrum"}
    assert routes_named == set()
