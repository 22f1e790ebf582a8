import ast
from pathlib import Path

SOURCE_DIR = Path(__file__).resolve().parent.parent / "src" / "sudoku_spectra"


def parsed_sources():
    sources = sorted(SOURCE_DIR.glob("*.py"))
    assert sources
    return [
        (path, ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        for path in sources
    ]


def test_no_assert_statements():
    # `python -O` strips assert statements, so no check in the library may
    # rely on one
    found = [
        f"{path.name}:{node.lineno}"
        for path, tree in parsed_sources()
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_no_fractions_import():
    # exact linear algebra holds Python ints only; kernels and ranks come
    # from fraction-free integer elimination
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
