import ast
from pathlib import Path

SOURCE_DIR = Path(__file__).resolve().parent.parent / "src" / "sudoku_spectra"


def test_no_assert_statements():
    # `python -O` strips assert statements, so no check in the library may
    # rely on one
    sources = sorted(SOURCE_DIR.glob("*.py"))
    assert sources
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
