"""Nothing in ``src/exthh`` computes in floating point: no true division
(``/`` or ``/=``) and no ``float(...)`` call, except inside
``RationalField`` in ``rings.py``, the one place an exact rational is
made."""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "exthh").glob("*.py"))
ALLOWED = ("rings.py", "RationalField")


def _float_uses(tree: ast.AST, path: Path, scope: str = "") -> list[str]:
    found = []
    for node in ast.iter_child_nodes(tree):
        inner = scope
        if isinstance(node, ast.ClassDef) and not scope:
            inner = node.name
        if (path.name, inner) != ALLOWED:
            divides = isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div)
            casts = isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float"
            if divides or casts:
                found.append(f"{path.name}:{node.lineno}")
        found += _float_uses(node, path, inner)
    return found


def test_package_has_no_true_division_or_float_calls():
    assert SOURCES
    found = []
    for path in SOURCES:
        found += _float_uses(ast.parse(path.read_text(), filename=str(path)), path)
    assert not found, found


def test_the_guard_sees_division_and_float_calls():
    code = "x = a / b\ny /= 2\nz = float(x)\nclass RationalField:\n    q = a / b\n"
    other = _float_uses(ast.parse(code), Path("linalg.py"))
    assert other == ["linalg.py:1", "linalg.py:2", "linalg.py:3", "linalg.py:5"]
    assert _float_uses(ast.parse(code), Path("rings.py")) == ["rings.py:1", "rings.py:2", "rings.py:3"]
