"""Invariants in the package are real checks: ``python -O`` strips
``assert`` statements, so none may appear in ``src/exthh``."""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "exthh").glob("*.py"))


def test_package_has_no_assert_statements():
    assert SOURCES
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found
