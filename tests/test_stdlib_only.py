"""The package has no runtime dependencies: every import in ``src/exthh``
is relative, of ``exthh`` itself, or of a standard library module."""

import ast
import sys
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "exthh").glob("*.py"))


def _imported_modules(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module


def test_package_imports_only_stdlib_and_itself():
    assert SOURCES
    foreign = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        for lineno, module in _imported_modules(tree):
            top = module.split(".")[0]
            if top != "exthh" and top not in sys.stdlib_module_names:
                foreign.append(f"{path.name}:{lineno}: {module}")
    assert not foreign, foreign
