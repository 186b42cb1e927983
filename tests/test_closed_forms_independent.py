"""The closed forms stay the independent leg of the triple agreement.

Rational homology is read off the integer Smith normal form of the very
complexes the oracle and the reduced route build, so only the closed forms
check those routes from outside.  This guard parses ``hochschild`` and
fails if ``closed_form_homology``, ``closed_form_cohomology``,
``_check_args`` or ``_twos``, or any module-level name of ``hochschild``
that they reach, refers to a builder, to a ``linalg`` name other than
``HomologyGroup``, or to anything from ``morse``.

The bar oracle is read by S_n-orbit blocks too, but it enumerates its
own cells, representatives and orbit sizes, so its agreement with the
reduced route still checks the orbit reduction of the reduced complexes.
A second guard fails if the bar Hochschild builders, the bar orbit blocks
(``bar_block``, ``bar_orbit_blocks``), ``_bar`` or ``bar_down_terms``, or
the closed forms, reach ``reduced_block``, ``reduced_orbit_blocks``,
``homology_sum`` or the reduced route's own enumerators, or anything of
the multiset resolution (``_reduced``, ``reduced_down_terms``).  A third
fails if the bar blocks (``bar_block``, ``bar_orbit_blocks``,
``_bar_block``) reach the entry code of the base change (``_action``,
``_base_change``) or the per-cell rule of the reduced differential
(``_faces``, ``_reduced_coefficient``, ``_reduced_block``), and a fourth
if the reduced blocks or the cell stream (``reduced_block``,
``reduced_orbit_blocks``, ``_reduced_block``, ``reduced_cell_stream``)
reach the entry code of the base change or of the bar blocks
(``_bar_cells``, ``_bar_chain_entries``, ``_bar_cochain_entries``).  So
comparing a block or the cell stream with the whole build restricted
compares two derivations of its entries, and the bar and the reduced
blocks derive theirs apart.
"""

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src" / "exthh" / "hochschild.py"
ROOTS = ("closed_form_homology", "closed_form_cohomology", "_check_args", "_twos")
BUILDERS = ("_base_change", "_free_complex", "_generators", "_bar", "_reduced")


def _imported_from(tree: ast.Module, module: str) -> set[str]:
    names = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == module:
            names.update(alias.asname or alias.name for alias in node.names)
    return names


def _definitions(tree: ast.Module) -> dict[str, ast.AST]:
    return {
        node.name: node
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }


def _names_in(node: ast.AST) -> set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def _forbidden(tree: ast.Module) -> set[str]:
    defs = _definitions(tree)
    builders = {name for name in defs if name.startswith("build_")} | set(BUILDERS)
    linalg = _imported_from(tree, "linalg") - {"HomologyGroup"}
    return builders | linalg | _imported_from(tree, "morse") | {"linalg", "morse"}


def _reached(tree: ast.Module, roots=ROOTS) -> dict[str, set[str]]:
    """Every module-level definition reached from the roots, with the
    names it refers to."""
    defs = _definitions(tree)
    reached: dict[str, set[str]] = {}
    todo = list(roots)
    while todo:
        name = todo.pop()
        if name in reached:
            continue
        reached[name] = _names_in(defs[name])
        todo += [n for n in reached[name] if n in defs and n not in reached]
    return reached


def test_closed_forms_use_no_builder_linalg_or_morse():
    tree = ast.parse(SOURCE.read_text(), filename=str(SOURCE))
    forbidden = _forbidden(tree)
    assert {"build_reduced_chain", "build_bar_hochschild_cochain", "SparseMatrix"} <= forbidden
    assert "lazy_projection" in forbidden
    reached = _reached(tree)
    assert set(ROOTS) <= set(reached)
    bad = sorted(f"{name} -> {ref}" for name, refs in reached.items() for ref in refs & forbidden)
    assert not bad, bad


ORACLE_ROOTS = (
    "build_bar_hochschild_chain",
    "build_bar_hochschild_cochain",
    "bar_block",
    "bar_orbit_blocks",
    "_bar",
    "bar_down_terms",
)
ORBIT_NAMES = {"reduced_block", "reduced_orbit_blocks", "homology_sum"}


def test_oracle_and_closed_forms_use_no_orbit_blocks():
    tree = ast.parse(SOURCE.read_text(), filename=str(SOURCE))
    defs = _definitions(tree)
    assert {"reduced_block", "reduced_orbit_blocks"} <= set(defs)
    reached = _reached(tree, ORACLE_ROOTS + ROOTS)
    assert set(ORACLE_ROOTS + ROOTS) <= set(reached)
    assert {"_base_change", "_bar_cells", "_bar_orbits"} <= set(reached)
    # the orbit builders themselves and the names only they use, and the
    # multiset resolution
    forbidden = ORBIT_NAMES | {"_reduced_block", "_orbit_representatives", "_orbit_size"}
    forbidden |= {"_faces", "_reduced_coefficient"}
    forbidden |= {"_reduced", "reduced_down_terms"}
    assert {"_reduced", "reduced_down_terms"} <= set(defs)
    bad = sorted(f"{name} -> {ref}" for name, refs in reached.items() for ref in refs & forbidden)
    assert not bad, bad
    assert not forbidden & set(reached)


BLOCK_ROOTS = ("bar_block", "bar_orbit_blocks", "_bar_block")
ENTRY_CODE = {"_action", "_base_change"}
REDUCED_RULE = {"_faces", "_reduced_coefficient", "_reduced_block"}
REDUCED_ROOTS = ("reduced_block", "reduced_orbit_blocks", "_reduced_block", "reduced_cell_stream")
BAR_ENTRY_CODE = {"_bar_cells", "_bar_chain_entries", "_bar_cochain_entries"}


def _reaching(roots, forbidden) -> tuple[dict[str, set[str]], list[str]]:
    tree = ast.parse(SOURCE.read_text(), filename=str(SOURCE))
    assert forbidden <= set(_definitions(tree))
    reached = _reached(tree, roots)
    bad = sorted(f"{name} -> {ref}" for name, refs in reached.items() for ref in refs & forbidden)
    bad += sorted(forbidden & set(reached))
    return reached, bad


def test_bar_blocks_share_no_entry_code_with_the_base_change():
    reached, bad = _reaching(BLOCK_ROOTS, ENTRY_CODE | REDUCED_RULE)
    assert {"_bar_cells", "_bar_chain_entries", "_bar_cochain_entries", "_stream"} <= set(reached)
    assert not bad, bad


def test_reduced_blocks_share_no_entry_code_with_the_base_change_or_the_bar_blocks():
    reached, bad = _reaching(REDUCED_ROOTS, ENTRY_CODE | BAR_ENTRY_CODE)
    assert {"_faces", "_reduced_coefficient", "_reduced_block", "_stream"} <= set(reached)
    assert not bad, bad
