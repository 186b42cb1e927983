"""The reduced complexes streamed cell by cell (``reduced_cell_stream``),
pinned against their whole build, and the Koszul parity certification
that reads them: it builds no complex, reads each cell once, refuses a
broken split with the messages of ``split_parity`` and
``halve_differentials``, reads each matched weight in Q and halved in
Z, and runs the size guard before any cell is enumerated.  A per-cell
rule that drops its sign twist is caught by the certification and by
the triple agreement."""

from collections import Counter

import pytest

from exthh import hochschild, verify
from exthh.complexes import CHAIN, COCHAIN, BasedComplex, halve_differentials
from exthh.hochschild import (
    ChainCell,
    CochainCell,
    SizeLimit,
    build_reduced_chain,
    build_reduced_cochain,
    parity_active,
    reduced_cell_stream,
    split_parity,
)
from exthh.combinat import subset_mul_sign
from exthh.linalg import SparseMatrix
from exthh.morse import EdgeNotInDifferential, NonInvertibleWeight
from exthh.rings import ZZ
from exthh.verify import koszul_matching_checks, triple_agreement


@pytest.mark.parametrize("cohomology", [False, True], ids=["chain", "cochain"])
def test_stream_equals_the_whole_build(cohomology):
    build = build_reduced_cochain if cohomology else build_reduced_chain
    for n in range(1, 5):
        for top in range(5):
            c = build(n, top)
            labels_of_degree, down_edges = reduced_cell_stream(n, top, cohomology)
            for k in range(-1, top + 2):
                cells = tuple(labels_of_degree(k))
                assert cells == c.basis(k), (n, top, k)
                columns = c.diff(k).by_cols()
                rows = c.basis(k + c.direction)
                for j, cell in enumerate(cells):
                    column = [(rows[r], v) for r, v in columns.get(j, {}).items()]
                    assert down_edges(cell) == column, (n, top, cell)


def _built(labels_of_degree, down_edges, top, direction):
    """The complex a stream describes, built whole."""
    bases = {k: tuple(labels_of_degree(k)) for k in range(top + 1)}
    diffs = {}
    for k in range(top + 1):
        if k + direction not in bases:
            continue
        rows = {lab: i for i, lab in enumerate(bases[k + direction])}
        entries = {
            (rows[t], j): v for j, lab in enumerate(bases[k]) for t, v in down_edges(lab)
        }
        diffs[k] = SparseMatrix(len(rows), len(bases[k]), entries, ZZ)
    return BasedComplex(ZZ, direction, bases, diffs)


def test_koszul_checks_build_no_complex(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a whole complex, split or halving was built")

    for module in (hochschild, verify):
        for name in ("build_reduced_chain", "build_reduced_cochain", "split_parity"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    monkeypatch.setattr(verify, "halve_differentials", refuse)
    results = koszul_matching_checks(5, 4)
    assert [r.ok for r in results] == [True, True]
    assert [r.details for r in results] == ["Q and halved-Z certified"] * 2


def test_koszul_checks_read_each_cell_once(monkeypatch):
    # each variant reads every degree once, calls down_edges once per
    # cell, inert or active, and reads the rule at most twice per active
    # cell: on the cell and on its partner
    n, max_degree = 4, 3
    top = max_degree + 1
    degrees, edges, rules = Counter(), Counter(), Counter()

    def counting_stream(n, top, cohomology, size_limit):
        labels_of_degree, down_edges = reduced_cell_stream(n, top, cohomology, size_limit)

        def counted_labels(k):
            degrees[cohomology, k] += 1
            return labels_of_degree(k)

        def counted_edges(cell):
            edges[cell] += 1
            return down_edges(cell)

        return counted_labels, counted_edges

    def counted(rule):
        def read(cell):
            rules[cell] += 1
            return rule(cell)

        return read

    monkeypatch.setattr(verify, "reduced_cell_stream", counting_stream)
    monkeypatch.setattr(verify, "koszul_chain_rule", counted(verify.koszul_chain_rule))
    cochain_rule = verify.koszul_cochain_rule
    monkeypatch.setattr(verify, "koszul_cochain_rule", lambda n: counted(cochain_rule(n)))
    results = koszul_matching_checks(n, max_degree)
    assert [r.ok for r in results] == [True, True]
    assert degrees == {(cohomology, k): 1 for cohomology in (False, True) for k in range(top + 1)}
    cells = set()
    for cohomology in (False, True):
        labels_of_degree, _ = reduced_cell_stream(n, top, cohomology)
        cells |= {cell for k in range(top + 1) for cell in labels_of_degree(k)}
    assert set(edges) == cells and set(edges.values()) == {1}
    direction = {ChainCell: CHAIN, CochainCell: COCHAIN}
    assert all(parity_active(cell, direction[type(cell)]) for cell in rules)
    assert max(rules.values()) == 2


def _reweighted(cohomology, change):
    """The n = 2 stream of one variant with the matched edge of one
    active source changed: its weight doubled from -2 to -4, or the edge
    dropped."""
    labels_of_degree, down_edges = reduced_cell_stream(2, 2, cohomology)
    if cohomology:
        source, partner = CochainCell((), 0b01), CochainCell((2,), 0b11)
    else:
        source, partner = ChainCell(0b10, (1,)), ChainCell(0b11, ())
    assert down_edges(source) == [(partner, -2)]

    def changed(cell):
        edges = down_edges(cell)
        if cell != source:
            return edges
        if change == "double":
            return [(t, 2 * v if t == partner else v) for t, v in edges]
        return [(t, v) for t, v in edges if t != partner]

    return labels_of_degree, changed


@pytest.mark.parametrize("cohomology", [False, True], ids=["chain", "cochain"])
@pytest.mark.parametrize(
    "change, error", [("double", NonInvertibleWeight), ("drop", EdgeNotInDifferential)]
)
def test_matched_weights_are_read_in_q_and_halved_in_z(monkeypatch, cohomology, change, error):
    # -4 is even and a unit in Q, but halved it is -2, no unit of Z
    perturbed = _reweighted(cohomology, change)

    def stream(n, top, variant, size_limit):
        return perturbed if variant == cohomology else reduced_cell_stream(n, top, variant, size_limit)

    monkeypatch.setattr(verify, "reduced_cell_stream", stream)
    with pytest.raises(error):
        koszul_matching_checks(2, 1)


def _perturbed(kind):
    """A stream whose n = 2 chain complex gets one bad entry: a cross
    entry from an active cell to an inert one, an entry between inert
    cells, or an odd entry between active cells."""
    labels_of_degree, down_edges = reduced_cell_stream(2, 2)
    source, extra = {
        "cross": (ChainCell(0b01, (1,)), (ChainCell(0b01, ()), 2)),
        "inert": (ChainCell(0b00, (1,)), (ChainCell(0b01, ()), 2)),
        "odd": (ChainCell(0b01, (2,)), (ChainCell(0b00, ()), 3)),
    }[kind]

    def perturbed(cell):
        edges = down_edges(cell)
        return edges + [extra] if cell == source else edges

    return labels_of_degree, perturbed


@pytest.mark.parametrize("kind", ["cross", "inert", "odd"])
def test_broken_split_is_refused_with_the_old_message(monkeypatch, kind):
    labels_of_degree, down_edges = _perturbed(kind)
    whole = _built(labels_of_degree, down_edges, 2, CHAIN)
    with pytest.raises(ValueError) as old:
        halve_differentials(split_parity(whole)[0])
    monkeypatch.setattr(
        verify,
        "reduced_cell_stream",
        lambda n, top, cohomology, size_limit: (labels_of_degree, down_edges),
    )
    with pytest.raises(ValueError) as new:
        koszul_matching_checks(2, 1)
    assert str(new.value) == str(old.value)
    assert str(new.value).startswith({"cross": "cross entry", "inert": "entry 2 between", "odd": "odd entry 3 at ("}[kind])


def test_size_guard_runs_before_any_cell(monkeypatch):
    enumerated = []
    for name in ("enumerate_multisets", "all_subsets"):
        original = getattr(hochschild, name)
        monkeypatch.setattr(
            hochschild, name, lambda *a, original=original: enumerated.append(a) or original(*a)
        )
    with pytest.raises(SizeLimit):
        koszul_matching_checks(40, 1)
    assert enumerated == []



def test_a_rule_without_its_sign_twist_is_caught(monkeypatch):
    # both terms of the weight kept, but without the (-1)^k of the chain
    # rule and the (-1)^(k+1) of the cochain rule: the inert cells get
    # entries, and the reduced blocks lose a free summand
    def untwisted(sigma, i, k, cohomology):
        x = 1 << (i - 1)
        if sigma & x:
            return 0
        return subset_mul_sign(sigma, x)[0] + subset_mul_sign(x, sigma)[0]

    monkeypatch.setattr(hochschild, "_reduced_coefficient", untwisted)
    with pytest.raises(ValueError, match="between inert cells|cross entry"):
        koszul_matching_checks(3, 2)
    for cohomology in (False, True):
        (z,) = triple_agreement(3, 2, rings=(ZZ,), cohomology=cohomology)
        assert not z.ok and "reduced" in z.details, cohomology
