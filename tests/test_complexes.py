import pytest

from exthh.complexes import (
    CHAIN,
    COCHAIN,
    BasedComplex,
    OutOfRange,
    UnsupportedRing,
    complex_to_json,
    halve_differentials,
    homology,
    homology_sums,
    render_complex_text,
    validate_complex,
)
from exthh.hochschild import build_reduced_chain, build_reduced_resolution, reduced_orbit_blocks
from exthh.linalg import CompositionNonzero, HomologyGroup, SparseMatrix
from exthh.rings import F2, F3, QQ, ZZ


def toy(entries_by_degree, dims, direction=CHAIN, domain=ZZ):
    bases = {k: tuple(f"e{k}_{i}" for i in range(d)) for k, d in dims.items()}
    diffs = {}
    for k, entries in entries_by_degree.items():
        diffs[k] = SparseMatrix(
            dims[k + direction], dims[k], {kk: domain.coerce(v) for kk, v in entries.items()}, domain
        )
    return BasedComplex(domain, direction, bases, diffs)


def test_based_complex_is_read_only():
    bases = {0: ("a",), 1: ("b", "c")}
    diffs = {1: SparseMatrix(1, 2, {(0, 0): 1, (0, 1): -1}, ZZ)}
    c = BasedComplex(ZZ, CHAIN, bases, diffs)
    with pytest.raises(TypeError):
        c.bases[2] = ("d",)
    with pytest.raises(TypeError):
        c.diffs[1] = SparseMatrix.zero(1, 2)
    for attr in ("bases", "diffs", "domain", "direction", "_index"):
        with pytest.raises(AttributeError):
            setattr(c, attr, {})
    bases[0] = ("z",)  # the complex keeps its own copies
    diffs.clear()
    assert c.basis(0) == ("a",) and c.diff(1).nnz() == 2


def test_validate_complex_examples():
    good = build_reduced_resolution(2, 3)
    assert validate_complex(good).ok
    bad = toy({1: {(0, 0): 1}, 2: {(0, 0): 1}}, {0: 1, 1: 1, 2: 1})
    report = validate_complex(bad)
    assert not report.ok and report.failures == ((2, 1),)
    empty = BasedComplex(ZZ, CHAIN, {}, {})
    assert validate_complex(empty).ok


def test_shape_validation():
    with pytest.raises(ValueError):
        toy({1: {(0, 0): 1}}, {0: 0, 1: 1})


def test_homology_examples():
    # one-variable reduced chain complex: Z Z/2 pattern
    c = build_reduced_chain(1, 3)
    assert homology(c, 1) == HomologyGroup(1, ((2, 1),))
    assert homology(c, 0) == HomologyGroup(2)
    c2 = build_reduced_chain(2, 2)
    assert homology(c2, 1, F2) == HomologyGroup(8)


def test_homology_out_of_range():
    c = build_reduced_chain(1, 3)
    with pytest.raises(OutOfRange):
        homology(c, 3)  # needs the differential from degree 4
    with pytest.raises(OutOfRange):
        homology(c, 7)


def test_homology_rejects_bimodule_coefficients():
    res = build_reduced_resolution(1, 2)
    with pytest.raises(UnsupportedRing):
        homology(res, 1)


def permute_basis(c, perms):
    """Reorder the bases by per-degree permutations and conjugate the
    differentials accordingly."""
    new_bases = {
        k: tuple(basis[i] for i in perms[k]) if k in perms else basis for k, basis in c.bases.items()
    }
    new_diffs = {}
    for k, m in c.diffs.items():
        src_pos = {old: new for new, old in enumerate(perms.get(k, range(m.cols)))}
        dst_pos = {old: new for new, old in enumerate(perms.get(k + c.direction, range(m.rows)))}
        new_diffs[k] = SparseMatrix(
            m.rows, m.cols, {(dst_pos[r], src_pos[j]): v for (r, j), v in m.entries.items()}, m.domain
        )
    return BasedComplex(c.domain, c.direction, new_bases, new_diffs)


def test_homology_invariant_under_basis_permutation():
    c = build_reduced_chain(2, 4)
    perms = {0: [3, 0, 2, 1], 1: [7, 2, 1, 0, 5, 4, 3, 6], 2: list(reversed(range(c.dim(2))))}
    shuffled = permute_basis(c, perms)
    assert validate_complex(shuffled).ok
    for k in range(3):
        assert homology(shuffled, k) == homology(c, k)


def test_cochain_orientation_homology():
    # 0 -> Z -x2-> Z -> 0 in cochain orientation: H^0 = 0, H^1 = Z/2;
    # the explicit empty degree marks a genuine end, not a truncation
    c = toy({0: {(0, 0): 2}}, {0: 1, 1: 1, 2: 0}, direction=COCHAIN)
    assert homology(c, 0) == HomologyGroup(0)
    assert homology(c, 1) == HomologyGroup(0, ((2, 1),))


def test_halve_differentials():
    c = toy({1: {(0, 0): 4}}, {0: 1, 1: 1})
    assert halve_differentials(c).diff(1).entry(0, 0) == 2
    odd = toy({1: {(0, 0): 3}}, {0: 1, 1: 1})
    with pytest.raises(ValueError):
        halve_differentials(odd)
    with pytest.raises(UnsupportedRing):
        halve_differentials(toy({1: {(0, 0): 4}}, {0: 1, 1: 1}, domain=QQ))


def test_map_domain_drops_vanishing_entries():
    c = toy({1: {(0, 0): 2}}, {0: 1, 1: 1})
    assert c.map_domain(F2).diff(1).is_zero()


def test_serialization_roundtrip_shapes():
    c = build_reduced_resolution(1, 2)
    payload = complex_to_json(c)
    assert payload["direction"] == "chain"
    assert payload["degrees"]["1"]["basis"] == [{"tau": [1]}]
    assert payload["degrees"]["1"]["differential"]
    text = render_complex_text(c)
    assert "degree 2" in text and "x(1,1)" in text


@pytest.fixture
def compose_calls(monkeypatch):
    """Count the d.d composites the homology driver forms."""
    from exthh import linalg

    calls = []
    original = linalg.check_composite_zero
    monkeypatch.setattr(
        linalg, "check_composite_zero", lambda alpha, beta: calls.append(1) or original(alpha, beta)
    )
    return calls


def test_homology_sums_forms_each_composite_once(compose_calls):
    # every block is read at 4 rings x 3 degrees; each (block, degree)
    # pair is checked once, over Z, whatever the ring
    blocks = list(reduced_orbit_blocks(3, 3))
    keys = [(ring, k) for ring in (ZZ, QQ, F2, F3) for k in range(3)]
    homology_sums(blocks, keys)
    assert len(compose_calls) == len(blocks) * 3


def test_nonzero_composite_is_refused_at_its_first_key(compose_calls):
    bad = toy({1: {(0, 0): 1}, 2: {(0, 0): 1}}, {0: 1, 1: 1, 2: 1, 3: 0})
    with pytest.raises(CompositionNonzero):
        homology_sums([(1, bad)], [(F2, 1), (ZZ, 1), (ZZ, 0)])
    assert len(compose_calls) == 1
    # a failed check is not remembered as passed
    with pytest.raises(CompositionNonzero):
        homology(bad, 1, QQ)
    assert homology(bad, 0) == HomologyGroup(0)
