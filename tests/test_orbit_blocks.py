"""The reduced complexes by multidegree orbits: each block is the whole
complex restricted to one multidegree, the orbit-weighted sum of block
homology is the homology of the whole complex, permuting a multidegree
keeps the block homology, the coverage guard catches a missing orbit,
every stream block is the labelled block with its cells permuted, also
when builds of different n and variants alternate, and neither the
stream nor the cell stream reads the down terms of the multiset
resolution or the action tables of the base change."""

from random import Random

import pytest

from exthh import hochschild
from exthh.complexes import CHAIN, BasedComplex, OutOfRange, homology, homology_sum
from exthh.hochschild import (
    IncompleteOrbits,
    SizeLimit,
    build_reduced_chain,
    build_reduced_cochain,
    closed_form_cohomology,
    closed_form_homology,
    reduced_block,
    reduced_orbit_blocks,
)
from exthh.linalg import HomologyGroup, SparseMatrix
from exthh.rings import F2, F3, QQ, ZZ
from helpers import small_chain, small_cochain


def _multidegree(n, cell, cohomology):
    """1_sigma + tau for a chain cell, 1_sigma - tau for a cochain cell."""
    sign = -1 if cohomology else 1
    e = [cell.sigma >> i & 1 for i in range(n)]
    for i in cell.tau:
        e[i - 1] += sign
    return tuple(e)


@pytest.mark.parametrize("cohomology", [False, True], ids=["chain", "cochain"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_orbit_sum_equals_whole_complex_homology(n, cohomology):
    whole = (small_cochain if cohomology else small_chain)(n, 5)
    blocks = list(reduced_orbit_blocks(n, 5, cohomology))
    for ring in (ZZ, QQ, F2, F3):
        for k in range(5):
            assert homology_sum(blocks, k, ring) == homology(whole, k, ring), (ring.name, k)
    with pytest.raises(OutOfRange):
        homology_sum(blocks, 5)


@pytest.mark.parametrize("cohomology", [False, True], ids=["chain", "cochain"])
@pytest.mark.parametrize("n, max_degree", [(1, 4), (2, 4), (3, 4), (4, 3)])
def test_every_block_is_the_whole_complex_restricted(n, max_degree, cohomology):
    # every multidegree, sorted or not: the block has exactly the cells
    # of that multidegree in basis order, and the entries on them
    whole = (build_reduced_cochain if cohomology else build_reduced_chain)(n, max_degree)
    by_e: dict[tuple, dict[int, list]] = {}
    for k in whole.degrees:
        for cell in whole.basis(k):
            by_e.setdefault(_multidegree(n, cell, cohomology), {}).setdefault(k, []).append(cell)
    for e, cells in by_e.items():
        block = reduced_block(n, e, max_degree, cohomology)
        assert block.degrees == whole.degrees
        for k in whole.degrees:
            assert list(block.basis(k)) == cells.get(k, []), (e, k)
        for k, mat in block.diffs.items():
            src, dst = whole.index(k), whole.index(k + whole.direction)
            cols = [src[c] for c in block.basis(k)]
            rows = [dst[c] for c in block.basis(k + whole.direction)]
            row_of = {r: i for i, r in enumerate(rows)}
            col_of = {c: j for j, c in enumerate(cols)}
            restricted = {}
            for (r, c), v in whole.diff(k).entries.items():
                if c in col_of:
                    # the differential keeps the multidegree
                    assert r in row_of, (e, k)
                    restricted[row_of[r], col_of[c]] = v
            assert dict(mat.entries) == restricted, (e, k)


@pytest.mark.parametrize("cohomology", [False, True], ids=["chain", "cochain"])
def test_permuted_multidegrees_have_equal_homology(cohomology):
    n, max_degree = 5, 4
    rng = Random(20261018)
    representatives = list(hochschild._orbit_representatives(n, max_degree, cohomology))
    torsion_seen = False
    for e in rng.sample(representatives, 12):
        groups = [homology(reduced_block(n, e, max_degree, cohomology), k) for k in range(max_degree)]
        torsion_seen |= any(g.torsion for g in groups)
        for _ in range(2):
            perm = list(e)
            rng.shuffle(perm)
            block = reduced_block(n, perm, max_degree, cohomology)
            assert [homology(block, k) for k in range(max_degree)] == groups, (e, perm)
    assert torsion_seen


def test_orbit_sizes_and_representatives():
    assert hochschild._orbit_size((2, 1, 1, 0)) == 12
    assert hochschild._orbit_size((0, 0, 0)) == 1
    reps = list(hochschild._orbit_representatives(3, 2, False))
    assert all(list(e) == sorted(e, reverse=True) for e in reps)
    assert len(set(reps)) == len(reps)
    assert (3, 1, 0) in reps and (4, 0, 0) not in reps
    cochain_reps = list(hochschild._orbit_representatives(3, 2, True))
    assert (1, 1, 1) in cochain_reps and (0, -1, -1) in cochain_reps
    assert (0, 0, -3) not in cochain_reps


def test_coverage_check_catches_a_missing_orbit(monkeypatch):
    original = hochschild._orbit_representatives

    def drop_one(n, max_degree, cohomology):
        reps = list(original(n, max_degree, cohomology))
        return reps[:3] + reps[4:]

    monkeypatch.setattr(hochschild, "_orbit_representatives", drop_one)
    for cohomology in (False, True):
        with pytest.raises(IncompleteOrbits):
            list(reduced_orbit_blocks(3, 3, cohomology))


def test_orbit_blocks_refuse_by_their_block_cells(monkeypatch):
    # the guard counts the cells of the representative blocks, on the
    # call and before any block is built
    def refuse(*args, **kwargs):
        raise AssertionError("a block was built before the size check")

    monkeypatch.setattr(hochschild, "_reduced_block", refuse)
    for cohomology in (False, True):
        # every block is indexed by the 2^n monomials
        with pytest.raises(SizeLimit) as exc:
            reduced_orbit_blocks(40, 1, cohomology)
        assert (exc.value.degree, exc.value.count) == (0, 2**40)
        # n=3 to degree 7: the blocks hold 65 cells in degree 7, the
        # largest 3; the whole complex has 8 * 36 = 288 cells in degree 7
        with pytest.raises(SizeLimit) as exc:
            reduced_orbit_blocks(3, 7, cohomology, size_limit=64)
        assert str(exc.value) == "degree 7 needs 65 cells in its orbit blocks, 3 in the largest, over the limit 64"
        assert (exc.value.degree, exc.value.count, exc.value.largest) == (7, 65, 3)
        reduced_orbit_blocks(3, 7, cohomology, size_limit=65)
        # n=3 to degree 1: the 8 monomials fit a limit of 8, the 9 cells
        # of degree 1 do not
        with pytest.raises(SizeLimit) as exc:
            reduced_orbit_blocks(3, 1, cohomology, size_limit=8)
        assert str(exc.value) == "degree 1 needs 9 cells in its orbit blocks, 3 in the largest, over the limit 8"
        reduced_orbit_blocks(3, 1, cohomology, size_limit=9)
    with pytest.raises(ValueError):
        reduced_orbit_blocks(0, 1)
    with pytest.raises(ValueError):
        reduced_block(3, (1, 0), 2)


def test_multidegrees_without_cells_give_zero_blocks():
    for e, cohomology in (((-1, 0), False), ((2, 0), True), ((5, 5), False)):
        block = reduced_block(2, e, 3, cohomology)
        assert block.degrees == [0, 1, 2, 3]
        assert all(block.dim(k) == 0 for k in block.degrees)


def test_homology_sum_weights_and_normalizes():
    # Z_2 twice and Z_3 once normalize to Z_2 + Z_6
    def times(d):
        return BasedComplex(
            ZZ, CHAIN, {0: ("a",), 1: ("b",), 2: ()}, {1: SparseMatrix(1, 1, {(0, 0): d}, ZZ)}
        )

    free = BasedComplex(ZZ, CHAIN, {0: ("a",), 1: ()}, {})
    assert homology_sum([(2, times(2)), (1, times(3)), (3, free)], 0) == HomologyGroup(3, ((2, 1), (6, 1)))
    assert homology_sum([(2, times(2)), (1, times(3))], 0, F2) == HomologyGroup(2)
    assert homology_sum([], 0) == HomologyGroup(0)


def _assert_permuted(block, labelled, e):
    """The stream block has the bare multisets of the labelled block's
    cells as labels, and the same entries on them, up to that permutation."""
    assert block.degrees == labelled.degrees, e
    position = {}
    for k in block.degrees:
        taus = [cell.tau for cell in labelled.basis(k)]
        assert sorted(block.basis(k)) == sorted(taus), (e, k)
        position[k] = {tau: i for i, tau in enumerate(taus)}
    assert block.diffs.keys() == labelled.diffs.keys(), e
    for k, mat in block.diffs.items():
        other = labelled.diff(k)
        src, dst = block.basis(k), block.basis(k + block.direction)
        relabelled = {
            (position[k + block.direction][dst[r]], position[k][src[c]]): v
            for (r, c), v in mat.entries.items()
        }
        assert (mat.rows, mat.cols) == (other.rows, other.cols), (e, k)
        assert relabelled == dict(other.entries), (e, k)


@pytest.mark.parametrize("cohomology", [False, True], ids=["chain", "cochain"])
@pytest.mark.parametrize("n, top", [(1, 4), (2, 4), (3, 4), (4, 3)])
def test_stream_blocks_are_the_labelled_blocks_permuted(n, top, cohomology):
    # a stream block has the bare multisets as labels, in enumeration
    # order: it is reduced_block at its representative with the cells
    # permuted
    representatives = list(hochschild._orbit_representatives(n, top, cohomology))
    stream = list(reduced_orbit_blocks(n, top, cohomology))
    assert [orbit for orbit, _block in stream] == [hochschild._orbit_size(e) for e in representatives]
    for (_orbit, block), e in zip(stream, representatives, strict=True):
        assert block.degrees == list(range(top + 1))
        for k in block.degrees:
            assert all(isinstance(tau, tuple) and len(tau) == k for tau in block.basis(k)), (e, k)
        _assert_permuted(block, reduced_block(n, e, top, cohomology), e)


def test_reduced_streams_never_call_down_terms_or_action(monkeypatch):
    # the orbit blocks and the cell stream read their entries from the
    # per-cell rule, not from the multiset resolution's down terms and
    # the action tables of the base change
    calls = []

    def counting(name):
        original = getattr(hochschild, name)
        return lambda *args: calls.append(name) or original(*args)

    for name in ("reduced_down_terms", "_action"):
        monkeypatch.setattr(hochschild, name, counting(name))
    for cohomology in (False, True):
        assert list(reduced_orbit_blocks(4, 4, cohomology))
        labels_of_degree, down_edges = hochschild.reduced_cell_stream(3, 3, cohomology)
        assert sum(len(down_edges(cell)) for k in range(4) for cell in labels_of_degree(k))
    assert calls == []
    hochschild.build_reduced_chain(2, 2)
    assert set(calls) == {"reduced_down_terms", "_action"}


def test_orbit_blocks_equal_single_blocks_across_interleaved_builds():
    # chain and cochain builds of different n alternate in one process, so
    # a cache that outlived a build, keyed without n or the variant, would
    # hand one build the faces or the entries of another; the closed forms
    # catch one that both builds read alike
    cases = [(1, False), (2, True), (3, False), (4, True), (1, True), (2, False), (3, True), (4, False)]
    for n, cohomology in cases:
        max_degree = 3 if n == 4 else 4
        blocks = list(reduced_orbit_blocks(n, max_degree, cohomology))
        closed_form = closed_form_cohomology if cohomology else closed_form_homology
        for k in range(max_degree):
            assert homology_sum(blocks, k) == closed_form(n, k, ZZ).group, (n, cohomology, k)
        representatives = hochschild._orbit_representatives(n, max_degree, cohomology)
        for e, (_orbit, block) in zip(representatives, blocks, strict=True):
            _assert_permuted(block, reduced_block(n, e, max_degree, cohomology), (n, cohomology, e))
