"""The bar oracle by multidegree orbits: each bar block is the whole bar
complex restricted to one multidegree, the orbit-weighted sum of block
homology is the homology of the whole bar complex, each orbit size is
the number of rearrangements of its representative, the coverage check
catches a missing orbit, and the size guard counts the cells of the
representative blocks."""

import pytest

from exthh import hochschild
from exthh.combinat import multiset_permutations
from exthh.complexes import OutOfRange, homology, homology_sum
from exthh.hochschild import (
    IncompleteOrbits,
    SizeLimit,
    bar_block,
    bar_orbit_blocks,
    build_bar_hochschild_chain,
    build_bar_hochschild_cochain,
)
from exthh.rings import F2, F3, QQ, ZZ
from helpers import oracle_chain, oracle_cochain


def _multidegree(n, cell, cohomology):
    """1_sigma + sum_j 1_{w_j} for a chain cell, 1_sigma - sum_j 1_{w_j}
    for a cochain cell."""
    sign = -1 if cohomology else 1
    e = [cell.sigma >> i & 1 for i in range(n)]
    for factor in cell.factors:
        for i in range(n):
            e[i] += sign * (factor >> i & 1)
    return tuple(e)


@pytest.mark.parametrize("cohomology", [False, True], ids=["chain", "cochain"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_orbit_sum_equals_whole_bar_homology(n, cohomology):
    whole = (oracle_cochain if cohomology else oracle_chain)(n, 4)
    blocks = list(bar_orbit_blocks(n, 4, cohomology))
    assert all(block.domain.name == "Z" for _orbit, block in blocks)
    for ring in (ZZ, QQ, F2, F3):
        for k in range(4):
            assert homology_sum(blocks, k, ring) == homology(whole, k, ring), (ring.name, k)
    with pytest.raises(OutOfRange):
        homology_sum(blocks, 4)


@pytest.mark.parametrize("cohomology", [False, True], ids=["chain", "cochain"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_every_bar_block_is_the_whole_complex_restricted(n, cohomology):
    # every multidegree, sorted or not: the block has exactly the cells
    # of that multidegree in basis order, and the entries on them
    max_degree = 3
    whole = (build_bar_hochschild_cochain if cohomology else build_bar_hochschild_chain)(n, max_degree)
    by_e: dict[tuple, dict[int, list]] = {}
    for k in whole.degrees:
        for cell in whole.basis(k):
            by_e.setdefault(_multidegree(n, cell, cohomology), {}).setdefault(k, []).append(cell)
    assert any(list(e) != sorted(e, reverse=True) for e in by_e) or n == 1
    for e, cells in by_e.items():
        block = bar_block(n, e, max_degree, cohomology)
        assert block.degrees == whole.degrees
        for k in whole.degrees:
            assert list(block.basis(k)) == cells.get(k, []), (e, k)
        for k, mat in block.diffs.items():
            src, dst = whole.index(k), whole.index(k + whole.direction)
            row_of = {dst[c]: i for i, c in enumerate(block.basis(k + whole.direction))}
            col_of = {src[c]: j for j, c in enumerate(block.basis(k))}
            restricted = {}
            for (r, c), v in whole.diff(k).entries.items():
                if c in col_of:
                    # the differential keeps the multidegree
                    assert r in row_of, (e, k)
                    restricted[row_of[r], col_of[c]] = v
            assert dict(mat.entries) == restricted, (e, k)


def test_multidegrees_without_bar_cells_give_zero_blocks():
    # chain entries are >= 0 and cochain entries <= 1; a generator lies
    # in at most k factors of a degree-k word
    for e, cohomology in (((-1, 0), False), ((2, 0), True), ((5, 5), False), ((-4, 0), True)):
        block = bar_block(2, e, 3, cohomology)
        assert block.degrees == [0, 1, 2, 3]
        assert all(block.dim(k) == 0 for k in block.degrees)
    with pytest.raises(ValueError):
        bar_block(3, (1, 0), 2)


def test_bar_orbits_are_weakly_decreasing_with_their_sizes():
    for cohomology in (False, True):
        orbits = hochschild._bar_orbits(3, 4, cohomology)
        assert len(orbits) == 56
        assert all(list(e) == sorted(e, reverse=True) for _orbit, e in orbits)
        assert sum(orbit for orbit, _e in orbits) == 6**3
    sizes = dict((e, orbit) for orbit, e in hochschild._bar_orbits(4, 2, False))
    assert sizes[(3, 1, 1, 0)] == 12 and sizes[(0, 0, 0, 0)] == 1 and (4, 0, 0, 0) not in sizes


def test_bar_orbit_sizes_count_the_permutations():
    # the multinomial of each representative against its listed
    # rearrangements
    for n in range(1, 6):
        for cohomology in (False, True):
            for orbit, e in hochschild._bar_orbits(n, 3, cohomology):
                assert orbit == len(multiset_permutations(e)), (n, cohomology, e)


def test_coverage_check_catches_a_missing_bar_orbit(monkeypatch):
    original = hochschild._bar_orbits

    def drop_one(n, max_degree, cohomology):
        orbits = original(n, max_degree, cohomology)
        return orbits[:3] + orbits[4:]

    monkeypatch.setattr(hochschild, "_bar_orbits", drop_one)
    for cohomology in (False, True):
        with pytest.raises(IncompleteOrbits):
            list(bar_orbit_blocks(3, 3, cohomology))


def test_bar_orbit_blocks_refuse_by_their_block_cells(monkeypatch):
    # the guard counts the cells of the representative blocks, on the
    # call and before any block is built
    def refuse(*args, **kwargs):
        raise AssertionError("a block was built before the size check")

    monkeypatch.setattr(hochschild, "_bar_block", refuse)
    for cohomology in (False, True):
        # n=2 to degree 3: the 15 blocks hold 3, 8, 23, 67 cells, the
        # largest 1, 3, 7, 15, and their weights need at most 64 table
        # rows; the whole complex has 108 cells in degree 3
        with pytest.raises(SizeLimit) as exc:
            bar_orbit_blocks(2, 3, cohomology, size_limit=66)
        assert str(exc.value) == "degree 3 needs 67 cells in its orbit blocks, 15 in the largest, over the limit 66"
        assert (exc.value.degree, exc.value.count, exc.value.largest) == (3, 67, 15)
        bar_orbit_blocks(2, 3, cohomology, size_limit=67)
        # every block is indexed by the 2^n monomials
        with pytest.raises(SizeLimit) as exc:
            bar_orbit_blocks(40, 1, cohomology)
        assert (exc.value.degree, exc.value.count) == (0, 2**40)
    with pytest.raises(ValueError):
        bar_orbit_blocks(0, 1)


def test_bar_orbit_blocks_never_call_bar_down_terms(monkeypatch):
    # the stream's entries come from the Hochschild formula on its own
    # cells, not from the bar resolution's down terms
    calls = []

    def counting(n, word, original=hochschild.bar_down_terms):
        calls.append(word)
        return original(n, word)

    monkeypatch.setattr(hochschild, "bar_down_terms", counting)
    for cohomology in (False, True):
        assert list(bar_orbit_blocks(3, 3, cohomology))
    assert calls == []


@pytest.mark.parametrize("cohomology", [False, True], ids=["chain", "cochain"])
@pytest.mark.parametrize("n, top", [(1, 4), (2, 4), (3, 4), (4, 3)])
def test_stream_blocks_are_the_labelled_blocks_permuted(n, top, cohomology):
    # a stream block has the bar words as labels, in enumeration order:
    # it is bar_block at its representative with the cells permuted
    orbits = hochschild._bar_orbits(n, top, cohomology)
    stream = list(bar_orbit_blocks(n, top, cohomology))
    assert [orbit for orbit, _block in stream] == [orbit for orbit, _e in orbits]
    for (_orbit, block), (_, e) in zip(stream, orbits):
        labelled = bar_block(n, e, top, cohomology)
        assert block.degrees == labelled.degrees == list(range(top + 1))
        position = {}
        for k in block.degrees:
            words = [cell.factors for cell in labelled.basis(k)]
            assert list(block.basis(k)) == [w for w, _s in hochschild._bar_cells(e, k, cohomology)]
            assert sorted(block.basis(k)) == sorted(words), (e, k)
            position[k] = {w: i for i, w in enumerate(words)}
        for k, mat in block.diffs.items():
            src, dst = block.basis(k), block.basis(k + block.direction)
            relabelled = {
                (position[k + block.direction][dst[r]], position[k][src[c]]): v
                for (r, c), v in mat.entries.items()
            }
            assert relabelled == dict(labelled.diff(k).entries), (e, k)
