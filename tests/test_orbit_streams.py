"""Both orbit routes as streams: every reader keeps one block alive at a
time, a stream read twice is refused, the size guard counts, without
building them, exactly the cells that the blocks then hold, and neither
route builds an action table: the reduced blocks read their entries
from the per-cell rule of the reduced differential, the bar blocks from
the Hochschild formula."""

import weakref

import pytest

from exthh import hochschild, verify
from exthh.cli import EXIT_OK, main
from exthh.complexes import homology_sum
from exthh.hochschild import closed_form_homology
from exthh.linalg import HomologyGroup
from exthh.rings import ZZ
from exthh.verify import triple_agreement, universal_coefficient_check


@pytest.fixture
def one_block_at_a_time(monkeypatch):
    """Wrap both block builders: a block may be built only when every
    earlier one is gone.  Gives the list of built blocks' weak refs."""
    built = []

    def watching(original):
        def build(*args, **kwargs):
            alive = sum(ref() is not None for ref in built)
            assert alive == 0, f"{alive} block(s) alive while the next is built"
            block = original(*args, **kwargs)
            built.append(weakref.ref(block))
            return block

        return build

    monkeypatch.setattr(hochschild, "_reduced_block", watching(hochschild._reduced_block))
    monkeypatch.setattr(hochschild, "_bar_block", watching(hochschild._bar_block))
    return built


@pytest.mark.parametrize("method", ["reduced", "oracle"])
def test_table_keeps_one_block_alive(one_block_at_a_time, capsys, method):
    argv = ["table", "--n", "3", "--method", method, "--max-degree", "2", "--variant", "both"]
    assert main(argv) == EXIT_OK
    assert "cohomology" in capsys.readouterr().out
    # both variants streamed, and nothing outlives the run
    assert len(one_block_at_a_time) > 2
    assert all(ref() is None for ref in one_block_at_a_time)


@pytest.mark.parametrize("cohomology", [False, True], ids=["chain", "cochain"])
def test_verify_orbit_checks_keep_one_block_alive(one_block_at_a_time, cohomology):
    assert all(check.ok for check in triple_agreement(3, 2, cohomology=cohomology))
    bar_and_reduced = len(one_block_at_a_time)
    assert universal_coefficient_check(3, 2, cohomology).ok
    assert bar_and_reduced > 2 and len(one_block_at_a_time) > bar_and_reduced + 2


@pytest.mark.parametrize("cohomology", [False, True], ids=["chain", "cochain"])
def test_verify_builds_only_the_degrees_it_reads(monkeypatch, cohomology):
    # homology through k needs degree k + 1; the chain formula reads the Z
    # groups through max_k, the cochain one through max_k + 1
    tops = []
    for name in ("reduced_orbit_blocks", "build_reduced_chain"):
        original = getattr(verify, name)
        monkeypatch.setattr(
            verify, name, lambda n, top, *rest, original=original: tops.append(top) or original(n, top, *rest)
        )
    assert universal_coefficient_check(3, 2, cohomology).ok
    assert verify.halved_subcomplex_check(3, 2).ok
    assert tops == [4 if cohomology else 3, 3]


@pytest.mark.parametrize("cohomology", [False, True], ids=["chain", "cochain"])
def test_guard_counts_are_the_built_cells(cohomology):
    # the cells of a block in degree k do not depend on how high it is
    # built, so one build to degree 4 gives the guard's numbers in every
    # degree up to 4
    top = 4
    for stream, count in (
        (hochschild.reduced_orbit_blocks, hochschild._orbit_cells),
        (hochschild.bar_orbit_blocks, hochschild._bar_orbit_cells),
    ):
        for n in (1, 2, 3, 4):
            summed, largest = [0] * (top + 1), [0] * (top + 1)
            for _orbit, block in stream(n, top, cohomology):
                for k in range(top + 1):
                    summed[k] += block.dim(k)
                    largest[k] = max(largest[k], block.dim(k))
            for k in range(top + 1):
                assert count(n, k) == (summed[k], largest[k]), (stream.__name__, n, k)


@pytest.mark.parametrize("cohomology", [False, True], ids=["chain", "cochain"])
def test_orbit_streams_build_no_action_tables(monkeypatch, cohomology):
    # the guard counts only monomials and block cells, and neither
    # stream calls ``_action``
    calls = []
    monkeypatch.setattr(hochschild, "_action", lambda *args: calls.append(args))
    for n in (1, 2, 3, 4):
        for k in range(4 if n == 4 else 5):
            for stream in (hochschild.reduced_orbit_blocks, hochschild.bar_orbit_blocks):
                for _block in stream(n, k, cohomology):
                    pass
    assert calls == []


def test_a_stream_read_twice_is_refused():
    stream = hochschild.reduced_orbit_blocks(2, 2)
    assert homology_sum(stream, 1) == closed_form_homology(2, 1, ZZ).group
    with pytest.raises(ValueError):
        homology_sum(stream, 1)
    # a list of blocks may be empty
    assert homology_sum([], 1) == HomologyGroup(0)
