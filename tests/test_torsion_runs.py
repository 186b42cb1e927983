"""``HomologyGroup`` keeps its torsion as (divisor, multiplicity) runs.

The run form is checked against the expanded divisor tuple it stands
for: the pairwise gcd/lcm exchanges of ``tests/helpers.py`` give the
chain, the expanded tuples give equality and hashing, and the
``groupby`` rendering of the expanded tuple gives the text form.
"""

from collections import Counter
from itertools import groupby
from random import Random

import pytest
import sympy
from sympy.matrices.normalforms import invariant_factors

from exthh.linalg import HomologyGroup, SparseMatrix, _invariants, divisor_runs, homology_pair
from helpers import normalize_divisor_chain_pairwise

VALUES = (1, 2, 3, 4, 5, 6, 8, 9, 12, 18, 25, 30, 36, 2**10, 3**7)


def _groupby_str(free_rank: int, torsion: tuple[int, ...]) -> str:
    """The text form regrouped from the expanded divisor tuple."""
    parts = []
    if free_rank == 1:
        parts.append("Z")
    elif free_rank > 1:
        parts.append(f"Z^{free_rank}")
    for d, run in groupby(torsion):
        m = len(list(run))
        parts.append(f"Z_{d}" if m == 1 else f"(Z_{d})^{m}")
    return " + ".join(parts) if parts else "0"


def _group(free_rank: int, counts: dict[int, int]) -> HomologyGroup:
    """The group with the torsion of a {divisor: multiplicity} map of
    nonzero values, normalized as ``homology_sums`` does."""
    runs = divisor_runs(counts)
    return HomologyGroup(free_rank, runs[1:] if runs and runs[0][0] == 1 else runs)


def _random_counts(rng: Random, values=VALUES) -> dict[int, int]:
    return {
        rng.choice(values) * rng.choice((1, -1)): rng.randint(1, 12)
        for _ in range(rng.randint(0, 5))
    }


def _expanded(counts: dict[int, int]) -> list[int]:
    return [d for d, m in counts.items() for _ in range(m)]


def test_runs_expand_to_the_pairwise_chain():
    rng = Random(211)
    for _ in range(400):
        counts = _random_counts(rng)
        group = _group(rng.randint(0, 3), counts)
        chain = normalize_divisor_chain_pairwise(_expanded(counts))
        assert group.torsion == tuple(d for d in chain if d > 1)
        assert sum(m for _, m in group.runs) == len(group.torsion)
        assert str(group) == _groupby_str(group.free_rank, group.torsion)
        assert group.to_json() == {"free": group.free_rank, "torsion": list(group.torsion)}


def test_equality_and_hash_agree_with_the_expanded_tuples():
    # few values and small multiplicities, so that distinct maps often
    # give the same group (a coprime pair 2, 3 and a lone 6, say)
    rng = Random(223)
    groups = [_group(rng.randint(0, 1), _random_counts(rng, (1, 2, 3, 6))) for _ in range(150)]
    equal_pairs = 0
    for g in groups:
        for h in groups:
            expanded_equal = (g.free_rank, g.torsion) == (h.free_rank, h.torsion)
            assert (g == h) == expanded_equal
            if expanded_equal:
                equal_pairs += g is not h
                assert hash(g) == hash(h)
    assert equal_pairs
    assert len(set(groups)) == len({(g.free_rank, g.torsion) for g in groups})
    assert HomologyGroup(1, [[2, 3]]) == HomologyGroup(1, ((2, 3),))


def test_runs_of_shuffled_sympy_diagonals():
    # sympy's Smith diagonal, shuffled and counted, gives back its runs;
    # the homology of Z^m modulo the matrix's image, and the cache of
    # its runs, say the same
    rng = Random(227)
    torsion_seen = 0
    for _ in range(60):
        m, n = rng.randint(1, 7), rng.randint(1, 7)
        rows = [
            [rng.choice((0, 0, 0, 1, -1, 2, -2, 3, 4, 6)) for _ in range(n)] for _ in range(m)
        ]
        diagonal = tuple(int(abs(d)) for d in invariant_factors(sympy.Matrix(rows)) if d != 0)
        shuffled = [d * rng.choice((1, -1)) for d in diagonal]
        rng.shuffle(shuffled)
        group = _group(0, Counter(shuffled))
        assert group.torsion == tuple(d for d in diagonal if d > 1)
        assert str(group) == _groupby_str(0, group.torsion)
        beta = SparseMatrix.from_dense(rows)
        assert _invariants(beta) == (len(diagonal), group.runs)
        quotient = homology_pair(SparseMatrix.zero(0, m), beta)
        assert quotient == HomologyGroup(m - len(diagonal), group.runs)
        torsion_seen += bool(group.runs)
    assert torsion_seen > 10


@pytest.mark.parametrize(
    "runs",
    [
        ((1, 1),),  # a trivial divisor
        ((0, 1),),
        ((-2, 1),),
        ((2, 0),),  # a multiplicity below 1
        ((2, -1),),
        ((2, 1), (2, 1)),  # a repeated divisor
        ((2, 1), (3, 1)),  # a broken chain
        ((4, 1), (2, 1)),  # falling divisors
    ],
)
def test_constructor_refuses_what_is_not_a_normal_form(runs):
    with pytest.raises(ValueError):
        HomologyGroup(0, runs)


def test_a_run_is_stored_as_given_however_long():
    group = HomologyGroup(3, ((2, 10**30), (6, 1)))
    assert group.runs == ((2, 10**30), (6, 1))
    assert str(group) == f"Z^3 + (Z_2)^{10**30} + Z_6"
