"""Acceptance suite: one test per criterion, exact comparisons throughout.

Run ``pytest tests/test_acceptance.py -v -s`` to see one line per criterion.
All homology comparisons are exact equalities of free rank and torsion
divisor lists; no tolerances apply anywhere.
"""

from random import Random

from exthh.algebra import EnvAlgebra
from exthh.combinat import enumerate_multisets, multiset, multiset_coefficient
from exthh.complexes import halve_differentials, homology, validate_complex
from exthh.hochschild import (
    bar_classify,
    bar_rules,
    build_bar_resolution,
    build_reduced_resolution,
    closed_form_cohomology,
    closed_form_homology,
    generator_to_tensor,
    minimality_certificate,
    split_parity,
)
from exthh.linalg import (
    HomologyGroup,
    SparseMatrix,
    homology_pair,
    normalize_divisor_chain,
    smith_normal_form,
)
from exthh.morse import CycleDetected, lazy_path_counts
from exthh.morse import reduce as morse_reduce
from exthh.products import generator_span_check, ring_structure_constants
from exthh.rings import F2, F3, QQ, ZZ
from exthh.verify import (
    bar_matching_check,
    htpy_chain_map_ok,
    koszul_matching_checks,
    path_census_ok,
    reduce_reproduces_small_resolution,
    universal_coefficient_check,
)
from helpers import (
    oracle_chain,
    oracle_cochain,
    random_exact_pair,
    random_matching,
    random_three_term_complex,
    rule_of,
    small_chain,
    small_cochain,
)

GRID = ((1, 5), (2, 5), (3, 3))
RINGS = (ZZ, QQ, F2, F3)


def _passline(criterion: int, message: str):
    print(f"ACCEPTANCE {criterion} PASS: {message}", flush=True)


def test_criterion_1_triple_agreement_homology():
    cells = 0
    for n, max_k in GRID:
        oracle = oracle_chain(n, max_k + 1)
        small = small_chain(n, max_k + 1)
        for ring in RINGS:
            for k in range(max_k + 1):
                expected = closed_form_homology(n, k, ring).group
                assert homology(oracle, k, ring) == expected, (n, k, ring.name)
                assert homology(small, k, ring) == expected, (n, k, ring.name)
                cells += 1
    # spot values the grid must reproduce
    assert closed_form_homology(2, 0, ZZ).group == HomologyGroup(3, ((2, 1),))
    assert closed_form_homology(1, 1, ZZ).group == HomologyGroup(1, ((2, 1),))
    for n, max_k in GRID:
        for k in range(max_k + 1):
            assert closed_form_homology(n, k, F2).group == HomologyGroup(
                2**n * multiset_coefficient(n, k)
            )
    _passline(1, f"oracle=reduced=closed-form for {cells} (n,k,ring) homology cells")


def test_criterion_2_triple_agreement_cohomology():
    cells = 0
    flagged = []
    for n, max_k in GRID:
        oracle = oracle_cochain(n, max_k + 1)
        small = small_cochain(n, max_k + 1)
        for ring in RINGS:
            for k in range(max_k + 1):
                cf = closed_form_cohomology(n, k, ring)
                assert homology(oracle, k, ring) == cf.group, (n, k, ring.name)
                assert homology(small, k, ring) == cf.group, (n, k, ring.name)
                if cf.flags:
                    flagged.append((n, k, ring.name, cf.flags))
                cells += 1
    assert closed_form_cohomology(1, 0, ZZ).group == HomologyGroup(2)
    assert closed_form_cohomology(1, 2, ZZ).group == HomologyGroup(1, ((2, 1),))
    assert closed_form_cohomology(2, 1, ZZ).group == HomologyGroup(4, ((2, 2),))
    # the degree-zero torsion override must be flagged for odd n over Z
    assert any(n == 1 and k == 0 and ring == "Z" for (n, k, ring, _f) in flagged)
    assert any(n == 3 and k == 0 and ring == "Z" for (n, k, ring, _f) in flagged)
    _passline(
        2,
        f"oracle=reduced=closed-form for {cells} cohomology cells; "
        f"degree-0 override flagged {len(flagged)} times",
    )


def test_criterion_3_morse_reproduces_resolution():
    for n in (1, 2, 3):
        result = reduce_reproduces_small_resolution(n, 4)
        assert result.ok, result.details
        assert minimality_certificate(build_reduced_resolution(n, 4))
    _passline(3, "reduce(bar, matching) = multiset resolution entry-exactly, "
                 "n<=3 degrees<=4, all entries in the augmentation ideal")


def test_criterion_4_homotopy_equivalence():
    checked = 0
    for n in (1, 2, 3):
        for size in range(5):
            for tau in enumerate_multisets(n, size):
                assert htpy_chain_map_ok(n, tau), (n, tau)
                checked += 1
    census = 0
    for n in (1, 2, 3):
        for size in range(6):
            for tau in enumerate_multisets(n, size):
                assert path_census_ok(n, tau), (n, tau)
                census += 1
    # completeness up to relabeling: every multiplicity pattern of size
    # <= 5 appears as a dense multiset built from an integer partition
    def partitions(total, cap=None):
        cap = total if cap is None else cap
        if total == 0:
            yield ()
            return
        for first in range(min(total, cap), 0, -1):
            for rest in partitions(total - first, first):
                yield (first,) + rest

    for size in range(1, 6):
        for pattern in partitions(size):
            tau = multiset(
                value
                for value, mult in enumerate(pattern, start=1)
                for _ in range(mult)
            )
            assert path_census_ok(len(pattern), tau), pattern
            census += 1
    for tau in ((1, 2, 3, 4, 5), (1, 1, 2, 3, 4)):
        assert path_census_ok(5, tau)
        census += 1
    # the worked example: a single path to the fully reversed tensor
    counts = lazy_path_counts(
        generator_to_tensor((1, 2, 2, 3)), *bar_rules(3), EnvAlgebra(3)
    )
    target = generator_to_tensor((3, 2, 2, 1))
    assert counts[target] == 1
    assert len(counts) == 12 and set(counts.values()) == {1}
    _passline(
        4,
        f"chain-map identity on {checked} generators; unique-path census on "
        f"{census} generators incl. (1,2,2,3)->(3,2,2,1) with exactly 1 path",
    )


def test_criterion_5_matchings_certified():
    modes = []
    for n in (1, 2, 3, 4):
        result = bar_matching_check(n, 5)
        assert result.ok, result.details
        modes.append(f"n={n} {result.details.split(';')[0]}")
    for n in (1, 2, 3, 4):
        for result in koszul_matching_checks(n, 5):
            assert result.ok, result.details
    _passline(
        5,
        "bar matching critical cells = multisets (" + ", ".join(modes) + "); "
        "parity matchings certified on Q and halved-Z with stated critical cells, n<=4",
    )


def test_criterion_6_ring_structure():
    for n in (1, 2):
        for ring in (F2, QQ):
            table = ring_structure_constants(n, ring, 4)
            assert table.agree, (n, ring.name, table.mismatches)
    for n, deg in ((1, 4), (2, 4), (3, 3)):
        check = generator_span_check(n, QQ, deg)
        assert check.passes, (n, check.per_degree)
    for n in (1, 3):
        dropped = generator_span_check(n, QQ, 2, include_top=False)
        assert not dropped.passes
        rank, need = dropped.per_degree[0]
        assert rank == need - 1
    _passline(
        6,
        "cup structure tables agree with the bar oracle (n<=2, F2 and Q, total "
        "degree<=4); generators span for n<=3 over Q and fail without the top class",
    )


def test_criterion_7_universal_coefficients():
    for n in (1, 2, 3):
        for cohomology in (False, True):
            result = universal_coefficient_check(n, 4, cohomology=cohomology)
            assert result.ok, result.details
    _passline(7, "F2 dimensions match integer free/torsion bookkeeping, n<=3, k<=4")


def test_criterion_8_property_suites():
    rng = Random(2024)
    n_pairs = 220
    for _ in range(n_pairs):
        alpha, beta, expected, b_divs = random_exact_pair(rng)
        divisors, rank = smith_normal_form(beta)
        for a, b in zip(divisors, divisors[1:]):
            assert b % a == 0
        assert rank == len(b_divs)
        assert homology_pair(alpha, beta) == expected
        alpha2 = SparseMatrix(
            alpha.rows, alpha.cols, {k: 2 * v for k, v in alpha.entries.items()}, ZZ
        )
        beta2 = SparseMatrix(
            beta.rows, beta.cols, {k: 2 * v for k, v in beta.entries.items()}, ZZ
        )
        scaled = homology_pair(alpha2, beta2)
        assert scaled.free_rank == expected.free_rank
        assert scaled.torsion == tuple(
            d for d in normalize_divisor_chain([2 * d for d in b_divs]) if d > 1
        )

    constructed = [
        build_bar_resolution(2, 4),
        build_bar_resolution(3, 3),
        build_reduced_resolution(4, 5),
        oracle_chain(2, 6),
        oracle_cochain(2, 6),
        oracle_chain(3, 4),
        oracle_cochain(3, 4),
        small_chain(4, 5),
        small_cochain(4, 5),
    ]
    bar2 = constructed[0]
    constructed.append(morse_reduce(bar2, bar_classify, up_to=3))
    for n in (2, 3):
        active, inert = split_parity(small_chain(n, 5))
        constructed += [active, inert, halve_differentials(active)]
    for c in constructed:
        assert validate_complex(c).ok

    produced = 0
    attempts = 0
    while produced < 100 and attempts < 2000:
        attempts += 1
        c = random_three_term_complex(rng)
        m = random_matching(rng, c)
        try:
            reduced = morse_reduce(c, rule_of(m))
        except CycleDetected:
            continue
        assert validate_complex(reduced).ok
        produced += 1
    assert produced >= 100
    _passline(
        8,
        f"{n_pairs} random exact pairs (divisor chains + scaled-pair law); "
        f"square-zero on {len(constructed)} constructed complexes; "
        f"{produced} random matched reductions validate",
    )
