import io
import os
import subprocess
import sys
from math import comb
from pathlib import Path
from random import Random

import pytest

import exthh
from exthh import hochschild
from exthh.algebra import env_left_var, env_monomial, env_right_var, env_unit
from exthh.combinat import (
    all_subsets,
    enumerate_multisets,
    multiset_coefficient,
    subset_mask,
    subset_mul_sign,
)
from exthh.complexes import CHAIN, BasedComplex, halve_differentials, homology, validate_complex
from exthh.hochschild import (
    BarChainCell,
    BarCochainCell,
    ChainCell,
    CochainCell,
    GeneratorLabel,
    MixedLabels,
    SizeLimit,
    bar_classify,
    bar_down_terms,
    bar_labels_of_degree,
    bar_orbit_blocks,
    bar_projection,
    build_bar_hochschild_chain,
    build_bar_hochschild_cochain,
    build_bar_resolution,
    build_reduced_chain,
    build_reduced_cochain,
    build_reduced_resolution,
    certify_bar_matching,
    closed_form_cohomology,
    closed_form_homology,
    closed_forms,
    generator_to_tensor,
    htpy_h,
    koszul_chain_rule,
    koszul_cochain_rule,
    minimality_certificate,
    pushforward_cochain,
    reduced_down_terms,
    reduced_orbit_blocks,
    split_parity,
)
from exthh.complexes import UnsupportedRing
from exthh.linalg import HomologyGroup, SparseMatrix, homology_pair
from exthh.morse import ROLE_CRITICAL, ROLE_SOURCE, ROLE_TARGET, check_matching
from exthh.rings import F2, F3, QQ, ZZ
from exthh.verify import bar_matching_check, htpy_chain_map_ok
from helpers import (
    bar_classify_two_scans,
    koszul_matching_chain,
    koszul_matching_cochain,
    oracle_chain,
    oracle_cochain,
    small_chain,
    small_cochain,
)


def S(*elems):
    return subset_mask(elems)


def T(*factors):
    return tuple(subset_mask(f) for f in factors)


# ---------------------------------------------------------------------------
# bar resolution


def test_bar_differential_one_variable():
    c = build_bar_resolution(1, 2)
    one = env_unit(1)
    # two outer terms in degree 1, no middle term
    d1 = c.diff(1)
    assert d1.entry(0, 0) == env_left_var(1, 1) - env_right_var(1, 1)
    # the squared generator keeps both outer terms with a plus sign
    d2 = c.diff(2)
    assert d2.entry(0, 0) == env_left_var(1, 1) + env_right_var(1, 1)


def test_bar_differential_middle_sign():
    c = build_bar_resolution(2, 2)
    src = c.index(2)[T([1], [2])]
    dst = c.index(1)[T([1, 2])]
    # merging the two factors carries (-1)^1 times the sorting sign (+1)
    assert c.diff(2).entry(dst, src) == env_unit(2).scale(-1)


def test_bar_resolution_square_zero():
    for n in (1, 2):
        assert validate_complex(build_bar_resolution(n, 4)).ok


def test_size_limit():
    with pytest.raises(SizeLimit):
        build_bar_resolution(3, 9, size_limit=10_000)
    with pytest.raises(SizeLimit):
        build_bar_hochschild_chain(2, 9, size_limit=1000)


def test_reduced_builders_refuse_before_enumerating():
    # 2^40 subsets: the count is checked before any cell is listed
    for build in (
        build_reduced_chain,
        build_reduced_cochain,
        build_bar_hochschild_chain,
        build_bar_hochschild_cochain,
        bar_projection,
    ):
        with pytest.raises(SizeLimit) as exc:
            build(40, 1)
        assert exc.value.degree == 0 and exc.value.count == 2**40
    # the bar resolution and its matching have (2^n - 1)^k generators
    for build in (build_bar_resolution, certify_bar_matching):
        with pytest.raises(SizeLimit) as exc:
            build(40, 1)
        assert (exc.value.degree, exc.value.count) == (1, 2**40 - 1)
    with pytest.raises(SizeLimit) as exc:
        build_bar_hochschild_cochain(2, 3, size_limit=107)
    assert (exc.value.degree, exc.value.count) == (3, 4 * 3**3)
    for build in (build_reduced_chain, build_reduced_cochain):
        # degree k holds 2^n * C(n+k-1, k) cells: n=2, k=2 has 4 * 3 = 12
        with pytest.raises(SizeLimit) as exc:
            build(2, 3, size_limit=11)
        assert (exc.value.degree, exc.value.count) == (2, 12)
        assert build(2, 3, size_limit=16).dim(2) == 12
    with pytest.raises(SizeLimit) as exc:
        build_reduced_resolution(3, 4, size_limit=5)
    assert (exc.value.degree, exc.value.count) == (2, multiset_coefficient(3, 2))


def test_bar_matching_check_keeps_to_the_size_limit():
    # degree 1 alone has 2^4 - 1 = 15 generators: clamping cannot help
    with pytest.raises(SizeLimit) as exc:
        bar_matching_check(4, 3, size_limit=10)
    assert (exc.value.degree, exc.value.count) == (1, 15)
    # 3^3 = 27 > 20 clamps to degree 2, and the materialized check would
    # need degree 3, so the certification streams
    result = bar_matching_check(2, 3, size_limit=20)
    assert result.ok and result.name == "bar matching n=2 degrees<=2"
    assert result.details.startswith("streaming;") and "clamped" in result.details


# ---------------------------------------------------------------------------
# multiset resolution


def test_reduced_resolution_formula():
    c = build_reduced_resolution(2, 3)
    assert validate_complex(c).ok
    assert minimality_certificate(c)
    d1 = c.diff(1)
    j = c.index(1)[GeneratorLabel((1,))]
    assert d1.entry(0, j) == env_left_var(2, 1) - env_right_var(2, 1)
    d2 = c.diff(2)
    j = c.index(2)[GeneratorLabel((1, 1))]
    i = c.index(1)[GeneratorLabel((1,))]
    assert d2.entry(i, j) == env_left_var(2, 1) + env_right_var(2, 1)


def test_reduced_resolution_basis_counts():
    c = build_reduced_resolution(3, 5)
    for k in range(6):
        assert c.dim(k) == multiset_coefficient(3, k)


def test_down_term_weights_are_shared_and_never_mutated():
    # one weight object per (n, i, sign) and per bar monomial, shared by
    # every down term of every build, so no build may change one in place
    n = 3
    reduced = {(i, s): hochschild._reduced_weight(n, i, s) for i in range(1, n + 1) for s in (1, -1)}
    masks = all_subsets(n)[1:]
    keys = [(a, 0, 1) for a in masks] + [(0, b, s) for b in masks for s in (1, -1)]
    keys += [(0, 0, 1), (0, 0, -1)]
    bar = {key: hochschild._bar_weight(n, *key) for key in keys}
    assert len(bar) == 3 * 2**n - 1
    shared = dict(reduced_down_terms(n, (1, 2)))[(1,)]
    assert shared is dict(reduced_down_terms(n, (2, 2, 3, 3)))[(2, 3, 3)] is reduced[2, 1]
    assert dict(reduced_down_terms(n, (2,)))[()] is reduced[2, -1]
    assert dict(bar_down_terms(n, T((1, 2), (3,))))[T((3,))] is bar[S(1, 2), 0, 1]
    for cohomology in (False, True):
        list(reduced_orbit_blocks(n, 3, cohomology))
        list(bar_orbit_blocks(n, 3, cohomology))
    for build in (
        build_reduced_resolution,
        build_bar_resolution,
        build_reduced_chain,
        build_reduced_cochain,
        build_bar_hochschild_chain,
        build_bar_hochschild_cochain,
        bar_projection,
        certify_bar_matching,
    ):
        build(n, 3)
    assert all(htpy_chain_map_ok(n, tau) for tau in enumerate_multisets(n, 3))
    for (i, s), weight in reduced.items():
        assert weight is hochschild._reduced_weight(n, i, s)
        assert weight == env_left_var(n, i) + env_right_var(n, i).scale(s)
    for key, weight in bar.items():
        assert weight is hochschild._bar_weight(n, *key)
        assert weight == env_monomial(n, *key)


# ---------------------------------------------------------------------------
# the bar matching


def test_bar_classify_examples():
    # the merged pair is the target of the edge from its split form
    role, partner = bar_classify(T([1, 2]))
    assert role == ROLE_TARGET and partner == T([2], [1])
    role, partner = bar_classify(T([2], [1]))
    assert role == ROLE_SOURCE and partner == T([1, 2])
    assert bar_classify(T([1], [2]))[0] == ROLE_CRITICAL


def test_bar_classify_involution_random():
    rng = Random(3)
    nonempty = [s for s in all_subsets(3) if s]
    for _ in range(300):
        lab = tuple(rng.choice(nonempty) for _ in range(rng.randint(0, 4)))
        role, partner = bar_classify(lab)
        if role == ROLE_CRITICAL:
            assert all(s & (s - 1) == 0 for s in lab)
            continue
        back_role, back = bar_classify(partner)
        assert back == lab
        assert {role, back_role} == {ROLE_SOURCE, ROLE_TARGET}


def test_bar_classify_matches_the_two_scan_reference():
    # every bar word for n <= 4 to degree 5, and n = 5 to degree 3
    for n, top in ((1, 5), (2, 5), (3, 5), (4, 5), (5, 3)):
        for k in range(top + 1):
            words = bar_labels_of_degree(n, k)
            assert all(bar_classify(w) == bar_classify_two_scans(w) for w in words), (n, k)


def test_bar_matching_critical_cells_exact():
    bar = build_bar_resolution(2, 4)
    report = check_matching(bar, bar_classify)
    for k in range(4):  # top degree is the truncation edge
        expected = {generator_to_tensor(t) for t in enumerate_multisets(2, k)}
        assert set(report.critical[k]) == expected


def test_streaming_certification_matches_materialized():
    report = certify_bar_matching(2, 3)
    assert report.cells == {0: 1, 1: 3, 2: 9, 3: 27}
    bar = build_bar_resolution(2, 4)
    materialized = check_matching(bar, bar_classify)
    for k in range(4):
        expected = {generator_to_tensor(t) for t in enumerate_multisets(2, k)}
        assert set(report.critical[k]) == expected
        assert report.critical[k] == materialized.critical[k]
        assert report.matched_pairs.get(k) == materialized.matched_pairs.get(k)
    # the degree-4 targets have their sources in degree 5, outside the
    # complex, and read as critical there
    targets = {lab for lab in bar.basis(4) if bar_classify(lab)[0] == ROLE_TARGET}
    words = {generator_to_tensor(t) for t in enumerate_multisets(2, 4)}
    assert targets and set(materialized.critical[4]) == words | targets


# ---------------------------------------------------------------------------
# oracle complexes


def test_oracle_chain_one_variable():
    c = oracle_chain(1, 3)
    assert c.diff(1).is_zero()  # a0 a1 - a1 a0 = 0 in one variable
    src = c.index(2)[BarChainCell(S(), (S(1), S(1)))]
    dst = c.index(1)[BarChainCell(S(1), (S(1),))]
    assert c.diff(2).entry(dst, src) == 2
    assert homology(c, 1) == HomologyGroup(1, ((2, 1),))
    assert homology(c, 0) == HomologyGroup(2)


def test_oracle_cochain_one_variable():
    c = oracle_cochain(1, 3)
    assert c.diff(0).is_zero()  # values commute past the generator
    assert homology(c, 2) == HomologyGroup(1, ((2, 1),))


def test_oracle_cochain_degree_zero_center():
    c = oracle_cochain(2, 2)
    assert homology(c, 0, QQ) == HomologyGroup(2)  # the center: 1 and the top monomial


def test_oracle_square_zero():
    for build in (build_bar_hochschild_chain, build_bar_hochschild_cochain):
        assert validate_complex(build(2, 4)).ok


def test_oracles_transpose_mod2_under_complement_pairing():
    # the two oracles are mutually transpose after pairing each monomial
    # with its complement, but only with mod-2 coefficients
    n = 2
    chain = oracle_chain(n, 3, F2)
    cochain = oracle_cochain(n, 3, F2)
    fullmask = (1 << n) - 1

    def comp(s):
        return fullmask & ~s

    for k in range(3):
        up = cochain.diff(k)
        down = chain.diff(k + 1)
        idx_k = chain.index(k)
        idx_k1 = chain.index(k + 1)
        got = {
            (
                idx_k[BarChainCell(comp(cochain.basis(k)[c].sigma), cochain.basis(k)[c].factors)],
                idx_k1[
                    BarChainCell(
                        comp(cochain.basis(k + 1)[r].sigma), cochain.basis(k + 1)[r].factors
                    )
                ],
            ): v
            for (r, c), v in up.entries.items()
        }
        assert got == down.entries


# ---------------------------------------------------------------------------
# reduced complexes


def test_reduced_chain_boundary_examples():
    c = small_chain(2, 3)
    d2 = c.diff(2)
    j = c.index(2)[ChainCell(S(), (1, 2))]
    assert d2.entry(c.index(1)[ChainCell(S(1), (2,))], j) == 2
    assert d2.entry(c.index(1)[ChainCell(S(2), (1,))], j) == 2
    d1 = c.diff(1)
    assert all(c2 != c.index(1)[ChainCell(S(), (1,))] for (_r, c2) in d1.entries)
    j2 = c.index(2)[ChainCell(S(1), (1, 2))]
    assert all(col != j2 for (_r, col) in d2.entries)


def test_reduced_cochain_coboundary_examples():
    c = small_cochain(2, 3)
    d1 = c.diff(1)
    j = c.index(1)[CochainCell((1,), S())]
    assert d1.entry(c.index(2)[CochainCell((1, 1), S(1))], j) == 2
    assert d1.entry(c.index(2)[CochainCell((1, 2), S(2))], j) == 2
    j2 = c.index(1)[CochainCell((2,), S())]
    assert d1.entry(c.index(2)[CochainCell((1, 2), S(1))], j2) == 2
    assert d1.entry(c.index(2)[CochainCell((2, 2), S(2))], j2) == 2
    # equal parities annihilate
    for tau in enumerate_multisets(2, 2):
        for sigma in all_subsets(2):
            if sigma.bit_count() % 2 == 0:
                col = c.index(2)[CochainCell(tau, sigma)]
                assert all(cc != col for (_r, cc) in c.diff(2).entries)


def test_reduced_complexes_vanish_mod_2():
    assert small_chain(2, 4, F2).diff(2).is_zero()
    assert small_cochain(2, 4, F2).diff(1).is_zero()


# ---------------------------------------------------------------------------
# parity splitting and matchings


def test_split_parity_chain_example():
    active, inert = split_parity(small_chain(1, 3))
    assert active.basis(1) == (ChainCell(S(1), (1,)),)
    assert inert.basis(1) == (ChainCell(S(), (1,)),)
    for k in range(4):
        assert inert.diff(k).is_zero()


def test_split_parity_counts():
    for n in (1, 2, 3, 4):
        active, inert = split_parity(small_chain(n, 4))
        for k in range(5):
            assert len(inert.basis(k)) == 2 ** (n - 1) * multiset_coefficient(n, k)
            assert len(active.basis(k)) == 2 ** (n - 1) * multiset_coefficient(n, k)


def test_split_parity_cochain_example():
    active, _inert = split_parity(small_cochain(1, 2))
    assert active.basis(0) == (CochainCell((), S(1)),)


def test_split_parity_rejects_an_entry_between_inert_cells():
    bases = {0: (ChainCell(0b1, ()),), 1: (ChainCell(0b11, (1,)),)}
    c = BasedComplex(ZZ, CHAIN, bases, {1: SparseMatrix(1, 1, {(0, 0): 5}, ZZ)})
    with pytest.raises(ValueError, match="entry 5 between inert cells"):
        split_parity(c)


def test_split_parity_rejects_foreign_labels():
    with pytest.raises(MixedLabels):
        split_parity(build_bar_resolution(1, 2))


def _active_cells(n: int, max_degree: int, cohomology: bool) -> list:
    """Every cell of the active parity summand in degrees <= max_degree."""
    cells = []
    for k in range(max_degree + 1):
        for tau in enumerate_multisets(n, k):
            for sigma in all_subsets(n):
                if (sigma.bit_count() - k) % 2 == cohomology:
                    cells.append(CochainCell(tau, sigma) if cohomology else ChainCell(sigma, tau))
    return cells


def test_koszul_rules_equal_the_enumerated_matchings():
    # read over every active cell of degree <= 4, each rule is an
    # involution on the active summand, its source -> target pairs are
    # the enumerated edges, and its critical cells are the stated ones
    for n in range(1, 6):
        full = (1 << n) - 1
        for cohomology, rule, enumerated, critical in (
            (False, koszul_chain_rule, koszul_matching_chain(n, 4), {ChainCell(0, ())}),
            (
                True,
                koszul_cochain_rule(n),
                koszul_matching_cochain(n, 4),
                {CochainCell((), full)} if n % 2 else set(),
            ),
        ):
            cells = _active_cells(n, 4, cohomology)
            active = set(cells)
            pairs = set()
            found_critical = set()
            for cell in cells:
                role, partner = rule(cell)
                if role == ROLE_CRITICAL:
                    assert partner is None
                    found_critical.add(cell)
                    continue
                back_role, back = rule(partner)
                assert back == cell and {role, back_role} == {ROLE_SOURCE, ROLE_TARGET}
                assert (partner.sigma.bit_count() - len(partner.tau)) % 2 == cohomology
                source, target = (cell, partner) if role == ROLE_SOURCE else (partner, cell)
                if source in active and target in active:
                    pairs.add((source, target))
            assert pairs == set(enumerated), (n, cohomology)
            assert len(pairs) == len(enumerated)
            assert found_critical == critical, (n, cohomology)


def test_koszul_matching_chain_examples():
    rule = koszul_chain_rule
    assert rule(ChainCell(S(), (1, 1))) == (ROLE_SOURCE, ChainCell(S(1), (1,)))
    assert rule(ChainCell(S(1), (1,))) == (ROLE_TARGET, ChainCell(S(), (1, 1)))
    # a monomial containing the minimum pairs up into the multiset:
    # the edge source is the extended cell
    assert rule(ChainCell(S(), (1, 2))) == (ROLE_SOURCE, ChainCell(S(1), (2,)))
    assert rule(ChainCell(S(2), (1, 2, 2))) == (ROLE_SOURCE, ChainCell(S(1, 2), (2, 2)))
    assert rule(ChainCell(S(), ())) == (ROLE_CRITICAL, None)


def test_koszul_matching_chain_certified():
    for n in (1, 2, 3):
        active, _ = split_parity(small_chain(n, 4))
        for complex_ in (active.map_domain(QQ), halve_differentials(active)):
            report = check_matching(complex_, koszul_chain_rule)
            for k in range(4):
                expected = {ChainCell(S(), ())} if k == 0 else set()
                assert set(report.critical[k]) == expected


def test_koszul_matching_cochain_examples():
    rule1 = koszul_cochain_rule(1)
    # the first missing index extends both parts (active cells only)
    assert rule1(CochainCell((1,), S())) == (ROLE_SOURCE, CochainCell((1, 1), S(1)))
    assert rule1(CochainCell((1, 1), S(1))) == (ROLE_TARGET, CochainCell((1,), S()))
    assert rule1(CochainCell((), S(1))) == (ROLE_CRITICAL, None)
    report = check_matching(
        split_parity(small_cochain(1, 3))[0].map_domain(QQ), rule1
    )
    assert set(report.critical[0]) == {CochainCell((), S(1))}
    rule2 = koszul_cochain_rule(2)
    assert rule2(CochainCell((2,), S())) == (ROLE_SOURCE, CochainCell((1, 2), S(1)))
    # the full monomial cannot be extended: with a multiset it is a target
    assert rule2(CochainCell((2,), S(1, 2))) == (ROLE_TARGET, CochainCell((), S(1)))


def test_koszul_matching_cochain_certified():
    # the degree-4 sources point one degree above the complex: read on
    # it they are critical, and the rule still certifies
    for n in (1, 2, 3):
        active, _ = split_parity(small_cochain(n, 4))
        rule = koszul_cochain_rule(n)
        top_sources = {lab for lab in active.basis(4) if rule(lab)[0] == ROLE_SOURCE}
        assert top_sources or n == 1  # n = 1 has one active cell a degree
        for complex_ in (active.map_domain(QQ), halve_differentials(active)):
            report = check_matching(complex_, rule)
            assert set(report.critical[4]) == top_sources
            for k in range(4):
                if k == 0 and n % 2 == 1:
                    expected = {CochainCell((), (1 << n) - 1)}
                else:
                    expected = set()
                assert set(report.critical[k]) == expected


def test_halved_active_chain_is_acyclic_above_zero():
    # the integer form of the matching argument: dividing the doubled
    # differential by two leaves homology Z in degree zero only
    for n in (1, 2):
        active, _ = split_parity(small_chain(n, 5))
        halved = halve_differentials(active)
        assert homology(halved, 0) == HomologyGroup(1)
        for k in (1, 2, 3, 4):
            assert homology(halved, k) == HomologyGroup(0)


# ---------------------------------------------------------------------------
# closed forms


def test_closed_form_homology_spot_values():
    assert closed_form_homology(1, 1, ZZ).group == HomologyGroup(1, ((2, 1),))
    assert closed_form_homology(2, 0, ZZ).group == HomologyGroup(3, ((2, 1),))
    assert closed_form_homology(2, 2, F2).group == HomologyGroup(12)
    assert closed_form_homology(1, 0, QQ).group == HomologyGroup(2)


def test_closed_form_cohomology_spot_values():
    cf = closed_form_cohomology(1, 0, ZZ)
    assert cf.group == HomologyGroup(2)
    assert cf.flags  # the degree-zero torsion override is reported
    assert closed_form_cohomology(1, 2, ZZ).group == HomologyGroup(1, ((2, 1),))
    assert closed_form_cohomology(2, 1, ZZ).group == HomologyGroup(4, ((2, 2),))
    assert not closed_form_cohomology(2, 0, ZZ).flags


def test_closed_form_torsion_is_one_run_at_large_n():
    # 2^39 times a multiset coefficient of summands Z_2, kept as one run
    cf = closed_form_cohomology(40, 12, ZZ)
    ((d, m),) = cf.group.runs
    assert d == 2 and m > 10**20
    assert str(cf.group).endswith(f" + (Z_2)^{m}")


def _direct_closed_form(n, k, ring, cohomology):
    """The closed forms with each alternating sum taken whole, as
    (free rank, number of Z_2 summands, flags)."""
    half, odd = 2 ** (n - 1), n % 2
    mc = lambda i: comb(n + i - 1, i)  # noqa: E731
    if ring.char == 2:
        return 2 * half * mc(k), 0, ()
    if not cohomology:
        t = (-1) ** (k + 1) + half * sum((-1) ** (k - i) * mc(i) for i in range(k + 1))
        free = half * mc(k) + (k == 0)
    else:
        t = half * sum((-1) ** (k - 1 - i) * mc(i) for i in range(k)) + ((-1) ** k if odd else 0)
        t = t if k else 0
        free = half * mc(k) + (k == 0 and odd)
    if ring is not ZZ:
        return free, 0, ()
    flags = ("degree0-torsion-term-overridden-to-zero",) if cohomology and k == 0 and odd else ()
    return free, t, flags


def test_closed_forms_stream_equals_the_direct_sums():
    for n in range(1, 7):
        for ring in (ZZ, QQ, F2, F3):
            for cohomology in (False, True):
                single = closed_form_cohomology if cohomology else closed_form_homology
                forms = closed_forms(n, ring, cohomology)
                for k in range(25):
                    cf = next(forms)
                    assert cf == single(n, k, ring)
                    free, t, flags = _direct_closed_form(n, k, ring, cohomology)
                    assert (cf.n, cf.k, cf.ring) == (n, k, ring.name)
                    assert cf.group == HomologyGroup(free, ((2, t),) if t else ()) and cf.flags == flags


def test_closed_table_costs_one_multiset_coefficient_per_degree(monkeypatch):
    # each degree's alternating sum comes from the one before, so a table
    # of K + 1 degrees takes K + 1 coefficients per variant, not one per
    # term of every degree's sum
    from exthh.cli import parse_args, run

    calls = []

    def counted(n, k):
        calls.append((n, k))
        return comb(n + k - 1, k)

    monkeypatch.setattr(hochschild, "multiset_coefficient", counted)
    top = 300
    out = io.StringIO()
    assert run(parse_args(["table", "--n", "3", "--max-degree", str(top)]), out=out) == 0
    assert len(out.getvalue().splitlines()) == 1 + 2 * (top + 1)
    assert sorted(calls) == sorted([(3, k) for k in range(top + 1)] * 2)


def test_closed_form_rejects_bimodule_ring():
    from exthh.algebra import EnvAlgebra

    with pytest.raises(UnsupportedRing):
        closed_form_homology(2, 1, EnvAlgebra(2))


_OPTIMIZED_SCRIPT = """
from exthh.hochschild import _twos, closed_form_cohomology, closed_form_homology
from exthh.rings import QQ, ZZ

values = [str(f(3, k, ZZ).group) for f in (closed_form_homology, closed_form_cohomology) for k in range(3)]
refused = []
# unchecked, n = 0 over Q would give the group of rank 2^-1 * 0 = 0.0
for f in (closed_form_homology, closed_form_cohomology):
    try:
        f(0, 1, QQ)
    except ValueError:
        refused.append("ValueError")
try:
    _twos(-1)
except ArithmeticError:
    refused.append("ArithmeticError")
print(__debug__, values, refused)
"""


def test_closed_form_checks_survive_optimized_mode():
    # python -O strips assert statements; the closed forms must still
    # check their arguments and their torsion counts there
    src = str(Path(exthh.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _OPTIMIZED_SCRIPT],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    expected = [
        str(f(3, k, ZZ).group) for f in (closed_form_homology, closed_form_cohomology) for k in range(3)
    ]
    refused = ["ValueError", "ValueError", "ArithmeticError"]
    assert proc.stdout.strip() == f"False {expected} {refused}"


def test_hh0_against_commutator_quotient():
    # independent oracle: HH_0 = A / [A, A] computed from brute-force
    # commutators of all pairs of basis monomials
    for n in (1, 2, 3):
        subsets = all_subsets(n)
        index = {s: i for i, s in enumerate(subsets)}
        cols = {}
        col = 0
        for a in subsets:
            for b in subsets:
                ab = subset_mul_sign(a, b)
                ba = subset_mul_sign(b, a)
                entries = {}
                if ab is not None:
                    entries[index[ab[1]]] = ab[0]
                if ba is not None:
                    entries[index[ba[1]]] = entries.get(index[ba[1]], 0) - ba[0]
                for r, v in entries.items():
                    if v:
                        cols[(r, col)] = v
                col += 1
        commutators = SparseMatrix(len(subsets), col, cols, ZZ)
        zero = SparseMatrix.zero(0, len(subsets))
        assert homology_pair(zero, commutators) == closed_form_homology(n, 0, ZZ).group


# ---------------------------------------------------------------------------
# transfer maps


def test_htpy_h_examples():
    assert htpy_h((1, 2)) == {T([1], [2]): 1, T([2], [1]): 1}
    assert htpy_h((1, 1)) == {T([1], [1]): 1}
    assert htpy_h(()) == {(): 1}


def test_transfer_h_matches_htpy_h():
    # the engine's path-sum transfer computes the same sum of permuted
    # tensors, all with unit coefficient
    from exthh.morse import transfer_h

    bar = build_bar_resolution(2, 3)
    one = bar.domain.one
    for tau in ((1, 2), (1, 1), (1, 2, 2)):
        image = transfer_h(bar, bar_classify, generator_to_tensor(tau))
        assert image == {lab: one for lab in htpy_h(tau)}


def test_htpy_chain_map_identity_small():
    for n in (1, 2):
        for k in range(4):
            for tau in enumerate_multisets(n, k):
                assert htpy_chain_map_ok(n, tau)


def test_pushforward_examples():
    dom = ZZ
    sigma = S(1)
    permuted = BarCochainCell((S(2), S(1)), sigma)
    assert pushforward_cochain({permuted: 1}, dom) == {
        CochainCell((1, 2), sigma): 1
    }
    fat = BarCochainCell((S(1, 2),), sigma)
    assert pushforward_cochain({fat: 1}, dom) == {}
    assert pushforward_cochain({permuted: 1, fat: 1}, dom) == {
        CochainCell((1, 2), sigma): 1
    }
    # two permutations of the same multiset accumulate
    other = BarCochainCell((S(1), S(2)), sigma)
    assert pushforward_cochain({permuted: 2, other: 3}, dom) == {
        CochainCell((1, 2), sigma): 5
    }


# ---------------------------------------------------------------------------
# triple agreement at small scale (the acceptance suite runs the full grid)


def test_triple_agreement_n1():
    for ring in (ZZ, QQ, F2, F3):
        for k in range(4):
            expected = closed_form_homology(1, k, ring).group
            assert homology(oracle_chain(1, 4), k, ring) == expected
            assert homology(small_chain(1, 4), k, ring) == expected
