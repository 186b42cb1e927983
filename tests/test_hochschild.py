import os
import subprocess
import sys
from pathlib import Path
from random import Random

import pytest

import exthh
from exthh.algebra import env_left_var, env_right_var, env_unit
from exthh.combinat import (
    all_subsets,
    enumerate_multisets,
    multiset_coefficient,
    subset_mask,
    subset_mul_sign,
)
from exthh.complexes import halve_differentials, homology, validate_complex
from exthh.hochschild import (
    BarChainCell,
    BarCochainCell,
    ChainCell,
    CochainCell,
    GeneratorLabel,
    MixedLabels,
    SizeLimit,
    bar_classify,
    bar_matching,
    build_bar_hochschild_chain,
    build_bar_hochschild_cochain,
    build_bar_resolution,
    build_reduced_chain,
    build_reduced_cochain,
    build_reduced_resolution,
    certify_bar_matching,
    closed_form_cohomology,
    closed_form_homology,
    generator_to_tensor,
    htpy_h,
    koszul_matching_chain,
    koszul_matching_cochain,
    minimality_certificate,
    pushforward_cochain,
    split_parity,
)
from exthh.complexes import UnsupportedRing
from exthh.linalg import HomologyGroup, SparseMatrix, homology_pair
from exthh.morse import ROLE_CRITICAL, ROLE_SOURCE, ROLE_TARGET, check_matching
from exthh.rings import F2, F3, QQ, ZZ
from exthh.verify import bar_matching_check, htpy_chain_map_ok
from helpers import oracle_chain, oracle_cochain, small_chain, small_cochain


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
    ):
        with pytest.raises(SizeLimit) as exc:
            build(40, 1)
        assert exc.value.degree == 0 and exc.value.count == 2**40
    # the bar resolution and its matching have (2^n - 1)^k generators
    for build in (build_bar_resolution, bar_matching, certify_bar_matching):
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


def test_bar_matching_critical_cells_exact():
    bar = build_bar_resolution(2, 4)
    report = check_matching(bar, bar_matching(2, 4))
    for k in range(4):  # top degree is the truncation edge
        expected = {generator_to_tensor(t) for t in enumerate_multisets(2, k)}
        assert set(report.critical[k]) == expected


def test_streaming_certification_matches_materialized():
    report = certify_bar_matching(2, 3)
    assert report.cells == {0: 1, 1: 3, 2: 9, 3: 27}
    materialized = check_matching(build_bar_resolution(2, 4), bar_matching(2, 4))
    for k in range(4):
        expected = {generator_to_tensor(t) for t in enumerate_multisets(2, k)}
        assert set(report.critical[k]) == expected
        assert report.critical[k] == materialized.critical[k]


# ---------------------------------------------------------------------------
# oracle complexes


def test_oracle_chain_one_variable():
    c = oracle_chain(1, 3)
    assert c.diff(1).is_zero()  # a0 a1 - a1 a0 = 0 in one variable
    src = c.index(2)[BarChainCell(S(), (S(1), S(1)))]
    dst = c.index(1)[BarChainCell(S(1), (S(1),))]
    assert c.diff(2).entry(dst, src) == 2
    assert homology(c, 1) == HomologyGroup(1, (2,))
    assert homology(c, 0) == HomologyGroup(2)


def test_oracle_cochain_one_variable():
    c = oracle_cochain(1, 3)
    assert c.diff(0).is_zero()  # values commute past the generator
    assert homology(c, 2) == HomologyGroup(1, (2,))


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


def test_split_parity_rejects_foreign_labels():
    with pytest.raises(MixedLabels):
        split_parity(build_bar_resolution(1, 2))


def test_koszul_matching_chain_examples():
    m = koszul_matching_chain(2, 4)
    edges = dict(m.edges)
    assert edges[ChainCell(S(), (1, 1))] == ChainCell(S(1), (1,))
    # a monomial containing the minimum pairs up into the multiset:
    # the edge source is the extended cell
    assert edges[ChainCell(S(), (1, 2))] == ChainCell(S(1), (2,))
    assert edges[ChainCell(S(2), (1, 2, 2))] == ChainCell(S(1, 2), (2, 2))
    sources = {u for u, _v in m.edges}
    targets = {v for _u, v in m.edges}
    assert ChainCell(S(), ()) not in sources | targets
    # every edge stays inside the active parity summand
    for u, v in m.edges:
        assert (u.sigma.bit_count() - len(u.tau)) % 2 == 0
        assert (v.sigma.bit_count() - len(v.tau)) % 2 == 0


def test_koszul_matching_chain_certified():
    for n in (1, 2, 3):
        active, _ = split_parity(small_chain(n, 4))
        matching = koszul_matching_chain(n, 4)
        for complex_ in (active.map_domain(QQ), halve_differentials(active)):
            report = check_matching(complex_, matching)
            for k in range(4):
                expected = {ChainCell(S(), ())} if k == 0 else set()
                assert set(report.critical[k]) == expected


def test_koszul_matching_cochain_examples():
    m1 = koszul_matching_cochain(1, 3)
    edges = dict(m1.edges)
    # the first missing index extends both parts (active cells only)
    assert edges[CochainCell((1,), S())] == CochainCell((1, 1), S(1))
    report = check_matching(
        split_parity(small_cochain(1, 3))[0].map_domain(QQ), m1
    )
    assert set(report.critical[0]) == {CochainCell((), S(1))}
    m2 = koszul_matching_cochain(2, 3)
    edges2 = dict(m2.edges)
    assert edges2[CochainCell((2,), S())] == CochainCell((1, 2), S(1))
    for u, v in m2.edges:
        assert (u.sigma.bit_count() - len(u.tau)) % 2 == 1
        assert (v.sigma.bit_count() - len(v.tau)) % 2 == 1


def test_koszul_matching_cochain_certified():
    for n in (1, 2, 3):
        active, _ = split_parity(small_cochain(n, 4))
        matching = koszul_matching_cochain(n, 4)
        for complex_ in (active.map_domain(QQ), halve_differentials(active)):
            report = check_matching(complex_, matching)
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
    assert closed_form_homology(1, 1, ZZ).group == HomologyGroup(1, (2,))
    assert closed_form_homology(2, 0, ZZ).group == HomologyGroup(3, (2,))
    assert closed_form_homology(2, 2, F2).group == HomologyGroup(12)
    assert closed_form_homology(1, 0, QQ).group == HomologyGroup(2)


def test_closed_form_cohomology_spot_values():
    cf = closed_form_cohomology(1, 0, ZZ)
    assert cf.group == HomologyGroup(2)
    assert cf.flags  # the degree-zero torsion override is reported
    assert closed_form_cohomology(1, 2, ZZ).group == HomologyGroup(1, (2,))
    assert closed_form_cohomology(2, 1, ZZ).group == HomologyGroup(4, (2, 2))
    assert not closed_form_cohomology(2, 0, ZZ).flags


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
    matching = bar_matching(2, 3)
    one = bar.domain.one
    for tau in ((1, 2), (1, 1), (1, 2, 2)):
        image = transfer_h(bar, matching, generator_to_tensor(tau))
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
