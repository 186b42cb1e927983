from collections import Counter
from itertools import combinations
from math import comb, factorial
from random import Random

import pytest
from sympy.utilities.iterables import multiset_permutations as sympy_msp

from exthh.combinat import (
    all_subsets,
    enumerate_multisets,
    multiset,
    multiset_coefficient,
    multiset_permutations,
    multiset_str,
    subset_elems,
    subset_mask,
    subset_mul_sign,
)
from exthh.hochschild import (
    ChainCell,
    CochainCell,
    koszul_chain_rule,
    koszul_cochain_rule,
    reduced_down_terms,
)
from exthh.morse import ROLE_SOURCE
from exthh.products import cup_cells
from helpers import bubble_sort_sign, count_multisets_recursive


def test_subset_basics():
    s = subset_mask([3, 1])
    assert subset_elems(s) == (1, 3)
    assert s == 0b101
    assert s & 1 and not s & 2
    assert s.bit_count() == 2
    assert subset_mask([1, 3, 3]) == s
    assert subset_mask([]) == 0 and subset_elems(0) == ()
    with pytest.raises(ValueError):
        subset_mask([0, 1])


def test_subset_mask_round_trips():
    for n in range(7):
        for size in range(n + 1):
            for elems in combinations(range(1, n + 1), size):
                assert subset_elems(subset_mask(elems)) == elems
    for mask in range(1 << 7):
        assert subset_mask(subset_elems(mask)) == mask


def test_all_subsets_lexicographic_order():
    for n in range(7):
        by_size = [c for size in range(n + 1) for c in combinations(range(1, n + 1), size)]
        assert [subset_elems(s) for s in all_subsets(n)] == sorted(by_size)
        assert all_subsets(n) == [subset_mask(c) for c in sorted(by_size)]


def test_subset_mul_sign_examples():
    assert subset_mul_sign(subset_mask([2]), subset_mask([1])) == (-1, subset_mask([1, 2]))
    assert subset_mul_sign(subset_mask([2, 3]), subset_mask([1])) == (1, subset_mask([1, 2, 3]))
    assert subset_mul_sign(subset_mask([1]), subset_mask([1])) is None


def test_subset_mul_sign_against_bubble_sort():
    for a in all_subsets(5):
        for b in all_subsets(5):
            got = subset_mul_sign(a, b)
            ea, eb = subset_elems(a), subset_elems(b)
            if set(ea) & set(eb):
                assert got is None
            else:
                assert got == (bubble_sort_sign(ea + eb), subset_mask(ea + eb))


def test_graded_commutation_of_subset_product():
    for a in all_subsets(4):
        for b in all_subsets(4):
            ab = subset_mul_sign(a, b)
            ba = subset_mul_sign(b, a)
            assert (ab is None) == (ba is None)
            if ab is not None:
                flip = (-1) ** (a.bit_count() * b.bit_count())
                assert ab[0] == flip * ba[0] and ab[1] == ba[1] == a | b


def test_enumerate_multisets_examples():
    got = enumerate_multisets(2, 3)
    assert got == [(1, 1, 1), (1, 1, 2), (1, 2, 2), (2, 2, 2)]
    assert enumerate_multisets(3, 0) == [()]
    assert enumerate_multisets(1, 4) == [(1, 1, 1, 1)]


def test_enumerate_multisets_counts_and_order():
    for n in range(1, 7):
        for k in range(7):
            got = enumerate_multisets(n, k)
            assert len(got) == count_multisets_recursive(n, k) == comb(n + k - 1, k)
            assert len(got) == multiset_coefficient(n, k)
            assert got == sorted(got)
            assert len(set(got)) == len(got)


def test_multiset_permutations_examples():
    assert multiset_permutations((1, 1, 2)) == [(1, 1, 2), (1, 2, 1), (2, 1, 1)]
    assert multiset_permutations((1, 1)) == [(1, 1)]
    assert len(multiset_permutations((1, 2))) == 2
    assert multiset_permutations(()) == [()]


def test_multiset_permutations_multinomial_count():
    rng = Random(7)
    for _ in range(40):
        size = rng.randint(0, 7)
        tau = multiset(rng.randint(1, 4) for _ in range(size))
        got = multiset_permutations(tau)
        mult = factorial(size)
        for i in set(tau):
            mult //= factorial(tau.count(i))
        assert len(got) == mult
        assert len(set(got)) == len(got)
        assert set(got) == {tuple(p) for p in sympy_msp(list(tau))} or size == 0


def test_multiset_operations():
    t = multiset([2, 1, 2])
    assert t == (1, 2, 2)
    assert multiset_str(t) == "(1,2,2)"
    assert multiset_str(()) == "()"
    assert t.count(2) == 2
    # drop one copy of each support element: the reduced differential
    assert [lower for lower, _w in reduced_down_terms(2, t)] == [(2, 2), (1, 2)]
    # add one copy: the cochain parity matching extends by a first element
    role, partner = koszul_cochain_rule(2)(CochainCell(t, 0))
    assert (role, partner) == (ROLE_SOURCE, CochainCell((1, 1, 2, 2), subset_mask([1])))
    # merge: the cup product of cells
    merged = cup_cells(CochainCell(t, 0), CochainCell((3,), 0))
    assert merged == (1, CochainCell((1, 2, 2, 3), 0))
    with pytest.raises(ValueError):
        multiset([2, 0, 1])


def test_multiset_tuple_operations_match_counter():
    """Drop-one-copy (the reduced differential and the chain parity
    matching), add-one (the cochain parity matching) and merge (the cup
    product of cells) against Counter arithmetic; every result sorted."""
    rng = Random(11)
    for n in range(1, 6):
        full = (1 << n) - 1
        for _ in range(60):
            tau = multiset(rng.randint(1, n) for _ in range(rng.randint(0, 5)))
            support = sorted(set(tau))
            terms = reduced_down_terms(n, tau)
            assert len(terms) == len(support)
            for i, (lower, _w) in zip(support, terms):
                assert lower == tuple(sorted(lower))
                assert Counter(lower) == Counter(tau) - Counter([i])
            assert subset_mask(tau) == subset_mask(support)
            other = multiset(rng.randint(1, n) for _ in range(rng.randint(0, 5)))
            a = CochainCell(tau, rng.randint(0, full))
            b = CochainCell(other, rng.randint(0, full))
            product = cup_cells(a, b)
            if product is not None:
                merged = product[1].tau
                assert merged == tuple(sorted(merged))
                assert Counter(merged) == Counter(tau) + Counter(other)
        cochain_rule = koszul_cochain_rule(n)
        for k in range(4):
            for tau in enumerate_multisets(n, k):
                for sigma in all_subsets(n):
                    role, target = koszul_chain_rule(ChainCell(sigma, tau))
                    if role == ROLE_SOURCE:
                        moved = (target.sigma ^ sigma).bit_length()
                        assert target.tau == tuple(sorted(target.tau))
                        assert Counter(target.tau) == Counter(tau) - Counter([moved])
                    role, target = cochain_rule(CochainCell(tau, sigma))
                    if role == ROLE_SOURCE:
                        added = (target.sigma ^ sigma).bit_length()
                        assert target.tau == tuple(sorted(target.tau))
                        assert Counter(target.tau) == Counter(tau) + Counter([added])


def test_subset_order_is_computed_once_per_call(monkeypatch):
    # the per-multiset loop of the class basis shares one all_subsets
    # list instead of re-sorting 2^n subsets each
    from exthh import hochschild, products
    from exthh.rings import QQ

    calls = []

    def counting(n, original=all_subsets):
        calls.append(n)
        return original(n)

    monkeypatch.setattr(hochschild, "all_subsets", counting)
    monkeypatch.setattr(products, "all_subsets", counting)
    built = products.canonical_class_basis(4, 3, QQ)
    assert calls == [4] and built
