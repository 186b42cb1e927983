from itertools import combinations
from math import comb, factorial
from random import Random

import pytest
from sympy.utilities.iterables import multiset_permutations as sympy_msp

from exthh.combinat import (
    Multiset,
    all_subsets,
    enumerate_multisets,
    multiset_coefficient,
    multiset_permutations,
    subset_elems,
    subset_mask,
    subset_mul_sign,
)
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
                assert ab[0] == flip * ba[0]


def test_enumerate_multisets_examples():
    got = enumerate_multisets(2, 3)
    assert [m.elems for m in got] == [(1, 1, 1), (1, 1, 2), (1, 2, 2), (2, 2, 2)]
    assert enumerate_multisets(3, 0) == [Multiset()]
    assert enumerate_multisets(1, 4) == [Multiset([1, 1, 1, 1])]


def test_enumerate_multisets_counts_and_order():
    for n in range(1, 7):
        for k in range(7):
            got = enumerate_multisets(n, k)
            assert len(got) == count_multisets_recursive(n, k) == comb(n + k - 1, k)
            assert len(got) == multiset_coefficient(n, k)
            assert got == sorted(got)
            assert len(set(got)) == len(got)


def test_multiset_permutations_examples():
    assert multiset_permutations(Multiset([1, 1, 2])) == [(1, 1, 2), (1, 2, 1), (2, 1, 1)]
    assert multiset_permutations(Multiset([1, 1])) == [(1, 1)]
    assert len(multiset_permutations(Multiset([1, 2]))) == 2
    assert multiset_permutations(Multiset()) == [()]


def test_multiset_permutations_multinomial_count():
    rng = Random(7)
    for _ in range(40):
        size = rng.randint(0, 7)
        tau = Multiset(rng.randint(1, 4) for _ in range(size))
        got = multiset_permutations(tau)
        mult = factorial(size)
        for i in set(tau.elems):
            mult //= factorial(tau.count(i))
        assert len(got) == mult
        assert len(set(got)) == len(got)
        assert set(got) == {tuple(p) for p in sympy_msp(list(tau.elems))} or size == 0


def test_multiset_operations():
    t = Multiset([2, 1, 2])
    assert t.elems == (1, 2, 2)
    assert t.support == (1, 2)
    assert t.count(2) == 2
    assert t.remove_one(2) == Multiset([1, 2])
    assert t.add_one(1) == Multiset([1, 1, 2, 2])
    assert t.union(Multiset([3])) == Multiset([1, 2, 2, 3])
    with pytest.raises(ValueError):
        t.remove_one(5)
