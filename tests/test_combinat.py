from math import comb, factorial
from random import Random

import pytest
from sympy.utilities.iterables import multiset_permutations as sympy_msp

from exthh.combinat import (
    Multiset,
    Subset,
    all_subsets,
    enumerate_multisets,
    multiset_coefficient,
    multiset_permutations,
    subset_mul_sign,
)
from helpers import bubble_sort_sign, count_multisets_recursive


def test_subset_basics():
    s = Subset([3, 1])
    assert s.elems == (1, 3)
    assert s.mask == 0b101
    assert 1 in s and 2 not in s
    assert len(s) == 2
    assert Subset.from_mask(0b101) == s
    with pytest.raises(ValueError):
        Subset([0, 1])


def test_subset_mul_sign_examples():
    assert subset_mul_sign(Subset([2]), Subset([1])) == (-1, Subset([1, 2]))
    assert subset_mul_sign(Subset([2, 3]), Subset([1])) == (1, Subset([1, 2, 3]))
    assert subset_mul_sign(Subset([1]), Subset([1])) is None


def test_subset_mul_sign_against_bubble_sort():
    for a in all_subsets(5):
        for b in all_subsets(5):
            got = subset_mul_sign(a, b)
            if a.intersects(b):
                assert got is None
            else:
                assert got == (bubble_sort_sign(a.elems + b.elems), a.union(b))


def test_graded_commutation_of_subset_product():
    for a in all_subsets(4):
        for b in all_subsets(4):
            ab = subset_mul_sign(a, b)
            ba = subset_mul_sign(b, a)
            assert (ab is None) == (ba is None)
            if ab is not None:
                flip = (-1) ** (len(a) * len(b))
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
