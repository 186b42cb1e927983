"""Subsets and multisets of {1..n} with Koszul sign bookkeeping.

Subsets index the basis of an exterior algebra, multisets index the
generators of its small free resolution.  A subset is a plain int
bitmask: bit i-1 is set iff i is a member, so the empty subset is 0 and
{1..n} is 2^n - 1.  ``subset_mask`` builds one from its elements and
``subset_elems`` lists them back, for rendering.  A multiset is a plain
weakly increasing tuple of elements, so (1, 2, 2) holds 2 twice and the
empty multiset is ().  ``multiset`` sorts and checks one built from its
elements, ``multiset_str`` renders it.  Tuple order is the lexicographic
order of the bases.  Signs are transposition counts for moving one
sorted monomial across another, so they reduce to popcounts on the
bitmasks.
"""

from __future__ import annotations

from itertools import combinations_with_replacement
from math import comb
from typing import Iterable, Iterator, Optional


def subset_mask(elems: Iterable[int]) -> int:
    """The bitmask of a set of elements, each at least 1."""
    mask = 0
    for i in elems:
        if i < 1:
            raise ValueError(f"subset elements must be >= 1, got {i}")
        mask |= 1 << (i - 1)
    return mask


def subset_elems(mask: int) -> tuple[int, ...]:
    """The members of a subset, increasing."""
    return tuple(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


def all_subsets(n: int) -> list[int]:
    """All subsets of {1..n}, ordered lexicographically by element tuple."""
    return sorted(range(1 << n), key=subset_elems)


def multiset(elems: Iterable[int]) -> tuple[int, ...]:
    """The multiset of some elements, each at least 1, as a weakly
    increasing tuple."""
    tau = tuple(sorted(elems))
    if tau and tau[0] < 1:
        raise ValueError(f"multiset elements must be >= 1, got {tau}")
    return tau


def multiset_str(tau: tuple[int, ...]) -> str:
    """A multiset rendered as ``(1,2,2)``."""
    return "(" + ",".join(map(str, tau)) + ")"


def subset_mul_sign(a: int, b: int) -> Optional[tuple[int, int]]:
    """Sign and result of multiplying two sorted monomials.

    The sign is the parity of the number of transpositions sorting the
    concatenation of the two element sequences, i.e. the number of pairs
    (x in a, y in b) with x > y.  None when the subsets intersect.
    """
    if a & b:
        return None
    inv = 0
    rest = b
    while rest:
        low = rest & -rest
        inv += (a >> low.bit_length()).bit_count()
        rest ^= low
    return (-1 if inv & 1 else 1), a | b


def enumerate_multisets(n: int, k: int) -> list[tuple[int, ...]]:
    """All k-element multisets over {1..n}, lexicographically ordered."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return list(combinations_with_replacement(range(1, n + 1), k))


def multiset_coefficient(n: int, k: int) -> int:
    """Number of k-element multisets over {1..n}: C(n+k-1, k)."""
    return comb(n + k - 1, k)


def multiset_permutations(tau: tuple[int, ...]) -> list[tuple[int, ...]]:
    """All distinct rearrangements of a multiset, lexicographically ordered."""

    def gen(pool: list[int]) -> Iterator[tuple[int, ...]]:
        if not pool:
            yield ()
            return
        seen = set()
        for idx, v in enumerate(pool):
            if v in seen:
                continue
            seen.add(v)
            rest = pool[:idx] + pool[idx + 1 :]
            for tail in gen(rest):
                yield (v,) + tail

    return list(gen(list(tau)))
