"""Complexes attached to an exterior algebra on n generators.

Two free bimodule resolutions of the algebra A: the normalized bar
resolution and the small multiset-indexed resolution that algebraic Morse
theory derives from it.  Each is stated once, by its generators and the
differential of one generator (``bar_down_terms``, ``reduced_down_terms``).
One base change turns either into its Hochschild chain complex
``A (x)_{A^e} P`` or cochain complex ``Hom_{A^e}(P, A)``: the bar ones are
the brute-force oracles, the multiset ones the reduced complexes.  Every
differential has integer entries, so each complex is built once over Z
and read in Q or F_p only when its homology is taken.  Both kinds of
complex split over multidegrees, and permuting the generators permutes
the summands, so their homology is also computed from one small block per
S_n-orbit of multidegrees, weighted by the orbit size
(``reduced_orbit_blocks``, ``bar_orbit_blocks``).  Those blocks come as a
stream, each built when it is drawn, and a size guard counts their cells
before any is built.  Every whole Hochschild builder takes its entries
from the base change: each label's down terms, and the action of their
weights, computed once per call; only the weights themselves outlive a
call, one shared object each, at most 2n for the multiset resolution and
3 * 2^n for the bar resolution.  The blocks compute theirs on their own
cells: the reduced ones, and the reduced complexes streamed cell by cell
to certify their parity matchings (``reduced_cell_stream``), by one
per-cell rule (``_faces``, ``_reduced_coefficient``) that moves a
generator i between the multiset and the monomial with the weight
x_i (x) 1 + (-1)^d 1 (x) x_i; the bar ones by the classical Hochschild
boundary (Loday, *Cyclic Homology*, 1.1).
The two routes stay independent: they share only the stream with its
cell-count check (``_stream``), the guard's check
(``_check_orbit_cells``), ``homology_sums`` and the signs of
``subset_mul_sign``, and enumerate and count their cells,
representatives and orbit sizes apart; the closed forms use no complex;
and the blocks and the cell stream are pinned against the whole builds,
the base changes of the two resolutions, in the test suite, so the
agreement of the bar and the reduced blocks checks the reduction.
Also here: the Morse matchings relating the two pictures, the parity
splitting that isolates the nonzero part of the small differentials,
closed-form answers, and the transfer maps between the bar and multiset
pictures.

Conventions.  A subset of {1..n} is an int bitmask, bit i-1 set iff i
is a member, and a multiset is a weakly increasing int tuple (see
:mod:`exthh.combinat`); element lists appear only when a label is
rendered.  A bar word, the label of a bar-resolution generator, is a
plain tuple of nonzero masks, so the bar resolution and its matching
work on tuples.  The cell types below render their labels: a chain cell
pairs a mask with a multiset or a bar word, a cochain cell is the
mirror pair.  Signs always come from moving one sorted monomial across
another, via ``subset_mul_sign``.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from functools import cache
from itertools import combinations, combinations_with_replacement, count, groupby, islice, product
from math import comb, factorial, prod
from operator import add
from typing import Iterable, Iterator, Mapping, Optional

from .algebra import (
    EnvAlgebra,
    EnvElement,
    env_act,
    env_left_var,
    env_monomial,
    env_right_var,
    subset_monomial_str,
)
from .combinat import (
    all_subsets,
    enumerate_multisets,
    multiset,
    multiset_coefficient,
    multiset_permutations,
    multiset_str,
    subset_elems,
    subset_mul_sign,
)
from .complexes import CHAIN, COCHAIN, BasedComplex, UnsupportedRing
from .linalg import HomologyGroup, SparseMatrix
from .morse import (
    ROLE_CRITICAL,
    ROLE_SOURCE,
    ROLE_TARGET,
    StreamingReport,
    check_matching_streaming,
    lazy_projection,
)
from .rings import Domain, IntegerRing, ZZ


DEFAULT_SIZE_LIMIT = 2_000_000


class SizeLimit(Exception):
    """A requested degree would exceed the configured basis-size bound.

    An orbit build counts before it builds (``_check_orbit_cells``): the
    2^n monomials that index every block, then in each degree the cells
    of its representative blocks (count their sum in the degree, largest
    the most in one block)."""

    def __init__(
        self,
        degree: int,
        count: int,
        limit: int,
        largest: Optional[int] = None,
        what: str = "basis elements",
    ):
        need = f"degree {degree} needs {count} {what}"
        if largest is not None:
            need += f" in its orbit blocks, {largest} in the largest"
        super().__init__(f"{need}, over the limit {limit}")
        self.degree = degree
        self.count = count
        self.limit = limit
        self.largest = largest


class MixedLabels(Exception):
    """The basis is not uniformly (subset, multiset)-labeled."""


# ---------------------------------------------------------------------------
# basis labels


# a bar word: a tuple of nonzero subset masks
Word = tuple[int, ...]


def bar_word_str(word: Word) -> str:
    """A bar word rendered as the generator ``1|x2|x1^x3|1``."""
    return f"1|{_joined(word)}|1" if word else "1|1"


def _joined(word: Word) -> str:
    return "|".join(subset_monomial_str(s) for s in word)


def _word_json(word: Word) -> list[list[int]]:
    return [list(subset_elems(s)) for s in word]


@dataclass(frozen=True, order=True)
class GeneratorLabel:
    """A generator of the multiset-indexed resolution."""

    tau: tuple[int, ...]

    def __str__(self):
        return f"x{multiset_str(self.tau)}"

    def to_json(self):
        return {"tau": list(self.tau)}


@dataclass(frozen=True, order=True)
class ChainCell:
    """A reduced chain cell: exterior monomial tensor resolution generator."""

    sigma: int
    tau: tuple[int, ...]

    def __str__(self):
        return f"x{_braced(self.sigma)}(x){multiset_str(self.tau)}"

    def to_json(self):
        return {"sigma": list(subset_elems(self.sigma)), "tau": list(self.tau)}


@dataclass(frozen=True, order=True)
class CochainCell:
    """A reduced cochain cell: the functional sending the generator of
    multiset tau to the exterior monomial on sigma."""

    tau: tuple[int, ...]
    sigma: int

    def __str__(self):
        return f"phi[{multiset_str(self.tau)},{_braced(self.sigma)}]"

    def to_json(self):
        return {"tau": list(self.tau), "sigma": list(subset_elems(self.sigma))}


@dataclass(frozen=True, order=True)
class BarChainCell:
    """An oracle chain cell: exterior monomial tensor a bar word."""

    sigma: int
    factors: Word

    def __str__(self):
        return f"x{_braced(self.sigma)}(x)[{_joined(self.factors)}]"

    def to_json(self):
        return {"sigma": list(subset_elems(self.sigma)), "factors": _word_json(self.factors)}


@dataclass(frozen=True, order=True)
class BarCochainCell:
    """An oracle cochain cell: dual to a bar word, valued on a monomial."""

    factors: Word
    sigma: int

    def __str__(self):
        return f"phi[[{_joined(self.factors)}],{_braced(self.sigma)}]"

    def to_json(self):
        return {"factors": _word_json(self.factors), "sigma": list(subset_elems(self.sigma))}


def _braced(s: int) -> str:
    return "{" + ",".join(map(str, subset_elems(s))) + "}"


def _nonempty_subsets(n: int) -> list[int]:
    return all_subsets(n)[1:]


def generator_to_tensor(indices: Iterable[int]) -> Word:
    """The variable tensor x_i1|...|x_ik of a sequence of indices; for a
    multiset, the weakly increasing one."""
    return tuple(1 << (i - 1) for i in indices)


def _variable_multiset(word: Word) -> Optional[tuple[int, ...]]:
    """The multiset of indices of a variable tensor (every factor a
    singleton); None when a factor has two or more elements."""
    if any(s & (s - 1) for s in word):
        return None
    return multiset(s.bit_length() for s in word)


# ---------------------------------------------------------------------------
# the two resolutions (free bimodule resolutions, coefficients in A^e)
# and their base change to Hochschild complexes


def bar_rank(n: int, k: int) -> int:
    """Number of degree-k normalized bar generators: words of k nonempty
    subsets of {1..n}."""
    return (2**n - 1) ** k


def bar_labels_of_degree(n: int, k: int) -> Iterator[Word]:
    """Degree-k normalized bar generators in lexicographic order."""
    return product(_nonempty_subsets(n), repeat=k)


def bar_down_terms(n: int, fs: Word) -> list[tuple[Word, EnvElement]]:
    """Differential components of one bar generator, targets accumulated.

    Three kinds of component: the first factor moves into the left
    coefficient, the last factor moves into the right coefficient with
    sign (-1)^k, and adjacent interior factors merge with sign (-1)^i
    times the sorting sign of their product (omitted when it vanishes).
    """
    k = len(fs)
    if k == 0:
        return []
    out: dict[Word, EnvElement] = {}

    def accumulate(target: Word, weight: EnvElement):
        if target in out:
            out[target] = out[target] + weight
        else:
            out[target] = weight

    accumulate(fs[1:], _bar_weight(n, fs[0], 0, 1))
    accumulate(fs[:-1], _bar_weight(n, 0, fs[-1], -1 if k % 2 else 1))
    for i in range(1, k):
        merged = subset_mul_sign(fs[i - 1], fs[i])
        if merged is None:
            continue
        sign, union = merged
        coeff = sign * (-1 if i % 2 else 1)
        accumulate(fs[: i - 1] + (union,) + fs[i + 1 :], _bar_weight(n, 0, 0, coeff))
    return sorted(((t, w) for t, w in out.items() if not w.is_zero()), key=lambda p: p[0])


@cache
def _bar_weight(n: int, a: int, b: int, c: int) -> EnvElement:
    """The monomial c a (x) b, one object per (n, a, b, c) shared by every
    bar down term that has it as its weight: a factor moved to the left or
    to the right, or a merge coefficient.  There are 3 * 2^n - 1 of them
    for each n.  No caller mutates an EnvElement."""
    return env_monomial(n, a, b, c)


def reduced_down_terms(
    n: int, tau: tuple[int, ...]
) -> list[tuple[tuple[int, ...], EnvElement]]:
    """Differential components of one multiset generator: one copy of each
    support element i is removed with coefficient x_i (x) 1 + (-1)^k 1 (x) x_i,
    which lies in the augmentation ideal, so no further cancellation is
    possible.  Copies of i are adjacent in tau; the first one is dropped.
    Each weight is shared (``_reduced_weight``)."""
    sign = 1 if len(tau) % 2 == 0 else -1
    return [
        (tau[:j] + tau[j + 1 :], _reduced_weight(n, i, sign))
        for j, i in enumerate(tau)
        if j == 0 or tau[j - 1] != i
    ]


@cache
def _reduced_weight(n: int, i: int, sign: int) -> EnvElement:
    """x_i (x) 1 + sign 1 (x) x_i, one object per (n, i, sign) shared by
    every multiset down term, so 2n of them for each n.  No caller
    mutates an EnvElement."""
    return env_left_var(n, i) + env_right_var(n, i).scale(sign)


# A resolution P is given to the builders below as three callbacks: the
# rank of P_k, the generators of P_k in basis order, and the differential
# of one generator as (lower generator, weight in A^e) pairs.


def _bar(n: int):
    if n < 1:
        raise ValueError("n must be >= 1")
    return (
        lambda k: bar_rank(n, k),
        lambda k: bar_labels_of_degree(n, k),
        lambda word: bar_down_terms(n, word),
    )


def _reduced(n: int):
    if n < 1:
        raise ValueError("n must be >= 1")
    return (
        lambda k: multiset_coefficient(n, k),
        lambda k: enumerate_multisets(n, k),
        lambda tau: reduced_down_terms(n, tau),
    )


def _check_ranks(resolution, max_degree: int, factor: int, size_limit: int):
    """Refuse, before anything is enumerated, a degree where factor times
    the rank of the resolution exceeds the size limit."""
    count, _, _ = resolution
    for k in range(max_degree + 1):
        cells = factor * count(k)
        if cells > size_limit:
            raise SizeLimit(k, cells, size_limit)


def _generators(resolution, max_degree: int, factor: int, size_limit: int) -> list[tuple]:
    """Generators of each degree, once factor times every rank is known to
    fit the size limit."""
    _check_ranks(resolution, max_degree, factor, size_limit)
    _count, generators, _down = resolution
    return [tuple(generators(k)) for k in range(max_degree + 1)]


def _free_complex(resolution, label: type, n: int, max_degree: int, size_limit: int) -> BasedComplex:
    """The resolution itself, as a complex of free modules over A^e."""
    gens = _generators(resolution, max_degree, 1, size_limit)
    down = resolution[2]
    dom = EnvAlgebra(n)
    diffs = {}
    for k in range(1, max_degree + 1):
        lower = {g: i for i, g in enumerate(gens[k - 1])}
        entries = {(lower[h], j): w for j, g in enumerate(gens[k]) for h, w in down(g)}
        diffs[k] = SparseMatrix(len(gens[k - 1]), len(gens[k]), entries, dom)
    bases = {k: tuple(map(label, gk)) for k, gk in enumerate(gens)}
    return BasedComplex(dom, CHAIN, bases, diffs)


def _action(n: int, chain: bool):
    """The monomials in ``all_subsets`` order and the action of the
    differential's weights on them, the sign convention of the base
    change, its only caller: ``act(weight)[s]`` lists the nonzero
    (position, coefficient) terms of the image of the monomial at
    position s, computed once per distinct weight.  A term (q, a (x) b)
    sends the chain cell sigma (x) p to b sigma a (x) q, so chains act by
    the weight with its tensor factors swapped; it sends the cochain cell
    of q valued sigma to a sigma b on p.  The tables live as long as
    ``act``, one whole build.  A weight is looked up by value, and the
    down terms hand out shared weights (``_bar_weight``,
    ``_reduced_weight``), so a build makes one table per distinct weight
    and no weight object per cell; only a bar word whose terms meet on one
    target makes a new one, their sum."""
    subsets = all_subsets(n)
    position = {s: i for i, s in enumerate(subsets)}
    images: dict[EnvElement, list] = {}

    def act(weight: EnvElement) -> list[list[tuple[int, int]]]:
        table = images.get(weight)
        if table is None:
            u = weight
            if chain:
                u = EnvElement(n, {(b, a): c for (a, b), c in weight.terms.items()})
            table = images[weight] = [
                [(position[t], c) for t, c in env_act(u, {s: 1}).items()] for s in subsets
            ]
        return table

    return subsets, act


def _base_change(
    resolution, cell: type, direction: int, n: int, max_degree: int, size_limit: int
) -> BasedComplex:
    """The Hochschild chain complex A (x)_{A^e} P or cochain complex
    Hom_{A^e}(P, A) of a resolution P, over the integers.

    With monomials sigma in the order of ``all_subsets`` and generators in
    the order of P: the chain cell sigma (x) p sits at sigma * |P_k| + p,
    and a term (q, a (x) b) of the differential of p sends it to
    b sigma a (x) q.  The cochain cell sending q to sigma and every other
    generator to zero sits at q * 2^n + sigma, and the same term sends it
    to a sigma b on p.
    """
    gens = _generators(resolution, max_degree, 2**n, size_limit)
    down = resolution[2]
    chain = direction == CHAIN
    subsets, act = _action(n, chain)
    width = len(subsets)
    if chain:
        bases = {k: tuple(cell(s, g) for s in subsets for g in gk) for k, gk in enumerate(gens)}
    else:
        bases = {k: tuple(cell(g, s) for g in gk for s in subsets) for k, gk in enumerate(gens)}
    # one int object per position, shared by every entry key
    ids = list(range(max(len(b) for b in bases.values())))
    diffs = {}
    for k in range(1, max_degree + 1):
        lower = {g: i for i, g in enumerate(gens[k - 1])}
        terms = [[(lower[q], act(w)) for q, w in down(g)] for g in gens[k]]
        low, high = len(gens[k - 1]), len(gens[k])
        entries = {}
        if chain:
            for s in range(width):
                for p, p_terms in enumerate(terms):
                    col = ids[s * high + p]
                    for q, table in p_terms:
                        for t, v in table[s]:
                            entries[ids[t * low + q], col] = v
            diffs[k] = SparseMatrix(width * low, width * high, entries, ZZ)
        else:
            for p, p_terms in enumerate(terms):
                for q, table in p_terms:
                    for s, image in enumerate(table):
                        col = ids[q * width + s]
                        for t, v in image:
                            entries[ids[p * width + t], col] = v
            diffs[k - 1] = SparseMatrix(width * high, width * low, entries, ZZ)
    return BasedComplex(ZZ, direction, bases, diffs)


def build_bar_resolution(n: int, max_degree: int, size_limit: int = DEFAULT_SIZE_LIMIT) -> BasedComplex:
    """The normalized bar resolution up to the given degree, as a complex
    of free modules over the enveloping algebra."""
    return _free_complex(_bar(n), tuple, n, max_degree, size_limit)


def build_reduced_resolution(
    n: int, max_degree: int, size_limit: int = DEFAULT_SIZE_LIMIT
) -> BasedComplex:
    """The multiset-indexed minimal free resolution: degree k is free on
    the k-element multisets over {1..n}, with the differential of
    ``reduced_down_terms``."""
    return _free_complex(_reduced(n), GeneratorLabel, n, max_degree, size_limit)


def minimality_certificate(resolution: BasedComplex) -> bool:
    """True when every differential entry has zero coefficient on the
    identity tensor, i.e. lies in the augmentation ideal."""
    return not any(
        v.augmentation_coeff() for mat in resolution.diffs.values() for v in mat.entries.values()
    )


# ---------------------------------------------------------------------------
# the bar matching


def bar_classify(fs: Word) -> tuple[str, Optional[Word]]:
    """Role of a bar generator under the canonical matching.

    With r the maximal weakly increasing singleton prefix: the label is
    critical when r = k, the target of an edge when the next factor can
    absorb a split of its maximum, and the source when the last prefix
    entry exceeds the next factor's maximum and merges into it.  One scan
    finds r and the last prefix entry: a singleton mask is a power of
    two, and singletons compare as their elements do.
    """
    r = prev = 0  # prev: the last prefix entry, 0 while the prefix is empty
    for nxt in fs:
        if nxt & (nxt - 1) or nxt < prev:
            break
        prev = nxt
        r += 1
    else:
        return ROLE_CRITICAL, None
    top = 1 << (nxt.bit_length() - 1)
    if prev <= top:
        return ROLE_TARGET, fs[:r] + (top, nxt ^ top) + fs[r + 1 :]
    return ROLE_SOURCE, fs[: r - 1] + (nxt | prev,) + fs[r + 1 :]


def bar_rules(n: int):
    """The canonical bar matching as (down_edges, classify), the pair
    through which :mod:`exthh.morse` certifies and walks a matching."""
    return (lambda word: bar_down_terms(n, word)), bar_classify


def certify_bar_matching(
    n: int, max_degree: int, size_limit: int = DEFAULT_SIZE_LIMIT
) -> StreamingReport:
    """Streaming certification of the bar matching (no materialization).

    Verifies involutivity of the classification, the presence and
    invertibility of every matched edge inside the differential, and
    acyclicity of every two-degree window; returns critical labels.
    Every streamed degree is checked against the size limit first.
    """
    _check_ranks(_bar(n), max_degree, 1, size_limit)
    return check_matching_streaming(
        range(max_degree + 1),
        lambda k: bar_labels_of_degree(n, k),
        *bar_rules(n),
        EnvAlgebra(n),
        direction=-1,
    )


def bar_projection(
    n: int, max_degree: int, size_limit: int = DEFAULT_SIZE_LIMIT
) -> list[dict[tuple[int, ...], list[tuple[Word, EnvElement]]]]:
    """The Morse projection B -> P of the canonical bar matching, per
    degree up to the bound and grouped by target: for each multiset tau,
    every bar word w whose image has a nonzero coefficient on the
    critical word of tau, with that coefficient (in A^e over Z).

    The critical words are the weakly increasing variable tensors, one
    per multiset.  The image of w sums the zig-zag walks from w to them
    (``lazy_projection``), one walk memo per degree.  Every degree is
    first checked against the size limit, counting 2^n cochain cells
    per word like the bar cochain complex.
    """
    _check_ranks(_bar(n), max_degree, 2**n, size_limit)
    rules = bar_rules(n)
    dom = EnvAlgebra(n)
    out = []
    for k in range(max_degree + 1):
        by_tau: dict[tuple[int, ...], list[tuple[Word, EnvElement]]] = {}
        words = bar_labels_of_degree(n, k)
        for word, image in lazy_projection(words, *rules, dom):
            for critical, weight in image.items():
                tau = _variable_multiset(critical)
                by_tau.setdefault(tau, []).append((word, weight))
        out.append(by_tau)
    return out


# ---------------------------------------------------------------------------
# oracle and reduced Hochschild chain and cochain complexes


def build_bar_hochschild_chain(
    n: int, max_degree: int, size_limit: int = DEFAULT_SIZE_LIMIT
) -> BasedComplex:
    """Brute-force Hochschild chain complex: monomial coefficients against
    normalized bar words, the base change of the bar resolution."""
    return _base_change(_bar(n), BarChainCell, CHAIN, n, max_degree, size_limit)


def build_bar_hochschild_cochain(
    n: int, max_degree: int, size_limit: int = DEFAULT_SIZE_LIMIT
) -> BasedComplex:
    """Brute-force Hochschild cochain complex on the dual basis of the
    normalized bar words, the base change of the bar resolution."""
    return _base_change(_bar(n), BarCochainCell, COCHAIN, n, max_degree, size_limit)


def build_reduced_chain(
    n: int, max_degree: int, size_limit: int = DEFAULT_SIZE_LIMIT
) -> BasedComplex:
    """Chain complex on (monomial, multiset) cells, the base change of the
    multiset resolution; the boundary moves a support element into the
    monomial with coefficient (-1)^|sigma| + (-1)^|tau| times the crossing
    sign."""
    return _base_change(_reduced(n), ChainCell, CHAIN, n, max_degree, size_limit)


def build_reduced_cochain(
    n: int, max_degree: int, size_limit: int = DEFAULT_SIZE_LIMIT
) -> BasedComplex:
    """Cochain complex on (multiset, monomial) cells, the base change of
    the multiset resolution; the coboundary adjoins an element to both
    parts with coefficient (-1)^|sigma| - (-1)^|tau| times the crossing
    sign."""
    return _base_change(_reduced(n), CochainCell, COCHAIN, n, max_degree, size_limit)


def _faces(n: int, tau: tuple[int, ...], cohomology: bool) -> list[tuple[int, tuple[int, ...]]]:
    """(i, face) for each multiset the reduced differential reaches from
    tau by moving generator i, i increasing as in the built differential:
    chains remove one copy of each distinct i, cochains insert each i."""
    if cohomology:
        return [(i, tau[: (j := bisect_right(tau, i))] + (i,) + tau[j:]) for i in range(1, n + 1)]
    return [(i, tau[:j] + tau[j + 1 :]) for j, i in enumerate(tau) if j == 0 or tau[j - 1] != i]


def _reduced_coefficient(sigma: int, i: int, k: int, cohomology: bool) -> int:
    """The reduced differential's entry from the cell of sigma and a
    degree-k multiset to the cell of sigma + i and its face by i: with eps
    the sign of ``subset_mul_sign``, eps(sigma x_i) + (-1)^k eps(x_i sigma)
    for chains and eps(x_i sigma) + (-1)^(k+1) eps(sigma x_i) for
    cochains, 0 when i is in sigma."""
    x = 1 << (i - 1)
    if sigma & x:
        return 0
    right, left = subset_mul_sign(sigma, x)[0], subset_mul_sign(x, sigma)[0]
    if cohomology:
        return left + right if k % 2 else left - right
    return right - left if k % 2 else right + left


def reduced_cell_stream(
    n: int, top: int, cohomology: bool = False, size_limit: int = DEFAULT_SIZE_LIMIT
):
    """The whole reduced chain complex (or cochain complex) up to degree
    top, over the integers, as a stream of its cells: the pair
    (labels_of_degree, down_edges) through which :mod:`exthh.morse` reads
    a complex, as ``bar_rules`` is for the bar resolution.

    ``labels_of_degree(k)`` yields the cells of degree k in the basis order
    of ``build_reduced_chain``/``build_reduced_cochain``, and none outside
    0..top.  ``down_edges(cell)`` is the cell's column of the built
    differential, entry for entry, as (cell, integer weight) pairs, read
    from the rule of ``_faces`` and ``_reduced_coefficient``; a cochain
    cell of degree top has none, as the built complex ends there.  The
    faces of each multiset and the rule's entries of each monomial and
    degree are kept for the life of the stream.  The builders' size guard
    runs before any cell is enumerated.
    """
    _check_ranks(_reduced(n), top, 2**n, size_limit)
    subsets = all_subsets(n)
    # the complex ends at degree top: no coboundary leaves it
    faces = cache(lambda tau: [] if cohomology and len(tau) >= top else _faces(n, tau, cohomology))

    @cache
    def row(sigma: int, k: int) -> list[int]:  # generator i at position i
        return [0] + [_reduced_coefficient(sigma, i, k, cohomology) for i in range(1, n + 1)]

    def labels_of_degree(k: int) -> Iterator:
        taus = enumerate_multisets(n, k) if 0 <= k <= top else ()
        if cohomology:
            return (CochainCell(tau, s) for tau in taus for s in subsets)
        return (ChainCell(s, tau) for s in subsets for tau in taus)

    def chain_edges(cell: ChainCell) -> list[tuple[ChainCell, int]]:
        sigma, tau = cell.sigma, cell.tau
        entries = row(sigma, len(tau))
        return [(ChainCell(sigma | 1 << (i - 1), face), v) for i, face in faces(tau) if (v := entries[i])]

    def cochain_edges(cell: CochainCell) -> list[tuple[CochainCell, int]]:
        sigma, tau = cell.sigma, cell.tau
        entries = row(sigma, len(tau))
        return [(CochainCell(face, sigma | 1 << (i - 1)), v) for i, face in faces(tau) if (v := entries[i])]

    return labels_of_degree, cochain_edges if cohomology else chain_edges


# ---------------------------------------------------------------------------
# the reduced complexes by multidegree orbits
#
# Every differential of the reduced complexes keeps a multidegree in Z^n:
# 1_sigma + tau for the chain cell sigma (x) tau, 1_sigma - tau for the
# cochain cell of tau valued sigma.  So each complex is the direct sum of
# its blocks at single multidegrees.  A permutation of the generators is
# an automorphism of A; it carries the block at e onto the block at the
# permuted e by a signed permutation of the cells, an isomorphism over Z.
# The homology is therefore a sum over the weakly decreasing multidegrees,
# one per S_n-orbit, each weighted by the size of its orbit.


class IncompleteOrbits(Exception):
    """The orbit blocks, weighted by orbit size, do not hold exactly the
    cells of the complex they stand for."""


def _orbit_representatives(n: int, max_degree: int, cohomology: bool) -> Iterator[tuple[int, ...]]:
    """The weakly decreasing multidegrees whose block has a cell of degree
    at most max_degree.  A chain multidegree has entries e_i >= 0 and its
    lowest cells sit in degree sum(max(e_i - 1, 0)); a cochain multidegree
    has e_i <= 1 and lowest degree sum(max(-e_i, 0))."""
    if cohomology:
        values, lowest = range(1, -max_degree - 1, -1), lambda v: max(-v, 0)
    else:
        values, lowest = range(max_degree + 1, -1, -1), lambda v: max(v - 1, 0)
    for e in combinations_with_replacement(values, n):
        if sum(map(lowest, e)) <= max_degree:
            yield e


def _orbit_size(e: tuple[int, ...]) -> int:
    """The number of distinct permutations of e, n! / prod m_v!."""
    size = factorial(len(e))
    for m in Counter(e).values():
        size //= factorial(m)
    return size


def _orbit_cells(n: int, k: int) -> tuple[int, int]:
    """The cells of degree k in the blocks at the multidegrees of
    ``_orbit_representatives``, summed and the most in one block, counted
    without building them.  In a chain block a generator with e_i = 0 is
    fixed, and one with e_i = v >= 1 adds v - 1 or v copies to tau; in a
    cochain block e_i = 1 is fixed, and e_i = v <= 0 adds -v or 1 - v.
    So a block with z generators free to choose and s copies forced holds
    C(z, k - s) cells of degree k, and in either variant the
    representatives with given z and s are the partitions of s into at
    most z parts."""
    # parts[s][z]: the partitions of s into at most z parts
    parts = [[1] * (n + 1)] + [[0] * (n + 1) for _ in range(k)]
    for s in range(1, k + 1):
        for z in range(1, n + 1):
            parts[s][z] = parts[s][z - 1] + (parts[s - z][z] if z <= s else 0)
    blocks = [(parts[s][z], comb(z, k - s)) for s in range(k + 1) for z in range(n + 1)]
    return sum(p * cells for p, cells in blocks), max(cells for p, cells in blocks if p)


def _multidegree(n: int, e: Iterable[int]) -> tuple[int, ...]:
    e = tuple(e)
    if n < 1 or len(e) != n:
        raise ValueError(f"a multidegree has n >= 1 entries, got n={n} and e={e}")
    return e


def _stream(blocks, resolution, max_degree: int, factor: int) -> Iterator[tuple[int, BasedComplex]]:
    """The (orbit size, block) pairs of ``blocks``, passed on one at a
    time and kept by nothing here.  Weighted by orbit size, the blocks
    that passed must hold the factor * rank(P_k) cells of the whole
    complex in each degree k: after the last, IncompleteOrbits is raised
    if they do not."""
    held = [0] * (max_degree + 1)
    for orbit, block in blocks:
        for k in range(max_degree + 1):
            held[k] += orbit * block.dim(k)
        yield orbit, block
        # drawing the next block builds it while this name still holds one
        del block
    for k, count in enumerate(held):
        cells = factor * resolution[0](k)
        if count != cells:
            raise IncompleteOrbits(f"degree {k}: the orbit blocks hold {count} of {cells} cells")


def _check_orbit_cells(n: int, max_degree: int, cells, size_limit: int):
    """Refuse an orbit build before any block is built, at the lowest
    degree k where it would go over the size limit: the 2^n monomials
    that index every block, checked first since the tables of the cell
    counts grow with n; or the cells of the representative blocks of
    degree k, ``cells(n, k)``, summed (the refusal names the most in one
    block too)."""
    if 2**n > size_limit:
        raise SizeLimit(0, 2**n, size_limit)
    for k in range(max_degree + 1):
        count, largest = cells(n, k)
        if count > size_limit:
            raise SizeLimit(k, count, size_limit, largest, "cells")


def _reduced_block(e: tuple[int, ...], max_degree: int, cohomology: bool, labelled: bool = False) -> BasedComplex:
    """The reduced block at multidegree e, its entries read cell by cell
    from the rule of ``_faces`` and ``_reduced_coefficient``.  A cell is
    fixed by its multiset: generator i adds bit b to sigma and e_i - b
    copies (chains) or b - e_i copies (cochains) to tau, for each b in
    {0, 1} that leaves a count >= 0.  Unlabelled, the cells are the bare
    multisets in enumeration order; labelled, cell objects in the order
    of the whole complex."""
    n = len(e)
    choices = [
        [(b, m) for b in (0, 1) if (m := b - v if cohomology else v - b) >= 0] for v in e
    ]
    rest = [0] * (n + 1)  # the fewest copies the generators from i on add
    for i in range(n - 1, -1, -1):
        rest[i] = rest[i + 1] + min((m for _, m in choices[i]), default=0)
    cells = [((), 0)]  # (tau, sigma) over the first i generators
    for i, options in enumerate(choices):
        cells = [
            (tau + (i + 1,) * m, sigma | b << i)
            for tau, sigma in cells
            for b, m in options
            if len(tau) + m + rest[i + 1] <= max_degree
        ]
    if labelled:
        position = {s: i for i, s in enumerate(all_subsets(n))}
        cells.sort(key=(lambda c: c[0]) if cohomology else (lambda c: (position[c[1]], c[0])))
    levels: list[list[tuple[tuple[int, ...], int]]] = [[] for _ in range(max_degree + 1)]
    for tau, sigma in cells:
        levels[len(tau)].append((tau, sigma))
    diffs = {}
    for k in range(1, max_degree + 1):
        # chains go down from degree k, cochains up from degree k - 1
        source, target = (k - 1, k) if cohomology else (k, k - 1)
        row = {tau: r for r, (tau, _s) in enumerate(levels[target])}
        entries = {
            (row[face], j): v
            for j, (tau, sigma) in enumerate(levels[source])
            for i, face in _faces(n, tau, cohomology)
            if (v := _reduced_coefficient(sigma, i, source, cohomology))
        }
        diffs[source] = SparseMatrix(len(levels[target]), len(levels[source]), entries, ZZ)
    if labelled:
        cell = CochainCell if cohomology else ChainCell
        bases = {
            k: [cell(t, s) if cohomology else cell(s, t) for t, s in level] for k, level in enumerate(levels)
        }
    else:
        bases = {k: [t for t, _s in level] for k, level in enumerate(levels)}
    return BasedComplex(ZZ, COCHAIN if cohomology else CHAIN, bases, diffs)


def reduced_block(
    n: int, e: Iterable[int], max_degree: int, cohomology: bool = False
) -> BasedComplex:
    """The summand of the reduced chain complex (or cochain complex) at the
    multidegree e, up to the given degree, over the integers.

    Its cells are the pairs (sigma, tau) with 1_sigma + tau = e for chains
    and 1_sigma - tau = e for cochains, labeled and ordered as in the
    whole complex, for callers that index cells.  Every degree up to the
    bound has a basis, possibly empty; a multidegree that no cell has
    gives the zero complex.
    """
    return _reduced_block(_multidegree(n, e), max_degree, cohomology, labelled=True)


def reduced_orbit_blocks(
    n: int, max_degree: int, cohomology: bool = False, size_limit: int = DEFAULT_SIZE_LIMIT
) -> Iterator[tuple[int, BasedComplex]]:
    """The reduced chain complex (or cochain complex) up to the given
    degree, as a stream of (orbit size, block) pairs: one block per
    S_n-orbit of multidegrees, at its weakly decreasing representative,
    built when it is drawn.  Summed with these weights
    (``complexes.homology_sums``) the blocks give the homology of the
    whole complex.

    The size guard runs on the call, before any block is built: it
    refuses when 2^n, or in some degree the cells of the representative
    blocks (``_orbit_cells``), exceed the limit.  After the last block,
    the weighted cells of each degree k must number 2^n C(n+k-1, k), as
    in the whole complex, else IncompleteOrbits is raised.  A block's
    cells are its bare multisets, unsorted (``_reduced_block``)."""
    resolution = _reduced(n)
    _check_orbit_cells(n, max_degree, _orbit_cells, size_limit)
    blocks = (
        (_orbit_size(e), _reduced_block(e, max_degree, cohomology))
        for e in _orbit_representatives(n, max_degree, cohomology)
    )
    return _stream(blocks, resolution, max_degree, 2**n)


# ---------------------------------------------------------------------------
# the bar oracle by multidegree orbits
#
# The bar complexes split the same way: the chain cell sigma (x) w has
# multidegree 1_sigma + sum_j 1_{w_j}, the cochain cell of w valued sigma
# 1_sigma - sum_j 1_{w_j}, so within a block the word fixes sigma.  The
# oracle enumerates its own cells, representatives and orbit sizes, and
# computes its entries from the Hochschild formula on those cells.


def _bar_cells(e: tuple[int, ...], k: int, cohomology: bool) -> list[tuple[Word, int]]:
    """The (word, sigma) pairs of degree k at multidegree e: generator i
    sets bit b of sigma and lies in any e_i - b of the k factors (chains),
    or b - e_i (cochains); words with an empty factor are dropped.  The
    choices of each generator are taken last to first, so the cells come
    in the reverse of their lexicographic order: the F_p column reduction
    of the chain blocks fills in less that way (``tools/bench_oracle.py``
    at n = 4)."""
    cells = [((0,) * k, 0)]
    for i, v in enumerate(e):
        options = [
            (b << i, tuple(1 << i if j in slots else 0 for j in range(k)))
            for b in (0, 1)
            if 0 <= (m := b - v if cohomology else v - b) <= k
            for slots in combinations(range(k), m)
        ]
        options.reverse()
        cells = [(tuple(map(add, word, adds)), sigma | b) for word, sigma in cells for b, adds in options]
    return [(word, sigma) for word, sigma in cells if all(word)]


def _bar_chain_entries(upper: list[tuple[Word, int]], row: dict[Word, int], k: int) -> dict:
    """The degree-k boundary of a bar chain block, by the Hochschild
    formula: the cell sigma (x) (w_1..w_k) goes to sigma w_1 (x) (w_2..w_k),
    to (-1)^i s sigma (x) (..w_i w_{i+1}..) for each merge of sign s, and to
    (-1)^k w_k sigma (x) (w_1..w_{k-1}), each term dropped when its
    product vanishes.  The target's word fixes its row: the differential
    keeps the multidegree.  The two end faces meet on a constant word."""
    last = -1 if k % 2 else 1
    entries: dict[tuple[int, int], int] = {}
    for j, (w, s) in enumerate(upper):
        moved = subset_mul_sign(s, w[0])
        if moved is not None:
            entries[row[w[1:]], j] = moved[0]
        moved = subset_mul_sign(w[-1], s)
        if moved is not None:
            key = row[w[:-1]], j
            entries[key] = entries.get(key, 0) + last * moved[0]
        for i in range(1, k):
            merged = subset_mul_sign(w[i - 1], w[i])
            if merged is not None:
                sign, union = merged
                entries[row[w[: i - 1] + (union,) + w[i + 1 :]], j] = -sign if i % 2 else sign
    return entries


def _bar_cochain_entries(upper: list[tuple[Word, int]], row: dict[Word, int], k: int) -> dict:
    """The coboundary into degree k of a bar cochain block, by the
    Hochschild formula read on each upper word p = (p_1..p_k) valued
    sigma: the cochain of p[1:] valued sigma_q adds p_1 sigma_q, that of a
    merge of sign s adds (-1)^i s sigma, that of p[:-1] adds (-1)^k sigma_q
    p_k.  A face is in the block exactly when its factor divides sigma,
    and sigma_q is then sigma without it."""
    last = -1 if k % 2 else 1
    entries: dict[tuple[int, int], int] = {}
    for j, (p, s) in enumerate(upper):
        first, end = p[0], p[-1]
        if s & first == first:
            entries[j, row[p[1:]]] = subset_mul_sign(first, s ^ first)[0]
        if s & end == end:
            key = j, row[p[:-1]]
            entries[key] = entries.get(key, 0) + last * subset_mul_sign(s ^ end, end)[0]
        for i in range(1, k):
            merged = subset_mul_sign(p[i - 1], p[i])
            if merged is not None:
                sign, union = merged
                entries[j, row[p[: i - 1] + (union,) + p[i + 1 :]]] = -sign if i % 2 else sign
    return entries


def _bar_block(e: tuple[int, ...], max_degree: int, cohomology: bool, labelled: bool = False) -> BasedComplex:
    """The bar block at multidegree e, its entries computed on its own
    cells by the Hochschild formula (``_bar_chain_entries``,
    ``_bar_cochain_entries``).  Unlabelled, its cells are the bar words in
    ``_bar_cells`` order; labelled, they are ``BarChainCell`` or
    ``BarCochainCell`` in the order of the whole complex: by word
    (cochains), by monomial and then word (chains)."""
    levels = [_bar_cells(e, k, cohomology) for k in range(max_degree + 1)]
    if labelled:
        position = {s: i for i, s in enumerate(all_subsets(len(e)))}

        def order(cell):
            word = [position[f] for f in cell[0]]
            return word if cohomology else (position[cell[1]], word)

        levels = [sorted(level, key=order) for level in levels]
    entries_of = _bar_cochain_entries if cohomology else _bar_chain_entries
    diffs = {}
    for k in range(1, max_degree + 1):
        upper, lower = levels[k], levels[k - 1]
        entries = entries_of(upper, {w: i for i, (w, _s) in enumerate(lower)}, k)
        if cohomology:
            diffs[k - 1] = SparseMatrix(len(upper), len(lower), entries, ZZ)
        else:
            diffs[k] = SparseMatrix(len(lower), len(upper), entries, ZZ)
    if labelled:
        cell = BarCochainCell if cohomology else BarChainCell
        bases = {
            k: [cell(w, s) if cohomology else cell(s, w) for w, s in level] for k, level in enumerate(levels)
        }
    else:
        bases = {k: [w for w, _s in level] for k, level in enumerate(levels)}
    return BasedComplex(ZZ, COCHAIN if cohomology else CHAIN, bases, diffs)


def _bar_orbits(n: int, max_degree: int, cohomology: bool) -> list[tuple[int, tuple[int, ...]]]:
    """(orbit size, e) for the weakly decreasing multidegrees of bar cells
    up to max_degree.  A generator lies in at most k factors of a degree-k
    word, so chain entries run over 0..max_degree+1 and cochain entries
    over -max_degree..1, and every such e has cells.  The orbit size is
    n! / prod m_v!, with m_v the length of the run of v in e."""
    values = range(1, -max_degree - 1, -1) if cohomology else range(max_degree + 1, -1, -1)
    return [
        (factorial(n) // prod(factorial(len(tuple(run))) for _v, run in groupby(e)), e)
        for e in combinations_with_replacement(values, n)
    ]


def _bar_orbit_cells(n: int, k: int) -> tuple[int, int]:
    """The cells of degree k in the bar blocks at the multidegrees of
    ``_bar_orbits``, summed and the most in one block, counted without
    building them.  In a chain block at e, generator i takes e_i of k + 1
    places, its sigma bit and the k factors of a word, in C(k + 1, e_i)
    ways; dropping the words with an empty factor by inclusion-exclusion
    leaves sum_j (-1)^j C(k, j) prod_i C(k - j + 1, e_i) cells.  The
    cochain block at 1 - e has as many, sigma complemented.  Only entries
    up to k + 1 leave cells, so the multidegrees are walked by the
    multiplicity of each value 0..k + 1, each prefix's products shared."""
    powers = [
        [[comb(r + 1, v) ** m for r in range(k + 1)] for m in range(n + 1)] for v in range(k + 2)
    ]
    signs = [(-1) ** j * comb(k, j) for j in range(k + 1)]
    summed, largest = 0, 0

    def walk(v: int, left: int, prefix: list[int]):
        nonlocal summed, largest
        if v == k + 1:
            words = [a * b for a, b in zip(prefix, powers[v][left])]
            cells = sum(c * words[k - j] for j, c in enumerate(signs))
            summed += cells
            largest = max(largest, cells)
            return
        for m in range(left + 1):
            walk(v + 1, left - m, [a * b for a, b in zip(prefix, powers[v][m])])

    walk(0, n, [1] * (k + 1))
    return summed, largest


def bar_block(n: int, e: Iterable[int], max_degree: int, cohomology: bool = False) -> BasedComplex:
    """The summand of the bar Hochschild chain complex (or cochain complex)
    at the multidegree e, up to the given degree, over the integers, as
    ``reduced_block`` is for the reduced one: its cells are
    ``BarChainCell`` or ``BarCochainCell``, in the order of the whole
    complex, for callers that index cells.  The entries come from the
    Hochschild formula on the block's cells, as in ``bar_orbit_blocks``;
    only the sort of each degree's cells and their labels differ."""
    return _bar_block(_multidegree(n, e), max_degree, cohomology, labelled=True)


def bar_orbit_blocks(
    n: int, max_degree: int, cohomology: bool = False, size_limit: int = DEFAULT_SIZE_LIMIT
) -> Iterator[tuple[int, BasedComplex]]:
    """The bar Hochschild chain complex (or cochain complex) up to the
    given degree, as a stream of (orbit size, block) pairs at the weakly
    decreasing multidegrees, like ``reduced_orbit_blocks``.  The size
    guard refuses, before any block is built or any orbit listed, when
    2^n or in some degree the cells of the representative blocks
    (``_bar_orbit_cells``) exceed the limit; after the last block, the
    weighted cells of each degree k must number 2^n (2^n - 1)^k, else
    IncompleteOrbits is raised.
    A block's cells are its bar words alone (in a block degree the word
    fixes the monomial), in ``_bar_cells`` order, unsorted and with no
    cell objects, and its entries come from the Hochschild formula;
    ``homology_sums`` reads only dimensions and differentials."""
    resolution = _bar(n)
    _check_orbit_cells(n, max_degree, _bar_orbit_cells, size_limit)
    blocks = (
        (orbit, _bar_block(e, max_degree, cohomology))
        for orbit, e in _bar_orbits(n, max_degree, cohomology)
    )
    return _stream(blocks, resolution, max_degree, 2**n)


def parity_active(label, direction: int) -> bool:
    """Whether a reduced chain or cochain cell lies in the parity summand
    that carries the differential: |sigma| and |tau| of equal parity for
    chains, of opposite parity for cochains.  Raises MixedLabels on any
    other label."""
    if not isinstance(label, (ChainCell, CochainCell)):
        raise MixedLabels(f"label {label!r} is not a (subset, multiset) cell")
    equal = (label.sigma.bit_count() - len(label.tau)) % 2 == 0
    return equal if direction == CHAIN else not equal


def split_parity(c: BasedComplex) -> tuple[BasedComplex, BasedComplex]:
    """Split a reduced (co)chain complex into the parity subcomplex that
    carries the differential and the complementary summand with zero
    differential.  Raises MixedLabels on foreign labels and refuses any
    cross entry between the two summands and any entry within the inert
    one."""
    selector = {}
    for k in c.degrees:
        for lab in c.basis(k):
            selector[lab] = parity_active(lab, c.direction)
    active_bases = {}
    inert_bases = {}
    for k in c.degrees:
        active_bases[k] = tuple(lab for lab in c.basis(k) if selector[lab])
        inert_bases[k] = tuple(lab for lab in c.basis(k) if not selector[lab])
    active_diffs = {}
    inert_diffs = {}
    for k, mat in c.diffs.items():
        src, dst = c.basis(k), c.basis(k + c.direction)
        a_src = {lab: i for i, lab in enumerate(active_bases[k])}
        a_dst = {lab: i for i, lab in enumerate(active_bases[k + c.direction])}
        a_entries = {}
        for (r, col), v in mat.entries.items():
            s_lab, d_lab = src[col], dst[r]
            if selector[s_lab] and selector[d_lab]:
                a_entries[(a_dst[d_lab], a_src[s_lab])] = v
            elif selector[s_lab] != selector[d_lab]:
                raise ValueError(
                    f"cross entry between parity summands: {s_lab} -> {d_lab}"
                )
            else:
                raise ValueError(f"entry {v} between inert cells: {s_lab} -> {d_lab}")
        active_diffs[k] = SparseMatrix(len(active_bases[k + c.direction]), len(active_bases[k]), a_entries, c.domain)
        inert_diffs[k] = SparseMatrix(len(inert_bases[k + c.direction]), len(inert_bases[k]), {}, c.domain)
    active = BasedComplex(c.domain, c.direction, active_bases, active_diffs)
    inert = BasedComplex(c.domain, c.direction, inert_bases, inert_diffs)
    return active, inert


# ---------------------------------------------------------------------------
# the deterministic matchings on the active parity subcomplexes


def koszul_chain_rule(cell: ChainCell) -> tuple[str, Optional[ChainCell]]:
    """The matching on the active chain summand by the minimum rule.

    With m the least index of the monomial and the multiset's support: a
    cell whose monomial holds m is a target, paired with the cell that
    moves m into the multiset; otherwise m moves out of the multiset into
    the monomial, and the cell is the source of that edge.  Critical: the
    empty cell."""
    sigma, tau = cell.sigma, cell.tau
    low = sigma & -sigma
    if sigma and (not tau or low.bit_length() <= tau[0]):
        return ROLE_TARGET, ChainCell(sigma ^ low, (low.bit_length(),) + tau)
    if tau:
        return ROLE_SOURCE, ChainCell(sigma | (1 << (tau[0] - 1)), tau[1:])
    return ROLE_CRITICAL, None


def koszul_cochain_rule(n: int):
    """The matching on the active cochain summand, as a rule on the cells
    of n generators.

    With i the least index missing from the monomial: a cell whose
    multiset starts below i is a target, paired with the cell that drops
    that first element from both parts; otherwise, unless the monomial is
    full, the cell is a source, whose partner extends both parts by i.
    Critical: the full monomial with the empty multiset, an active cell
    for odd n."""
    full = (1 << n) - 1

    def rule(cell: CochainCell) -> tuple[str, Optional[CochainCell]]:
        tau, sigma = cell.tau, cell.sigma
        missing = ~sigma & (sigma + 1)
        if tau and tau[0] < missing.bit_length():
            return ROLE_TARGET, CochainCell(tau[1:], sigma ^ (1 << (tau[0] - 1)))
        if sigma != full:
            return ROLE_SOURCE, CochainCell((missing.bit_length(),) + tau, sigma | missing)
        return ROLE_CRITICAL, None

    return rule


# ---------------------------------------------------------------------------
# closed forms


@dataclass(frozen=True)
class ClosedForm:
    """Closed-form answer for one (n, k, ring) cell, with advisory flags."""

    n: int
    k: int
    ring: str
    group: HomologyGroup
    flags: tuple[str, ...] = ()


def _check_args(n: int, k: int, ring: Domain):
    if not (isinstance(ring, IntegerRing) or ring.is_field):
        raise UnsupportedRing(f"closed forms need Z or a field, got {ring.name}")
    if n < 1 or k < 0:
        raise ValueError(f"closed forms need n >= 1 and k >= 0, got n={n}, k={k}")


def _twos(t: int) -> tuple[tuple[int, int], ...]:
    """t torsion summands Z_2, as one run; a negative count means a broken
    formula."""
    if t < 0:
        raise ArithmeticError(f"closed form gives {t} torsion summands")
    return ((2, t),) if t else ()


def _alternating_sums(n: int) -> Iterator[tuple[int, int]]:
    """(mc(n, k), the sum over i <= k of (-1)^(k-i) mc(n, i)) for k = 0,
    1, 2, ...: each sum is mc(n, k) less the one before, so the first K
    degrees cost K multiset coefficients."""
    total = 0
    for k in count():
        mc = multiset_coefficient(n, k)
        total = mc - total
        yield mc, total


def closed_forms(n: int, ring: Domain, cohomology: bool = False) -> Iterator[ClosedForm]:
    """The closed forms of ``closed_form_homology`` (or, with cohomology,
    ``closed_form_cohomology``) in degrees 0, 1, 2, ... in turn; both read
    the one alternating sum of their degree from ``_alternating_sums``."""
    _check_args(n, 0, ring)
    odd = n % 2 == 1
    half = 2 ** (n - 1)
    integral = isinstance(ring, IntegerRing)
    previous = 0  # the alternating sum of degree k - 1
    for k, (mc, total) in enumerate(_alternating_sums(n)):
        flags: tuple[str, ...] = ()
        if ring.char == 2:
            free, t = 2 * half * mc, 0
        elif not cohomology:
            free = half * mc + (1 if k == 0 else 0)
            t = (-1) ** (k + 1) + half * total
        else:
            free = half * mc + (1 if (k == 0 and odd) else 0)
            if k:
                t = half * previous + ((-1) ** k if odd else 0)
            else:
                t = 0
                if odd and integral:
                    flags = ("degree0-torsion-term-overridden-to-zero",)
        yield ClosedForm(n, k, ring.name, HomologyGroup(free, _twos(t) if integral else ()), flags)
        previous = total


def closed_form_homology(n: int, k: int, ring: Domain) -> ClosedForm:
    """Closed-form Hochschild homology: over the integers a free part of
    rank 2^(n-1) mc(n,k) (plus one in degree zero) and elementary
    divisors all equal to 2, counted by an alternating sum of multiset
    coefficients; over a field the matching dimension count."""
    _check_args(n, k, ring)
    return next(islice(closed_forms(n, ring), k, None))


def closed_form_cohomology(n: int, k: int, ring: Domain) -> ClosedForm:
    """Closed-form Hochschild cohomology.  The degree-zero torsion term of
    the integer formula is overridden to zero (the group is a subgroup of
    a free module); the override is flagged when it bites."""
    _check_args(n, k, ring)
    return next(islice(closed_forms(n, ring, cohomology=True), k, None))


# ---------------------------------------------------------------------------
# transfer maps


def htpy_h(tau: tuple[int, ...]) -> dict[Word, int]:
    """Image of a multiset generator in the bar resolution: the sum of
    all distinct permuted variable tensors, coefficient one each."""
    return {generator_to_tensor(perm): 1 for perm in multiset_permutations(tau)}


def pushforward_cochain(
    dual_coeffs: Mapping[BarCochainCell, object], domain: Domain
) -> dict[CochainCell, object]:
    """Push a bar cochain (in the dual basis) to a reduced cochain.

    The dual of any permuted variable tensor collapses onto the sorted
    multiset cell with coefficient one; duals of tensors with a factor of
    size at least two map to zero.  Equals precomposition with the
    homotopy equivalence on generators.
    """
    out: dict[CochainCell, object] = {}
    for cell, coeff in dual_coeffs.items():
        tau = _variable_multiset(cell.factors)
        if tau is None:
            continue
        key = CochainCell(tau, cell.sigma)
        acc = domain.add(out.get(key, domain.zero), coeff)
        if domain.is_zero(acc):
            out.pop(key, None)
        else:
            out[key] = acc
    return out
