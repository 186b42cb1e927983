"""Complexes attached to an exterior algebra on n generators.

Two free bimodule resolutions of the algebra A: the normalized bar
resolution and the small multiset-indexed resolution that algebraic Morse
theory derives from it.  Each is stated once, by its generators and the
differential of one generator (``bar_down_terms``, ``reduced_down_terms``).
One base change turns either into its Hochschild chain complex
``A (x)_{A^e} P`` or cochain complex ``Hom_{A^e}(P, A)``: the bar ones are
the brute-force oracles, the multiset ones the reduced complexes.  Every
differential has integer entries, so each complex is built once over Z
and read in Q or F_p only when its homology is taken.  The reduced
complexes split over multidegrees, and permuting the generators permutes
the summands, so their homology is also computed from one small block per
S_n-orbit of multidegrees, weighted by the orbit size
(``reduced_orbit_blocks``).  The bar oracles are built whole and use no
symmetry, so their agreement with the reduced route checks that
reduction.  Also here: the Morse matchings relating the two pictures,
the parity splitting that isolates the nonzero part of the small
differentials, closed-form answers, and the transfer maps between the
bar and multiset pictures.

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

from collections import Counter
from dataclasses import dataclass
from itertools import combinations_with_replacement, product
from math import factorial
from typing import Iterable, Iterator, Mapping, Optional

from .algebra import (
    EnvAlgebra,
    EnvElement,
    env_act,
    env_left_var,
    env_monomial,
    env_right_var,
    ext_monomial,
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
    subset_mask,
    subset_mul_sign,
)
from .complexes import CHAIN, COCHAIN, BasedComplex, UnsupportedRing
from .linalg import HomologyGroup, SparseMatrix
from .morse import (
    Matching,
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
    """A requested degree would exceed the configured basis-size bound."""

    def __init__(self, degree: int, count: int, limit: int):
        super().__init__(
            f"degree {degree} needs {count} basis elements, over the limit {limit}"
        )
        self.degree = degree
        self.count = count
        self.limit = limit


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


def _check_size(degree: int, count: int, limit: int):
    if count > limit:
        raise SizeLimit(degree, count, limit)


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

    accumulate(fs[1:], env_monomial(n, fs[0], 0))
    accumulate(fs[:-1], env_monomial(n, 0, fs[-1], -1 if k % 2 else 1))
    for i in range(1, k):
        merged = subset_mul_sign(fs[i - 1], fs[i])
        if merged is None:
            continue
        sign, union = merged
        coeff = sign * (-1 if i % 2 else 1)
        accumulate(fs[: i - 1] + (union,) + fs[i + 1 :], env_monomial(n, 0, 0, coeff))
    return sorted(((t, w) for t, w in out.items() if not w.is_zero()), key=lambda p: p[0])


def reduced_down_terms(
    n: int, tau: tuple[int, ...]
) -> list[tuple[tuple[int, ...], EnvElement]]:
    """Differential components of one multiset generator: one copy of each
    support element i is removed with coefficient x_i (x) 1 + (-1)^k 1 (x) x_i,
    which lies in the augmentation ideal, so no further cancellation is
    possible.  Copies of i are adjacent in tau; the first one is dropped."""
    sign = 1 if len(tau) % 2 == 0 else -1
    return [
        (tau[:j] + tau[j + 1 :], env_left_var(n, i) + env_right_var(n, i).scale(sign))
        for j, i in enumerate(tau)
        if j == 0 or tau[j - 1] != i
    ]


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
        _check_size(k, factor * count(k), size_limit)


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
    differential's weights on them, the one sign convention of the base
    change and of the orbit blocks: ``act(weight)[s]`` lists the nonzero
    (position, coefficient) terms of the image of the monomial at position
    s, computed once per distinct weight.  A term (q, a (x) b) sends the
    chain cell sigma (x) p to b sigma a (x) q, so chains act by the weight
    with its tensor factors swapped; it sends the cochain cell of q valued
    sigma to a sigma b on p."""
    subsets = all_subsets(n)
    position = {s: i for i, s in enumerate(subsets)}
    monomials = [ext_monomial(n, s) for s in subsets]
    images: dict[EnvElement, list] = {}

    def act(weight: EnvElement) -> list[list[tuple[int, int]]]:
        table = images.get(weight)
        if table is None:
            u = weight
            if chain:
                u = EnvElement(n, {(b, a): c for (a, b), c in weight.terms.items()})
            table = images[weight] = [
                [(position[t], c) for t, c in env_act(u, x).terms.items()] for x in monomials
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


def _singleton_prefix(factors: Word) -> int:
    """Length of the maximal weakly increasing singleton prefix.  A
    singleton mask is a power of two, and singletons compare as their
    elements do."""
    r = 0
    prev = 0
    for s in factors:
        if s & (s - 1) or s < prev:
            break
        prev = s
        r += 1
    return r


def bar_classify(fs: Word) -> tuple[str, Optional[Word]]:
    """Role of a bar generator under the canonical matching.

    With r the maximal weakly increasing singleton prefix: the label is
    critical when r = k, the target of an edge when the next factor can
    absorb a split of its maximum, and the source when the last prefix
    entry exceeds the next factor's maximum and merges into it.
    """
    r = _singleton_prefix(fs)
    if r == len(fs):
        return ROLE_CRITICAL, None
    nxt = fs[r]
    top = 1 << (nxt.bit_length() - 1)
    if r == 0 or fs[r - 1] <= top:
        return ROLE_TARGET, fs[:r] + (top, nxt ^ top) + fs[r + 1 :]
    return ROLE_SOURCE, fs[: r - 1] + (nxt | fs[r - 1],) + fs[r + 1 :]


def bar_rules(n: int):
    """The canonical bar matching as (down_edges, classify), the pair
    through which :mod:`exthh.morse` certifies and walks a matching."""
    return (lambda word: bar_down_terms(n, word)), bar_classify


def bar_matching(n: int, max_degree: int, size_limit: int = DEFAULT_SIZE_LIMIT) -> Matching:
    """The canonical matching on the bar resolution: each edge splits the
    maximum out of the factor following the increasing singleton prefix."""
    edges = []
    for k in range(1, max_degree + 1):
        _check_size(k, bar_rank(n, k), size_limit)
        for lab in bar_labels_of_degree(n, k):
            role, partner = bar_classify(lab)
            if role == ROLE_SOURCE:
                edges.append((lab, partner))
    return Matching.of(edges)


def certify_bar_matching(
    n: int, max_degree: int, size_limit: int = DEFAULT_SIZE_LIMIT
) -> StreamingReport:
    """Streaming certification of the bar matching (no materialization).

    Verifies involutivity of the classification, the presence and
    invertibility of every matched edge inside the differential, and
    acyclicity of every two-degree window; returns critical labels.
    Every streamed degree is checked against the size limit first.
    """
    for k in range(1, max_degree + 1):
        _check_size(k, bar_rank(n, k), size_limit)
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
    if n < 1:
        raise ValueError("n must be >= 1")
    for k in range(max_degree + 1):
        _check_size(k, 2**n * bar_rank(n, k), size_limit)
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


def bar_cofaces(n: int, fs: Word) -> set[Word]:
    """The bar generators one degree up whose differential can reach the
    word ``fs``, the transpose of ``bar_down_terms``: a factor prepended, a
    factor appended, or one factor split into an ordered pair of disjoint
    nonempty parts."""
    out = set()
    for s in _nonempty_subsets(n):
        out.add((s,) + fs)
        out.add(fs + (s,))
    for i, f in enumerate(fs):
        part = (f - 1) & f
        while part:
            out.add(fs[:i] + (part, f ^ part) + fs[i + 1 :])
            part = (part - 1) & f
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


def _block(
    n: int, e: tuple[int, ...], max_degree: int, cohomology: bool, subsets, act
) -> BasedComplex:
    """The block at multidegree e, with the monomials and action of
    ``_action``.  A block cell is fixed by its multiset: generator i adds
    bit b to sigma and e_i - b copies (chains) or b - e_i copies (cochains)
    to tau, for each b in {0, 1} that leaves a count >= 0."""
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
    position = {s: i for i, s in enumerate(subsets)}
    order = (lambda c: c[0]) if cohomology else (lambda c: (position[c[1]], c[0]))
    sigma_of: list[dict[tuple[int, ...], int]] = [{} for _ in range(max_degree + 1)]
    for tau, sigma in sorted(cells, key=order):
        sigma_of[len(tau)][tau] = sigma
    diffs = {}
    for k in range(1, max_degree + 1):
        upper, lower = sigma_of[k], sigma_of[k - 1]
        row = {q: i for i, q in enumerate(lower)}
        entries = {}
        for j, (p, sp) in enumerate(upper.items()):
            for q, w in reduced_down_terms(n, p):
                if cohomology:
                    if q in lower:
                        for _t, v in act(w)[position[lower[q]]]:
                            entries[j, row[q]] = v
                else:
                    for _t, v in act(w)[position[sp]]:
                        entries[row[q], j] = v
        if cohomology:
            diffs[k - 1] = SparseMatrix(len(upper), len(lower), entries, ZZ)
        else:
            diffs[k] = SparseMatrix(len(lower), len(upper), entries, ZZ)
    bases = {
        k: tuple(CochainCell(t, s) if cohomology else ChainCell(s, t) for t, s in level.items())
        for k, level in enumerate(sigma_of)
    }
    return BasedComplex(ZZ, COCHAIN if cohomology else CHAIN, bases, diffs)


def reduced_block(
    n: int, e: Iterable[int], max_degree: int, cohomology: bool = False
) -> BasedComplex:
    """The summand of the reduced chain complex (or cochain complex) at the
    multidegree e, up to the given degree, over the integers.

    Its cells are the pairs (sigma, tau) with 1_sigma + tau = e for chains
    and 1_sigma - tau = e for cochains, labeled and ordered as in the
    whole complex, whose entries on them it carries.  Every degree up to
    the bound has a basis, possibly empty; a multidegree that no cell has
    gives the zero complex.
    """
    e = tuple(e)
    if n < 1 or len(e) != n:
        raise ValueError(f"a multidegree has n >= 1 entries, got n={n} and e={e}")
    return _block(n, e, max_degree, cohomology, *_action(n, not cohomology))


def reduced_orbit_blocks(
    n: int, max_degree: int, cohomology: bool = False, size_limit: int = DEFAULT_SIZE_LIMIT
) -> list[tuple[int, BasedComplex]]:
    """The reduced chain complex (or cochain complex) up to the given
    degree, as (orbit size, block) pairs: one block per S_n-orbit of
    multidegrees, at its weakly decreasing representative.  Summed with
    these weights (``complexes.homology_sum``) the blocks give the homology
    of the whole complex.

    The whole-degree size guard of ``build_reduced_chain`` runs first, so
    the same inputs are refused with the same SizeLimit.  After the build,
    the weighted cells of each degree k must number 2^n C(n+k-1, k), as in
    the whole complex, else IncompleteOrbits is raised.
    """
    _check_ranks(_reduced(n), max_degree, 2**n, size_limit)
    subsets, act = _action(n, not cohomology)
    blocks = [
        (_orbit_size(e), _block(n, e, max_degree, cohomology, subsets, act))
        for e in _orbit_representatives(n, max_degree, cohomology)
    ]
    for k in range(max_degree + 1):
        held = sum(orbit * block.dim(k) for orbit, block in blocks)
        cells = 2**n * multiset_coefficient(n, k)
        if held != cells:
            raise IncompleteOrbits(f"degree {k}: the orbit blocks hold {held} of {cells} cells")
    return blocks


def _parity_active(label, direction: int) -> bool:
    if not isinstance(label, (ChainCell, CochainCell)):
        raise MixedLabels(f"label {label!r} is not a (subset, multiset) cell")
    equal = (label.sigma.bit_count() - len(label.tau)) % 2 == 0
    return equal if direction == CHAIN else not equal


def split_parity(c: BasedComplex) -> tuple[BasedComplex, BasedComplex]:
    """Split a reduced (co)chain complex into the parity subcomplex that
    carries the differential and the complementary summand with zero
    differential.  Raises MixedLabels on foreign labels and refuses any
    cross entries between the two summands."""
    selector = {}
    for k in c.degrees:
        for lab in c.basis(k):
            selector[lab] = _parity_active(lab, c.direction)
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
        active_diffs[k] = SparseMatrix(len(active_bases[k + c.direction]), len(active_bases[k]), a_entries, c.domain)
        inert_diffs[k] = SparseMatrix(len(inert_bases[k + c.direction]), len(inert_bases[k]), {}, c.domain)
    active = BasedComplex(c.domain, c.direction, active_bases, active_diffs)
    inert = BasedComplex(c.domain, c.direction, inert_bases, inert_diffs)
    return active, inert


# ---------------------------------------------------------------------------
# the deterministic matchings on the active parity subcomplexes


def koszul_matching_chain(n: int, max_degree: int) -> Matching:
    """Matching on the active chain summand by the minimum rule: a cell
    whose smallest index among monomial and support lies in the support
    only, moves it into the monomial.  Critical: the empty cell."""
    edges = []
    for k in range(1, max_degree + 1):
        for tau in enumerate_multisets(n, k):
            support = subset_mask(tau)
            for sigma in all_subsets(n):
                if (sigma.bit_count() - k) % 2:
                    continue
                pool = sigma | support
                low = pool & -pool
                if low & support and not low & sigma:
                    j = tau.index(low.bit_length())
                    source = ChainCell(sigma, tau)
                    target = ChainCell(sigma | low, tau[:j] + tau[j + 1 :])
                    edges.append((source, target))
    return Matching.of(edges)


def koszul_matching_cochain(n: int, max_degree: int) -> Matching:
    """Matching on the active cochain summand: a cell whose monomial
    contains a full initial segment extends both parts by the first
    missing index, provided the support avoids that segment.  Critical:
    the full-monomial empty-multiset cell, present for odd n."""
    edges = []
    for k in range(max_degree):
        for tau in enumerate_multisets(n, k):
            for sigma in all_subsets(n):
                if (sigma.bit_count() - k) % 2 == 0:
                    continue
                if sigma.bit_count() == n:
                    continue
                missing = ~sigma & (sigma + 1)
                i = missing.bit_length()
                if tau and tau[0] < i:
                    continue
                source = CochainCell(tau, sigma)
                target = CochainCell((i,) + tau, sigma | missing)
                edges.append((source, target))
    return Matching.of(edges)


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

    def to_json(self):
        out = {"n": self.n, "k": self.k, "ring": self.ring}
        out.update(self.group.to_json())
        if self.flags:
            out["flags"] = list(self.flags)
        return out


def _check_args(n: int, k: int, ring: Domain):
    if not (isinstance(ring, IntegerRing) or ring.is_field):
        raise UnsupportedRing(f"closed forms need Z or a field, got {ring.name}")
    if n < 1 or k < 0:
        raise ValueError(f"closed forms need n >= 1 and k >= 0, got n={n}, k={k}")


def _twos(t: int) -> tuple[int, ...]:
    """t torsion summands Z_2; a negative count means a broken formula."""
    if t < 0:
        raise ArithmeticError(f"closed form gives {t} torsion summands")
    return (2,) * t


def closed_form_homology(n: int, k: int, ring: Domain) -> ClosedForm:
    """Closed-form Hochschild homology: over the integers a free part of
    rank 2^(n-1) mc(n,k) (plus one in degree zero) and elementary
    divisors all equal to 2, counted by an alternating sum of multiset
    coefficients; over a field the matching dimension count."""
    _check_args(n, k, ring)
    mc = multiset_coefficient
    if isinstance(ring, IntegerRing):
        free = 2 ** (n - 1) * mc(n, k) + (1 if k == 0 else 0)
        t = (-1) ** (k + 1) + 2 ** (n - 1) * sum(
            (-1) ** (k - i) * mc(n, i) for i in range(k + 1)
        )
        return ClosedForm(n, k, ring.name, HomologyGroup(free, _twos(t)))
    if ring.char == 2:
        dim = 2**n * mc(n, k)
    else:
        dim = 2 ** (n - 1) * mc(n, k) + (1 if k == 0 else 0)
    return ClosedForm(n, k, ring.name, HomologyGroup(dim))


def closed_form_cohomology(n: int, k: int, ring: Domain) -> ClosedForm:
    """Closed-form Hochschild cohomology.  The degree-zero torsion term of
    the integer formula is overridden to zero (the group is a subgroup of
    a free module); the override is flagged when it bites."""
    _check_args(n, k, ring)
    mc = multiset_coefficient
    odd = n % 2 == 1
    if isinstance(ring, IntegerRing):
        free = 2 ** (n - 1) * mc(n, k) + (1 if (k == 0 and odd) else 0)
        flags: tuple[str, ...] = ()
        if k == 0:
            t = 0
            if odd:
                flags = ("degree0-torsion-term-overridden-to-zero",)
        else:
            t = 2 ** (n - 1) * sum((-1) ** (k - 1 - i) * mc(n, i) for i in range(k)) + (
                (-1) ** k if odd else 0
            )
        return ClosedForm(n, k, ring.name, HomologyGroup(free, _twos(t)), flags)
    if ring.char == 2:
        dim = 2**n * mc(n, k)
    else:
        dim = 2 ** (n - 1) * mc(n, k) + (1 if (k == 0 and odd) else 0)
    return ClosedForm(n, k, ring.name, HomologyGroup(dim))


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
