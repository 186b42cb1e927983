"""Based (co)chain complexes with labeled bases and sparse differentials.

A ``BasedComplex`` stores, per degree, an ordered basis of hashable
labels and a sparse differential matrix.  The ``direction`` flag selects
chain (degree-lowering) or cochain (degree-raising) orientation; one
homology driver serves both.  Homology is taken of an integer complex,
read in Z, Q or F_p: the coefficient ring is an argument of ``homology``,
not a property of the complex, so one complex serves every ring.
``homology_sums`` reads a direct sum given as a stream of (count, block)
pairs, each block standing for count isomorphic summands, through the
same driver, one block at a time: the reduced and the bar complexes come
that way, one block per S_n-orbit of multidegrees.  Complexes are
truncated at a maximal degree, and homology at the truncation edge raises
``OutOfRange`` rather than silently computing with a missing
differential.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass
from types import MappingProxyType
from typing import Hashable, Iterable, Mapping, Optional, Sequence

from .linalg import HomologyGroup, SparseMatrix, compose, divisor_runs, homology_pair
from .rings import ZZ, Domain, IntegerRing, UnsupportedRing

Label = Hashable

CHAIN = -1
COCHAIN = +1


class OutOfRange(Exception):
    """Homology requested at a degree whose differentials are not built."""


class BasedComplex:
    """Graded ordered bases plus sparse differentials over one domain.

    ``diffs[k]`` is the matrix of the differential leaving degree k; its
    columns are indexed by ``bases[k]`` and its rows by
    ``bases[k + direction]``.  The complex is immutable: ``bases`` and
    ``diffs`` are read-only views.  The label index of a degree is cached
    in ``_index`` on first use, and ``_composed`` holds the degrees whose
    composite of differentials ``homology`` has found zero; threads that
    race to fill either write equal values, so the caches are thread-safe.
    """

    __slots__ = ("domain", "direction", "bases", "diffs", "_index", "_composed", "__weakref__")

    def __init__(
        self,
        domain: Domain,
        direction: int,
        bases: Mapping[int, Sequence[Label]],
        diffs: Mapping[int, SparseMatrix],
    ):
        if direction not in (CHAIN, COCHAIN):
            raise ValueError("direction must be -1 (chain) or +1 (cochain)")
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "direction", direction)
        object.__setattr__(self, "bases", MappingProxyType({k: tuple(v) for k, v in bases.items()}))
        object.__setattr__(self, "diffs", MappingProxyType(dict(diffs)))
        object.__setattr__(self, "_index", {})
        object.__setattr__(self, "_composed", set())
        for k, mat in self.diffs.items():
            src = len(self.bases.get(k, ()))
            dst = len(self.bases.get(k + direction, ()))
            if (mat.rows, mat.cols) != (dst, src):
                raise ValueError(
                    f"differential at degree {k} is {mat.rows}x{mat.cols}, "
                    f"expected {dst}x{src}"
                )
            if mat.domain != domain:
                raise ValueError("differential domain mismatch")

    def __setattr__(self, *args):
        raise AttributeError("BasedComplex is immutable")

    @property
    def degrees(self) -> list[int]:
        return sorted(self.bases)

    @property
    def max_degree(self) -> int:
        return max(self.bases) if self.bases else -1

    def basis(self, k: int) -> tuple[Label, ...]:
        return self.bases.get(k, ())

    def dim(self, k: int) -> int:
        return len(self.bases.get(k, ()))

    def diff(self, k: int) -> SparseMatrix:
        """The differential leaving degree k (zero matrix if absent)."""
        if k in self.diffs:
            return self.diffs[k]
        return SparseMatrix.zero(self.dim(k + self.direction), self.dim(k), self.domain)

    def index(self, k: int) -> dict[Label, int]:
        if k not in self._index:
            self._index[k] = {lab: i for i, lab in enumerate(self.bases.get(k, ()))}
        return self._index[k]

    def label_degree(self, label: Label) -> Optional[int]:
        for k in self.bases:
            if label in self.index(k):
                return k
        return None

    def map_domain(self, domain: Domain) -> "BasedComplex":
        """The same complex with entries coerced into another domain."""
        return BasedComplex(
            domain,
            self.direction,
            self.bases,
            {k: m.map_domain(domain) for k, m in self.diffs.items()},
        )

    def __repr__(self):
        dims = ", ".join(f"{k}:{self.dim(k)}" for k in self.degrees)
        kind = "chain" if self.direction == CHAIN else "cochain"
        return f"BasedComplex({kind}, {self.domain.name}, dims {{{dims}}})"


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    failures: tuple[tuple[int, int], ...] = ()  # (degree, nonzero entries in composite)

    def __str__(self):
        if self.ok:
            return "complex valid: all composites vanish"
        parts = ", ".join(f"degree {k} ({n} nonzero)" for k, n in self.failures)
        return f"complex INVALID: composite differential nonzero at {parts}"


def validate_complex(c: BasedComplex) -> ValidationReport:
    """Check that consecutive differentials compose to zero."""
    failures = []
    for k in sorted(c.diffs):
        k2 = k + c.direction
        if k2 in c.diffs:
            comp = compose(c.diffs[k2], c.diffs[k])
            if not comp.is_zero():
                failures.append((k, comp.nnz()))
    return ValidationReport(not failures, tuple(failures))


def homology(c: BasedComplex, degree: int, ring: Domain = ZZ) -> HomologyGroup:
    """Homology of an integer complex at one degree, read in Z, Q or F_p.

    For chains this is Ker d_k / Im d_{k+1}; for cochains
    Ker d^k / Im d^{k-1}.  Complexes are truncations, so the degree above
    must have been built: homology at the truncation edge raises
    OutOfRange ("needs one more degree").  A complex that genuinely ends
    can say so with an explicit empty basis above its top degree.
    Degrees below zero are genuinely zero.  A complex over any domain
    but Z raises UnsupportedRing.  The composite of the two differentials
    is checked once per complex and degree, on the first call there
    (CompositionNonzero); over Z it holds in every ring.
    """
    k = degree
    if k not in c.bases:
        raise OutOfRange(f"no basis at degree {k}")
    if k + 1 not in c.bases:
        raise OutOfRange(
            f"homology at degree {k} needs degree {k + 1}; build one more degree"
        )
    inc = c.diff(k + 1) if c.direction == CHAIN else c.diff(k - 1)
    group = homology_pair(c.diff(k), inc, ring, composed=k in c._composed)
    c._composed.add(k)
    return group


def homology_sums(
    blocks: Iterable[tuple[int, BasedComplex]],
    keys: Iterable[tuple[Domain, int]],
    seconds: Optional[dict] = None,
) -> dict[tuple[Domain, int], HomologyGroup]:
    """Homology of a direct sum of integer complexes at every (ring,
    degree) of keys, each (count, block) pair standing for count
    isomorphic summands.

    The blocks may come as a stream: each is read at every key and
    dropped before the next is drawn, so one block is alive at a time.
    A stream is read once, and every orbit stream has a block, so an
    iterator that yields none (one read before) raises ValueError.
    Each goes through ``homology``, with its range check, its d.d check
    once per degree whatever the rings, and its per-characteristic
    cache.  Its free rank counts count times, its torsion runs add count
    times their multiplicity to a {divisor: multiplicity} map, and each
    key's map is normalized once into runs (``divisor_runs``) after the
    last block.  A dict ``seconds`` gets the time
    spent drawing the blocks (their build) under None and the time of
    each key's homology under the key, summed over the blocks.
    """
    keys = list(dict.fromkeys(keys))
    free = [0] * len(keys)
    torsion = [Counter() for _ in keys]
    spent = [0.0] * len(keys)
    build = 0.0
    clock = time.perf_counter
    stream, drawn = iter(blocks) is blocks, False
    t = clock()
    for count, block in blocks:
        drawn = True
        now = clock()
        build, t = build + now - t, now
        for i, (ring, k) in enumerate(keys):
            group = homology(block, k, ring)
            free[i] += count * group.free_rank
            for d, m in group.runs:
                torsion[i][d] += count * m
            now = clock()
            spent[i], t = spent[i] + now - t, now
        # the stream builds the next block while this name still holds one
        del block
    if stream and not drawn:
        raise ValueError("the block stream yielded no block: it was read before")
    if seconds is not None:
        seconds[None] = build + clock() - t
        seconds.update(zip(keys, spent))
    groups = {}
    for key, f, counts in zip(keys, free, torsion):
        # renormalizing coprime divisors can leave a run of trivial ones,
        # which leads the chain
        runs = divisor_runs(counts)
        groups[key] = HomologyGroup(f, runs[1:] if runs and runs[0][0] == 1 else runs)
    return groups


def homology_sum(
    blocks: Iterable[tuple[int, BasedComplex]], degree: int, ring: Domain = ZZ
) -> HomologyGroup:
    """``homology_sums`` at one degree and ring."""
    return homology_sums(blocks, [(ring, degree)])[ring, degree]


def halve_differentials(c: BasedComplex) -> BasedComplex:
    """Divide every differential entry by two (entries must all be even).

    Used for the integer form of the doubled-weight subcomplexes, where
    the halved differential admits a unit-weight matching.
    """
    if not isinstance(c.domain, IntegerRing):
        raise UnsupportedRing("halving is an integer-complex operation")
    halved = {}
    for k, m in c.diffs.items():
        entries = {}
        for key, v in m.entries.items():
            if v % 2:
                raise ValueError(f"odd entry {v} at {key} in degree {k}")
            entries[key] = v // 2
        halved[k] = SparseMatrix(m.rows, m.cols, entries, c.domain)
    return BasedComplex(c.domain, c.direction, c.bases, halved)


def label_to_json(label: Label):
    to_json = getattr(label, "to_json", None)
    if to_json is not None:
        return to_json()
    return str(label)


def complex_to_json(c: BasedComplex) -> dict:
    """Structured dump: bases plus differential entries per degree."""
    out = {
        "direction": "chain" if c.direction == CHAIN else "cochain",
        "ring": c.domain.name,
        "degrees": {},
    }
    for k in c.degrees:
        mat = c.diffs.get(k)
        entries = []
        if mat is not None:
            for (r, cc), v in sorted(mat.entries.items()):
                entries.append([r, cc, c.domain.to_json(v)])
        out["degrees"][str(k)] = {
            "basis": [label_to_json(lab) for lab in c.basis(k)],
            "differential": entries,
        }
    return out


def render_complex_text(c: BasedComplex) -> str:
    """Line-oriented human-readable dump of bases and differentials."""
    lines = []
    arrow = "d" if c.direction == CHAIN else "δ"
    for k in c.degrees:
        lines.append(f"degree {k}: {c.dim(k)} generators")
        for lab in c.basis(k):
            lines.append(f"  {lab}")
        mat = c.diffs.get(k)
        if mat is None or not mat.entries:
            if k in c.diffs:
                lines.append(f"  {arrow}[{k}] = 0")
            continue
        cols = mat.by_cols()
        target = c.basis(k + c.direction)
        for j, lab in enumerate(c.basis(k)):
            col = cols.get(j)
            if not col:
                continue
            terms = " + ".join(f"({col[r]})*{target[r]}" for r in sorted(col))
            lines.append(f"  {arrow}[{k}] {lab} = {terms}")
    return "\n".join(lines)
