"""Exact sparse linear algebra over Z and fields.

Smith normal form drives every integer homology computation; column
reduction over a field drives ranks, kernels and membership solves.  The
matrices coming out of bar complexes are sparse with mostly unit entries.
The integer elimination works on dict-of-dict copies and keeps its rows in
buckets by entry count, so each pivot comes from one sparsest row: its
entry of least absolute value, the one with the fewest column entries
among equals.  Euclid steps on the pivot's column and row turn a non-unit
pivot into the gcd it stands for.

Vectors are sparse dicts: kernel vectors and witnesses map columns to
coefficients, targets map rows to coefficients.  Each matrix is reduced
over its field at most once for kernels and membership solves (the pivots
and kernel are cached on it); ``field_rank`` is a separate rank-only
reduction for homology blocks.  The field eliminations run on plain
values: F_p entries are ints in [0, p), and Q entries are ``int |
Fraction`` with every integral value an int (see :mod:`exthh.rings`).
Their inner loop, ``_sub_multiple``, does plain ``-`` and ``*`` and
passes each new entry once through the domain's ``normal`` (reduce mod
p, or turn an integral Fraction into its int), so the mostly small
integer entries over Q never become Fraction objects and every vector
returned over Q keeps the invariant.  Nothing passes through a float.

``homology_pair`` computes Ker(alpha)/Im(beta) for a composable pair of
integer matrices with alpha . beta = 0, read in Z, Q or F_p: the ring
enters only here, where the matrices are eliminated.  Each matrix is
eliminated whole: by Smith normal form for Z and Q (Q reads only the
rank), by ``field_rank`` on the entries read mod p for F_p.  Rank and
divisor runs are cached on the matrix per characteristic, so a
differential reached as alpha and then as beta, or over Z and then over
Q, is eliminated once.  Its alpha . beta = 0 check
(``check_composite_zero``) reads beta one column at a time and builds no
product matrix; ``compose`` forms composites for the callers that keep
them.  A ``HomologyGroup`` keeps its torsion as
(divisor, multiplicity) runs, so no group grows with its number of
summands.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain, groupby, repeat
from math import gcd
from types import MappingProxyType
from typing import Iterable, Mapping, Optional, Sequence

from .rings import Domain, IntegerRing, UnsupportedRing, ZZ


class CompositionNonzero(Exception):
    """Raised when a supposedly composable pair has alpha . beta != 0;
    ``column`` is the first column of beta whose image is not zero."""

    def __init__(self, column: int):
        super().__init__(f"alpha . beta != 0 (column {column} of beta)")
        self.column = column


class SparseMatrix:
    """An immutable sparse matrix over a coefficient domain.

    Every entry passes through the domain's ``coerce`` on construction,
    so a float or a value the domain cannot hold is refused there, and
    ``entries`` is a read-only view of the nonzero entries as elements of
    the domain.  The rank and divisor runs are cached in ``_invariants``,
    one entry per characteristic, on first use, the field column
    reduction behind kernels and membership solves in ``_reduction``;
    threads that race to fill either write the same value, so the caches
    are thread-safe.
    """

    __slots__ = ("rows", "cols", "entries", "domain", "_invariants", "_reduction")

    def __init__(self, rows: int, cols: int, entries: Mapping[tuple[int, int], object], domain: Domain):
        clean = {}
        coerce, is_zero = domain.coerce, domain.is_zero
        for (r, c), v in entries.items():
            if not (0 <= r < rows and 0 <= c < cols):
                raise ValueError(f"entry ({r},{c}) out of range {rows}x{cols}")
            v = coerce(v)
            if not is_zero(v):
                clean[(r, c)] = v
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", MappingProxyType(clean))
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "_invariants", {})
        object.__setattr__(self, "_reduction", None)

    def __setattr__(self, *args):
        raise AttributeError("SparseMatrix is immutable")

    @classmethod
    def from_dense(cls, data: Sequence[Sequence], domain: Domain = ZZ) -> "SparseMatrix":
        rows = len(data)
        cols = len(data[0]) if rows else 0
        entries = {}
        for r, row in enumerate(data):
            if len(row) != cols:
                raise ValueError("ragged rows")
            for c, v in enumerate(row):
                entries[(r, c)] = v
        return cls(rows, cols, entries, domain)

    @classmethod
    def zero(cls, rows: int, cols: int, domain: Domain = ZZ) -> "SparseMatrix":
        return cls(rows, cols, {}, domain)

    def entry(self, r: int, c: int):
        return self.entries.get((r, c), self.domain.zero)

    def is_zero(self) -> bool:
        return not self.entries

    def nnz(self) -> int:
        return len(self.entries)

    def transpose(self) -> "SparseMatrix":
        return SparseMatrix(
            self.cols, self.rows, {(c, r): v for (r, c), v in self.entries.items()}, self.domain
        )

    def by_cols(self) -> dict[int, dict[int, object]]:
        out: dict[int, dict[int, object]] = {}
        for (r, c), v in self.entries.items():
            out.setdefault(c, {})[r] = v
        return out

    def to_dense(self) -> list[list]:
        out = [[self.domain.zero] * self.cols for _ in range(self.rows)]
        for (r, c), v in self.entries.items():
            out[r][c] = v
        return out

    def map_domain(self, domain: Domain) -> "SparseMatrix":
        """Reinterpret the entries in another domain (e.g. reduce mod p)."""
        return SparseMatrix(self.rows, self.cols, self.entries, domain)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SparseMatrix)
            and (self.rows, self.cols) == (other.rows, other.cols)
            and self.domain == other.domain
            and self.entries == other.entries
        )

    def __repr__(self):
        return f"SparseMatrix({self.rows}x{self.cols}, nnz={self.nnz()}, {self.domain.name})"


def compose(second: SparseMatrix, first: SparseMatrix) -> SparseMatrix:
    """Matrix of the composite map (apply ``first``, then ``second``).

    Entries are treated as right-multiplication coefficients of maps
    between free left modules, so the product of a path of weights keeps
    the earlier factor on the left.  For commutative domains this is the
    ordinary product second * first.
    """
    if first.rows != second.cols:
        raise ValueError(f"shape mismatch: {second.cols} vs {first.rows}")
    dom = second.domain
    first_cols = first.by_cols()
    second_cols = second.by_cols()
    out: dict[tuple[int, int], object] = {}
    for j, col in first_cols.items():
        for i, v1 in col.items():
            scol = second_cols.get(i)
            if not scol:
                continue
            for l, v2 in scol.items():
                key = (l, j)
                prod = dom.mul(v1, v2)
                if key in out:
                    out[key] = dom.add(out[key], prod)
                else:
                    out[key] = prod
    return SparseMatrix(second.rows, first.cols, out, dom)


def check_composite_zero(alpha: SparseMatrix, beta: SparseMatrix) -> None:
    """Raise CompositionNonzero unless alpha . beta = 0, for integer
    matrices of matching shape, without forming the product: the image
    under alpha of one column of beta at a time is accumulated in plain
    ints, in increasing column order, and the first that is not zero is
    named."""
    alpha_cols = alpha.by_cols()
    beta_cols = beta.by_cols()
    for j in sorted(beta_cols):
        image: dict[int, int] = {}
        for i, v in beta_cols[j].items():
            col = alpha_cols.get(i)
            if col:
                for r, u in col.items():
                    image[r] = image.get(r, 0) + u * v
        if any(image.values()):
            raise CompositionNonzero(j)


@dataclass(frozen=True)
class HomologyGroup:
    """Free rank plus torsion as (divisor, multiplicity) runs: the
    divisors rise, each is > 1 and strictly divides the next, and every
    multiplicity is >= 1 (the normal form of ``divisor_runs``).  The
    group stays as small as its distinct divisors, whatever the number of
    summands; ``torsion`` lists them one by one."""

    free_rank: int
    runs: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        if self.free_rank < 0:
            raise ValueError("negative free rank")
        runs = tuple((d, m) for d, m in self.runs)
        prev = 1
        for d, m in runs:
            if d <= 1:
                raise ValueError(f"torsion divisor {d} must be > 1")
            if m < 1:
                raise ValueError(f"torsion divisor {d} has multiplicity {m} < 1")
            if d == prev or d % prev:
                raise ValueError(f"broken divisibility chain {runs}")
            prev = d
        object.__setattr__(self, "runs", runs)

    @property
    def torsion(self) -> tuple[int, ...]:
        """The elementary divisors, one per summand Z_d, in rising order."""
        return tuple(chain.from_iterable(repeat(d, m) for d, m in self.runs))

    def __str__(self) -> str:
        """Text form; a run of m summands Z_d renders as (Z_d)^m."""
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        for d, m in self.runs:
            parts.append(f"Z_{d}" if m == 1 else f"(Z_{d})^{m}")
        return " + ".join(parts) if parts else "0"

    def to_json(self) -> dict:
        return {"free": self.free_rank, "torsion": list(self.torsion)}


def _coprime_base(values: Iterable[int]) -> set[int]:
    """Pairwise coprime integers > 1 of which each of the given positive
    values is a product of powers, found with gcds only: a base element
    sharing a factor g with a new value is split into g and the cofactors,
    which are merged back in turn."""
    base: set[int] = set()
    for x in values:
        todo = [x]
        while todo:
            a = todo.pop()
            if a == 1:
                continue
            for b in base:
                g = gcd(a, b)
                if g > 1:
                    base.remove(b)
                    todo += (a // g, g, b // g)
                    break
            else:
                base.add(a)
    return base


def divisor_runs(counts: dict[int, int]) -> list[tuple[int, int]]:
    """The divisibility chain d1 | d2 | ... equivalent to a multiset of
    nonzero diagonal entries, given as a {value: multiplicity} dict, as
    (divisor, multiplicity) runs in rising order.  Nothing is expanded:
    the work grows with the distinct values.

    Each prime keeps its multiset of exponents and hands them out in
    rising order, the largest to the last entry.  The primes are never
    found: over a coprime base of the distinct values, each base element
    splits every value into a power of itself and a cofactor, and its
    exponents, sorted, fill the last entries of the chain.  Where no base
    element changes its exponent, the chain keeps one divisor.
    """
    merged: Counter = Counter()
    for d, m in counts.items():
        merged[abs(d)] += m
    merged = +merged  # drop zero multiplicities
    if 0 in merged:
        raise ValueError("divisors must be nonzero")
    length = sum(merged.values())
    # per base element b, the positions where its exponent steps up
    steps: list[tuple[int, int, int]] = []
    for b in _coprime_base(merged):
        exponents: Counter = Counter()
        for x, m in merged.items():
            e = 0
            while x % b == 0:
                x //= b
                e += 1
            if e:
                exponents[e] += m
        start, previous = length - sum(exponents.values()), 0
        for e in sorted(exponents):
            steps.append((start, b, e - previous))
            start, previous = start + exponents[e], e
    steps.sort()
    runs, d, start = [], 1, 0
    for position, b, e in steps:
        if position > start:
            runs.append((d, position - start))
            start = position
        d *= b**e
    if length > start:
        runs.append((d, length - start))
    return runs


def normalize_divisor_chain(divisors: Sequence[int]) -> tuple[int, ...]:
    """Turn a multiset of nonzero diagonal entries into the equivalent
    divisibility chain d1 | d2 | ... of the same length (see
    ``divisor_runs``)."""
    # the common case, a Smith normal form's pivots, is a chain once
    # sorted: no counting
    ds = sorted(map(abs, divisors))
    if (not ds or ds[0]) and all(b % a == 0 for a, b in zip(ds, ds[1:])):
        return tuple(ds)
    return tuple(chain.from_iterable(repeat(d, m) for d, m in divisor_runs(Counter(ds))))


def _nearest_quot(a: int, v: int) -> int:
    """Quotient rounding a/v to nearest, so |a - q v| <= |v| / 2."""
    q, r = divmod(a, v)
    if 2 * abs(r) > abs(v):
        q += 1
    return q


class _IntElim:
    """Mutable sparse integer elimination behind ``smith_normal_form``.

    ``rows`` maps each live row to its {column: value} entries and ``cols``
    each live column to the set of its rows.  ``row_buckets[k]`` holds the
    rows with k entries; a row changes bucket only when one of its entries
    appears or vanishes, never when a value changes.  ``step`` eliminates
    one pivot: it takes one from a sparsest row (``_pick_pivot``), clears
    its column by row operations and its row by column operations, and
    records it.  The elementary divisors and the rank do not depend on the
    pivot order.
    """

    def __init__(self, m: SparseMatrix):
        rows: dict[int, dict[int, int]] = {}
        cols: dict[int, set[int]] = {}
        for (r, c), v in m.entries.items():
            if r in rows:
                rows[r][c] = v
            else:
                rows[r] = {c: v}
            if c in cols:
                cols[c].add(r)
            else:
                cols[c] = {r}
        row_buckets: list[set[int]] = [set() for _ in range(m.cols + 1)]
        for r, row in rows.items():
            row_buckets[len(row)].add(r)
        self.rows, self.cols, self.row_buckets = rows, cols, row_buckets
        self.pivots: list[tuple[int, int, int]] = []

    def _row_addmul(self, dst: int, src: int, factor: int):
        """row_dst += factor * row_src, for live rows dst != src"""
        if factor == 0:
            return
        cols = self.cols
        drow = self.rows[dst]
        count = len(drow)
        for c, v in self.rows[src].items():
            if c in drow:
                nv = drow[c] + factor * v
                if nv:
                    drow[c] = nv
                else:
                    del drow[c]
                    cols[c].discard(dst)  # never emptied here: it holds src
            else:
                drow[c] = factor * v
                cols[c].add(dst)
        if len(drow) != count:
            self.row_buckets[count].discard(dst)
            if drow:
                self.row_buckets[len(drow)].add(dst)
            else:
                del self.rows[dst]

    def _unlink(self, r: int, c: int):
        """Take row r out of column c, whose entry (r, c) has vanished."""
        col = self.cols[c]
        if len(col) > 1:
            col.discard(r)
        else:
            del self.cols[c]

    def _drop_row(self, r: int):
        """Delete row r and unlink it from its columns."""
        row = self.rows.pop(r)
        self.row_buckets[len(row)].discard(r)
        for c in row:
            self._unlink(r, c)

    def _pick_pivot(self) -> tuple[int, int]:
        """The entry of least (|v|, live entries in its column) in one row
        of the lowest non-empty row bucket."""
        cols = self.cols
        r = next(iter(next(bucket for bucket in self.row_buckets if bucket)))
        row = self.rows[r]
        return r, min(row, key=lambda c: (abs(row[c]), len(cols[c])))

    def step(self):
        """Eliminate one pivot of a nonzero matrix and record it."""
        rows, cols = self.rows, self.cols
        r, c = self._pick_pivot()
        while True:
            v = rows[r][c]
            # shrink column entries; a nonzero remainder becomes a better pivot
            moved = False
            for s in sorted(cols[c]):
                if s == r:
                    continue
                self._row_addmul(s, r, -_nearest_quot(rows[s][c], v))
                if c in rows.get(s, ()):
                    r = s
                    moved = True
                    break
            if moved:
                continue
            if abs(v) == 1:
                break  # the rest of row r would just be cleared
            # The column is clean, so a column operation changes row r
            # alone: shrink its entries the same way.
            row = rows[r]
            count = len(row)
            for t in sorted(row):
                if t == c:
                    continue
                a = row[t] - _nearest_quot(row[t], v) * v
                if a:
                    row[t] = a
                    c = t
                    moved = True
                    break
                del row[t]
                self._unlink(r, t)
            if len(row) != count:
                self.row_buckets[count].discard(r)
                self.row_buckets[len(row)].add(r)
            if not moved:
                break
        self.pivots.append((r, c, rows[r][c]))
        self._drop_row(r)

    def run(self):
        while self.rows:
            self.step()


def smith_normal_form(m: SparseMatrix) -> tuple[tuple[int, ...], int]:
    """Invariant factors and rank of an integer matrix.

    Returns (divisors, rank) with d1 | d2 | ... | dr, all positive.
    """
    if not isinstance(m.domain, IntegerRing):
        raise ValueError("smith_normal_form needs integer coefficients")
    elim = _IntElim(m)
    elim.run()
    divisors = normalize_divisor_chain([d for (_, _, d) in elim.pivots])
    return divisors, len(divisors)


def _addmul(u: dict[int, int], v: dict[int, int], t: int) -> dict[int, int]:
    """The sparse vector u + t v."""
    out = dict(u)
    for i, x in v.items():
        out[i] = out.get(i, 0) + t * x
    return {i: x for i, x in out.items() if x}


def integer_kernel_basis(m: SparseMatrix) -> list[dict[int, int]]:
    """A basis of the integer kernel, as {column: coeff} vectors.

    Left-to-right column reduction by unimodular steps (Euclid on the
    lowest entries).  Each working column carries its combination of the
    original columns, the column transform; the columns that reduce to
    zero span the kernel.
    """
    if not isinstance(m.domain, IntegerRing):
        raise ValueError("integer coefficients required")
    cols = m.by_cols()
    owner: dict[int, tuple[dict[int, int], dict[int, int]]] = {}  # pivot row -> (column, combo)
    out = []
    for j in range(m.cols):
        col, combo = dict(cols.get(j, {})), {j: 1}
        while col:
            r = max(col)
            if r not in owner:
                owner[r] = (col, combo)
                break
            pcol, pcombo = owner[r]
            q = _nearest_quot(col[r], pcol[r])
            col, combo = _addmul(col, pcol, -q), _addmul(combo, pcombo, -q)
            if r in col:  # a nonzero remainder is smaller: it takes over row r
                owner[r] = (col, combo)
                col, combo = pcol, pcombo
        else:
            out.append(combo)
    return out


def _sub_multiple(col: dict[int, object], pivot: dict[int, object], factor, normal) -> None:
    """col -= factor * pivot, in place, on plain values: each new entry
    passes through the domain's ``normal`` once, and those that vanish are
    dropped."""
    for r, v in pivot.items():
        nv = normal(col.get(r, 0) - factor * v)
        if nv:
            col[r] = nv
        else:
            col.pop(r, None)


def field_rank(m: SparseMatrix, field: Optional[Domain] = None) -> int:
    """Rank over the matrix's field, or of an integer matrix read in
    ``field``: the column reduction of ``_field_reduction``, keeping only
    the pivot columns, each scaled to 1 at its lowest row.  An integer
    matrix's entries are read through the field's ``normal`` (mod p) as
    they are gathered into columns, so no copy of it is made in the
    field."""
    # Rank only: tracking combinations here would slow every field homology block.
    dom = m.domain if field is None else field
    if not dom.is_field:
        raise ValueError("field coefficients required")
    normal, inv = dom.normal, dom.inv
    if dom == m.domain:
        cols = m.by_cols()
    elif isinstance(m.domain, IntegerRing):
        cols = {}
        for (r, c), x in m.entries.items():
            if v := normal(x):
                cols.setdefault(c, {})[r] = v
    else:
        raise UnsupportedRing(f"a matrix over {m.domain.name} is not read in {dom.name}")
    pivots: dict[int, dict[int, object]] = {}  # lowest row -> pivot column
    for _, col in sorted(cols.items()):
        while col:
            r = max(col)
            pivot = pivots.get(r)
            if pivot is None:
                scale = inv(col[r])
                pivots[r] = {rr: normal(scale * v) for rr, v in col.items()}
                break
            _sub_multiple(col, pivot, col[r], normal)
    return len(pivots)


def _field_reduction(m: SparseMatrix):
    """Left-to-right column reduction over the matrix's field.

    Returns (pivots, kernel): pivots maps the lowest row of each pivot
    column to the column as reduced and its combination of original
    columns; kernel holds the combinations of the columns that reduce to
    zero, a basis of the kernel.  The result is cached on m; callers read
    it as ``m._reduction or _field_reduction(m)`` and never mutate it.
    """
    dom = m.domain
    if not dom.is_field:
        raise ValueError("field coefficients required")
    normal, inv = dom.normal, dom.inv
    cols = m.by_cols()
    pivots: dict[int, tuple[dict[int, object], dict[int, object]]] = {}
    kernel: list[dict[int, object]] = []
    for j in range(m.cols):
        col, combo = cols.get(j, {}), {j: dom.one}
        while col:
            r = max(col)
            if r not in pivots:
                pivots[r] = (col, combo)
                break
            pcol, pcombo = pivots[r]
            factor = normal(col[r] * inv(pcol[r]))
            _sub_multiple(col, pcol, factor, normal)
            _sub_multiple(combo, pcombo, factor, normal)
        else:
            kernel.append(combo)
    reduction = (pivots, kernel)
    object.__setattr__(m, "_reduction", reduction)
    return reduction


def field_kernel_basis(m: SparseMatrix) -> list[dict[int, object]]:
    """Kernel basis over the matrix's own field, as {column: coeff} vectors."""
    _, kernel = m._reduction or _field_reduction(m)
    return [dict(vec) for vec in kernel]


def solve_in_image(m: SparseMatrix, v: Mapping[int, object]) -> Optional[dict[int, object]]:
    """A witness w with m * w = v over the matrix's field, else None.

    The target is a sparse {row: coeff} vector and the witness a sparse
    {column: coeff} vector; the target is reduced against the cached pivot
    columns of m.
    """
    dom = m.domain
    if not dom.is_field:
        raise ValueError("field coefficients required")
    col = {}
    for r, x in v.items():
        if not 0 <= r < m.rows:
            raise ValueError(f"row {r} out of range for {m.rows} rows")
        x = dom.coerce(x)
        if not dom.is_zero(x):
            col[r] = x
    pivots, _ = m._reduction or _field_reduction(m)
    normal, inv = dom.normal, dom.inv
    witness: dict[int, object] = {}
    while col:
        r = max(col)
        if r not in pivots:
            return None
        pcol, pcombo = pivots[r]
        factor = normal(col[r] * inv(pcol[r]))
        _sub_multiple(col, pcol, factor, normal)
        _sub_multiple(witness, pcombo, -factor, normal)
    return witness


def _invariants(m: SparseMatrix, ring: Domain = ZZ) -> tuple[int, tuple[tuple[int, int], ...]]:
    """Rank and the (divisor, multiplicity) runs of the elementary
    divisors > 1 of an integer matrix read in Z, Q or F_p.

    Z and Q share one Smith normal form (a rational rank is the integer
    one), whose diagonal is already a chain, so its runs are its groups
    of equal entries; F_p eliminates the entries read mod p with
    ``field_rank``, which reads them as it gathers the columns.  Computed
    once per characteristic and cached on the matrix.
    """
    p = ring.char
    cached = m._invariants.get(p)
    if cached is None:
        if p:
            cached = (field_rank(m, ring), ())
        else:
            divisors, rank = smith_normal_form(m)
            runs = tuple((d, len(list(g))) for d, g in groupby(divisors) if d > 1)
            cached = (rank, runs)
        m._invariants[p] = cached
    return cached


def homology_pair(
    alpha: SparseMatrix, beta: SparseMatrix, ring: Domain = ZZ, *, composed: bool = False
) -> HomologyGroup:
    """Ker(alpha)/Im(beta) for integer matrices with alpha . beta = 0,
    read in Z or a field.

    After the shape, domain and ring checks, the composite is checked
    over the integers, which implies it in every ring, by
    ``check_composite_zero``: one column of beta at a time, with no
    product matrix, raising CompositionNonzero at the first column whose
    image is not zero.  A pair that ``composed`` says passed the check
    before is not checked again (``complexes.homology`` checks each
    degree of a complex once, whatever the ring).  Free rank is m -
    rank(alpha) - rank(beta); over Z the torsion is the runs of the
    elementary divisors of beta exceeding 1, over a field it is empty.
    Ranks and runs come from each matrix's cache (``_invariants``).  Matrices over any other domain, or
    a ring other than Z or a field, raise UnsupportedRing.
    """
    if alpha.cols != beta.rows:
        raise ValueError(f"shape mismatch: alpha is ?x{alpha.cols}, beta is {beta.rows}x?")
    if not (isinstance(alpha.domain, IntegerRing) and isinstance(beta.domain, IntegerRing)):
        raise UnsupportedRing("homology_pair needs two integer matrices")
    integral = isinstance(ring, IntegerRing)
    if not (integral or ring.is_field):
        raise UnsupportedRing(f"homology over {ring.name} is not supported")
    if not composed:
        check_composite_zero(alpha, beta)
    rank_a, _ = _invariants(alpha, ring)
    rank_b, runs = _invariants(beta, ring)
    return HomologyGroup(alpha.cols - rank_a - rank_b, runs if integral else ())


def homology_pair_field(alpha: SparseMatrix, beta: SparseMatrix, ring: Domain) -> HomologyGroup:
    """``homology_pair`` restricted to field coefficients."""
    if not ring.is_field:
        raise UnsupportedRing("field coefficients required")
    return homology_pair(alpha, beta, ring)
