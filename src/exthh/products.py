"""Cup products on Hochschild cochains, at bar and reduced level.

A cochain is a dict of its nonzero coefficients in a field: a bar
cochain is keyed by ``BarCochainCell`` (a bar word valued on a monomial,
the dual basis of the bar cochain complex), a reduced cochain by
``CochainCell``.  Both cup products are one bilinear loop over a signed
cell product: the words concatenate (bar) or the multisets merge
(reduced), and the monomials multiply with a crossing sign.  The two are
compared as ring structures: a cohomology basis of the reduced complex
is fixed, each class is lifted to a bar cocycle by composing it with the
Morse projection of the bar matching (the lift is formed and checked
over the integers, to be a cocycle that pushes forward to its class, and
only then read in the field), and both product tables are reduced
modulo coboundaries and checked class by class.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby
from operator import attrgetter
from typing import Callable, Mapping, Optional, TypeVar

from .algebra import EnvElement, ExtElement, env_act, ext_monomial
from .combinat import all_subsets, enumerate_multisets, subset_mask, subset_mul_sign
from .complexes import BasedComplex
from .hochschild import (
    DEFAULT_SIZE_LIMIT,
    BarCochainCell,
    CochainCell,
    Word,
    bar_cofaces,
    bar_down_terms,
    bar_projection,
    bar_word_str,
    build_reduced_cochain,
    closed_form_cohomology,
    pushforward_cochain,
)
from .linalg import SparseMatrix, field_kernel_basis, field_rank, solve_in_image
from .rings import Domain

Cell = TypeVar("Cell", BarCochainCell, CochainCell)


def _bar_cells(a: BarCochainCell, b: BarCochainCell) -> Optional[tuple[int, BarCochainCell]]:
    """Product of two bar cochain cells: the words concatenate and the
    monomials multiply with a crossing sign; None when they overlap."""
    merged = subset_mul_sign(a.sigma, b.sigma)
    if merged is None:
        return None
    sign, sigma = merged
    return sign, BarCochainCell(a.factors + b.factors, sigma)


def cup_cells(a: CochainCell, b: CochainCell) -> Optional[tuple[int, CochainCell]]:
    """Product of two reduced cochain cells: the multisets merge and the
    monomials multiply with a crossing sign; None when they overlap."""
    merged = subset_mul_sign(a.sigma, b.sigma)
    if merged is None:
        return None
    sign, sigma = merged
    return sign, CochainCell(tuple(sorted(a.tau + b.tau)), sigma)


def _cup(
    cells: Callable[[Cell, Cell], Optional[tuple[int, Cell]]],
    x: Mapping[Cell, object],
    y: Mapping[Cell, object],
    ring: Domain,
) -> dict[Cell, object]:
    """Bilinear extension of a signed cell product."""
    out: dict[Cell, object] = {}
    for a, ca in x.items():
        for b, cb in y.items():
            prod = cells(a, b)
            if prod is None:
                continue
            sign, cell = prod
            c = ring.mul(ca, cb)
            if sign < 0:
                c = ring.neg(c)
            acc = ring.add(out.get(cell, ring.zero), c)
            if ring.is_zero(acc):
                out.pop(cell, None)
            else:
                out[cell] = acc
    return out


def cup_bar(
    f: Mapping[BarCochainCell, object], g: Mapping[BarCochainCell, object], ring: Domain
) -> dict[BarCochainCell, object]:
    """Concatenate-and-multiply cup product of bar cochains."""
    return _cup(_bar_cells, f, g, ring)


def cup_reduced(
    x: Mapping[CochainCell, object], y: Mapping[CochainCell, object], ring: Domain
) -> dict[CochainCell, object]:
    """Bilinear extension of the cell product to reduced cochains."""
    return _cup(cup_cells, x, y, ring)


class _ClassSolver:
    """Expresses reduced cocycles in a fixed class basis, modulo
    coboundaries, by one linear solve against [basis | coboundary], with
    the integer coboundary of ``reduced`` read in the field."""

    def __init__(self, reduced: BasedComplex, ring: Domain, k: int, basis_cells: list[CochainCell]):
        self.ring = ring
        self.k = k
        self.index = reduced.index(k)
        self.basis_cells = list(basis_cells)
        cob = reduced.diff(k - 1)
        n_basis = len(self.basis_cells)
        entries = {(self.index[cell], j): ring.one for j, cell in enumerate(self.basis_cells)}
        for (r, c), v in cob.entries.items():
            entries[(r, n_basis + c)] = ring.coerce(v)
        self.stacked = SparseMatrix(reduced.dim(k), n_basis + cob.cols, entries, ring)

    def verify_independent(self) -> bool:
        """Classes of the basis cells are linearly independent modulo
        coboundaries iff every relation among the columns of [basis |
        coboundary] has zero basis part.  The kernel comes from the same
        cached reduction that ``coords`` solves against."""
        n_basis = len(self.basis_cells)
        return all(min(vec) >= n_basis for vec in field_kernel_basis(self.stacked))

    def coords(self, coeffs: Mapping[CochainCell, object]) -> dict[CochainCell, object]:
        """The class of a cocycle, as {basis cell: nonzero coefficient}."""
        sol = solve_in_image(self.stacked, {self.index[cell]: c for cell, c in coeffs.items()})
        if sol is None:
            raise ValueError(f"cochain not a cocycle class in degree {self.k}")
        n_basis = len(self.basis_cells)
        return {self.basis_cells[j]: c for j, c in sol.items() if j < n_basis}


def canonical_class_basis(n: int, k: int, ring: Domain) -> list[CochainCell]:
    """The monomial cohomology basis in degree k: all cells over
    characteristic two, else the equal-parity cells, plus the cell with
    full monomial and empty multiset in degree zero for odd n."""
    cells = []
    for tau in enumerate_multisets(n, k):
        for sigma in all_subsets(n):
            if ring.char == 2 or (sigma.bit_count() - k) % 2 == 0:
                cells.append(CochainCell(tau, sigma))
    if ring.char != 2 and n % 2 == 1 and k == 0:
        cells.append(CochainCell((), (1 << n) - 1))
    return cells


class StructureCheckFailed(Exception):
    """A check of the cup-product route failed: the class basis disagrees
    with the closed form or is dependent, or a bar lift is not a cocycle
    or does not push forward to its class."""


def class_solvers(
    n: int, ring: Domain, max_degree: int, size_limit: int = DEFAULT_SIZE_LIMIT
) -> dict[int, _ClassSolver]:
    """Build the reduced cochain complex once, over the integers, and fix
    the monomial class basis of every degree up to the bound, each with
    its solver in the field.  The basis is checked: its size against the
    closed form, its classes independent modulo coboundaries."""
    reduced = build_reduced_cochain(n, max_degree + 1, size_limit=size_limit)
    solvers: dict[int, _ClassSolver] = {}
    for k in range(max_degree + 1):
        cells = canonical_class_basis(n, k, ring)
        expected = closed_form_cohomology(n, k, ring).group.free_rank
        if len(cells) != expected:
            raise StructureCheckFailed(
                f"class basis size {len(cells)} != closed form {expected} at degree {k}"
            )
        solver = _ClassSolver(reduced, ring, k, cells)
        if not solver.verify_independent():
            raise StructureCheckFailed(f"basis classes dependent in degree {k}")
        solvers[k] = solver
    return solvers


def bar_lifts(
    n: int,
    ring: Domain,
    solvers: Mapping[int, _ClassSolver],
    projection: list[dict[tuple[int, ...], list[tuple[Word, EnvElement]]]],
) -> dict[CochainCell, dict[BarCochainCell, object]]:
    """A bar cocycle for every basis class, as {BarCochainCell: nonzero
    coefficient in the ring}: the class cell composed with the Morse
    projection, F(w) = gamma(w) . x_sigma where gamma(w) is the
    coefficient of the critical word of tau in the projection of w
    (``bar_projection``, to at least the top degree of the solvers).

    Each lift is verified before it is returned: its coboundary vanishes
    on every coface of its support (nowhere else can it be nonzero), and
    its pushforward is exactly its class.  A failure raises
    StructureCheckFailed.  Lifts are formed and checked over the integers
    and then read in the ring, which keeps the checks in int arithmetic.
    """
    monomials = {s: ext_monomial(n, s) for s in all_subsets(n)}
    lifts: dict[CochainCell, dict[BarCochainCell, object]] = {}
    for k, solver in solvers.items():
        for tau, group in groupby(solver.basis_cells, key=attrgetter("tau")):
            # the lifts of one multiset share their cofaces; the memo is
            # dropped after them, so memory stays bounded by one multiset
            memo: tuple[dict, dict] = ({}, {})
            for cell in group:
                integral = {}
                for word, weight in projection[k].get(tau, ()):
                    value = env_act(weight, monomials[cell.sigma])
                    if not value.is_zero():
                        integral[word] = value
                bad = _coboundary_witness(n, ring, integral, memo)
                if bad is not None:
                    raise StructureCheckFailed(
                        f"the bar lift of {cell} is not a cocycle at {bar_word_str(bad)}"
                    )
                lift = {}
                for word, x in integral.items():
                    for s, c in x.terms.items():
                        v = ring.coerce(c)
                        if not ring.is_zero(v):
                            lift[BarCochainCell(word, s)] = v
                try:
                    pushed = solver.coords(pushforward_cochain(lift, ring))
                except ValueError:
                    pushed = None
                if pushed != {cell: ring.one}:
                    raise StructureCheckFailed(f"the bar lift of {cell} pushes forward to {pushed}")
                lifts[cell] = lift
    return lifts


def _coboundary_witness(
    n: int, ring: Domain, values: Mapping[Word, ExtElement], memo: tuple[dict, dict]
) -> Optional[Word]:
    """A bar word where the coboundary of an integral cochain, read in the
    ring, is nonzero; None when it vanishes everywhere.

    (df)(u) sums the differential components (t, w) of u acting on f(t),
    so it can be nonzero only on a coface of the support of f, and only
    those are evaluated.  ``memo`` holds the cofaces of each word and the
    differential of each coface, for reuse by related cochains.
    """
    cofaces_of, down_terms = memo
    cofaces: set[Word] = set()
    for word in values:
        faces = cofaces_of.get(word)
        if faces is None:
            faces = cofaces_of[word] = bar_cofaces(n, word)
        cofaces |= faces
    for u in cofaces:
        terms = down_terms.get(u)
        if terms is None:
            terms = down_terms[u] = bar_down_terms(n, u)
        acc: dict[int, int] = {}
        for t, w in terms:
            x = values.get(t)
            if x is not None:
                for s, c in env_act(w, x).terms.items():
                    acc[s] = acc.get(s, 0) + c
        if any(not ring.is_zero(ring.coerce(c)) for c in acc.values()):
            return u
    return None


@dataclass(frozen=True)
class StructureTable:
    """Cup-product structure constants in the monomial class basis, with
    the bar-oracle comparison verdict.  ``solvers`` read cocycles in the
    class basis; they are kept for reuse and left out of comparisons."""

    n: int
    ring: str
    max_degree: int
    basis: dict[int, tuple[CochainCell, ...]]
    reduced_products: dict[tuple[CochainCell, CochainCell], dict[CochainCell, object]]
    oracle_products: dict[tuple[CochainCell, CochainCell], dict[CochainCell, object]]
    agree: bool
    mismatches: tuple[tuple[CochainCell, CochainCell], ...]
    solvers: dict[int, _ClassSolver] = field(compare=False, repr=False)


def ring_structure_constants(
    n: int, ring: Domain, max_total_degree: int, size_limit: int = DEFAULT_SIZE_LIMIT
) -> StructureTable:
    """Compute the cohomology ring structure two ways and compare.

    Route one multiplies the monomial basis classes with the reduced cell
    product.  Route two lifts each class to a bar cocycle through the
    Morse projection of the bar matching (``bar_lifts``, which verifies
    every lift), multiplies with the bar cup product, pushes forward, and
    reduces modulo coboundaries.  The verdict records whether the two
    tables agree class by class.  The projection comes first, so its size
    check refuses an oversized request before anything is built.
    """
    if not ring.is_field:
        raise ValueError("structure constants need field coefficients")
    D = max_total_degree
    projection = bar_projection(n, D, size_limit=size_limit)
    solvers = class_solvers(n, ring, D, size_limit)
    return _structure_table(n, ring, solvers, bar_lifts(n, ring, solvers, projection))


def _structure_table(
    n: int,
    ring: Domain,
    solvers: dict[int, _ClassSolver],
    bar_reps: Mapping[CochainCell, Mapping[BarCochainCell, object]],
) -> StructureTable:
    """Both product tables of the basis classes, the bar one through the
    given cocycle representatives, and their comparison."""
    basis = {k: tuple(solver.basis_cells) for k, solver in solvers.items()}
    D = max(basis)
    reduced_products = {}
    oracle_products = {}
    mismatches = []
    for ka in range(D + 1):
        for kb in range(D + 1 - ka):
            solver = solvers[ka + kb]
            for a in basis[ka]:
                for b in basis[kb]:
                    prod = cup_reduced({a: ring.one}, {b: ring.one}, ring)
                    reduced_products[(a, b)] = solver.coords(prod)
                    bar_prod = cup_bar(bar_reps[a], bar_reps[b], ring)
                    oracle_products[(a, b)] = solver.coords(pushforward_cochain(bar_prod, ring))
                    if reduced_products[(a, b)] != oracle_products[(a, b)]:
                        mismatches.append((a, b))
    return StructureTable(
        n=n,
        ring=ring.name,
        max_degree=D,
        basis=basis,
        reduced_products=reduced_products,
        oracle_products=oracle_products,
        agree=not mismatches,
        mismatches=tuple(mismatches),
        solvers=solvers,
    )


def default_generators(n: int, include_top: bool = True) -> list[CochainCell]:
    """The generator list for the cohomology ring away from
    characteristic two: squares and products of two distinct multiset
    entries with empty monomial, two-element monomials with empty
    multiset, the mixed degree-one cells, and the full monomial."""
    gens: list[CochainCell] = []
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            gens.append(CochainCell((i, j), 0))
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            gens.append(CochainCell((), subset_mask((i, j))))
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            gens.append(CochainCell((j,), subset_mask((i,))))
    if include_top:
        gens.append(CochainCell((), (1 << n) - 1))
    return gens


@dataclass(frozen=True)
class SpanCheck:
    """Per-degree rank of the generator-product span against the class
    basis dimension."""

    n: int
    ring: str
    max_degree: int
    include_top: bool
    per_degree: dict[int, tuple[int, int]]  # degree -> (span rank, basis size)

    @property
    def passes(self) -> bool:
        return all(rank == need for rank, need in self.per_degree.values())


def generator_span_check(
    n: int,
    ring: Domain,
    max_degree: int,
    include_top: bool = True,
    solvers: Optional[Mapping[int, _ClassSolver]] = None,
) -> SpanCheck:
    """Check that products of the listed generators span the cohomology
    classes in every degree up to the bound.

    All products of generator cells are again signed cells, so the
    closure is a finite cell set; its class coordinates are row-reduced
    against the monomial basis per degree.  ``solvers`` (from
    ``class_solvers``, to at least this degree) are reused when given.
    """
    if not ring.is_field or ring.char == 2:
        raise ValueError("span check needs a field of characteristic != 2")
    D = max_degree
    if solvers is None:
        solvers = class_solvers(n, ring, D)
    gens = default_generators(n, include_top)
    unit = CochainCell((), 0)
    reached: set[CochainCell] = {unit}
    frontier = [unit]
    while frontier:
        cell = frontier.pop()
        for g in gens:
            prod = cup_cells(cell, g)
            if prod is None:
                continue
            new = prod[1]
            if len(new.tau) <= D and new not in reached:
                reached.add(new)
                frontier.append(new)
    by_degree: dict[int, list[CochainCell]] = {}
    for cell in reached:
        by_degree.setdefault(len(cell.tau), []).append(cell)
    per_degree: dict[int, tuple[int, int]] = {}
    for k in range(D + 1):
        solver = solvers[k]
        cells = solver.basis_cells
        row = {cell: i for i, cell in enumerate(cells)}
        products = sorted(by_degree.get(k, []))
        entries = {
            (row[cell], j): c
            for j, prod in enumerate(products)
            for cell, c in solver.coords({prod: ring.one}).items()
        }
        span = SparseMatrix(len(cells), len(products), entries, ring)
        per_degree[k] = (field_rank(span), len(cells))
    return SpanCheck(n, ring.name, D, include_top, per_degree)
