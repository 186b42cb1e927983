"""Cup products on Hochschild cochains, at bar and reduced level.

The bar-level product concatenates arguments and multiplies values; the
reduced-level product is a dictionary merge with a crossing sign.  The
two are compared as ring structures: a cohomology basis of the reduced
complex is fixed, bar cocycle representatives are found through the
pushforward, and both product tables are reduced modulo coboundaries and
checked class by class.  The shuffle product on chains of a commutative
base is included for the characteristic-two picture.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Mapping, Optional

from .algebra import ExtElement, ext_mul, ext_zero
from .combinat import Multiset, all_subsets, enumerate_multisets, subset_mask, subset_mul_sign
from .complexes import BasedComplex
from .hochschild import (
    BarChainCell,
    BarCochainCell,
    CochainCell,
    TensorLabel,
    build_bar_hochschild_cochain,
    build_reduced_cochain,
    closed_form_cohomology,
    pushforward_cochain,
)
from .linalg import SparseMatrix, field_kernel_basis, field_rank, solve_in_image
from .rings import Domain


class NonCommutativeBase(Exception):
    """Shuffle product requested over a noncommutative base algebra."""


@dataclass
class BarCochain:
    """A Hochschild cochain on the normalized bar words: degree plus a
    finitely supported value assignment (values in the exterior algebra)."""

    n: int
    degree: int
    ring: Domain
    values: dict[TensorLabel, ExtElement] = field(default_factory=dict)

    def __post_init__(self):
        self.values = {v: x for v, x in self.values.items() if not x.is_zero()}

    def value(self, tensor: TensorLabel) -> ExtElement:
        return self.values.get(tensor, ext_zero(self.n, self.ring))

    def to_dual(self) -> dict[BarCochainCell, object]:
        """Coefficients in the dual basis of (word, monomial) cells."""
        out = {}
        for v, x in self.values.items():
            for s, c in x.terms.items():
                out[BarCochainCell(v.factors, s)] = c
        return out

    @classmethod
    def from_dual(
        cls, n: int, degree: int, ring: Domain, dual: Mapping[BarCochainCell, object]
    ) -> "BarCochain":
        values: dict[TensorLabel, ExtElement] = {}
        for cell, c in dual.items():
            if len(cell.factors) != degree:
                raise ValueError(f"cell {cell} has wrong degree")
            lab = TensorLabel(cell.factors)
            cur = values.get(lab, ext_zero(n, ring))
            values[lab] = cur + ExtElement(n, ring, {cell.sigma: c})
        return cls(n, degree, ring, values)

    def add(self, other: "BarCochain") -> "BarCochain":
        out = dict(self.values)
        for v, x in other.values.items():
            out[v] = out.get(v, ext_zero(self.n, self.ring)) + x
        return BarCochain(self.n, self.degree, self.ring, out)

    def scale(self, c) -> "BarCochain":
        return BarCochain(
            self.n, self.degree, self.ring, {v: x.scale(c) for v, x in self.values.items()}
        )


def cup_bar(f: BarCochain, g: BarCochain) -> BarCochain:
    """Concatenate-and-multiply cup product of bar cochains."""
    if f.n != g.n or f.ring != g.ring:
        raise ValueError("cochain mismatch")
    out: dict[TensorLabel, ExtElement] = {}
    for v1, x1 in f.values.items():
        for v2, x2 in g.values.items():
            prod = ext_mul(x1, x2)
            if not prod.is_zero():
                out[TensorLabel(v1.factors + v2.factors)] = prod
    return BarCochain(f.n, f.degree + g.degree, f.ring, out)


def cup_cells(a: CochainCell, b: CochainCell) -> Optional[tuple[int, CochainCell]]:
    """Product of two reduced cochain cells: the multisets merge and the
    monomials multiply with a crossing sign; None when they overlap."""
    merged = subset_mul_sign(a.sigma, b.sigma)
    if merged is None:
        return None
    sign, sigma = merged
    return sign, CochainCell(a.tau.union(b.tau), sigma)


def cup_reduced(
    x: Mapping[CochainCell, object], y: Mapping[CochainCell, object], ring: Domain
) -> dict[CochainCell, object]:
    """Bilinear extension of the cell product to reduced cochains."""
    out: dict[CochainCell, object] = {}
    for a, ca in x.items():
        for b, cb in y.items():
            prod = cup_cells(a, b)
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


class _ClassSolver:
    """Expresses reduced cocycles in a fixed class basis, modulo
    coboundaries, by one linear solve against [basis | coboundary]."""

    def __init__(self, reduced: BasedComplex, k: int, basis_cells: list[CochainCell]):
        self.ring = reduced.domain
        self.k = k
        self.index = reduced.index(k)
        self.basis_cells = list(basis_cells)
        cob = reduced.diff(k - 1)
        n_basis = len(self.basis_cells)
        entries = {(self.index[cell], j): self.ring.one for j, cell in enumerate(self.basis_cells)}
        for (r, c), v in cob.entries.items():
            entries[(r, n_basis + c)] = v
        self.stacked = SparseMatrix(reduced.dim(k), n_basis + cob.cols, entries, self.ring)

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
        cells.append(CochainCell(Multiset(), (1 << n) - 1))
    return cells


@dataclass(frozen=True)
class StructureTable:
    """Cup-product structure constants in the monomial class basis, with
    the bar-oracle comparison verdict."""

    n: int
    ring: str
    max_degree: int
    basis: dict[int, tuple[CochainCell, ...]]
    reduced_products: dict[tuple[CochainCell, CochainCell], dict[CochainCell, object]]
    oracle_products: dict[tuple[CochainCell, CochainCell], dict[CochainCell, object]]
    agree: bool
    mismatches: tuple[tuple[CochainCell, CochainCell], ...]


def ring_structure_constants(
    n: int, ring: Domain, max_total_degree: int, size_limit: Optional[int] = None
) -> StructureTable:
    """Compute the cohomology ring structure two ways and compare.

    Route one multiplies the monomial basis classes with the reduced cell
    product.  Route two lifts each class to a bar cocycle (solving
    through the pushforward), multiplies with the bar cup product, pushes
    forward, and reduces modulo coboundaries.  The verdict records
    whether the two tables agree class by class.
    """
    if not ring.is_field:
        raise ValueError("structure constants need field coefficients")
    D = max_total_degree
    kwargs = {} if size_limit is None else {"size_limit": size_limit}
    reduced = build_reduced_cochain(n, D + 1, ring, **kwargs)
    bar = build_bar_hochschild_cochain(n, D + 1, ring, **kwargs)

    basis: dict[int, tuple[CochainCell, ...]] = {}
    solvers: dict[int, _ClassSolver] = {}
    bar_reps: dict[CochainCell, BarCochain] = {}
    for k in range(D + 1):
        cells = canonical_class_basis(n, k, ring)
        expected = closed_form_cohomology(n, k, ring).group.free_rank
        if len(cells) != expected:
            raise AssertionError(
                f"class basis size {len(cells)} != closed form {expected} at degree {k}"
            )
        solver = _ClassSolver(reduced, k, cells)
        if not solver.verify_independent():
            raise AssertionError(f"basis classes dependent in degree {k}")
        basis[k] = tuple(cells)
        solvers[k] = solver

        # bar cocycle representatives: solve  cell = push(kernel combo) + coboundary
        kernel = field_kernel_basis(bar.diff(k))
        bar_basis = bar.basis(k)
        index = reduced.index(k)
        pushed_cols: dict[tuple[int, int], object] = {}
        for j, vec in enumerate(kernel):
            dual = {bar_basis[i]: c for i, c in vec.items()}
            for cell, c in pushforward_cochain(dual, ring).items():
                pushed_cols[(index[cell], j)] = c
        cob = reduced.diff(k - 1)
        n_push = len(kernel)
        for (r, c), v in cob.entries.items():
            pushed_cols[(r, n_push + c)] = v
        system = SparseMatrix(reduced.dim(k), n_push + cob.cols, pushed_cols, ring)
        for cell in cells:
            sol = solve_in_image(system, {index[cell]: ring.one})
            if sol is None:
                raise AssertionError(f"no bar representative for {cell}")
            rep = BarCochain(n, k, ring)
            for j, s in sol.items():
                if j < n_push:
                    dual = {bar_basis[i]: ring.mul(s, c) for i, c in kernel[j].items()}
                    rep = rep.add(BarCochain.from_dual(n, k, ring, dual))
            bar_reps[cell] = rep

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
                    bar_prod = cup_bar(bar_reps[a], bar_reps[b])
                    pushed = pushforward_cochain(bar_prod.to_dual(), ring)
                    oracle_products[(a, b)] = solver.coords(pushed)
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
    )


def default_generators(n: int, include_top: bool = True) -> list[CochainCell]:
    """The generator list for the cohomology ring away from
    characteristic two: squares and products of two distinct multiset
    entries with empty monomial, two-element monomials with empty
    multiset, the mixed degree-one cells, and the full monomial."""
    gens: list[CochainCell] = []
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            gens.append(CochainCell(Multiset([i, j]), 0))
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            gens.append(CochainCell(Multiset(), subset_mask((i, j))))
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            gens.append(CochainCell(Multiset([j]), subset_mask((i,))))
    if include_top:
        gens.append(CochainCell(Multiset(), (1 << n) - 1))
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
    n: int, ring: Domain, max_degree: int, include_top: bool = True
) -> SpanCheck:
    """Check that products of the listed generators span the cohomology
    classes in every degree up to the bound.

    All products of generator cells are again signed cells, so the
    closure is a finite cell set; its class coordinates are row-reduced
    against the monomial basis per degree.
    """
    if not ring.is_field or ring.char == 2:
        raise ValueError("span check needs a field of characteristic != 2")
    D = max_degree
    reduced = build_reduced_cochain(n, D + 1, ring)
    gens = default_generators(n, include_top)
    unit = CochainCell(Multiset(), 0)
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
        cells = canonical_class_basis(n, k, ring)
        solver = _ClassSolver(reduced, k, cells)
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


def _shuffle_sign(positions: tuple[int, ...], total: int) -> int:
    """Sign of the permutation placing the first block at ``positions``
    (increasing) and the second block at the remaining slots, both in
    order: the parity of the number of block crossings."""
    inversions = 0
    second = [q for q in range(total) if q not in positions]
    for q in second:
        inversions += sum(1 for p in positions if p > q)
    return -1 if inversions % 2 else 1


def shuffle_product(
    u: Mapping[BarChainCell, object],
    v: Mapping[BarChainCell, object],
    n: int,
    ring: Domain,
) -> dict[BarChainCell, object]:
    """Signed shuffle product of oracle chain elements.

    Defined only when the base algebra is commutative: characteristic
    two, or a single generator.  The coefficients multiply, the bar words
    interleave over all order-preserving shuffles with the block-crossing
    sign.
    """
    if ring.char != 2 and n >= 2:
        raise NonCommutativeBase(
            "the shuffle product needs a commutative base: char 2 or n = 1"
        )
    out: dict[BarChainCell, object] = {}
    for cell1, c1 in u.items():
        for cell2, c2 in v.items():
            base = subset_mul_sign(cell1.sigma, cell2.sigma)
            if base is None:
                continue
            i, j = len(cell1.factors), len(cell2.factors)
            coeff = ring.mul(c1, c2)
            if base[0] < 0:
                coeff = ring.neg(coeff)
            for positions in combinations(range(i + j), i):
                factors: list = [None] * (i + j)
                it1 = iter(cell1.factors)
                it2 = iter(cell2.factors)
                pos_set = set(positions)
                for q in range(i + j):
                    factors[q] = next(it1) if q in pos_set else next(it2)
                sign = _shuffle_sign(positions, i + j)
                term = coeff if sign > 0 else ring.neg(coeff)
                cell = BarChainCell(base[1], tuple(factors))
                acc = ring.add(out.get(cell, ring.zero), term)
                if ring.is_zero(acc):
                    out.pop(cell, None)
                else:
                    out[cell] = acc
    return out
