import re
from random import Random

import pytest

from exthh.combinat import (
    all_subsets,
    enumerate_multisets,
    multiset_coefficient,
    subset_mask,
)
from exthh import products
from exthh.hochschild import (
    BarCochainCell,
    CochainCell,
    bar_labels_of_degree,
    bar_projection,
    build_reduced_cochain,
    closed_form_cohomology,
    pushforward_cochain,
)
from exthh.linalg import field_kernel_basis, field_rank, solve_in_image
from exthh.products import (
    _ClassSolver,
    StructureCheckFailed,
    bar_lifts,
    canonical_class_basis,
    class_solvers,
    cup_bar,
    cup_cells,
    cup_reduced,
    generator_span_check,
    ring_structure_constants,
)
from exthh.rings import F2, F3, QQ, ZZ, parse_ring
from helpers import (
    broken_projection,
    exterior_product,
    kernel_structure_table,
    linear_combination,
    oracle_cochain,
)

F5 = parse_ring("F5")
LIFT_GRID = [(n, ring, 3) for n in (1, 2, 3) for ring in (QQ, F2, F3)] + [(2, F5, 4)]
LIFT_IDS = [f"n{n}-{ring.name}-d{d}" for n, ring, d in LIFT_GRID]


def S(*elems):
    return subset_mask(elems)


def T(*factors):
    return tuple(subset_mask(f) for f in factors)


def test_cup_bar_constant_cochains():
    f = {BarCochainCell((), S(1)): 1}
    g = {BarCochainCell((), S(2)): 1}
    assert cup_bar(f, g, ZZ) == {BarCochainCell((), S(1, 2)): 1}


def test_cup_bar_single_values():
    f = {BarCochainCell(T([1]), S(2)): 1}
    g = {BarCochainCell(T([2]), S(1)): 1}
    prod = cup_bar(f, g, ZZ)
    assert prod == {BarCochainCell(T([1], [2]), S(1, 2)): -1}
    assert len({cell.factors for cell in prod}) == 1


def test_cup_bar_unit():
    f = {BarCochainCell(T([1]), S(2)): 1, BarCochainCell(T([1, 2]), S()): 1}
    unit = {BarCochainCell((), S()): 1}
    assert cup_bar(f, unit, ZZ) == f
    assert cup_bar(unit, f, ZZ) == f


@pytest.mark.parametrize("ring", [QQ, F2, F3, F5], ids=lambda ring: ring.name)
def test_cup_bar_reads_the_integral_product_in_the_ring(ring):
    # the cup of dual dicts is the exterior product of integral values, word
    # pair by word pair, read in the ring: cancellation mod p happens in the cup
    rng = Random(41)
    n = 3
    subsets = all_subsets(n)

    def integral(k):
        words = list(bar_labels_of_degree(n, k))
        return {
            word: {rng.choice(subsets): rng.randint(-3, 3) for _ in range(3)}
            for word in rng.sample(words, min(3, len(words)))
        }

    def read(values):
        cells = {
            BarCochainCell(w, s): ring.coerce(c) for w, x in values.items() for s, c in x.items()
        }
        return {cell: c for cell, c in cells.items() if not ring.is_zero(c)}

    unit = {BarCochainCell((), 0): 1}
    for _ in range(30):
        fa, fb, fc = (integral(rng.randint(0, 2)) for _ in range(3))
        a, b, c = read(fa), read(fb), read(fc)
        integral_product = {
            u + v: exterior_product(n, x, y) for u, x in fa.items() for v, y in fb.items()
        }
        assert cup_bar(a, b, ring) == read(integral_product)
        assert cup_bar(cup_bar(a, b, ring), c, ring) == cup_bar(a, cup_bar(b, c, ring), ring)
        assert cup_bar(unit, a, ring) == a == cup_bar(a, unit, ring)
    one_plus_x1 = {BarCochainCell((), 0): 1, BarCochainCell((), S(1)): 1}
    square = cup_bar(one_plus_x1, one_plus_x1, ring)
    assert square == read({(): {0: 1, S(1): 2}})
    if ring is F2:
        assert square == unit  # the cross terms cancel mod 2


def test_cup_cells_examples():
    got = cup_cells(CochainCell((1,), S(2)), CochainCell((2,), S(1)))
    assert got == (-1, CochainCell((1, 2), S(1, 2)))
    assert cup_cells(CochainCell((1,), S(1)), CochainCell((), S(1))) is None
    unit = CochainCell((), S())
    cell = CochainCell((1, 2), S(1))
    assert cup_cells(unit, cell) == (1, cell)


def test_cup_reduced_bilinear():
    x = {CochainCell((1,), S()): 2, CochainCell((2,), S()): 1}
    y = {CochainCell((1,), S()): 1}
    got = cup_reduced(x, y, ZZ)
    assert got == {
        CochainCell((1, 1), S()): 2,
        CochainCell((1, 2), S()): 1,
    }


def test_cup_reduced_associative_unital_on_cells():
    # exhaustive over all cells of degree <= 3, n <= 2
    for n in (1, 2):
        cells = [
            {CochainCell(tau, sigma): 1}
            for k in range(4)
            for tau in enumerate_multisets(n, k)
            for sigma in all_subsets(n)
        ]
        unit = {CochainCell((), S()): 1}
        for a in cells:
            assert cup_reduced(unit, a, ZZ) == a
            assert cup_reduced(a, unit, ZZ) == a
            for b in cells:
                ab = cup_reduced(a, b, ZZ)
                for c in cells:
                    lhs = cup_reduced(ab, c, ZZ)
                    rhs = cup_reduced(a, cup_reduced(b, c, ZZ), ZZ)
                    assert lhs == rhs


def _bar_apply(complex_, k, cochain):
    """Apply the cochain differential matrix to a bar cochain dict."""
    ring = complex_.domain
    mat = complex_.diff(k)
    idx = complex_.index(k)
    vec = {}
    for cell, c in cochain.items():
        vec[idx[cell]] = c
    out = {}
    for (r, col), w in mat.entries.items():
        if col in vec:
            out[r] = ring.add(out.get(r, ring.zero), ring.mul(w, vec[col]))
    basis_up = complex_.basis(k + 1)
    return {basis_up[r]: v for r, v in out.items() if not ring.is_zero(v)}


def test_cup_bar_cocycles_and_coboundaries():
    # cocycle x cocycle is a cocycle; cocycle x coboundary is a coboundary
    n, ring = 2, QQ
    c = oracle_cochain(n, 5, ring)
    rng = Random(17)
    for ka in (0, 1, 2):
        for kb in (1, 2):
            if ka + kb > 4:
                continue
            za = field_kernel_basis(c.diff(ka))
            zb = field_kernel_basis(c.diff(kb))
            basis_a, basis_b = c.basis(ka), c.basis(kb)
            for _ in range(4):
                va = rng.choice(za)
                vb = rng.choice(zb)
                fa = {basis_a[i]: x for i, x in va.items()}
                fb = {basis_b[i]: x for i, x in vb.items()}
                prod = cup_bar(fa, fb, ring)
                assert not _bar_apply(c, ka + kb, prod)
                # now replace fb by a coboundary and check membership
                low = c.basis(kb - 1)
                u = {rng.choice(low): ring.coerce(rng.randint(1, 3))}
                db = _bar_apply(c, kb - 1, u)
                prod2 = cup_bar(fa, db, ring)
                idx = c.index(ka + kb)
                target = {idx[cell]: coeff for cell, coeff in prod2.items()}
                assert solve_in_image(c.diff(ka + kb - 1), target) is not None


def test_graded_commutativity_up_to_coboundary():
    n, ring = 2, QQ
    c = oracle_cochain(n, 5, ring)
    rng = Random(29)
    for ka, kb in ((1, 1), (1, 2), (2, 2), (1, 3)):
        za = field_kernel_basis(c.diff(ka))
        zb = field_kernel_basis(c.diff(kb))
        basis_a, basis_b = c.basis(ka), c.basis(kb)
        for _ in range(3):
            fa = {basis_a[i]: x for i, x in rng.choice(za).items()}
            fb = {basis_b[i]: x for i, x in rng.choice(zb).items()}
            sign = (-1) ** (ka * kb)
            pairs = [(ring.one, cup_bar(fa, fb, ring)), (ring.coerce(-sign), cup_bar(fb, fa, ring))]
            diff = linear_combination(pairs, ring)
            idx = c.index(ka + kb)
            target = {idx[cell]: coeff for cell, coeff in diff.items()}
            assert solve_in_image(c.diff(ka + kb - 1), target) is not None


def test_structure_table_n1_char2_polynomial_pattern():
    st = ring_structure_constants(1, F2, 3)
    assert st.agree
    x = CochainCell((), S(1))
    y = CochainCell((1,), S())
    xy = CochainCell((1,), S(1))
    y2 = CochainCell((1, 1), S())
    assert st.reduced_products[(x, x)] == {}
    assert st.reduced_products[(x, y)] == {xy: 1}
    assert st.reduced_products[(y, y)] == {y2: 1}


def test_structure_constants_reduce_each_matrix_once(monkeypatch):
    from exthh import linalg, products

    reduced, solves, ranks = [], [], []

    def reduce(m, original=linalg._field_reduction):
        reduced.append(m)
        return original(m)

    def solve(m, v, original=products.solve_in_image):
        solves.append(m)
        return original(m, v)

    def rank(m, original=products.field_rank):
        ranks.append(m)
        return original(m)

    monkeypatch.setattr(linalg, "_field_reduction", reduce)
    monkeypatch.setattr(products, "solve_in_image", solve)
    monkeypatch.setattr(products, "field_rank", rank)
    assert ring_structure_constants(2, QQ, 3).agree
    assert len({id(m) for m in reduced}) == len(reduced)  # each matrix at most once
    assert ranks == []  # independence is read off the same reduction
    assert {id(m) for m in solves} <= {id(m) for m in reduced}
    assert len(solves) > 10 * len(reduced)


def test_structure_table_even_subalgebra_products():
    st = ring_structure_constants(2, QQ, 3)
    assert st.agree
    a = CochainCell((1,), S(1))  # x1 (x) x1
    b = CochainCell((1,), S(2))  # x2 (x) x1
    prod = st.reduced_products[(a, b)]
    assert prod == {CochainCell((1, 1), S(1, 2)): QQ.coerce(1)}


def test_top_class_squares_to_zero():
    st = ring_structure_constants(1, QQ, 2)
    top = CochainCell((), S(1))
    assert st.reduced_products[(top, top)] == {}


def test_structure_tables_agree_small():
    for n in (1, 2):
        for ring in (F2, QQ, F3):
            st = ring_structure_constants(n, ring, 3)
            assert st.agree, (n, ring.name, st.mismatches)


@pytest.mark.parametrize("n, ring, max_degree", LIFT_GRID, ids=LIFT_IDS)
def test_bar_lifts_are_cocycles_pushing_to_their_cells(n, ring, max_degree):
    # checked against the whole bar cochain complex, not through the bar
    # cochain blocks of one multidegree that the lifts are verified on
    solvers = class_solvers(n, ring, max_degree)
    lifts = bar_lifts(n, ring, solvers, bar_projection(n, max_degree))
    bar = oracle_cochain(n, max_degree + 1, ring)
    assert list(lifts) == [cell for k in sorted(solvers) for cell in solvers[k].basis_cells]
    for cell, lift in lifts.items():
        k = len(cell.tau)
        assert all(len(bar_cell.factors) == k for bar_cell in lift)
        assert all(type(v) is type(ring.one) and v == ring.coerce(v) for v in lift.values())
        assert not _bar_apply(bar, k, lift), cell
        assert pushforward_cochain(lift, ring) == {cell: ring.one}


@pytest.mark.parametrize("n, ring, max_degree", LIFT_GRID, ids=LIFT_IDS)
def test_structure_table_equals_the_kernel_oracle(n, ring, max_degree):
    table = ring_structure_constants(n, ring, max_degree)
    assert table.agree
    assert table == kernel_structure_table(n, ring, max_degree)


@pytest.mark.parametrize(
    "mode, message",
    [
        ("drop-critical", "not a cocycle"),
        ("negate", "pushes forward"),
        ("move-letter", "leaves its multidegree"),
    ],
)
def test_a_broken_projection_is_a_named_failure(monkeypatch, mode, message):
    monkeypatch.setattr(
        products, "bar_projection", lambda n, d, **kw: broken_projection(n, d, mode, **kw)
    )
    with pytest.raises(StructureCheckFailed, match=message):
        ring_structure_constants(2, QQ, 2)


def test_a_lift_that_is_no_cocycle_names_its_bar_word(monkeypatch):
    monkeypatch.setattr(
        products,
        "bar_projection",
        lambda n, d, **kw: broken_projection(n, d, "drop-critical", **kw),
    )
    with pytest.raises(StructureCheckFailed) as failure:
        ring_structure_constants(2, QQ, 2)
    word = str(failure.value).rpartition(" is not a cocycle at ")[2]
    assert re.fullmatch(r"1(\|x\d(\^x\d)*)+\|1", word), word


def test_class_basis_failures_are_named(monkeypatch):
    def short(n, k, ring, original=canonical_class_basis):
        return original(n, k, ring)[:-1]

    def repeated(n, k, ring, original=canonical_class_basis):
        cells = original(n, k, ring)
        return cells[:-1] + cells[:1] if k == 1 else cells

    monkeypatch.setattr(products, "canonical_class_basis", short)
    with pytest.raises(StructureCheckFailed, match="closed form"):
        ring_structure_constants(2, QQ, 2)
    monkeypatch.setattr(products, "canonical_class_basis", repeated)
    with pytest.raises(StructureCheckFailed, match="dependent"):
        ring_structure_constants(2, QQ, 2)


def test_class_basis_dimensions_char2():
    # Hilbert series of the char-2 ring: 2^n per-degree multiset count
    for n in (1, 2, 3, 4):
        for k in range(6):
            cells = canonical_class_basis(n, k, F2)
            assert len(cells) == 2**n * multiset_coefficient(n, k)
            assert len(cells) == closed_form_cohomology(n, k, F2).group.free_rank


@pytest.mark.parametrize("ring", [QQ, F2, F3, parse_ring("F5")])
def test_class_basis_independence_against_rank(ring):
    # oracle: the classes are independent modulo coboundaries iff stacking
    # them onto the coboundary matrix raises its rank by their number
    for n in (1, 2, 3):
        reduced = build_reduced_cochain(n, 3)
        for k in range(3):
            cells = canonical_class_basis(n, k, ring)
            extra = [c for c in reduced.basis(k) if c not in cells][:3]
            for basis in [cells, cells + cells[:1]] + [cells + [c] for c in extra]:
                solver = _ClassSolver(reduced, ring, k, basis)
                cob = reduced.diff(k - 1).map_domain(ring)
                by_rank = field_rank(solver.stacked) == field_rank(cob) + len(basis)
                assert solver.verify_independent() == by_rank, (n, k, basis)
            assert _ClassSolver(reduced, ring, k, cells).verify_independent()


def test_class_basis_with_a_coboundary_is_refused():
    # n = 1: the coboundary of phi[(1),{}] is 2 phi[(1,1),{1}], a unit
    # multiple of one cell away from characteristic two
    top = CochainCell((1, 1), S(1))
    reduced = build_reduced_cochain(1, 3)
    for ring in (QQ, F3):
        cells = canonical_class_basis(1, 2, ring)
        assert _ClassSolver(reduced, ring, 2, cells).verify_independent()
        assert not _ClassSolver(reduced, ring, 2, cells + [top]).verify_independent()
    assert top in canonical_class_basis(1, 2, F2)
    assert _ClassSolver(reduced, F2, 2, canonical_class_basis(1, 2, F2)).verify_independent()


def test_generator_span_passes():
    for n, deg in ((1, 4), (2, 4), (3, 3)):
        check = generator_span_check(n, QQ, deg)
        assert check.passes, check.per_degree


def test_generator_span_fails_without_top_class():
    for n in (1, 3):
        check = generator_span_check(n, QQ, 2, include_top=False)
        assert not check.passes
        rank, need = check.per_degree[0]
        assert rank == need - 1  # exactly the top class is unreachable


def test_generator_span_rejects_char2():
    with pytest.raises(ValueError):
        generator_span_check(2, F2, 3)
