"""The field eliminations on plain values against sympy: rank, kernel and
membership solves over Q with integer and rational entries, and the rank
of integer matrices read mod p.  Every vector returned over Q holds the Q
invariant: integral coefficients are ints, Fractions have a denominator > 1."""

from fractions import Fraction
from random import Random

import pytest
import sympy
from hypothesis import given, settings, strategies as st
from sympy.polys.matrices import DomainMatrix

from exthh.hochschild import bar_orbit_blocks
from exthh.linalg import SparseMatrix, field_kernel_basis, field_rank, solve_in_image
from exthh.rings import QQ, ZZ, PrimeField, UnsupportedRing

exact = settings(derandomize=True, deadline=None, max_examples=80)

PRIMES = (2, 3, 5, 2**31 - 1)


def matrices(entries):
    """Small dense matrices, as lists of rows, with about half the entries zero."""
    entry = st.one_of(st.just(0), entries)
    return st.integers(1, 5).flatmap(
        lambda rows: st.integers(1, 5).flatmap(
            lambda cols: st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows)
        )
    )


integer_entries = st.integers(-4, 4)
rational_entries = st.one_of(st.integers(-4, 4), st.fractions(-3, 3, max_denominator=5))


def holds_q_invariant(x) -> bool:
    return type(x) is int or (type(x) is Fraction and x.denominator > 1)


def as_sympy(rows) -> sympy.Matrix:
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in map(Fraction, row)] for row in rows])


def apply(rows, vec: dict[int, object]) -> list[Fraction]:
    return [sum((Fraction(row[c]) * x for c, x in vec.items()), Fraction(0)) for row in rows]


def check_q_elimination(rows):
    m = SparseMatrix.from_dense(rows, QQ)
    sym = as_sympy(rows)
    rank = sym.rank()
    assert field_rank(m) == rank
    kernel = field_kernel_basis(m)
    assert len(kernel) == m.cols - rank
    for vec in kernel:
        assert vec and all(holds_q_invariant(x) and x for x in vec.values())
        assert apply(rows, vec) == [0] * m.rows
    if kernel:
        assert as_sympy([[vec.get(c, 0) for c in range(m.cols)] for vec in kernel]).rank() == len(kernel)
    # a target in the image (the sum of the columns) and the unit vectors,
    # each solvable exactly when it does not raise the rank
    targets = [{r: QQ.coerce(x) for r, x in enumerate(apply(rows, dict.fromkeys(range(m.cols), 1))) if x}]
    targets += [{r: 1} for r in range(m.rows)]
    for target in targets:
        witness = solve_in_image(m, target)
        column = sympy.Matrix([target.get(r, 0) for r in range(m.rows)])
        solvable = sym.row_join(column).rank() == rank
        assert (witness is not None) == solvable
        if witness is not None:
            assert all(holds_q_invariant(x) and x for x in witness.values())
            assert apply(rows, witness) == [target.get(r, 0) for r in range(m.rows)]


@exact
@given(matrices(integer_entries))
def test_q_elimination_of_integer_matrices_against_sympy(rows):
    check_q_elimination(rows)


@exact
@given(matrices(rational_entries))
def test_q_elimination_of_rational_matrices_against_sympy(rows):
    check_q_elimination(rows)


# entries far above p and negative ones, with small residues so that
# ranks mod p drop often
residues = st.integers(-3, 3)
integer_entries_mod_p = st.one_of(
    residues,
    st.tuples(residues, st.integers(-(10**12), 10**12)).map(lambda t: t[0] + t[1] * 2 * 3 * 5 * (2**31 - 1)),
    st.integers(-(10**30), 10**30),
)


@exact
@given(matrices(integer_entries_mod_p))
def test_rank_mod_p_against_sympy(rows):
    m = SparseMatrix.from_dense(rows, ZZ)
    for p in PRIMES:
        field = PrimeField(p)
        K = sympy.GF(p)
        expect = DomainMatrix([[K(x) for x in row] for row in rows], (m.rows, m.cols), K).rank()
        read = m.map_domain(field)
        assert all(type(v) is int and 0 < v < p for v in read.entries.values())
        assert field_rank(read) == expect, p


def test_integer_matrix_read_mod_p_by_field_rank():
    # field_rank reads an integer matrix in the field it is given as it
    # gathers the columns, with the rank of the matrix copied into it;
    # on random matrices and on the bar orbit blocks of the oracle
    rng = Random(29)
    mats = []
    for _ in range(60):
        rows, cols = rng.randint(1, 9), rng.randint(1, 9)
        entries = {(rng.randrange(rows), rng.randrange(cols)): rng.randint(-12, 12) for _ in range(rows * cols // 2)}
        mats.append(SparseMatrix(rows, cols, entries, ZZ))
    for cohomology in (False, True):
        for _orbit, block in bar_orbit_blocks(3, 4, cohomology):
            mats.extend(block.diffs.values())
    for p in (2, 3, 5):
        field = PrimeField(p)
        assert all(field_rank(m, field) == field_rank(m.map_domain(field)) for m in mats), p
    # a matrix already in a field is read in its own field only
    f3 = mats[0].map_domain(PrimeField(3))
    assert field_rank(f3, PrimeField(3)) == field_rank(f3)
    with pytest.raises(UnsupportedRing):
        field_rank(f3, PrimeField(5))
    with pytest.raises(ValueError):
        field_rank(mats[0], ZZ)
