"""The coefficient domains: the Q invariant (an integral value is an int,
a Fraction has a denominator > 1) against plain Fraction arithmetic, and
``coerce`` refusing what it cannot hold exactly instead of truncating."""

from decimal import Decimal
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from exthh.linalg import SparseMatrix
from exthh.rings import F2, F3, QQ, ZZ, PrimeField

# reproducible runs: a fixed example sequence, no deadline on a shared machine
exact = settings(derandomize=True, deadline=None, max_examples=300)

# exact inputs of every kind coerce takes: ints, bools, Fractions (some
# integral, like Fraction(4, 2)) and sympy rationals
exact_numbers = st.one_of(
    st.integers(),
    st.booleans(),
    st.fractions(),
    st.builds(Fraction, st.integers(-50, 50), st.integers(1, 6)),
    st.builds(sympy.Rational, st.integers(-50, 50), st.integers(1, 6)),
)
# Q elements, mixed ints and Fractions
q_values = st.one_of(st.integers(), st.fractions(), st.integers(-9, 9)).map(QQ.coerce)


def holds_q_invariant(x) -> bool:
    return type(x) is int or (type(x) is Fraction and x.denominator > 1)


def as_fraction(x) -> Fraction:
    """The exact value of an input, computed without ``coerce``."""
    if isinstance(x, sympy.Rational):
        return Fraction(int(x.p), int(x.q))
    return Fraction(x)


def same_q(got, expect: Fraction) -> bool:
    """got is the Q element of the exact value expect."""
    return holds_q_invariant(got) and got == expect and (type(got) is int) == (expect.denominator == 1)


@exact
@given(exact_numbers)
def test_q_coerce_keeps_the_invariant(x):
    assert same_q(QQ.coerce(x), as_fraction(x))


@exact
@given(q_values, q_values)
def test_q_arithmetic_equals_fraction_arithmetic(a, b):
    fa, fb = Fraction(a), Fraction(b)
    assert holds_q_invariant(a) and holds_q_invariant(b)
    assert same_q(QQ.add(a, b), fa + fb)
    assert same_q(QQ.sub(a, b), fa - fb)
    assert same_q(QQ.mul(a, b), fa * fb)
    assert same_q(QQ.neg(a), -fa)
    assert same_q(QQ.normal(fa + fb), fa + fb)
    assert QQ.is_zero(a) == (fa == 0)
    if fa:
        assert same_q(QQ.inv(a), 1 / fa)
        assert same_q(QQ.mul(a, QQ.inv(a)), Fraction(1))
    else:
        with pytest.raises(ZeroDivisionError):
            QQ.inv(a)


def test_q_units_and_json():
    assert QQ.zero == 0 and QQ.one == 1 and type(QQ.zero) is int and type(QQ.one) is int
    for unit in (1, -1):
        assert type(QQ.inv(unit)) is int and QQ.inv(unit) == unit
    assert QQ.inv(Fraction(-1, 3)) == -3 and type(QQ.inv(Fraction(-1, 3))) is int
    assert QQ.inv(-4) == Fraction(-1, 4)
    assert QQ.to_json(3) == 3 and QQ.to_json(Fraction(-2, 3)) == "-2/3"


@exact
@given(exact_numbers, st.sampled_from([2, 3, 5, 2**31 - 1]))
def test_prime_field_coerce_reads_a_over_b_as_a_times_b_inverse(x, p):
    field = PrimeField(p)
    f = as_fraction(x)
    if f.denominator % p == 0:
        with pytest.raises(ValueError):
            field.coerce(x)
        return
    got = field.coerce(x)
    assert type(got) is int and 0 <= got < p
    assert (got * f.denominator - f.numerator) % p == 0
    assert field.normal(got - p * 7 + 1) == (got + 1) % p


@exact
@given(exact_numbers)
def test_z_coerce_takes_integral_values_only(x):
    f = as_fraction(x)
    if f.denominator == 1:
        got = ZZ.coerce(x)
        assert type(got) is int and got == f
    else:
        with pytest.raises(ValueError):
            ZZ.coerce(x)


def test_coerce_refuses_what_it_used_to_truncate():
    # each of these used to pass, truncated or read as a binary float
    with pytest.raises(TypeError):
        ZZ.coerce(2.7)
    with pytest.raises(ValueError):
        ZZ.coerce(Fraction(1, 2))
    with pytest.raises(TypeError):
        QQ.coerce(0.1)
    assert F3.coerce(Fraction(1, 2)) == 2  # 1/2 is 2 mod 3, not 0
    assert F3.coerce(Fraction(-5, 2)) == 2
    with pytest.raises(ValueError):
        F3.coerce(Fraction(1, 3))
    with pytest.raises(ValueError):
        F2.coerce(Fraction(3, 4))
    with pytest.raises(TypeError):
        SparseMatrix.from_dense([[1.5, 2]], ZZ)
    for domain in (ZZ, QQ, F2, F3):
        # floats are refused even when integral, and so is anything inexact
        # or not a number
        for bad in (2.0, 0.5, float("nan"), Decimal("1.5"), sympy.Float(1.5), complex(1, 0), "3", None):
            with pytest.raises(TypeError):
                domain.coerce(bad)
        with pytest.raises(TypeError):
            SparseMatrix.from_dense([[1, 2.0]], domain)
    # exact integral input of any type still reads as an int
    for domain in (ZZ, QQ, F3):
        for good in (True, Fraction(4, 2), sympy.Integer(5), sympy.Rational(6, 3)):
            got = domain.coerce(good)
            assert type(got) is int and got == domain.coerce(int(good))
