"""Exact coefficient domains: integers, rationals and prime fields.

Every matrix and complex in the package is tagged with one of these
domains; algebra elements are integral (see :mod:`exthh.algebra`).  A
domain knows how to coerce exact numbers, do arithmetic, and decide
invertibility, which is all the Morse machinery and the linear algebra
need.

Elements are plain Python values.  Z and F_p hold ints, F_p in
[0, p).  Q holds ``int | Fraction`` under one invariant: an integral
value is always an ``int``, and a ``Fraction`` always has a denominator
> 1.  Most coefficients met in practice are small integers, so they stay
ints and never pay for Fraction objects.  Each field's ``normal`` maps
the result of plain ``+``, ``-`` and ``*`` on its elements back to an
element (reduce mod p, or restore the Q invariant), which lets the field
eliminations run on plain values.  ``coerce`` takes exact numbers only
(ints and rationals): a float or any other inexact value is refused with
TypeError, never truncated, and a value the domain cannot hold (a
non-integral rational in Z, a denominator divisible by p in F_p) with
ValueError.
"""

from __future__ import annotations

from fractions import Fraction
from numbers import Integral, Rational
from typing import Callable


class UnsupportedRing(Exception):
    """Operation not available over the given coefficient domain."""


def _exact(n) -> int | Fraction:
    """An exact number as an int when integral, else a Fraction in lowest
    terms; TypeError for a float or any other inexact or non-numeric value."""
    if isinstance(n, Integral):
        return int(n)
    if isinstance(n, Rational):
        num, den = int(n.numerator), int(n.denominator)
        return num if den == 1 else Fraction(num, den)
    raise TypeError(f"{type(n).__name__} {n!r} is not an exact integer or rational")


class Domain:
    """Base class for coefficient domains.  Elements are plain Python
    values (int, Fraction, ...); the domain object only carries the
    operations."""

    name: str
    char: int
    is_field: bool
    zero: object  # coerce(0) and coerce(1), built once per domain
    one: object
    # fields only: the element equal to a result of plain +, - and * on
    # elements, used by the field eliminations in exthh.linalg
    normal: Callable[[object], object]

    def coerce(self, n):
        raise NotImplementedError

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def is_zero(self, a) -> bool:
        return a == self.zero

    def is_unit(self, a) -> bool:
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def to_json(self, a):
        return a

    def __repr__(self):
        return f"<domain {self.name}>"

    def __eq__(self, other):
        return type(self) is type(other) and self.name == getattr(other, "name", None)

    def __hash__(self):
        return hash((type(self), self.name))


class IntegerRing(Domain):
    name = "Z"
    char = 0
    is_field = False
    zero, one = 0, 1

    def coerce(self, n):
        x = n if type(n) is int else _exact(n)
        if type(x) is not int:
            raise ValueError(f"{x} is not an integer")
        return x

    def is_unit(self, a) -> bool:
        return a in (1, -1)

    def inv(self, a):
        if a in (1, -1):
            return a
        raise ZeroDivisionError(f"{a} is not a unit of Z")


def _q(x):
    """Restore the Q invariant on the result of plain arithmetic: an
    integral Fraction becomes its int."""
    return x if type(x) is int or x.denominator != 1 else x.numerator


class RationalField(Domain):
    """Q, with elements ``int | Fraction``: integral values are ints, and
    every Fraction has a denominator > 1 (see the module docstring)."""

    name = "Q"
    char = 0
    is_field = True
    zero, one = 0, 1
    normal = staticmethod(_q)

    def coerce(self, n):
        return n if type(n) is int else _exact(n)

    def add(self, a, b):
        return _q(a + b)

    def sub(self, a, b):
        return _q(a - b)

    def mul(self, a, b):
        return _q(a * b)

    def is_zero(self, a) -> bool:
        return not a

    def is_unit(self, a) -> bool:
        return a != 0

    def inv(self, a):
        if type(a) is int:
            return a if a in (1, -1) else Fraction(1, a)
        return _q(Fraction(a.denominator, a.numerator))

    def to_json(self, a):
        return a if type(a) is int else str(a)


# Miller-Rabin with the first thirteen primes as bases is exact below
# PRIME_LIMIT, the least strong pseudoprime to all of them (Sorenson and
# Webster, "Strong pseudoprimes to twelve prime bases", Math. Comp. 2017)
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_LIMIT = 3_317_044_064_679_887_385_961_981


def is_prime(p: int) -> bool:
    """Exact primality of p < PRIME_LIMIT, by deterministic Miller-Rabin."""
    if p >= PRIME_LIMIT:
        raise ValueError(f"{p} is too large to test (the limit is {PRIME_LIMIT})")
    if p < 2 or any(p % q == 0 for q in _PRIME_BASES):
        return p in _PRIME_BASES
    r = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = d 2^r with d odd
    for a in _PRIME_BASES:
        x = pow(a, (p - 1) >> r, p)
        if x != 1 and all(pow(x, 1 << i, p) != p - 1 for i in range(r)):
            return False
    return True


class PrimeField(Domain):
    is_field = True

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.char = p
        self.name = f"F{p}"
        self.zero, self.one = 0, 1
        self.normal = p.__rmod__  # a -> a % p, without a Python-level call

    def coerce(self, n):
        x = n if type(n) is int else _exact(n)
        if type(x) is int:
            return x % self.p
        if x.denominator % self.p == 0:
            raise ValueError(f"{x} has no value mod {self.p}: its denominator is divisible by {self.p}")
        return x.numerator * pow(x.denominator, -1, self.p) % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def is_unit(self, a) -> bool:
        return a % self.p != 0

    def inv(self, a):
        return pow(a, -1, self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and self.p == other.p

    def __hash__(self):
        return hash(("Fp", self.p))


ZZ = IntegerRing()
QQ = RationalField()
F2 = PrimeField(2)
F3 = PrimeField(3)


def parse_ring(name: str) -> Domain:
    """Parse a ring descriptor: "Z", "Q" or "F<p>"."""
    s = name.strip()
    if s.upper() == "Z":
        return ZZ
    if s.upper() == "Q":
        return QQ
    if s and s[0] in "Ff":
        digits = s[1:]
        # int() would also take signs, underscores, non-ASCII digits and leading zeros
        if not (digits.isascii() and digits.isdigit() and digits[0] != "0"):
            raise ValueError(f"bad prime field {name!r}: expected F and a prime in decimal digits")
        try:
            return PrimeField(int(digits))
        except ValueError as e:
            raise ValueError(f"bad prime field {name!r}: {e}") from None
    raise ValueError(f"unknown ring {name!r} (expected Z, Q or Fp)")
