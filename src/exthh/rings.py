"""Exact coefficient domains: integers, rationals and prime fields.

Every matrix and complex in the package is tagged with one of these
domains; algebra elements are integral (see :mod:`exthh.algebra`).  A
domain knows how to coerce small integers, do arithmetic, and decide
invertibility, which is all the Morse machinery and the linear algebra
need.
"""

from __future__ import annotations

from fractions import Fraction


class UnsupportedRing(Exception):
    """Operation not available over the given coefficient domain."""


class Domain:
    """Base class for coefficient domains.  Elements are plain Python
    values (int, Fraction, ...); the domain object only carries the
    operations."""

    name: str
    char: int
    is_field: bool
    zero: object  # coerce(0) and coerce(1), built once per domain
    one: object

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
        return int(n)

    def is_unit(self, a) -> bool:
        return a in (1, -1)

    def inv(self, a):
        if a in (1, -1):
            return a
        raise ZeroDivisionError(f"{a} is not a unit of Z")


class RationalField(Domain):
    name = "Q"
    char = 0
    is_field = True
    zero, one = Fraction(0), Fraction(1)

    def coerce(self, n):
        return Fraction(n)

    def is_unit(self, a) -> bool:
        return a != 0

    def inv(self, a):
        return Fraction(1) / a

    def to_json(self, a):
        return str(a) if a.denominator != 1 else int(a)


class PrimeField(Domain):
    is_field = True

    def __init__(self, p: int):
        if p < 2 or any(p % q == 0 for q in range(2, int(p**0.5) + 1)):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.char = p
        self.name = f"F{p}"
        self.zero, self.one = 0, 1

    def coerce(self, n):
        return int(n) % self.p

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
        try:
            return PrimeField(int(s[1:]))
        except ValueError as e:
            raise ValueError(f"bad prime field {name!r}: {e}") from None
    raise ValueError(f"unknown ring {name!r} (expected Z, Q or Fp)")
