"""Arithmetic in an exterior algebra and its enveloping algebra.

``ExtElement`` is a finitely supported coefficient map on the subset
basis of the exterior algebra on n generators, keyed by int bitmasks
(see :mod:`exthh.combinat`).  ``EnvElement`` is the same over pairs of
subsets and multiplies with the opposite order in the
right tensor factor, so its modules are bimodules.  The enveloping
algebra also acts as a coefficient domain for free resolutions, via
``EnvAlgebra``.
"""

from __future__ import annotations

from typing import Mapping

from .combinat import subset_elems, subset_mul_sign
from .rings import Domain


class ExtElement:
    """An element of the exterior algebra, as subset mask -> coefficient."""

    __slots__ = ("n", "domain", "terms")

    def __init__(self, n: int, domain: Domain, terms: Mapping[int, object] = ()):
        self.n = n
        self.domain = domain
        clean = {}
        for s, c in dict(terms).items():
            if s >> n:
                raise ValueError(f"mask {s} not a subset of [{n}]")
            if not domain.is_zero(c):
                clean[s] = c
        self.terms = clean

    def items(self):
        """Terms in canonical (lexicographic subset) order."""
        return sorted(self.terms.items(), key=lambda t: subset_elems(t[0]))

    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, s: int):
        return self.terms.get(s, self.domain.zero)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ExtElement)
            and self.n == other.n
            and self.domain == other.domain
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.n, self.domain, tuple(sorted(self.terms.items()))))

    def __add__(self, other: "ExtElement") -> "ExtElement":
        dom = self.domain
        out = dict(self.terms)
        for s, c in other.terms.items():
            out[s] = dom.add(out.get(s, dom.zero), c)
        return ExtElement(self.n, dom, out)

    def __neg__(self) -> "ExtElement":
        dom = self.domain
        return ExtElement(self.n, dom, {s: dom.neg(c) for s, c in self.terms.items()})

    def __sub__(self, other: "ExtElement") -> "ExtElement":
        return self + (-other)

    def scale(self, c) -> "ExtElement":
        dom = self.domain
        return ExtElement(self.n, dom, {s: dom.mul(c, v) for s, v in self.terms.items()})

    def __mul__(self, other: "ExtElement") -> "ExtElement":
        return ext_mul(self, other)

    def __repr__(self):
        return f"ExtElement({self.n}, {self.domain.name}, {render_ext(self)!r})"

    def __str__(self):
        return render_ext(self)


class EnvElement:
    """An element of the enveloping algebra, as (mask, mask) -> coeff.

    The pair (a, b) stands for the elementary tensor with a in the left
    factor and b in the right (opposite) factor.
    """

    __slots__ = ("n", "domain", "terms")

    def __init__(self, n: int, domain: Domain, terms: Mapping[tuple[int, int], object] = ()):
        self.n = n
        self.domain = domain
        clean = {}
        for (a, b), c in dict(terms).items():
            if (a | b) >> n:
                raise ValueError(f"masks ({a},{b}) not over [{n}]")
            if not domain.is_zero(c):
                clean[(a, b)] = c
        self.terms = clean

    def items(self):
        return sorted(
            self.terms.items(), key=lambda t: (subset_elems(t[0][0]), subset_elems(t[0][1]))
        )

    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, a: int, b: int):
        return self.terms.get((a, b), self.domain.zero)

    def augmentation_coeff(self):
        """Coefficient on the identity tensor; the rest is nilpotent."""
        return self.terms.get((0, 0), self.domain.zero)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, EnvElement)
            and self.n == other.n
            and self.domain == other.domain
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.n, self.domain, tuple(sorted(self.terms.items()))))

    def __add__(self, other: "EnvElement") -> "EnvElement":
        dom = self.domain
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = dom.add(out.get(k, dom.zero), c)
        return EnvElement(self.n, dom, out)

    def __neg__(self) -> "EnvElement":
        dom = self.domain
        return EnvElement(self.n, dom, {k: dom.neg(c) for k, c in self.terms.items()})

    def __sub__(self, other: "EnvElement") -> "EnvElement":
        return self + (-other)

    def scale(self, c) -> "EnvElement":
        dom = self.domain
        return EnvElement(self.n, dom, {k: dom.mul(c, v) for k, v in self.terms.items()})

    def __mul__(self, other: "EnvElement") -> "EnvElement":
        return env_mul(self, other)

    def __repr__(self):
        return f"EnvElement({self.n}, {self.domain.name}, {render_env(self)!r})"

    def __str__(self):
        return render_env(self)


def ext_zero(n: int, domain: Domain) -> ExtElement:
    return ExtElement(n, domain)


def ext_monomial(n: int, domain: Domain, sigma: int, coeff=1) -> ExtElement:
    return ExtElement(n, domain, {sigma: domain.coerce(coeff)})


def ext_unit(n: int, domain: Domain) -> ExtElement:
    return ext_monomial(n, domain, 0)


def ext_var(n: int, domain: Domain, i: int) -> ExtElement:
    return ext_monomial(n, domain, 1 << (i - 1))


def ext_mul(a: ExtElement, b: ExtElement) -> ExtElement:
    """Bilinear extension of the signed subset product."""
    if a.n != b.n:
        raise ValueError("ambient mismatch")
    dom = a.domain
    out: dict[int, object] = {}
    for s, c in a.terms.items():
        for t, d in b.terms.items():
            st = subset_mul_sign(s, t)
            if st is None:
                continue
            sign, u = st
            cd = dom.mul(c, d)
            if sign < 0:
                cd = dom.neg(cd)
            out[u] = dom.add(out.get(u, dom.zero), cd)
    return ExtElement(a.n, dom, out)


def env_monomial(n: int, domain: Domain, a: int, b: int, coeff=1) -> EnvElement:
    return EnvElement(n, domain, {(a, b): domain.coerce(coeff)})


def env_unit(n: int, domain: Domain) -> EnvElement:
    return env_monomial(n, domain, 0, 0)


def env_left_var(n: int, domain: Domain, i: int) -> EnvElement:
    """The generator x_i in the left tensor factor."""
    return env_monomial(n, domain, 1 << (i - 1), 0)


def env_right_var(n: int, domain: Domain, i: int) -> EnvElement:
    """The generator x_i in the right (opposite) tensor factor."""
    return env_monomial(n, domain, 0, 1 << (i - 1))


def env_mul(u: EnvElement, v: EnvElement) -> EnvElement:
    """(a @ b) * (a' @ b') = (a a') @ (b' b): opposite order on the right."""
    if u.n != v.n:
        raise ValueError("ambient mismatch")
    dom = u.domain
    out: dict[tuple[int, int], object] = {}
    for (a, b), c in u.terms.items():
        for (a2, b2), d in v.terms.items():
            left = subset_mul_sign(a, a2)
            if left is None:
                continue
            right = subset_mul_sign(b2, b)
            if right is None:
                continue
            sign = left[0] * right[0]
            cd = dom.mul(c, d)
            if sign < 0:
                cd = dom.neg(cd)
            key = (left[1], right[1])
            out[key] = dom.add(out.get(key, dom.zero), cd)
    return EnvElement(u.n, dom, out)


def env_act(u: EnvElement, x: ExtElement) -> ExtElement:
    """Bimodule action: (a @ b) . x = a x b, extended bilinearly."""
    if u.n != x.n:
        raise ValueError("ambient mismatch")
    dom = u.domain
    out: dict[int, object] = {}
    for (a, b), c in u.terms.items():
        for s, d in x.terms.items():
            first = subset_mul_sign(a, s)
            if first is None:
                continue
            second = subset_mul_sign(first[1], b)
            if second is None:
                continue
            sign = first[0] * second[0]
            cd = dom.mul(c, d)
            if sign < 0:
                cd = dom.neg(cd)
            out[second[1]] = dom.add(out.get(second[1], dom.zero), cd)
    return ExtElement(x.n, dom, out)


class EnvAlgebra(Domain):
    """The enveloping algebra as a (noncommutative) coefficient domain.

    Used for the differentials of free bimodule resolutions.  An element
    is a unit iff its coefficient on the identity tensor is a unit of the
    base ring: the positive-degree part is nilpotent, so inverses are
    finite geometric series.
    """

    is_field = False

    def __init__(self, n: int, base: Domain):
        self.n = n
        self.base = base
        self.char = base.char
        self.name = f"Env({n},{base.name})"
        self.zero, self.one = self.coerce(0), self.coerce(1)

    def coerce(self, v):
        if isinstance(v, EnvElement):
            if v.n != self.n:
                raise ValueError("ambient mismatch")
            return v
        return env_unit(self.n, self.base).scale(self.base.coerce(v))

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return env_mul(a, b)

    def is_zero(self, a) -> bool:
        return a.is_zero()

    def is_unit(self, a) -> bool:
        return self.base.is_unit(a.augmentation_coeff())

    def inv(self, a):
        c = a.augmentation_coeff()
        if not self.base.is_unit(c):
            raise ZeroDivisionError(f"{a} is not a unit")
        cinv = self.base.inv(c)
        # a = c (1 - m) with m nilpotent; invert by a finite geometric series.
        one = env_unit(self.n, self.base)
        m = one - a.scale(cinv)
        acc = one
        power = m
        while not power.is_zero():
            acc = acc + power
            power = env_mul(power, m)
        return acc.scale(cinv)

    def to_json(self, a):
        return [
            [list(subset_elems(s)), list(subset_elems(t)), self.base.to_json(c)]
            for (s, t), c in a.items()
        ]

    def __eq__(self, other):
        return isinstance(other, EnvAlgebra) and self.n == other.n and self.base == other.base

    def __hash__(self):
        return hash(("Env", self.n, self.base))


def _render_terms(pairs: list[tuple[str, object]]) -> str:
    """Shared pretty printer: pairs of (monomial string, coefficient)."""
    if not pairs:
        return "0"
    parts = []
    for mono, c in pairs:
        neg = False
        try:
            neg = c < 0
        except TypeError:
            pass
        cs = str(-c if neg else c)
        if cs == "1" and mono != "1":
            body = mono
        elif mono == "1":
            body = cs
        else:
            body = f"{cs}*{mono}"
        parts.append(("- " if neg else "+ ") + body)
    out = " ".join(parts)
    return out[2:] if out.startswith("+ ") else "-" + out[2:]


def subset_monomial_str(s: int) -> str:
    if not s:
        return "1"
    return "^".join(f"x{i}" for i in subset_elems(s))


def render_ext(x: ExtElement) -> str:
    """Text form, e.g. "x1^x3 - 2*x2"."""
    return _render_terms([(subset_monomial_str(s), c) for s, c in x.items()])


def render_env(u: EnvElement) -> str:
    """Text form, e.g. "x1|1 - 1|x1" with | separating the two factors."""
    pairs = []
    for (a, b), c in u.items():
        pairs.append((f"{subset_monomial_str(a)}|{subset_monomial_str(b)}", c))
    return _render_terms(pairs)
