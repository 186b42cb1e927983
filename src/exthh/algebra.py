"""Integral arithmetic in an exterior algebra and its enveloping algebra.

``ExtElement`` is a finitely supported map from the subset basis of the
exterior algebra on n generators, keyed by int bitmasks (see
:mod:`exthh.combinat`), to nonzero Python ints.  ``EnvElement`` is the
same over pairs of subsets and multiplies with the opposite order in the
right tensor factor, so its modules are bimodules.  The enveloping
algebra also acts as a coefficient domain for free resolutions, via
``EnvAlgebra``.  Every coefficient is an integer: a field enters only
where a matrix is eliminated or a cochain is read in it.
"""

from __future__ import annotations

from typing import Mapping

from .combinat import subset_elems, subset_mul_sign
from .rings import Domain


class ExtElement:
    """An element of the exterior algebra, as subset mask -> coefficient."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Mapping[int, int] = ()):
        self.n = n
        clean = {}
        for s, c in dict(terms).items():
            if s >> n:
                raise ValueError(f"mask {s} not a subset of [{n}]")
            if c:
                clean[s] = c
        self.terms = clean

    def items(self):
        """Terms in canonical (lexicographic subset) order."""
        return sorted(self.terms.items(), key=lambda t: subset_elems(t[0]))

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return isinstance(other, ExtElement) and self.n == other.n and self.terms == other.terms

    def __hash__(self):
        return hash((self.n, tuple(sorted(self.terms.items()))))

    def __add__(self, other: "ExtElement") -> "ExtElement":
        out = dict(self.terms)
        for s, c in other.terms.items():
            out[s] = out.get(s, 0) + c
        return ExtElement(self.n, out)

    def __neg__(self) -> "ExtElement":
        return self.scale(-1)

    def __sub__(self, other: "ExtElement") -> "ExtElement":
        return self + (-other)

    def scale(self, c: int) -> "ExtElement":
        return ExtElement(self.n, {s: c * v for s, v in self.terms.items()})

    def __mul__(self, other: "ExtElement") -> "ExtElement":
        return ext_mul(self, other)

    def __repr__(self):
        return f"ExtElement({self.n}, {render_ext(self)!r})"

    def __str__(self):
        return render_ext(self)


class EnvElement:
    """An element of the enveloping algebra, as (mask, mask) -> coeff.

    The pair (a, b) stands for the elementary tensor with a in the left
    factor and b in the right (opposite) factor.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Mapping[tuple[int, int], int] = ()):
        self.n = n
        clean = {}
        for (a, b), c in dict(terms).items():
            if (a | b) >> n:
                raise ValueError(f"masks ({a},{b}) not over [{n}]")
            if c:
                clean[(a, b)] = c
        self.terms = clean

    def items(self):
        return sorted(
            self.terms.items(), key=lambda t: (subset_elems(t[0][0]), subset_elems(t[0][1]))
        )

    def is_zero(self) -> bool:
        return not self.terms

    def augmentation_coeff(self) -> int:
        """Coefficient on the identity tensor; the rest is nilpotent."""
        return self.terms.get((0, 0), 0)

    def __eq__(self, other) -> bool:
        return isinstance(other, EnvElement) and self.n == other.n and self.terms == other.terms

    def __hash__(self):
        return hash((self.n, tuple(sorted(self.terms.items()))))

    def __add__(self, other: "EnvElement") -> "EnvElement":
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, 0) + c
        return EnvElement(self.n, out)

    def __neg__(self) -> "EnvElement":
        return self.scale(-1)

    def __sub__(self, other: "EnvElement") -> "EnvElement":
        return self + (-other)

    def scale(self, c: int) -> "EnvElement":
        return EnvElement(self.n, {k: c * v for k, v in self.terms.items()})

    def __mul__(self, other: "EnvElement") -> "EnvElement":
        return env_mul(self, other)

    def __repr__(self):
        return f"EnvElement({self.n}, {render_env(self)!r})"

    def __str__(self):
        return render_env(self)


def ext_monomial(n: int, sigma: int, coeff: int = 1) -> ExtElement:
    return ExtElement(n, {sigma: coeff})


def ext_unit(n: int) -> ExtElement:
    return ext_monomial(n, 0)


def ext_var(n: int, i: int) -> ExtElement:
    return ext_monomial(n, 1 << (i - 1))


def ext_mul(a: ExtElement, b: ExtElement) -> ExtElement:
    """Bilinear extension of the signed subset product."""
    if a.n != b.n:
        raise ValueError("ambient mismatch")
    out: dict[int, int] = {}
    for s, c in a.terms.items():
        for t, d in b.terms.items():
            st = subset_mul_sign(s, t)
            if st is not None:
                sign, u = st
                out[u] = out.get(u, 0) + sign * c * d
    return ExtElement(a.n, out)


def env_monomial(n: int, a: int, b: int, coeff: int = 1) -> EnvElement:
    return EnvElement(n, {(a, b): coeff})


def env_unit(n: int) -> EnvElement:
    return env_monomial(n, 0, 0)


def env_left_var(n: int, i: int) -> EnvElement:
    """The generator x_i in the left tensor factor."""
    return env_monomial(n, 1 << (i - 1), 0)


def env_right_var(n: int, i: int) -> EnvElement:
    """The generator x_i in the right (opposite) tensor factor."""
    return env_monomial(n, 0, 1 << (i - 1))


def env_mul(u: EnvElement, v: EnvElement) -> EnvElement:
    """(a @ b) * (a' @ b') = (a a') @ (b' b): opposite order on the right."""
    if u.n != v.n:
        raise ValueError("ambient mismatch")
    out: dict[tuple[int, int], int] = {}
    for (a, b), c in u.terms.items():
        for (a2, b2), d in v.terms.items():
            left = subset_mul_sign(a, a2)
            if left is None:
                continue
            right = subset_mul_sign(b2, b)
            if right is None:
                continue
            key = (left[1], right[1])
            out[key] = out.get(key, 0) + left[0] * right[0] * c * d
    return EnvElement(u.n, out)


def env_act(u: EnvElement, x: ExtElement) -> ExtElement:
    """Bimodule action: (a @ b) . x = a x b, extended bilinearly."""
    if u.n != x.n:
        raise ValueError("ambient mismatch")
    out: dict[int, int] = {}
    for (a, b), c in u.terms.items():
        for s, d in x.terms.items():
            first = subset_mul_sign(a, s)
            if first is None:
                continue
            second = subset_mul_sign(first[1], b)
            if second is None:
                continue
            t = second[1]
            out[t] = out.get(t, 0) + first[0] * second[0] * c * d
    return ExtElement(x.n, out)


class EnvAlgebra(Domain):
    """The integral enveloping algebra as a (noncommutative) coefficient
    domain, for the differentials of free bimodule resolutions.

    An element is a unit iff its coefficient on the identity tensor is
    +1 or -1: the positive-degree part is nilpotent, so inverses are
    finite geometric series.
    """

    char = 0
    is_field = False

    def __init__(self, n: int):
        self.n = n
        self.name = f"Env({n},Z)"
        self.zero, self.one = EnvElement(n), env_unit(n)

    def coerce(self, v):
        if isinstance(v, EnvElement):
            if v.n != self.n:
                raise ValueError("ambient mismatch")
            return v
        return env_monomial(self.n, 0, 0, int(v))

    def mul(self, a, b):
        return env_mul(a, b)

    def is_zero(self, a) -> bool:
        return not a.terms

    def is_unit(self, a) -> bool:
        return a.augmentation_coeff() in (1, -1)

    def inv(self, a):
        c = a.augmentation_coeff()
        if c not in (1, -1):
            raise ZeroDivisionError(f"{a} is not a unit")
        # a = c (1 - m) with m nilpotent, and c = 1/c; invert by a finite
        # geometric series
        m = self.one - a.scale(c)
        acc = self.one
        power = m
        while power.terms:
            acc = acc + power
            power = env_mul(power, m)
        return acc.scale(c)

    def to_json(self, a):
        return [[list(subset_elems(s)), list(subset_elems(t)), c] for (s, t), c in a.items()]


def _render_terms(pairs: list[tuple[str, int]]) -> str:
    """Shared pretty printer: pairs of (monomial string, coefficient)."""
    if not pairs:
        return "0"
    parts = []
    for mono, c in pairs:
        cs = str(abs(c))
        if cs == "1" and mono != "1":
            body = mono
        elif mono == "1":
            body = cs
        else:
            body = f"{cs}*{mono}"
        parts.append(("- " if c < 0 else "+ ") + body)
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
