from random import Random

import pytest

from exthh.algebra import (
    EnvAlgebra,
    EnvElement,
    ExtElement,
    env_act,
    env_left_var,
    env_monomial,
    env_mul,
    env_right_var,
    env_unit,
    ext_monomial,
    ext_mul,
    ext_unit,
    ext_var,
    render_env,
    render_ext,
)
from exthh.combinat import all_subsets, subset_mask
from exthh.rings import F2, F3, QQ, ZZ


def x(i, n=3):
    return ext_var(n, i)


def mono(elems, n=3, c=1):
    return ext_monomial(n, subset_mask(elems), c)


def test_ext_mul_examples():
    assert ext_mul(x(1), x(1)).is_zero()
    assert ext_mul(x(2), x(1)) == mono([1, 2], c=-1)
    one = ext_unit(3)
    assert ext_mul(one + x(1), one - x(1)) == one


def test_ext_mul_associative_unital_random():
    rng = Random(11)
    n = 4
    subsets = all_subsets(n)

    def rand_elem():
        return ExtElement(
            n, {rng.choice(subsets): rng.randint(-3, 3) for _ in range(rng.randint(0, 8))}
        )

    one = ext_unit(n)
    for _ in range(60):
        a, b, c = rand_elem(), rand_elem(), rand_elem()
        assert ext_mul(ext_mul(a, b), c) == ext_mul(a, ext_mul(b, c))
        assert ext_mul(one, a) == a == ext_mul(a, one)


def test_ext_mul_graded_commutative():
    n = 4
    for sa in all_subsets(n):
        for sb in all_subsets(n):
            a, b = ext_monomial(n, sa), ext_monomial(n, sb)
            flip = (-1) ** (sa.bit_count() * sb.bit_count())
            assert ext_mul(a, b) == ext_mul(b, a).scale(flip)


def test_env_mul_examples():
    n = 2
    assert env_mul(env_left_var(n, 1), env_left_var(n, 2)) == env_monomial(
        n, subset_mask([1, 2]), 0
    )
    assert env_mul(env_right_var(n, 1), env_right_var(n, 2)) == env_monomial(
        n, 0, subset_mask([1, 2]), -1
    )
    assert env_mul(env_left_var(n, 1), env_left_var(n, 1)).is_zero()


def test_env_act_examples():
    n = 2
    one = ext_unit(n)
    assert env_act(env_monomial(n, subset_mask([1]), subset_mask([2])), one) == ext_monomial(
        n, subset_mask([1, 2])
    )
    assert env_act(env_right_var(n, 1), ext_var(n, 1)).is_zero()
    assert env_act(env_left_var(n, 2), ext_var(n, 1)) == ext_monomial(
        n, subset_mask([1, 2]), -1
    )


def test_env_module_axiom_random():
    rng = Random(5)
    n = 3
    subsets = all_subsets(n)

    def rand_env():
        return EnvElement(
            n,
            {
                (rng.choice(subsets), rng.choice(subsets)): rng.randint(-2, 2)
                for _ in range(rng.randint(0, 5))
            },
        )

    def rand_ext():
        return ExtElement(
            n, {rng.choice(subsets): rng.randint(-2, 2) for _ in range(rng.randint(0, 5))}
        )

    for _ in range(60):
        u, v, w = rand_env(), rand_env(), rand_env()
        a = rand_ext()
        assert env_mul(env_mul(u, v), w) == env_mul(u, env_mul(v, w))
        assert env_act(env_mul(u, v), a) == env_act(u, env_act(v, a))


def test_domain_zero_and_one_are_built_once():
    for dom in (ZZ, QQ, F2, F3, EnvAlgebra(2)):
        assert dom.zero is dom.zero and dom.one is dom.one
        assert dom.zero == dom.coerce(0) and dom.one == dom.coerce(1)
        assert dom.is_zero(dom.zero) and dom.is_zero(dom.coerce(0))
        assert not dom.is_zero(dom.one) and not dom.is_zero(dom.coerce(1))


def test_env_algebra_units():
    ea = EnvAlgebra(2)
    one = ea.one
    u = one + env_left_var(2, 1)
    assert ea.is_unit(u)
    assert ea.mul(u, ea.inv(u)) == one
    assert ea.mul(ea.inv(u), u) == one
    two = one.scale(2)
    assert not ea.is_unit(two)
    with pytest.raises(ZeroDivisionError):
        ea.inv(two)
    mixed = one + env_monomial(2, subset_mask([1]), subset_mask([2]), -3)
    assert ea.mul(mixed, ea.inv(mixed)) == one


def test_env_algebra_inverts_units_of_either_sign():
    # u = c + m with c = +-1 and m a random nilpotent part; inv runs the
    # geometric series of 1 - c u and multiplies back by c
    rng = Random(23)
    for n in (1, 2, 3):
        ea = EnvAlgebra(n)
        pairs = [(a, b) for a in all_subsets(n) for b in all_subsets(n) if a or b]
        for _ in range(25):
            nil = EnvElement(n, {rng.choice(pairs): rng.randint(-3, 3) for _ in range(4)})
            for c in (-1, 1):
                u = ea.coerce(c) + nil
                assert u.augmentation_coeff() == c and ea.is_unit(u)
                assert ea.mul(u, ea.inv(u)) == ea.one == ea.mul(ea.inv(u), u)
    with pytest.raises(ZeroDivisionError):
        EnvAlgebra(2).inv(env_left_var(2, 1))


def test_no_stored_zeros_and_ambient_checks():
    e = ExtElement(2, {subset_mask([1]): 0, 0: 3})
    assert list(e.terms) == [0]
    with pytest.raises(ValueError):
        ExtElement(1, {subset_mask([2]): 1})
    with pytest.raises(ValueError):
        ExtElement(1, {-1: 1})
    with pytest.raises(ValueError):
        EnvElement(1, {(0, -2): 1})
    with pytest.raises(ValueError):
        ext_mul(ext_var(1, 1), ext_var(2, 1))


def test_rendering():
    n = 3
    e = mono([1, 3]) - x(2).scale(2)
    assert render_ext(e) == "x1^x3 - 2*x2"
    assert render_ext(ext_unit(n)) == "1"
    assert render_ext(ExtElement(n)) == "0"
    u = env_left_var(n, 1) - env_right_var(n, 1)
    assert render_env(u) == "-1|x1 + x1|1"
