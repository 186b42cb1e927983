from random import Random

import pytest

from exthh.algebra import (
    EnvAlgebra,
    EnvElement,
    env_act,
    env_left_var,
    env_monomial,
    env_mul,
    env_right_var,
    env_unit,
    render_env,
)
from exthh.combinat import all_subsets, subset_mask
from exthh.rings import F2, F3, QQ, ZZ
from helpers import exterior_product


def test_exterior_product_by_left_action_random():
    rng = Random(11)
    n = 4
    subsets = all_subsets(n)

    def rand_elem():
        x = {rng.choice(subsets): rng.randint(-3, 3) for _ in range(rng.randint(0, 8))}
        return {s: c for s, c in x.items() if c}

    def mul(x, y):
        return exterior_product(n, x, y)

    one = {0: 1}
    for _ in range(60):
        a, b, c = rand_elem(), rand_elem(), rand_elem()
        assert mul(mul(a, b), c) == mul(a, mul(b, c))
        assert mul(one, a) == a == mul(a, one)
        assert env_act(env_unit(n), a) == a


def test_ext_mul_graded_commutative():
    n = 4
    for sa in all_subsets(n):
        for sb in all_subsets(n):
            a, b = {sa: 1}, {sb: 1}
            flip = (-1) ** (sa.bit_count() * sb.bit_count())
            ba = exterior_product(n, b, a)
            assert exterior_product(n, a, b) == {t: flip * c for t, c in ba.items()}
            assert set(ba) == (set() if sa & sb else {sa | sb})


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
    one = {0: 1}
    assert env_act(env_monomial(n, subset_mask([1]), subset_mask([2])), one) == {
        subset_mask([1, 2]): 1
    }
    assert env_act(env_right_var(n, 1), {subset_mask([1]): 1}) == {}
    assert env_act(env_left_var(n, 2), {subset_mask([1]): 1}) == {subset_mask([1, 2]): -1}


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
        return {rng.choice(subsets): rng.randint(-2, 2) for _ in range(rng.randint(0, 5))}

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


def test_env_act_drops_zeros_and_checks_masks():
    # x1 x2 + x2 x1 = 0: the result keeps no zero coefficient
    assert env_act(env_left_var(2, 1) + env_right_var(2, 1), {0b10: 1}) == {}
    x = {subset_mask([1]): 0, 0: 3}
    assert env_act(env_unit(2).scale(3), x) == {0: 9}
    assert x == {subset_mask([1]): 0, 0: 3}  # the input is not changed
    for mask in (subset_mask([2]), -1):
        with pytest.raises(ValueError):
            env_act(env_unit(1), {mask: 1})
        with pytest.raises(ValueError):
            env_act(EnvElement(1), {mask: 1})


def test_no_stored_zeros_and_ambient_checks():
    u = EnvElement(2, {(subset_mask([1]), 0): 0, (0, 0): 3})
    assert list(u.terms) == [(0, 0)]
    with pytest.raises(ValueError):
        EnvElement(1, {(subset_mask([2]), 0): 1})
    with pytest.raises(ValueError):
        EnvElement(1, {(0, -2): 1})
    with pytest.raises(ValueError):
        env_mul(env_left_var(1, 1), env_left_var(2, 1))


def test_rendering():
    n = 3
    u = env_left_var(n, 1) - env_right_var(n, 1)
    assert render_env(u) == "-1|x1 + x1|1"
    assert render_env(env_unit(n).scale(2) + env_monomial(n, 0b101, 0b10, -3)) == (
        "2*1|1 - 3*x1^x3|x2"
    )
    assert render_env(EnvElement(n)) == "0"
