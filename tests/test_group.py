"""Reference bilinear group: primality, bilinearity, orthogonality."""

import random

import pytest

from hvezones.group import BilinearGroup, GroupError, gen_prime, is_prime


def test_prime_generation_is_deterministic():
    rng1, rng2 = random.Random(5), random.Random(5)
    assert gen_prime(32, rng1) == gen_prime(32, rng2)


def test_generated_primes_are_prime_and_sized():
    rng = random.Random(0)
    for _ in range(20):
        p = gen_prime(32, rng)
        assert is_prime(p)
        assert p.bit_length() == 32


def test_known_primality_values():
    assert is_prime(2) and is_prime(3) and is_prime(2**31 - 1)
    assert not is_prime(1) and not is_prime(561) and not is_prime(2**32 - 1)


def test_group_rejects_bad_parameters():
    with pytest.raises(GroupError):
        BilinearGroup(15, 7)        # 15 is composite
    with pytest.raises(GroupError):
        BilinearGroup(7, 7)         # equal primes
    with pytest.raises(GroupError):
        BilinearGroup(7, 9)


def test_generate_distinct_primes():
    grp = BilinearGroup.generate(bits=32, seed=3)
    assert grp.p != grp.q
    assert grp.n == grp.p * grp.q


def test_bilinearity_and_symmetry_randomized():
    grp = BilinearGroup.generate(seed=11)
    rng = random.Random(7)
    for _ in range(1000):
        a = grp.random_element(rng)
        b = grp.random_element(rng)
        u = rng.randrange(1, grp.n)
        v = rng.randrange(1, grp.n)
        lhs = grp.pair(grp.power(a, u), grp.power(b, v))
        rhs = grp.power(grp.pair(a, b), u * v)
        assert lhs == rhs
        assert grp.pair(a, b) == grp.pair(b, a)


def test_subgroup_orthogonality():
    grp = BilinearGroup.generate(seed=2)
    rng = random.Random(1)
    for _ in range(1000):
        x = grp.random_gp(rng)
        y = grp.random_gq(rng)
        assert grp.pair(x, y) == grp.identity
        assert grp.pair(y, x) == grp.identity


def test_subgroup_membership_predicates():
    grp = BilinearGroup.generate(seed=2)
    rng = random.Random(4)
    assert grp.in_gp(grp.random_gp(rng))
    assert grp.in_gq(grp.random_gq(rng))
    assert grp.in_gq(grp.g_q)
    assert not grp.in_gp(grp.g_q) or grp.g_q == grp.identity


def test_group_law_identities():
    grp = BilinearGroup.generate(seed=9)
    rng = random.Random(3)
    x = grp.random_element(rng)
    assert grp.mul(x, grp.identity) == x
    assert grp.mul(x, grp.inv(x)) == grp.identity
    assert grp.power(x, 0) == grp.identity
    assert grp.power(x, grp.p * grp.q) == grp.identity  # group order kills all


def test_pair_product_matches_folded_pairings():
    grp = BilinearGroup.generate(seed=13)
    rng = random.Random(8)
    assert grp.pair_product((), ()) == grp.identity
    for size in range(1, 25):
        xs = [grp.random_element(rng) for _ in range(size)]
        ys = [grp.random_element(rng) for _ in range(size)]
        want = grp.identity
        for x, y in zip(xs, ys):
            want = grp.mul(want, grp.pair(x, y))
        assert grp.pair_product(xs, ys) == want
    with pytest.raises(ValueError):
        grp.pair_product([grp.g, grp.g], [grp.g])
