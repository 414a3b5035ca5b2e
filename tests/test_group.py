"""Reference bilinear group: primality, bilinearity, orthogonality, and the
CRT isomorphism between residues mod N and exponent pairs."""

import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hvezones.group import (PRIME_BOUND, BilinearGroup, GroupError, gen_prime,
                            is_prime)

# the least strong pseudoprimes to the bases 2..37 and to 2..41
PSI_12 = 399165290221 * 798330580441
PSI_13 = 3317044064679887385961981


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


@pytest.mark.parametrize("factor", [PSI_12, PSI_13])
def test_group_refuses_factors_past_the_primality_bound(factor):
    assert PSI_12 == PRIME_BOUND == 318665857834031151167461
    for p, q in ((factor, 4294967291), (4294967291, factor)):
        with pytest.raises(GroupError, match=f"^P and Q must be below {PSI_12}$"):
            BilinearGroup(p, q)
    with pytest.raises(ValueError, match="^[0-9]+ is not below the primality bound"):
        is_prime(factor)
    assert is_prime(PSI_12 - 2) is False    # the largest odd number still decided


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


class PairGroup:
    """The exponent-pair arithmetic the residues must be isomorphic to:
    (a, b) stands for g_p^a * g_q^b."""

    def __init__(self, p, q):
        self.p, self.q = p, q
        self.g, self.g_q, self.identity = (1, 1), (0, 1), (0, 0)

    def mul(self, x, y):
        return (x[0] + y[0]) % self.p, (x[1] + y[1]) % self.q

    def power(self, x, k):
        return x[0] * k % self.p, x[1] * k % self.q

    def inv(self, x):
        return -x[0] % self.p, -x[1] % self.q

    def pair(self, x, y):
        return x[0] * y[0] % self.p, x[1] * y[1] % self.q

    def pair_product(self, xs, ys):
        out = self.identity
        for x, y in zip(xs, ys):
            out = self.mul(out, self.pair(x, y))
        return out

    def random_gp(self, rng):
        return rng.randrange(1, self.p), 0

    def random_gq(self, rng):
        return 0, rng.randrange(1, self.q)

    def random_element(self, rng):
        return rng.randrange(self.p), rng.randrange(self.q)


@st.composite
def groups(draw):
    """A group with 8- to 32-bit prime factors."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    p = gen_prime(draw(st.integers(8, 32)), rng)
    q = gen_prime(draw(st.integers(8, 32)), rng)
    assume(p != q)
    return BilinearGroup(p, q)


exponents = st.integers(0, 2**40)


@settings(max_examples=200, deadline=None)
@given(groups(), st.lists(st.tuples(exponents, exponents), min_size=2, max_size=6),
       st.integers(-2**40, 2**40), st.integers(0, 2**32))
def test_residues_are_isomorphic_to_exponent_pairs(grp, pairs, k, seed):
    ref = PairGroup(grp.p, grp.q)
    for a, b in pairs:
        assert grp.split(grp.element(a, b)) == (a % grp.p, b % grp.q)
    xs = [grp.element(a, b) for a, b in pairs]
    rs = [grp.split(x) for x in xs]
    for x in xs:
        assert 0 <= x < grp.n
        assert grp.element(*grp.split(x)) == x
    x, y, rx, ry = xs[0], xs[1], rs[0], rs[1]
    assert grp.split(grp.mul(x, y)) == ref.mul(rx, ry)
    assert grp.split(grp.power(x, k)) == ref.power(rx, k)
    assert grp.split(grp.inv(x)) == ref.inv(rx)
    assert grp.split(grp.pair(x, y)) == ref.pair(rx, ry)
    half = len(xs) // 2
    assert (grp.split(grp.pair_product(xs[:half], xs[half:2 * half]))
            == ref.pair_product(rs[:half], rs[half:2 * half]))
    for name in ("g", "g_q", "identity"):
        assert grp.split(getattr(grp, name)) == getattr(ref, name)
    assert grp.in_gp(x) == (rx[1] == 0)
    assert grp.in_gq(x) == (rx[0] == 0)
    for name, shape in (("random_gp", lambda r: (r[0], 0)),
                        ("random_gq", lambda r: (0, r[1])),
                        ("random_element", lambda r: r)):
        rng, ref_rng = random.Random(seed), random.Random(seed)
        got, want = getattr(grp, name)(rng), getattr(ref, name)(ref_rng)
        assert rng.getstate() == ref_rng.getstate()
        assert grp.split(got) == want == shape(want)


def test_group_equality_reads_only_the_factors():
    grp = BilinearGroup.generate(seed=6)
    twin = BilinearGroup(grp.p, grp.q)
    assert twin == grp and hash(twin) == hash(grp)
    assert (twin.n, twin.e_p, twin.e_q) == (grp.n, grp.e_p, grp.e_q)
    assert grp.split(grp.e_p) == (1, 0) and grp.split(grp.e_q) == (0, 1)
    assert repr(grp) == f"BilinearGroup(p={grp.p}, q={grp.q})"
