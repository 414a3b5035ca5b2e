"""`is_prime` runs only the Miller-Rabin bases its input's size needs; its
answers must match a sieve and the full twelve-base test below the bound."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hvezones import group
from hvezones.group import (MAX_PRIME_BITS, PRIME_BOUND, BilinearGroup,
                            GroupError, gen_prime, is_prime)

BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# psi_t for t = 1..12: the least strong pseudoprime to the first t prime
# bases (OEIS A014233; Jaeschke 1993, Sorenson and Webster 2017)
PSI = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
       341550071728321, 341550071728321, 3825123056546413051,
       3825123056546413051, 3825123056546413051, 318665857834031151167461)


def strong_probable_prime(n, bases):
    """n passes the strong test to every base (n odd, above every base)."""
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def twelve_base_is_prime(n):
    """The test as it was before the base count followed n's size: trial
    division, then a strong test to all twelve bases."""
    if n < 2:
        return False
    for p in BASES:
        if n % p == 0:
            return n == p
    return strong_probable_prime(n, BASES)


def test_rounds_table_is_the_least_pseudoprimes():
    """One entry per distinct psi_t, with the least t reaching it."""
    want = tuple((PSI[t - 1], t) for t in range(1, 13)
                 if t == 1 or PSI[t - 1] != PSI[t - 2])
    assert group._MR_ROUNDS == want
    assert want[-1] == (PRIME_BOUND, 12)


def test_agrees_with_a_sieve_below_2_to_the_20():
    size = 1 << 20
    sieve = bytearray([1]) * size
    sieve[0] = sieve[1] = 0
    for p in range(2, int(size ** 0.5) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, size, p)))
    wrong = [n for n in range(size) if is_prime(n) != sieve[n]]
    assert wrong == []


@pytest.mark.parametrize("psi, t", group._MR_ROUNDS)
def test_each_bound_is_a_pseudoprime_the_next_bases_catch(psi, t):
    assert strong_probable_prime(psi, BASES[:t])
    if psi == PRIME_BOUND:
        with pytest.raises(ValueError):
            is_prime(psi)
        near = range(psi - 2, psi)
    else:
        assert is_prime(psi) is False
        near = range(psi - 2, psi + 3)
    for n in near:
        assert is_prime(n) == twelve_base_is_prime(n), n


def candidates():
    """Odd numbers of 20-78 bits: uniform draws, which trial division
    mostly settles, then primes and two-prime products, which reach the
    strong rounds."""
    def sized(bits):
        return st.integers(1 << (bits - 1), (1 << bits) - 1).map(lambda n: n | 1)

    def product(seed, bits):
        rng = random.Random(seed)
        small = rng.randrange(10, bits - 9)
        return gen_prime(small, rng) * gen_prime(bits - small, rng)

    bits = st.integers(20, MAX_PRIME_BITS)
    seeds = st.integers(0, 2**32)
    return st.one_of(
        bits.flatmap(sized),
        st.builds(lambda seed, b: gen_prime(b, random.Random(seed)), seeds, bits),
        st.builds(product, seeds, bits))


@settings(max_examples=500, deadline=None)
@given(candidates())
def test_agrees_with_the_twelve_base_test(n):
    assert n % 2 == 1 and n < PRIME_BOUND
    assert is_prime(n) == twelve_base_is_prime(n)


def test_gen_prime_refuses_sizes_past_the_bound():
    for seed in range(40):
        with pytest.raises(GroupError, match="^prime size must be 3 to 78 bits, not 79$"):
            gen_prime(79, random.Random(seed))
    with pytest.raises(GroupError):
        gen_prime(2, random.Random(0))
    with pytest.raises(GroupError):
        BilinearGroup.generate(bits=80)
    for seed in range(5):
        p = gen_prime(78, random.Random(seed))
        assert p.bit_length() == 78 and twelve_base_is_prime(p)
