"""Reference composite-order bilinear group.

Group elements live in a cyclic group of order N = P*Q and are represented
by their exponent pair (a, b) with respect to a fixed pair of generators of
the order-P and order-Q subgroups.  An element (a, b) stands for
g_p^a * g_q^b; multiplication adds exponents componentwise and the pairing
multiplies them into a target-group exponent pair:

    e((a1, b1), (a2, b2)) = (a1*a2 mod P, b1*b2 mod Q)

This makes every bilinear-map identity hold exactly (bilinearity, symmetry,
subgroup orthogonality) at the cost of being trivially breakable: anyone who
reads the representation recovers discrete logs.  It is a *functional*
backend for testing predicate-match semantics and operation counts, never a
secure one.  A curve-based backend can replace it behind the same interface.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence, Tuple

Element = Tuple[int, int]  # exponent pair (mod P, mod Q); used for G and G_T alike

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Miller-Rabin, deterministic for n < 3.3e24 with the fixed base set."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
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


def gen_prime(bits: int, rng: random.Random) -> int:
    """Smallest prime >= a random odd `bits`-bit starting point."""
    if bits < 3:
        raise ValueError("prime size must be at least 3 bits")
    n = rng.randrange(1 << (bits - 1), 1 << bits) | 1
    while not is_prime(n):
        n += 2
        if n >= 1 << bits:
            n = (1 << (bits - 1)) | 1
    return n


class GroupError(ValueError):
    """Invalid group parameters (non-prime or equal factors)."""


@dataclass(frozen=True)
class BilinearGroup:
    """Symmetric composite-order pairing group with CRT-exponent elements.

    Fields `g` and `g_q` are the canonical generators of the full group and
    of the order-Q subgroup.  Order-P elements have a zero Q-exponent and
    vice versa.
    """

    p: int
    q: int

    def __post_init__(self):
        if not is_prime(self.p) or not is_prime(self.q):
            raise GroupError("P and Q must both be prime")
        if self.p == self.q:
            raise GroupError("P and Q must be distinct")

    @classmethod
    def generate(cls, bits: int = 32, seed: int = 0) -> "BilinearGroup":
        """Deterministically derive a group with `bits`-bit prime factors."""
        rng = random.Random(seed)
        p = gen_prime(bits, rng)
        q = gen_prime(bits, rng)
        while q == p:
            q = gen_prime(bits, rng)
        return cls(p, q)

    @property
    def n(self) -> int:
        return self.p * self.q

    # --- canonical generators ---

    @property
    def g(self) -> Element:
        """Generator of the full order-N group."""
        return (1, 1)

    @property
    def g_q(self) -> Element:
        """Generator of the order-Q subgroup."""
        return (0, 1)

    @property
    def identity(self) -> Element:
        return (0, 0)

    # --- group law (same representation serves G and G_T) ---

    def mul(self, x: Element, y: Element) -> Element:
        return ((x[0] + y[0]) % self.p, (x[1] + y[1]) % self.q)

    def power(self, x: Element, k: int) -> Element:
        return (x[0] * k % self.p, x[1] * k % self.q)

    def inv(self, x: Element) -> Element:
        return (-x[0] % self.p, -x[1] % self.q)

    def pair(self, x: Element, y: Element) -> Element:
        """Bilinear map into the target group."""
        return (x[0] * y[0] % self.p, x[1] * y[1] % self.q)

    def pair_product(self, xs: Sequence[Element], ys: Sequence[Element]) -> Element:
        """Multi-pairing: the target-group product of e(xs[i], ys[i]).

        Every factor is one `pair` call, so pairing counts stay exact;
        the target exponents are summed and reduced once.  A curve backend
        puts its multi-pairing here, sharing one final exponentiation
        across the factors.  The empty product is the identity.
        """
        if len(xs) != len(ys):
            raise ValueError(f"{len(xs)} left factors but {len(ys)} right ones")
        a = b = 0
        for ta, tb in map(self.pair, xs, ys):
            a += ta
            b += tb
        return (a % self.p, b % self.q)

    # --- sampling ---

    def random_gp(self, rng: random.Random) -> Element:
        """Random non-identity element of the order-P subgroup."""
        return (rng.randrange(1, self.p), 0)

    def random_gq(self, rng: random.Random) -> Element:
        """Random non-identity element of the order-Q subgroup."""
        return (0, rng.randrange(1, self.q))

    def random_element(self, rng: random.Random) -> Element:
        return (rng.randrange(self.p), rng.randrange(self.q))

    def random_exp_p(self, rng: random.Random) -> int:
        """Random exponent in Z_P (nonzero)."""
        return rng.randrange(1, self.p)

    def random_exp_n(self, rng: random.Random) -> int:
        """Random exponent in Z_N (nonzero)."""
        return rng.randrange(1, self.n)

    # --- predicates used by invariants ---

    def in_gp(self, x: Element) -> bool:
        """Order divides P."""
        return x[1] == 0

    def in_gq(self, x: Element) -> bool:
        """Order divides Q."""
        return x[0] == 0
