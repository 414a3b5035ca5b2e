"""Reference composite-order bilinear group.

Group elements live in a cyclic group of order N = P*Q.  Fix generators
g_p and g_q of the order-P and order-Q subgroups; the element
g_p^a * g_q^b is stored as its CRT residue

    x = a*e_p + b*e_q  (mod N),  e_p = Q*(Q^-1 mod P),  e_q = P*(P^-1 mod Q),

so that x mod P = a and x mod Q = b (`element` and `split` convert).
Multiplication adds residues, exponentiation scales them, and the pairing
multiplies two residues into a target-group residue:

    e(x, y) = x*y mod N,  which splits to (a1*a2 mod P, b1*b2 mod Q).

This makes every bilinear-map identity hold exactly (bilinearity, symmetry,
subgroup orthogonality) at the cost of being trivially breakable: anyone who
reads the representation recovers discrete logs.  It is a *functional*
backend for testing predicate-match semantics and operation counts, never a
secure one.  A curve-based backend can replace it behind the same interface.

Both factors must be distinct primes below PRIME_BOUND, the bound under
which `is_prime`'s fixed Miller-Rabin bases decide primality exactly.
Below psi_t, the least strong pseudoprime to the first t prime bases, those
t bases already decide it (Jaeschke, "On strong pseudoprimes to several
bases", Math. Comp. 1993; Sorenson & Webster, "Strong pseudoprimes to
twelve prime bases", Math. Comp. 2017), so a 32-bit factor runs 4 or 5
bases rather than all 12.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Sequence, Tuple

Element = int  # CRT residue mod N; used for G and G_T alike

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# psi_12 = 399165290221 * 798330580441 (~3.2e23), the least strong
# pseudoprime to every base above
PRIME_BOUND = 318665857834031151167461
MAX_PRIME_BITS = PRIME_BOUND.bit_length() - 1    # 78; 2**78 < PRIME_BOUND
# (psi_t, t): below psi_t the first t bases decide primality; psi_7 = psi_8
# and psi_9 = psi_10 = psi_11, so those counts are never needed
_MR_ROUNDS = ((2047, 1), (1373653, 2), (25326001, 3), (3215031751, 4),
              (2152302898747, 5), (3474749660383, 6), (341550071728321, 7),
              (3825123056546413051, 9), (PRIME_BOUND, 12))


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < PRIME_BOUND; raises ValueError at
    or above the bound rather than guess.

    Trial division by the twelve bases 2..37, then strong-probable-prime
    rounds with only the first t of them, t the least count with
    n < psi_t in `_MR_ROUNDS`: 1 base below 2047, 4 below 3215031751
    (every 31-bit n), 5 below 2152302898747 (every 32-bit n), and all 12
    only above 3825123056546413051.  The answer is the twelve-base
    answer for every n below the bound (Jaeschke 1993; Sorenson and
    Webster 2017).
    """
    if n >= PRIME_BOUND:
        raise ValueError(f"{n} is not below the primality bound {PRIME_BOUND}")
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
    for psi, rounds in _MR_ROUNDS:
        if n < psi:
            break
    for a in _MR_BASES[:rounds]:
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


class GroupError(ValueError):
    """Invalid group parameters (non-prime, too large or equal factors)."""


def gen_prime(bits: int, rng: random.Random) -> int:
    """Smallest prime >= a random odd `bits`-bit starting point, wrapping
    to the least odd `bits`-bit number.  Sizes run from 3 to MAX_PRIME_BITS,
    the widest at which every candidate is below PRIME_BOUND."""
    if not 3 <= bits <= MAX_PRIME_BITS:
        raise GroupError(f"prime size must be 3 to {MAX_PRIME_BITS} bits, not {bits}")
    n = rng.randrange(1 << (bits - 1), 1 << bits) | 1
    while not is_prime(n):
        n += 2
        if n >= 1 << bits:
            n = (1 << (bits - 1)) | 1
    return n


@dataclass(frozen=True)
class BilinearGroup:
    """Symmetric composite-order pairing group with CRT-residue elements.

    Equality and hashing read only `p` and `q`; the modulus `n` and the
    CRT idempotents `e_p`, `e_q` are derived once at construction.
    Order-P elements are multiples of Q and vice versa.
    """

    p: int
    q: int
    n: int = field(init=False, repr=False, compare=False)
    e_p: int = field(init=False, repr=False, compare=False)
    e_q: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.p >= PRIME_BOUND or self.q >= PRIME_BOUND:
            raise GroupError(f"P and Q must be below {PRIME_BOUND}")
        if not is_prime(self.p) or not is_prime(self.q):
            raise GroupError("P and Q must both be prime")
        if self.p == self.q:
            raise GroupError("P and Q must be distinct")
        p, q = self.p, self.q
        object.__setattr__(self, "n", p * q)
        object.__setattr__(self, "e_p", q * pow(q, -1, p))
        object.__setattr__(self, "e_q", p * pow(p, -1, q))

    @classmethod
    def generate(cls, bits: int = 32, seed: int = 0) -> "BilinearGroup":
        """Deterministically derive a group with `bits`-bit prime factors."""
        rng = random.Random(seed)
        p = gen_prime(bits, rng)
        q = gen_prime(bits, rng)
        while q == p:
            q = gen_prime(bits, rng)
        return cls(p, q)

    # --- CRT conversion ---

    def element(self, a: int, b: int) -> Element:
        """The element g_p^a * g_q^b."""
        return (a * self.e_p + b * self.e_q) % self.n

    def split(self, x: Element) -> Tuple[int, int]:
        """The exponent pair (a mod P, b mod Q) of x = g_p^a * g_q^b."""
        return x % self.p, x % self.q

    # --- canonical generators ---

    @property
    def g(self) -> Element:
        """Generator of the full order-N group."""
        return 1

    @property
    def g_q(self) -> Element:
        """Generator of the order-Q subgroup."""
        return self.e_q

    @property
    def identity(self) -> Element:
        return 0

    # --- group law (same representation serves G and G_T) ---

    def mul(self, x: Element, y: Element) -> Element:
        return (x + y) % self.n

    def power(self, x: Element, k: int) -> Element:
        return x * k % self.n

    def inv(self, x: Element) -> Element:
        return -x % self.n

    def pair(self, x: Element, y: Element) -> Element:
        """Bilinear map into the target group."""
        return x * y % self.n

    def pair_product(self, xs: Sequence[Element], ys: Sequence[Element]) -> Element:
        """Multi-pairing: the target-group product of e(xs[i], ys[i]).

        Every factor is one `pair` call, so pairing counts stay exact;
        the target residues are summed and reduced once.  A curve backend
        puts its multi-pairing here, sharing one final exponentiation
        across the factors.  The empty product is the identity.
        """
        if len(xs) != len(ys):
            raise ValueError(f"{len(xs)} left factors but {len(ys)} right ones")
        return sum(map(self.pair, xs, ys)) % self.n

    # --- sampling ---

    def random_gp(self, rng: random.Random) -> Element:
        """Random non-identity element of the order-P subgroup."""
        return self.element(rng.randrange(1, self.p), 0)

    def random_gq(self, rng: random.Random) -> Element:
        """Random non-identity element of the order-Q subgroup."""
        return self.element(0, rng.randrange(1, self.q))

    def random_element(self, rng: random.Random) -> Element:
        return self.element(rng.randrange(self.p), rng.randrange(self.q))

    def random_exp_p(self, rng: random.Random) -> int:
        """Random exponent in Z_P (nonzero)."""
        return rng.randrange(1, self.p)

    def random_exp_n(self, rng: random.Random) -> int:
        """Random exponent in Z_N (nonzero)."""
        return rng.randrange(1, self.n)

    # --- predicates used by invariants ---

    def in_gp(self, x: Element) -> bool:
        """Order divides P."""
        return x % self.q == 0

    def in_gq(self, x: Element) -> bool:
        """Order divides Q."""
        return x % self.p == 0
