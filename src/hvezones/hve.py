"""Hidden Vector Encryption over the reference bilinear group.

Setup produces a key pair of width l; encryption binds a message (a
target-group element) to an l-bit attribute vector; a token encodes a
pattern over {0,1,*}; query recovers the message exactly when the
ciphertext attribute agrees with the pattern on every non-star position,
and otherwise yields a value outside the registered message space.

Patterns and attributes are written msb-first in text form ("01*1"), and
component i below refers to text position i (leftmost = 0).  Query reports
the number of pairing evaluations it performed, which is 2*|J| + 1 for J
the set of non-star positions; that count is the cost model the encoding
optimizers minimize.

Keys, ciphertexts and tokens are immutable once built and safe to share
across threads; query is pure.  Key generation derives its group and
randomness from a seed; encryption and token generation take an explicit
randomness source, so parallel callers must give each worker its own
stream.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from operator import itemgetter
from typing import Dict, Optional, Sequence, Tuple

from .group import BilinearGroup, Element

PATTERN_CHARS = frozenset("01*")


def _check_attribute(attribute: str, width: int) -> Tuple[int, ...]:
    if not all(c in "01" for c in attribute):
        raise ValueError(f"attribute must be over {{0,1}}: {attribute!r}")
    if len(attribute) != width:
        raise ValueError(f"attribute length {len(attribute)} != width {width}")
    return tuple(int(c) for c in attribute)


def check_pattern(pattern: str, width: Optional[int] = None) -> str:
    bad = set(pattern) - PATTERN_CHARS
    if bad:
        raise ValueError(f"pattern symbols outside {{0,1,*}}: {sorted(bad)}")
    if width is not None and len(pattern) != width:
        raise ValueError(f"pattern length {len(pattern)} != width {width}")
    return pattern


@dataclass(frozen=True)
class SecretKey:
    group: BilinearGroup
    g_q: Element
    a: int
    g: Element
    v: Element
    u: Tuple[Element, ...]
    h: Tuple[Element, ...]
    w: Tuple[Element, ...]

    @property
    def width(self) -> int:
        return len(self.u)


@dataclass(frozen=True)
class PublicKey:
    group: BilinearGroup
    g_q: Element
    v_blinded: Element          # V = v * R_v
    a_pair: Element             # A = e(g, v)^a, a target-group element
    u_blinded: Tuple[Element, ...]
    h_blinded: Tuple[Element, ...]
    w_blinded: Tuple[Element, ...]

    @property
    def width(self) -> int:
        return len(self.u_blinded)


@dataclass(frozen=True)
class Ciphertext:
    c_prime: Element            # target-group component
    c0: Element
    c1: Tuple[Element, ...]     # per position: (U_i^{I_i} H_i)^s Z_{i,1}
    c2: Tuple[Element, ...]     # per position: W_i^s Z_{i,2}

    @property
    def width(self) -> int:
        return len(self.c1)


@dataclass(frozen=True)
class HveToken:
    pattern: str
    k0: Element
    positions: Tuple[int, ...]  # J: the non-star positions, ascending
    k1: Tuple[Element, ...]     # K_{i,1}, aligned with positions
    k2: Tuple[Element, ...]

    @property
    def width(self) -> int:
        return len(self.pattern)


@dataclass(slots=True)
class QueryResult:
    message: Optional[int]      # registered message id, or None on non-match
    value: Element              # the recovered target-group value
    pairings: int

    @property
    def matched(self) -> bool:
        return self.message is not None


class MessageSpace:
    """Registry mapping small message identifiers to target-group elements.

    Query decides match/non-match by membership in this registry; a
    non-match recovers a target value that is outside it with overwhelming
    probability (the failure odds are ~1/P per query for the reference
    group).
    """

    def __init__(self, group: BilinearGroup, ids: Sequence[int], seed: int = 0):
        rng = random.Random(seed)
        self._by_id: Dict[int, Element] = {}
        self._by_element: Dict[Element, int] = {}
        for mid in ids:
            while True:
                el = group.random_element(rng)
                if el not in self._by_element and el != group.identity:
                    break
            self._by_id[mid] = el
            self._by_element[el] = mid

    def element(self, message_id: int) -> Element:
        return self._by_id[message_id]

    def lookup(self, element: Element) -> Optional[int]:
        return self._by_element.get(element)


def setup(width: int, seed: int = 0) -> Tuple[PublicKey, SecretKey]:
    """Generate an HVE key pair of the given width.

    The group and the key randomness both derive from `seed`, so the same
    seed always yields byte-identical keys.
    """
    if width < 1:
        raise ValueError("width must be >= 1")
    group = BilinearGroup.generate(seed=seed)
    rng = random.Random(seed ^ 0x5EED)

    a = group.random_exp_p(rng)
    g = group.random_gp(rng)
    v = group.random_gp(rng)
    u = tuple(group.random_gp(rng) for _ in range(width))
    h = tuple(group.random_gp(rng) for _ in range(width))
    w = tuple(group.random_gp(rng) for _ in range(width))
    sk = SecretKey(group, group.g_q, a, g, v, u, h, w)

    r_v = group.random_gq(rng)
    pk = PublicKey(
        group=group,
        g_q=group.g_q,
        v_blinded=group.mul(v, r_v),
        a_pair=group.power(group.pair(g, v), a),
        u_blinded=tuple(group.mul(u[i], group.random_gq(rng)) for i in range(width)),
        h_blinded=tuple(group.mul(h[i], group.random_gq(rng)) for i in range(width)),
        w_blinded=tuple(group.mul(w[i], group.random_gq(rng)) for i in range(width)),
    )
    return pk, sk


def encrypt(pk: PublicKey,
            attribute: str,
            message: Element,
            rng: random.Random) -> Ciphertext:
    """Encrypt a target-group message under an msb-first attribute bit string."""
    bits = _check_attribute(attribute, pk.width)
    grp = pk.group
    s = grp.random_exp_n(rng)
    z = grp.random_gq(rng)
    c1 = []
    c2 = []
    for i, bit in enumerate(bits):
        base = pk.h_blinded[i]
        if bit:
            base = grp.mul(pk.u_blinded[i], base)
        c1.append(grp.mul(grp.power(base, s), grp.random_gq(rng)))
        c2.append(grp.mul(grp.power(pk.w_blinded[i], s), grp.random_gq(rng)))
    return Ciphertext(
        c_prime=grp.mul(message, grp.power(pk.a_pair, s)),
        c0=grp.mul(grp.power(pk.v_blinded, s), z),
        c1=tuple(c1),
        c2=tuple(c2),
    )


def gen_token(sk: SecretKey, pattern: str, rng: random.Random) -> HveToken:
    """Derive the search token for a {0,1,*} pattern.

    Key material exists only for the non-star positions; the all-star
    pattern yields K_0 = g^a and an empty J.
    """
    check_pattern(pattern, sk.width)
    grp = sk.group
    k0 = grp.power(sk.g, sk.a)
    positions = []
    k1 = []
    k2 = []
    for i, ch in enumerate(pattern):
        if ch == "*":
            continue
        r1 = grp.random_exp_p(rng)
        r2 = grp.random_exp_p(rng)
        base = sk.h[i]
        if ch == "1":
            base = grp.mul(sk.u[i], base)
        k0 = grp.mul(k0, grp.mul(grp.power(base, r1), grp.power(sk.w[i], r2)))
        positions.append(i)
        k1.append(grp.power(sk.v, r1))
        k2.append(grp.power(sk.v, r2))
    return HveToken(pattern=pattern, k0=k0, positions=tuple(positions),
                    k1=tuple(k1), k2=tuple(k2))


def query(group: BilinearGroup,
          c: Ciphertext,
          tk: HveToken,
          messages: MessageSpace) -> QueryResult:
    """Evaluate a token against a ciphertext.

    Returns the encrypted message id when the attribute satisfies the
    pattern and a non-match (message None) otherwise, along with the exact
    number of pairings evaluated (2*|J| + 1).  The value is
    C' * prod_{i in J} e(C_{i,1}, K_{i,1}) e(C_{i,2}, K_{i,2}) / e(C_0, K_0),
    with the 2*|J| position pairings taken as one multi-pairing.
    """
    if len(c.c1) != len(tk.pattern):
        raise ValueError(f"ciphertext width {c.width} != token width {tk.width}")
    positions = tk.positions
    if len(positions) > 1:
        pick = itemgetter(*positions)
        xs = pick(c.c1) + pick(c.c2)
    elif positions:
        i, = positions
        xs = (c.c1[i], c.c2[i])
    else:
        xs = ()
    num = group.pair_product(xs, tk.k1 + tk.k2)
    value = group.mul(group.mul(c.c_prime, num), group.inv(group.pair(c.c0, tk.k0)))
    return QueryResult(message=messages.lookup(value), value=value,
                       pairings=len(xs) + 1)
