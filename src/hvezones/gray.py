"""Gray-code machinery on the k-cube.

Codewords are k-bit values; bit position 0 is the least significant bit and
text I/O writes codewords and patterns msb-first ("0100" has bit 2 set).
A pattern with x stars corresponds one-to-one to a closed Gray-order walk
that varies exactly those x bit positions, anchored at the node whose star
bits are all zero; the walk enumerates the binary-reflected sequence of a
virtual x-bit counter whose bit j drives the j-th smallest star position.

A path between two codewords follows the same counter through the cyclic
sequence, so its length is the Gray distance over the differing bits, which
can exceed the Hamming distance; what the construction guarantees is
uniqueness, not shortness.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, List, NamedTuple, Tuple


class Codeword(NamedTuple):
    value: int
    width: int

    def __str__(self) -> str:
        return format(self.value, f"0{self.width}b")


def codeword(text: str) -> Codeword:
    """Parse an msb-first bit string."""
    if not text or set(text) - {"0", "1"}:
        raise ValueError(f"not a codeword: {text!r}")
    return Codeword(int(text, 2), len(text))


def gray_value(t: int) -> int:
    """t-th element of the binary-reflected Gray sequence."""
    return t ^ (t >> 1)


def gray_rank(g: int) -> int:
    """Inverse of gray_value."""
    t = 0
    while g:
        t ^= g
        g >>= 1
    return t


def bit_positions(mask: int) -> Tuple[int, ...]:
    """Set-bit positions of a mask, ascending (lsb = position 0)."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def _check_same_width(a: Codeword, b: Codeword) -> None:
    if a.width != b.width:
        raise ValueError(f"width mismatch: {a.width} != {b.width}")


def hamming(a: Codeword, b: Codeword) -> Tuple[int, Tuple[int, ...]]:
    """Hamming distance and the differing bit positions."""
    _check_same_width(a, b)
    diff = a.value ^ b.value
    positions = bit_positions(diff)
    return len(positions), positions


def _spread(counter: int, positions: Tuple[int, ...]) -> int:
    """Place counter bit j at target bit positions[j]."""
    out = 0
    for j, pos in enumerate(positions):
        if counter >> j & 1:
            out |= 1 << pos
    return out


def _restrict(value: int, positions: Tuple[int, ...]) -> int:
    """Gather target bits positions[j] into counter bit j."""
    out = 0
    for j, pos in enumerate(positions):
        if value >> pos & 1:
            out |= 1 << j
    return out


def brg_path(a: Codeword, b: Codeword) -> List[Codeword]:
    """Unique Gray-order path from a to b over their differing bits.

    Steps forward through the cyclic binary-reflected sequence of the
    differing-bit counter; every intermediate node toggles exactly one
    differing bit.
    """
    _check_same_width(a, b)
    if a.value == b.value:
        raise ValueError("endpoints must differ")
    positions = bit_positions(a.value ^ b.value)
    base = a.value & ~_spread((1 << len(positions)) - 1, positions)
    size = 1 << len(positions)
    t_a = gray_rank(_restrict(a.value, positions))
    t_b = gray_rank(_restrict(b.value, positions))
    steps = (t_b - t_a) % size
    return [
        Codeword(base | _spread(gray_value((t_a + i) % size), positions), a.width)
        for i in range(steps + 1)
    ]


@dataclass(frozen=True)
class BrgCycle:
    """Complete x-bit Gray cycle: a closed walk over 2^x assignments of the
    star positions, all other bits fixed to the anchor's."""

    anchor: Codeword
    star_positions: Tuple[int, ...]
    nodes: Tuple[Codeword, ...]

    @property
    def width(self) -> int:
        return self.anchor.width

    def __len__(self) -> int:
        return len(self.nodes)


def complete_cycle(anchor: Codeword, star_positions: Iterable[int]) -> BrgCycle:
    """The complete Gray cycle through `anchor` varying `star_positions`.

    Node order is the canonical binary-reflected cycle rotated to start at
    the anchor, so the cycle through any two of its nodes is the same
    cyclic sequence regardless of which one anchors it.
    """
    positions = tuple(sorted(set(star_positions)))
    if not positions:
        raise ValueError("star position set must be non-empty")
    if positions[0] < 0 or positions[-1] >= anchor.width:
        raise ValueError("star position out of codeword range")
    size = 1 << len(positions)
    base = anchor.value & ~_spread(size - 1, positions)
    t0 = gray_rank(_restrict(anchor.value, positions))
    nodes = tuple(
        Codeword(base | _spread(gray_value((t0 + t) % size), positions), anchor.width)
        for t in range(size)
    )
    return BrgCycle(anchor=anchor, star_positions=positions, nodes=nodes)


def pattern_star_positions(pattern: str) -> Tuple[int, ...]:
    """Bit positions of the '*' symbols (text is msb-first)."""
    k = len(pattern)
    return tuple(sorted(k - 1 - i for i, ch in enumerate(pattern) if ch == "*"))


def token_to_cycle(pattern: str) -> BrgCycle:
    """Map a pattern with >= 1 star to its unique complete Gray cycle.

    The anchor is the pattern with every star set to zero.
    """
    if set(pattern) - {"0", "1", "*"}:
        raise ValueError(f"pattern symbols outside {{0,1,*}}: {pattern!r}")
    stars = pattern_star_positions(pattern)
    if not stars:
        raise ValueError("star-free pattern maps to a single node, not a cycle")
    anchor = Codeword(int(pattern.replace("*", "0"), 2), len(pattern))
    return complete_cycle(anchor, stars)


def cycle_to_token(cycle: BrgCycle) -> str:
    """Inverse of token_to_cycle: stars at the cycle's varying positions,
    remaining bits copied from the anchor."""
    k = cycle.width
    stars = set(cycle.star_positions)
    chars = []
    for i in range(k):
        pos = k - 1 - i
        chars.append("*" if pos in stars else ("1" if cycle.anchor.value >> pos & 1 else "0"))
    return "".join(chars)


def distance_ring(center: Codeword, i: int) -> Tuple[Codeword, ...]:
    """All codewords at Hamming distance exactly i, ascending by value."""
    if not 0 <= i <= center.width:
        raise ValueError(f"distance {i} out of range [0, {center.width}]")
    values = sorted(
        center.value ^ sum(1 << p for p in combo)
        for combo in combinations(range(center.width), i)
    )
    return tuple(Codeword(v, center.width) for v in values)


def ring_values(center: int, width: int, i: int) -> List[int]:
    """Int-level distance ring, ascending; fast path for the optimizers.

    Walks the width-bit masks with exactly i set bits in ascending order
    (Gosper's next-same-popcount step) and translates them by the center.
    """
    if i == 0:
        return [center]
    out = []
    mask = (1 << i) - 1
    end = 1 << width
    while mask < end:
        out.append(center ^ mask)
        low = mask & -mask
        ripple = mask + low
        mask = ripple | ((mask ^ ripple) >> 2) // low
    out.sort()
    return out


def cycle_node_values(seed: int, target: int) -> List[int]:
    """Int-level node set of the unique complete cycle through seed and
    target (all submask translations of their differing bits)."""
    diff = seed ^ target
    nodes = [seed]
    sub = diff
    while sub:
        nodes.append(seed ^ sub)
        sub = (sub - 1) & diff
    return nodes
