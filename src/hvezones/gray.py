"""Int-level Gray-code helpers on the k-cube.

Codewords are k-bit values; bit position 0 is the least significant bit.
The complete Gray cycle through a seed and a target varies exactly their
differing bits, so its node set is every submask translation of the seed
by that difference.  A pattern with x stars covers exactly the node set of
one such cycle: the cycle through its all-stars-zero anchor and the anchor
with every star bit flipped.  The optimizers weigh these node sets, and the
minimizer's patterns are what the server pays for.
"""

from __future__ import annotations

from typing import List, Tuple


def bit_positions(mask: int) -> Tuple[int, ...]:
    """Set-bit positions of a mask, ascending (lsb = position 0)."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def ring_values(center: int, width: int, i: int) -> List[int]:
    """Codewords at Hamming distance exactly i from the center, ascending.

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
    """Node set of the unique complete cycle through seed and target (all
    submask translations of their differing bits), seed first."""
    diff = seed ^ target
    nodes = [seed]
    sub = diff
    while sub:
        nodes.append(seed ^ sub)
        sub = (sub - 1) & diff
    return nodes
