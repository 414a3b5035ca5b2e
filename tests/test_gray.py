"""Gray-code machinery: distances, paths, cycles, the token bijection."""

from itertools import combinations

import pytest

from hvezones.gray import (Codeword, bit_positions, brg_path, codeword,
                           complete_cycle, cycle_to_token, distance_ring,
                           gray_rank, gray_value, hamming, ring_values,
                           token_to_cycle)


def test_hamming_worked_example():
    # 0100 vs 0010: distance two, the two middle bits differ
    d, positions = hamming(codeword("0100"), codeword("0010"))
    assert d == 2
    assert positions == (1, 2)


def test_hamming_identity_and_extremes():
    a = codeword("0110")
    assert hamming(a, a) == (0, ())
    d, positions = hamming(codeword("0001"), codeword("1000"))
    assert d == 2
    assert positions == (0, 3)  # lsb and msb


def test_hamming_width_mismatch():
    with pytest.raises(ValueError):
        hamming(codeword("01"), codeword("011"))


def test_gray_sequence_inverse():
    for t in range(256):
        assert gray_rank(gray_value(t)) == t


def test_brg_path_worked_example():
    path = brg_path(codeword("0001"), codeword("1000"))
    assert [str(c) for c in path] == ["0001", "1001", "1000"]


def test_brg_path_adjacent_is_two_nodes():
    assert brg_path(codeword("0100"), codeword("0110")) == [
        codeword("0100"), codeword("0110")]


def test_brg_path_follows_two_bit_gray_sequence():
    # differing bits are the low two; restricted walk is 00 -> 01 -> 11
    path = brg_path(codeword("0000"), codeword("0011"))
    assert [str(c) for c in path] == ["0000", "0001", "0011"]


def test_brg_path_rejects_equal_endpoints():
    with pytest.raises(ValueError):
        brg_path(codeword("01"), codeword("01"))


def test_brg_path_structure_randomized():
    """Intermediate nodes distinct, only differing bits toggle, single-bit
    steps throughout."""
    import random
    rng = random.Random(0)
    for _ in range(300):
        k = rng.randrange(2, 9)
        a, b = rng.sample(range(1 << k), 2)
        path = brg_path(Codeword(a, k), Codeword(b, k))
        assert path[0].value == a and path[-1].value == b
        assert len({c.value for c in path}) == len(path)
        diff = a ^ b
        for prev, nxt in zip(path, path[1:]):
            step = prev.value ^ nxt.value
            assert step.bit_count() == 1
            assert step & diff == step  # only differing bits ever toggle


def test_complete_cycle_example_two():
    cycle = token_to_cycle("*0**")
    assert [str(c) for c in cycle.nodes] == [
        "0000", "0001", "0011", "0010", "1010", "1011", "1001", "1000"]
    assert cycle.star_positions == (0, 1, 3)


def test_token_00ss_four_nodes():
    cycle = token_to_cycle("00**")
    assert [str(c) for c in cycle.nodes] == ["0000", "0001", "0011", "0010"]


def test_single_star_two_node_cycle():
    cycle = token_to_cycle("1*11")
    assert [str(c) for c in cycle.nodes] == ["1011", "1111"]


def test_single_bit_cycle_from_anchor():
    cycle = complete_cycle(codeword("0000"), {0})
    assert [str(c) for c in cycle.nodes] == ["0000", "0001"]


def test_cycle_opposite_node_is_full_flip():
    # two-bit cycle from a non-zero anchor: the node two steps along the
    # cycle has both varying bits flipped
    cycle = complete_cycle(codeword("0100"), {0, 1})
    assert cycle.nodes[0] == codeword("0100")
    assert cycle.nodes[2].value == 0b0111


def test_complete_cycle_rejects_empty_star_set():
    with pytest.raises(ValueError):
        complete_cycle(codeword("0100"), set())


def test_cycle_invariants_exhaustive_small_widths():
    """Cyclic single-bit Gray steps, every assignment visited once, and the
    full-flip uniqueness property, for every anchor and star set at k <= 5."""
    for k in range(1, 6):
        for size in range(1, k + 1):
            for stars in combinations(range(k), size):
                for anchor in range(1 << k):
                    cycle = complete_cycle(Codeword(anchor, k), stars)
                    nodes = [c.value for c in cycle.nodes]
                    assert len(nodes) == 1 << size
                    assert len(set(nodes)) == len(nodes)
                    assert nodes[0] == anchor
                    mask = sum(1 << b for b in stars)
                    for prev, nxt in zip(nodes, nodes[1:] + nodes[:1]):
                        step = prev ^ nxt
                        assert step.bit_count() == 1 and step & mask == step
                    for node in nodes:
                        at_size = [m for m in nodes
                                   if (m ^ node).bit_count() == size]
                        assert at_size == [node ^ mask]


def test_token_cycle_bijection_exhaustive():
    """token_to_cycle and cycle_to_token invert each other for every
    starred pattern up to k = 6."""
    for k in range(1, 7):
        count = 0
        for pattern_id in range(3 ** k):
            digits = []
            x = pattern_id
            for _ in range(k):
                digits.append("01*"[x % 3])
                x //= 3
            pattern = "".join(digits)
            if "*" not in pattern:
                continue
            count += 1
            assert cycle_to_token(token_to_cycle(pattern)) == pattern
        assert count == 3 ** k - 2 ** k


def test_token_to_cycle_rejects_starless():
    with pytest.raises(ValueError):
        token_to_cycle("0101")


def test_distance_ring_examples():
    center = codeword("0000")
    assert [c.value for c in distance_ring(center, 0)] == [0]
    assert [str(c) for c in distance_ring(center, 4)] == ["1111"]
    ring2 = distance_ring(center, 2)
    assert len(ring2) == 6
    assert [c.value for c in ring2] == sorted(c.value for c in ring2)
    assert all((c.value ^ center.value).bit_count() == 2 for c in ring2)


def test_ring_values_match_combination_rings():
    """The int-level ring walk against rings built from bit combinations."""
    for width in range(1, 7):
        for center in range(1 << width):
            for i in range(width + 2):
                want = sorted(center ^ sum(1 << p for p in combo)
                              for combo in combinations(range(width), i))
                assert ring_values(center, width, i) == want


def test_bit_positions_match_bit_scan():
    for mask in list(range(1 << 10)) + [1 << 200, (1 << 130) - 1, 0b1011 << 70]:
        assert bit_positions(mask) == tuple(
            p for p in range(mask.bit_length()) if mask >> p & 1)


def test_distance_ring_range_check():
    with pytest.raises(ValueError):
        distance_ring(codeword("0000"), 5)
    with pytest.raises(ValueError):
        distance_ring(codeword("0000"), -1)
