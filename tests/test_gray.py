"""Int-level Gray helpers: distance rings, cycle node sets, the pattern
bijection."""

from itertools import combinations, product

from hvezones.gray import bit_positions, cycle_node_values, ring_values
from hvezones.tokens import expand_implicant, pattern_implicant


def pattern_nodes(pattern):
    """Node set of the cycle a starred pattern names: through its
    all-stars-zero anchor and the anchor with every star flipped."""
    mask, anchor = pattern_implicant(pattern)
    return set(cycle_node_values(anchor, anchor ^ mask))


def test_complete_cycle_example_two():
    assert pattern_nodes("*0**") == {
        0b0000, 0b0001, 0b0011, 0b0010, 0b1010, 0b1011, 0b1001, 0b1000}


def test_token_00ss_four_nodes():
    assert pattern_nodes("00**") == {0b0000, 0b0001, 0b0011, 0b0010}


def test_single_star_two_node_cycle():
    assert pattern_nodes("1*11") == {0b1011, 0b1111}


def test_single_bit_cycle_from_anchor():
    assert cycle_node_values(0b0000, 0b0001) == [0b0000, 0b0001]


def test_cycle_opposite_node_is_full_flip():
    # two-bit cycle from a non-zero anchor: the only node at distance two
    # from the anchor has both varying bits flipped
    nodes = cycle_node_values(0b0100, 0b0111)
    assert nodes[0] == 0b0100
    assert [m for m in nodes if (m ^ 0b0100).bit_count() == 2] == [0b0111]


def test_cycle_invariants_exhaustive_small_widths():
    """Every assignment of the varying bits visited once, the seed first,
    the other bits fixed, and the full-flip uniqueness property, for every
    seed and varying-bit set at k <= 5."""
    for k in range(1, 6):
        for size in range(1, k + 1):
            for stars in combinations(range(k), size):
                mask = sum(1 << b for b in stars)
                for seed in range(1 << k):
                    nodes = cycle_node_values(seed, seed ^ mask)
                    assert len(nodes) == 1 << size
                    assert len(set(nodes)) == len(nodes)
                    assert nodes[0] == seed
                    assert all((m ^ seed) & ~mask == 0 for m in nodes)
                    for node in nodes:
                        at_size = [m for m in nodes
                                   if (m ^ node).bit_count() == size]
                        assert at_size == [node ^ mask]


def test_token_cycle_bijection_exhaustive():
    """Every starred pattern up to k = 6 covers exactly the node set of its
    cycle, and distinct patterns name distinct node sets."""
    for k in range(1, 7):
        seen = set()
        for symbols in product("01*", repeat=k):
            pattern = "".join(symbols)
            if "*" not in pattern:
                continue
            nodes = pattern_nodes(pattern)
            assert nodes == set(expand_implicant(pattern_implicant(pattern)))
            seen.add(frozenset(nodes))
        assert len(seen) == 3 ** k - 2 ** k


def test_distance_ring_examples():
    assert ring_values(0b0000, 4, 0) == [0]
    assert ring_values(0b0000, 4, 4) == [0b1111]
    ring2 = ring_values(0b0000, 4, 2)
    assert len(ring2) == 6
    assert ring2 == sorted(ring2)
    assert all(v.bit_count() == 2 for v in ring2)


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
