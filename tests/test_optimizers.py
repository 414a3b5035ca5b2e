"""Encoders: worked examples, stage-optimality oracles, operation counts."""

import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hvezones import bench
from hvezones.gray import ring_values
from hvezones.grid import Grid
from hvezones.optimizers import (Assignment, OpCounter, _global_order,
                                 _quad_labels, gray_optimizer, hge_baseline,
                                 msgo, random_baseline, sgo)

from oracles import stage_objective


def top_cell(probs):
    """Highest-probability cell, ties to the lowest id."""
    return min(range(len(probs)), key=lambda c: (-probs[c], c))


def test_two_cell_grid_forced():
    enc = gray_optimizer(Grid.regular(2, [0.9, 0.1]))
    assert enc.codewords.tolist() == [0, 1]


def test_seed_defaults_and_validation():
    g = Grid.regular(4, [0.2, 0.9, 0.4, 0.9])
    enc = gray_optimizer(g)
    assert enc.value(1) == 0  # highest probability, lowest id on tie
    with pytest.raises(ValueError):
        gray_optimizer(g, depth=0)
    with pytest.raises(ValueError):
        gray_optimizer(g, depth=5)


def test_assignment_rejects_double_assignment():
    """Claims take cells 1, 0, 2, 3 in global order; a taken codeword and
    a pass from a free seed are refused."""
    st = Assignment(Grid.regular(4, [0.3, 0.4, 0.2, 0.1]))
    with pytest.raises(ValueError):
        st.go_pass(3, 1)  # a pass needs a claimed seed codeword
    st.claim(2)
    with pytest.raises(ValueError):
        st.claim(2)  # a taken codeword
    st.go_pass(2, 1)  # the seed's free neighbours, ascending
    assert st.claimed == [2, 0, 3]
    st.complete_sorted()
    assert st.to_encoding("GO").codewords.tolist() == [0, 2, 3, 1]


def test_assignment_refuses_a_real_cell_without_codeword():
    """Cell 1, at probability zero, still outranks dummy cell 3 in the
    global order, so two claims leave it without a codeword."""
    st = Assignment(Grid.regular(3, [0.5, 0.0, 0.9]))
    st.claim(0)
    st.claim(1)
    with pytest.raises(ValueError, match="cell 1 left unassigned"):
        st.to_encoding("GO")
    st.claim(3)
    assert st.to_encoding("GO").codewords.tolist() == [1, 3, 0]


def test_op_counter_closed_form():
    """Full-depth run on a power-of-two grid counts exactly
    n**log2(3) - 2n + 1 probability multiplications."""
    rng = random.Random(3)
    for n in (4, 8, 16, 32):
        probs = [rng.random() for _ in range(n)]
        counter = OpCounter()
        gray_optimizer(Grid.regular(n, probs), counter=counter)
        expected = round(n ** math.log2(3) - 2 * n + 1)
        assert counter.multiplications == expected


def test_op_counter_monotone():
    counter = OpCounter()
    seen = []
    for factors in (1, 3, 7, 2):
        counter.record_product(factors)
        seen.append(counter.multiplications)
    assert seen == sorted(seen)
    assert counter.multiplications == 0 + 2 + 6 + 1


def test_stage_choices_match_bruteforce_maxima():
    """Each ring assignment attains the stage-constrained optimum: over all
    ways to place remaining cells on the ring (given earlier stages), the
    realized objective is maximal."""
    rng = random.Random(11)
    for _ in range(25):
        probs = [rng.random() for _ in range(8)]
        g = Grid.regular(8, probs)
        enc = gray_optimizer(g)
        seed = top_cell(probs)
        assert enc.value(seed) == 0
        assigned = {0: probs[seed]}
        used = {seed}
        for distance in (1, 2, 3):
            ring = ring_values(0, 3, distance)
            pool = [c for c in range(8) if c not in used]
            best = -1.0
            for chosen in itertools.permutations(pool, len(ring)):
                trial = dict(assigned)
                trial.update({node: probs[c] for node, c in zip(ring, chosen)})
                best = max(best, stage_objective(trial, 3, 0, distance))
            for node in ring:
                cell = next(c for c in range(8) if enc.value(c) == node)
                assigned[node] = probs[cell]
                used.add(cell)
            got = stage_objective(assigned, 3, 0, distance)
            assert got >= best - 1e-9


def test_full_completion_matches_global_maximum_k3():
    """At k=3 the stage-greedy result also attains the maximum total cycle
    objective over all 7! seed-fixed completions."""
    rng = random.Random(5)
    for _ in range(8):
        probs = [rng.random() for _ in range(8)]
        g = Grid.regular(8, probs)
        enc = gray_optimizer(g)
        value = {enc.value(c): probs[c] for c in range(8)}
        got = sum(stage_objective(value, 3, 0, d) for d in (1, 2, 3))
        seed = top_cell(probs)
        best = -1.0
        others = [c for c in range(8) if c != seed]
        for perm in itertools.permutations(others):
            trial = {0: probs[seed]}
            trial.update({idx: probs[c] for idx, c in zip(range(1, 8), perm)})
            best = max(best, sum(stage_objective(trial, 3, 0, d) for d in (1, 2, 3)))
        assert got >= best - 1e-9


def test_rank_matching_is_optimal_pairing():
    """Sorted rank-to-rank matching maximizes the pairing sum, checked
    against every permutation for random weight vectors."""
    rng = random.Random(7)
    for _ in range(60):
        size = rng.randrange(1, 7)
        h1 = sorted((rng.random() for _ in range(size)), reverse=True)
        h2 = sorted((rng.random() for _ in range(size)), reverse=True)
        sorted_value = sum(a * b for a, b in zip(h1, h2))
        best = max(sum(a * b for a, b in zip(h1, perm))
                   for perm in itertools.permutations(h2))
        assert sorted_value >= best - 1e-12


def test_msgo_full_depth_forced_seed_equals_go():
    rng = random.Random(2)
    for n in (8, 16, 32):
        probs = [rng.random() for _ in range(n)]
        g = Grid.regular(n, probs)
        assert msgo(g, depth=g.k).codewords.tolist() == gray_optimizer(g).codewords.tolist()


def test_msgo_padding_and_determinism():
    g = Grid.regular(5, [0.5, 0.4, 0.3, 0.2, 0.1])
    enc1 = msgo(g, depth=2)
    enc2 = msgo(g, depth=2)
    assert enc1.codewords.tolist() == enc2.codewords.tolist()
    assert enc1.k == 3 and enc1.space - enc1.n == 3
    # MSGO draws nothing, so the inert rng_seed keyword cannot matter
    assert msgo(g, depth=2, rng_seed=9).codewords.tolist() == enc1.codewords.tolist()
    assert msgo(g, depth=2, rng_seed=10, counter=OpCounter()).codewords.tolist() == \
        enc1.codewords.tolist()
    with pytest.raises(ValueError):
        msgo(g, depth=0)


@pytest.mark.parametrize("n", [1, 5, 17, 100])
def test_global_order_matches_the_sorted_key(n):
    """The encoders' one global order equals a Python sort by (descending
    probability, ascending id) over the padded cells, ties and zeros
    included; it comes with the probabilities in that order, and
    `Assignment` with their math.log values."""
    rng = random.Random(n)
    probs = [rng.choice((0.0, 0.25, 0.5, rng.random())) for _ in range(n)]
    grid = Grid.regular(n, probs)
    padded = probs + [0.0] * ((1 << grid.k) - n)
    order, ordered = _global_order(grid)
    assert order.tolist() == sorted(range(len(padded)),
                                    key=lambda c: (-padded[c], c))
    assert ordered.tolist() == [padded[c] for c in order]
    assert Assignment(grid).logp == [math.log(padded[c]) if padded[c] > 0.0
                                     else -math.inf for c in order]


def test_sgo_hand_example():
    """Highest cell takes the origin; depth-one matching fills 01/10 with
    the next two cells in order; the last cell lands on 11."""
    enc = sgo(Grid.regular(4, [0.9, 0.5, 0.4, 0.1]))
    assert enc.codewords.tolist() == [0b00, 0b01, 0b10, 0b11]


def test_sgo_uniform_probabilities_still_bijective():
    enc = sgo(Grid.regular(16, [0.5] * 16))
    assert sorted(enc.codewords.tolist()) == list(range(16))


def test_hge_one_level():
    enc = hge_baseline(Grid.regular(4))
    # NW NE / SW SE row-major cells get Gray labels 00 01 / 10 11
    assert enc.codewords.tolist() == [0b00, 0b01, 0b10, 0b11]
    assert enc.k == 2


def test_hge_sibling_quadrants_gray_adjacent():
    enc = hge_baseline(Grid.regular(16))
    assert enc.k == 4
    # the four level-2 labels inside one quadrant differ by one bit in
    # cyclic order NW -> NE -> SE -> SW
    nw, ne = enc.value(0) & 0b11, enc.value(1) & 0b11
    sw, se = enc.value(4) & 0b11, enc.value(5) & 0b11
    ring = [nw, ne, se, sw]
    for a, b in zip(ring, ring[1:] + ring[:1]):
        assert bin(a ^ b).count("1") == 1


def test_hge_three_levels():
    enc = hge_baseline(Grid.regular(64))
    assert enc.k == 6


def test_hge_pads_non_power_of_four():
    enc = hge_baseline(Grid.regular(100))
    assert enc.k == 8
    assert enc.space - enc.n == 156


def test_random_baseline_seeds():
    g = Grid.regular(12, [0.5] * 12)
    encs = {tuple(random_baseline(g, seed).codewords.tolist()) for seed in (1, 2, 3)}
    assert len(encs) == 3
    for forward in encs:
        assert len(set(forward)) == 12
        assert all(0 <= v < 16 for v in forward)
    assert random_baseline(g, 1).codewords.tolist() == random_baseline(g, 1).codewords.tolist()


@pytest.mark.parametrize("n", [2, 3, 5, 9, 17, 33, 64])
def test_every_optimizer_yields_valid_minimal_width_encoding(n):
    rng = random.Random(n)
    probs = [rng.random() for _ in range(n)]
    g = Grid.regular(n, probs)
    want_k = g.k
    for enc in (gray_optimizer(g), msgo(g, depth=2), sgo(g),
                random_baseline(g, 8)):
        assert enc.n == n
        assert enc.k == want_k
        assert len(set(enc.codewords.tolist())) == n
        assert enc.space - enc.n == (1 << want_k) - n


def test_spot_sizes_bijection():
    rng = random.Random(0)
    for n in (100, 1024):
        probs = [rng.random() for _ in range(n)]
        g = Grid.regular(n, probs)
        for enc in (sgo(g), msgo(g, depth=4)):
            assert len(set(enc.codewords.tolist())) == n
            assert enc.k == g.k


def test_optimizers_deterministic():
    rng = random.Random(1)
    probs = [rng.random() for _ in range(32)]
    g = Grid.regular(32, probs)
    assert gray_optimizer(g).codewords.tolist() == gray_optimizer(g).codewords.tolist()
    assert sgo(g).codewords.tolist() == sgo(g).codewords.tolist()
    assert msgo(g, depth=3).codewords.tolist() == msgo(g, depth=3).codewords.tolist()


def test_depth_limited_pass_then_completion():
    """A shallow pass still returns a total encoding; the part beyond the
    pass is the deterministic probability-order completion."""
    rng = random.Random(4)
    probs = [rng.random() for _ in range(32)]
    g = Grid.regular(32, probs)
    enc = gray_optimizer(g, depth=1)
    assert len(set(enc.codewords.tolist())) == 32
    ring1 = set(ring_values(0, 5, 1))
    seed = top_cell(probs)
    order = sorted(range(32), key=lambda c: (-probs[c], c))
    expect_ring1 = set(order[1:6])  # next five cells after the seed
    got_ring1 = {c for c in range(32) if enc.value(c) in ring1}
    assert got_ring1 == expect_ring1
    assert enc.value(seed) == 0


# --- oracles for the SGO ring sweep and the array HGE labels ---

def scalar_sgo_forward(grid, by_log=False):
    """SGO as depth-one passes: the top cell on codeword 0, then each ring
    visited by (descending probability, codeword) with one depth-one stage
    per codeword.  `by_log` ranks by math.log of the probability instead,
    which ties distinct probabilities that share a logarithm."""
    state = Assignment(grid)
    weight = state.logp if by_log else _global_order(grid)[1].tolist()
    state.claim(0)
    state.go_pass(0, 1)
    for i in range(1, state.k + 1):
        held = {c: weight[t] for t, c in enumerate(state.claimed)}
        ring = ring_values(0, state.k, i)
        ring.sort(key=lambda c: (-held[c], c))
        for cj in ring:
            state.go_stage(cj, 1)
    return state.to_encoding("SGO").codewords.tolist()


def sgo_probabilities(kind, n):
    rng = random.Random(f"sgo/{kind}/{n}")
    if kind == "sigmoid":
        return bench.gen_probabilities(n, bench.SigmoidModel(a=0.75, b=10.0), rng)
    if kind == "uniform":
        return [0.5] * n
    if kind == "zeros":
        return [0.0 if rng.random() < 0.3 else rng.random() for _ in range(n)]
    return [round(rng.random(), 2) for _ in range(n)]          # tie-heavy


@pytest.mark.parametrize("kind", ["sigmoid", "uniform", "zeros", "rounded"])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 16, 17, 100, 255, 256, 257,
                               1000, 4097])
def test_sgo_matches_depth_one_sweep_oracle(n, kind):
    grid = Grid.regular(n, sgo_probabilities(kind, n))
    counter = OpCounter()
    assert sgo(grid, counter=counter).codewords.tolist() == scalar_sgo_forward(grid)
    assert counter.multiplications == 0


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0]) | st.floats(0.0, 1.0),
                min_size=1, max_size=70))
def test_sgo_matches_oracle_on_drawn_probabilities(probs):
    grid = Grid.regular(len(probs), probs)
    assert sgo(grid).codewords.tolist() == scalar_sgo_forward(grid)


def test_sgo_ranks_by_probability_not_its_logarithm():
    """Eight cells hold the double just above 1e-12 and 23 hold 1e-12;
    math.log gives both one value, but SGO visits each ring's larger
    probabilities first, as its docstring says.  (One cell at each value
    would not do: no search over k <= 9 found a single such pair that
    moves SGO's claim order.)"""
    low = 1e-12
    high = float(np.nextafter(low, 1.0))
    assert high > low and math.log(high) == math.log(low)
    grid = Grid.regular(32, [0.9] + [high] * 8 + [low] * 23)
    enc = sgo(grid)
    assert enc.codewords.tolist() == scalar_sgo_forward(grid)
    assert enc.codewords.tolist() != scalar_sgo_forward(grid, by_log=True)
    # ring 2's high cells 6, 7 and 8 sit on codewords 3, 5 and 9, which are
    # visited before the low cell on 6; so ring 3 claims 25, a neighbour of
    # 9, before 14 and 22, neighbours of 6 (ranking by logarithm visits
    # ring 2 by codeword and claims 14 and 22 first)
    assert enc.codewords.tolist()[6:9] == [3, 5, 9]
    assert enc.codewords.tolist()[19:24] == [13, 21, 25, 14, 22]


def quad_leaf(x, y, levels):
    """Scalar root-to-leaf label path: 2 Gray bits per level, NW NE SE SW."""
    x0, y0, x1, y1 = 0.0, 0.0, 1.0, 1.0
    label = 0
    for _ in range(levels):
        mx, my = (x0 + x1) / 2, (y0 + y1) / 2
        west = x < mx
        north = y >= my
        if north and west:
            bits = 0b00
            x1, y0 = mx, my
        elif north:
            bits = 0b01
            x0, y0 = mx, my
        elif not west:
            bits = 0b11
            x0, y1 = mx, my
        else:
            bits = 0b10
            x1, y1 = mx, my
        label = label << 2 | bits
    return label


def scalar_hge_forward(grid):
    levels = max(1, math.ceil(math.log(grid.n, 4))) if grid.n > 1 else 1
    while True:
        leaves = [quad_leaf(x, y, levels) for x, y in zip(grid.x, grid.y)]
        if len(set(leaves)) == grid.n:
            return 2 * levels, leaves
        levels += 1


def test_quad_labels_match_scalar_oracle():
    rng = random.Random(8)
    dyadic = [i / 16 for i in range(17)]  # every midpoint down to level 4
    points = [(rng.random(), rng.random()) for _ in range(300)]
    points += [(x, y) for x in dyadic for y in dyadic]
    points += [(0.5, 0.5), (0.25, 0.75), (0.75, 0.25), (0.5 - 1e-17, 0.5),
               (math.nextafter(0.5, 0.0), math.nextafter(0.5, 1.0))]
    xs, ys = np.array(points).T
    for levels in (1, 2, 3, 5, 12, 24):
        assert _quad_labels(xs, ys, levels).tolist() == \
            [quad_leaf(x, y, levels) for x, y in points]


@pytest.mark.parametrize("points", [
    [(0.3, 0.6), (0.3 + 1e-4, 0.6), (0.9, 0.1), (0.1, 0.1)],   # tree deepens
    [(0.5, 0.5), (0.25, 0.75), (0.75, 0.25), (0.5, 0.25), (0.25, 0.5)],
    [(0.5, 0.5), (math.nextafter(0.5, 0.0), 0.5)],
])
def test_hge_matches_scalar_oracle(points):
    xs, ys = zip(*points)
    grid = Grid(xs, ys, [0.5] * len(points))
    enc = hge_baseline(grid)
    assert (enc.k, enc.codewords.tolist()) == scalar_hge_forward(grid)


def test_hge_matches_scalar_oracle_on_regular_and_random_grids():
    rng = random.Random(13)
    grids = [Grid.regular(n) for n in (1, 2, 4, 15, 16, 100, 1000, 4097)]
    xs, ys = zip(*[(rng.random(), rng.random()) for _ in range(200)])
    grids.append(Grid(xs, ys, [0.5] * 200))
    for grid in grids:
        enc = hge_baseline(grid)
        assert (enc.k, enc.codewords.tolist()) == scalar_hge_forward(grid)
