"""Markov model: worked matrices, stationary vectors, Monte Carlo, marginals."""

import itertools
import math
import random

import numpy as np
import pytest
from scipy import sparse

from hvezones.bench import predict_marginals
from hvezones.dynamics import (DISTANCE_FLOOR, ConvergenceError,
                               TransitionMatrix, UniformChain,
                               build_q_independent, build_q_spatial,
                               cell_marginals, damp, evolve, stationary_exact,
                               stationary_monte_carlo)
from hvezones.grid import Grid

Q2_EXPECTED = np.array([
    [0.0, 0.2, 0.8, 0.0],
    [0.2, 0.0, 0.0, 0.8],
    [0.8, 0.0, 0.0, 0.2],
    [1.0, 0.0, 0.0, 0.0],
])

O2_EXPECTED = np.array([
    [0.0375, 0.2075, 0.7175, 0.0375],
    [0.2075, 0.0375, 0.0375, 0.7175],
    [0.7175, 0.0375, 0.0375, 0.2075],
    [0.8875, 0.0375, 0.0375, 0.0375],
])

S_Q2 = np.array([0.4310, 0.0862, 0.3448, 0.1379])
S_O2 = np.array([0.4111, 0.1074, 0.3171, 0.1644])


def two_cell_grid():
    return Grid.regular(2, [0.2, 0.8])


def test_q2_worked_example():
    q = build_q_independent(two_cell_grid())
    assert np.allclose(q.to_dense(), Q2_EXPECTED)


def test_q1_forced_cycle():
    q = build_q_independent(Grid.regular(1, [0.7]))
    assert np.allclose(q.to_dense(), [[0, 1], [1, 0]])


def test_q3_block_structure():
    grid = Grid.regular(3, [0.2, 0.3, 0.5])
    dense = build_q_independent(grid).to_dense()
    # row sums renormalize p, so compare against the normalized weights
    w = np.array([0.2, 0.3, 0.5])
    top_left = np.array([
        [0.0, w[0], w[1], 0.0],
        [w[0], 0.0, 0.0, w[1]],
        [w[1], 0.0, 0.0, w[0]],
        [0.0, w[1], w[0], 0.0],
    ])
    assert np.allclose(dense[:4, :4], top_left)
    assert np.allclose(dense[:4, 4:], w[2] * np.eye(4))
    assert np.allclose(dense[4:7, :4][:, :3][:3], w[2] * np.eye(4)[:3, :3])


def recursive_q_independent(grid):
    """Block-recursive construction of the independent chain, densely:
    doubling the cell set places the previous weight block on the diagonal
    and p(new cell) times the identity off it."""
    probs = grid.probabilities()
    w = np.array([[0.0, probs[0]], [probs[0], 0.0]])
    for m in range(1, grid.n):
        eye = probs[m] * np.eye(w.shape[0])
        w = np.block([[w, eye], [eye, w]])
    w[-1, :] = 0.0
    w[-1, 0] = 1.0
    return w / w.sum(axis=1)[:, None]


def test_recursive_construction_equivalence():
    rng = random.Random(4)
    for n in range(1, 9):
        probs = [rng.random() for _ in range(n)]
        grid = Grid.regular(n, probs)
        direct = build_q_independent(grid).to_dense()
        assert np.allclose(direct, recursive_q_independent(grid))


# --- oracle: the per-state builders the flip-chain arrays replaced ---

def scalar_assemble(n, rows):
    indptr, indices, data = [0], [], []
    for row in rows:
        for j, w in sorted(row):
            indices.append(j)
            data.append(w)
        indptr.append(len(indices))
    size = 1 << n
    return sparse.csr_matrix(
        (np.array(data), np.array(indices), np.array(indptr)),
        shape=(size, size))


def scalar_q_independent(grid):
    n = grid.n
    probs = grid.probabilities()
    total = sum(probs)
    if total <= 0.0:
        raise ValueError("at least one cell probability must be positive")
    rows = []
    for state in range((1 << n) - 1):
        row = [(state ^ (1 << j), probs[j] / total) for j in range(n)]
        rows.append([(j, w) for j, w in row if w > 0.0])
    rows.append([(0, 1.0)])
    return scalar_assemble(n, rows)


def scalar_q_spatial(grid):
    n = grid.n
    probs = grid.probabilities()
    centers = list(zip(grid.x.tolist(), grid.y.tolist()))
    rows = []
    for state in range((1 << n) - 1):
        members = [j for j in range(n) if state >> j & 1]
        weights = []
        if not members:
            for j in range(n):
                weights.append((state ^ (1 << j), probs[j]))
        else:
            cx = sum(centers[j][0] for j in members) / len(members)
            cy = sum(centers[j][1] for j in members) / len(members)
            for j in range(n):
                if len(members) == 1 and members[0] == j:
                    w = probs[j]
                else:
                    d = math.hypot(centers[j][0] - cx, centers[j][1] - cy)
                    w = probs[j] / max(d, DISTANCE_FLOOR)
                weights.append((state ^ (1 << j), w))
        total = sum(w for _, w in weights)
        if total <= 0.0:
            raise ValueError(f"state {state} has no outgoing weight")
        rows.append([(j, w / total) for j, w in weights if w > 0.0])
    rows.append([(0, 1.0)])
    return scalar_assemble(n, rows)


def oracle_grids():
    """Random grids at n = 1..11: spread or coincident cells, probabilities
    with and without zeros, and all zeros."""
    rng = random.Random(11)
    for n in range(1, 12):
        spots = [(rng.random(), rng.random()) for _ in range(3)]
        for coincident in (False, True):
            for zeros in (0.0, 0.4, 1.0):
                xs, ys, probs = [], [], []
                for j in range(n):
                    x, y = (rng.choice(spots) if coincident
                            else (rng.random(), rng.random()))
                    p = 0.0 if rng.random() < zeros else rng.random()
                    xs.append(x)
                    ys.append(y)
                    probs.append(p)
                yield Grid(xs, ys, probs)


def build_or_error(build, grid):
    try:
        return build(grid)
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize("build,scalar", [
    (build_q_independent, scalar_q_independent),
    (build_q_spatial, scalar_q_spatial),
])
def test_flip_chain_matches_scalar_builders(build, scalar):
    grids = list(oracle_grids())
    errors = 0
    for grid in grids:
        got = build_or_error(build, grid)
        want = build_or_error(scalar, grid)
        if isinstance(want, str):
            errors += 1
            assert got == want
            continue
        base = got.base
        assert np.array_equal(base.indptr, want.indptr)
        assert np.array_equal(base.indices, want.indices)
        assert np.abs(base.data - want.data).max() <= 1e-15
        if build is build_q_independent:
            assert np.array_equal(base.data, want.data)
    assert 0 < errors < len(grids)


def test_sparsity_pattern_exhaustive():
    rng = random.Random(1)
    for n in range(1, 9):
        grid = Grid.regular(n, [rng.uniform(0.05, 1.0) for _ in range(n)])
        dense = build_q_independent(grid).to_dense()
        size = 1 << n
        for i in range(size):
            for j in range(size):
                if dense[i, j] == 0.0:
                    continue
                if i == size - 1:
                    assert j == 0
                else:
                    assert abs(bin(i).count("1") - bin(j).count("1")) == 1


def test_row_stochasticity():
    rng = random.Random(2)
    for n in (2, 4, 6, 8):
        grid = Grid.regular(n, [rng.uniform(0.05, 1.0) for _ in range(n)])
        for q in (build_q_independent(grid), build_q_spatial(grid)):
            for chain in (q, damp(q, 0.85)):
                assert np.abs(chain.to_dense().sum(axis=1) - 1.0).max() < 1e-12


def test_cap_enforced():
    with pytest.raises(ValueError):
        build_q_independent(Grid.regular(21, [0.5] * 21))
    with pytest.raises(ValueError):
        build_q_spatial(Grid.regular(21, [0.5] * 21))


def test_damp_worked_example():
    o = damp(build_q_independent(two_cell_grid()), 0.85)
    assert np.abs(o.to_dense() - O2_EXPECTED).max() < 1e-12
    assert (o.to_dense() > 0).all()


def test_damp_limit_and_validation():
    q = build_q_independent(two_cell_grid())
    close = damp(q, 1.0 - 1e-9)
    assert np.abs(close.to_dense() - Q2_EXPECTED).max() < 1e-8
    with pytest.raises(ValueError):
        damp(q, 0.0)
    with pytest.raises(ValueError):
        damp(q, 1.0)
    with pytest.raises(ValueError):
        damp(close, 0.85)  # double damping


def test_damp_n1_formula():
    o = damp(build_q_independent(Grid.regular(1, [0.7])), 0.85)
    assert np.allclose(o.to_dense(), [[0.075, 0.925], [0.925, 0.075]])


def test_stationary_q2():
    s = stationary_exact(build_q_independent(two_cell_grid()))
    assert np.abs(s - S_Q2).max() < 5e-4
    assert abs(s.sum() - 1.0) < 1e-9


def test_stationary_o2_and_power_convergence():
    o = damp(build_q_independent(two_cell_grid()), 0.85)
    s = stationary_exact(o)
    assert np.abs(s - S_O2).max() < 5e-4
    after50 = evolve(o, np.full(4, 0.25), 50)
    assert np.abs(after50 - s).max() < 1e-4


def test_stationary_residual_is_tight():
    q = build_q_independent(two_cell_grid())
    s = stationary_exact(q)
    assert np.abs(s @ q.to_dense() - s).max() <= 1e-9


def test_periodic_chain_raises_and_damping_rescues():
    # hand-built period-two chain with an unbalanced feed: the empty and
    # one-cell states bounce while every other state dumps onto the empty
    # one, so power iteration from uniform oscillates forever undamped
    dense = np.zeros((8, 8))
    dense[0, 1] = 1.0
    for state in range(1, 8):
        dense[state, 0] = 1.0
    q = TransitionMatrix(3, sparse.csr_matrix(dense))
    with pytest.raises(ConvergenceError):
        stationary_exact(q, max_iter=2000)
    s = stationary_exact(damp(q, 0.85))
    assert abs(s.sum() - 1.0) < 1e-9


def test_uniqueness_from_random_starts():
    rng = random.Random(8)
    for n in (2, 4, 6, 8):
        grid = Grid.regular(n, [rng.uniform(0.05, 1.0) for _ in range(n)])
        o = damp(build_q_independent(grid), 0.85)
        reference = stationary_exact(o)
        size = 1 << n
        for _ in range(10):
            start = np.array([rng.random() for _ in range(size)])
            start /= start.sum()
            settled = evolve(o, start, 400)
            assert np.abs(settled - reference).max() < 1e-8


def test_monte_carlo_agreement_with_exact():
    o = damp(build_q_independent(two_cell_grid()), 0.85)
    exact = stationary_exact(o)
    estimate = stationary_monte_carlo(o, walks=200_000, continue_prob=0.6,
                                      rng_seed=7)
    assert np.abs(estimate - exact).max() < 0.01


def test_monte_carlo_single_walk_one_hot():
    o = damp(build_q_independent(two_cell_grid()), 0.85)
    s = stationary_monte_carlo(o, walks=1, continue_prob=0.6, rng_seed=1)
    assert sorted(s) == [0.0, 0.0, 0.0, 1.0]


def test_monte_carlo_seed_agreement():
    grid = Grid.regular(4, [0.3, 0.9, 0.5, 0.2])
    o = damp(build_q_independent(grid), 0.85)
    r = 150_000
    a = stationary_monte_carlo(o, walks=r, continue_prob=0.6, rng_seed=1)
    b = stationary_monte_carlo(o, walks=r, continue_prob=0.6, rng_seed=2)
    bound = 3.0 * np.sqrt(np.maximum(a * (1 - a), 1e-6) / r) * 2
    assert (np.abs(a - b) < np.maximum(bound, 0.01)).all()


def test_monte_carlo_consistency_n4():
    rng = random.Random(5)
    grid = Grid.regular(4, [rng.uniform(0.1, 1.0) for _ in range(4)])
    o = damp(build_q_independent(grid), 0.85)
    exact = stationary_exact(o)
    estimate = stationary_monte_carlo(o, walks=100_000, continue_prob=0.6,
                                      rng_seed=3)
    assert np.abs(estimate - exact).max() < 0.02


def test_monte_carlo_validation():
    o = damp(build_q_independent(two_cell_grid()), 0.85)
    with pytest.raises(ValueError):
        stationary_monte_carlo(o, walks=0, continue_prob=0.6, rng_seed=1)
    with pytest.raises(ValueError):
        stationary_monte_carlo(o, walks=10, continue_prob=1.0, rng_seed=1)


def test_cell_marginals_worked_example():
    s = stationary_exact(build_q_independent(two_cell_grid()))
    m = cell_marginals(s)
    assert m[0] == pytest.approx(0.0862 + 0.1379, abs=5e-4)
    assert m[1] == pytest.approx(0.3448 + 0.1379, abs=5e-4)


def test_cell_marginals_uniform_and_one_hot():
    uniform = np.full(8, 1 / 8)
    m = cell_marginals(uniform)
    assert np.allclose(m, 0.5) and len(m) == 3
    one_hot = np.zeros(8)
    one_hot[0b101] = 1.0
    m = cell_marginals(one_hot)
    assert m.tolist() == [1.0, 0.0, 1.0]
    assert cell_marginals(np.ones(1)).size == 0


@pytest.mark.parametrize("size", [3, 6, 12])
def test_cell_marginals_rejects_length_not_a_power_of_two(size):
    with pytest.raises(ValueError, match=f"length {size} is not a power of two"):
        cell_marginals(np.full(size, 1 / size))


@pytest.mark.parametrize("bad", [-0.25, math.nan, math.inf, -math.inf])
def test_cell_marginals_rejects_negative_and_non_finite_entries(bad):
    probs = np.full(8, 1 / 8)
    probs[5] = bad
    with pytest.raises(ValueError, match="^state 5 probability .* negative or not finite$"):
        cell_marginals(probs)


def test_spatial_weights_worked_row():
    # three cells; the row of state {v0, v1} has exactly three non-zeros,
    # proportional to p1/d(v1,c), p0/d(v0,c), p2/d(v2,c)
    grid = Grid([0.1, 0.9, 0.5], [0.5, 0.5, 0.9], [0.4, 0.3, 0.2])
    q = build_q_spatial(grid).to_dense()
    state = 0b011
    row = q[state]
    nz = {j: row[j] for j in range(8) if row[j] > 0}
    assert set(nz) == {0b010, 0b001, 0b111}
    cx, cy = (0.1 + 0.9) / 2, 0.5
    def dist(j):
        return math.hypot(grid.x[j] - cx, grid.y[j] - cy)
    weights = {
        0b010: 0.4 / dist(0),   # remove v0
        0b001: 0.3 / dist(1),   # remove v1
        0b111: 0.2 / dist(2),   # add v2
    }
    beta = 1.0 / sum(weights.values())
    for state_to, weight in weights.items():
        assert nz[state_to] == pytest.approx(weight * beta)


def test_spatial_symmetric_case_uniform_row():
    # four equal-probability cells at the corners of a square: every cell
    # is equidistant from the centroid of opposite pairs, so the row of a
    # diagonal two-cell state is uniform over its four transitions
    grid = Grid([0.25, 0.75, 0.75, 0.25], [0.25, 0.25, 0.75, 0.75], [0.5] * 4)
    q = build_q_spatial(grid).to_dense()
    state = 0b0101  # cells 0 and 2, a diagonal: centroid is the square center
    row = q[state]
    targets = [state ^ 1, state ^ 2, state ^ 4, state ^ 8]
    assert np.allclose(row[targets], 0.25)
    # the empty state uses plain probabilities: uniform here as well
    assert np.allclose(q[0][[1, 2, 4, 8]], 0.25)


def test_spatial_single_cell_state_uses_plain_probability():
    q = build_q_spatial(Grid([0.2, 0.8], [0.2, 0.8], [0.6, 0.3])).to_dense()
    # state {v0}: removal weight is p(v0) itself; addition of v1 uses the
    # distance to v0's center
    d = math.hypot(0.8 - 0.2, 0.8 - 0.2)
    w_remove = 0.6
    w_add = 0.3 / d
    beta = 1.0 / (w_remove + w_add)
    assert q[0b01][0b00] == pytest.approx(w_remove * beta)
    assert q[0b01][0b11] == pytest.approx(w_add * beta)


def test_spatial_distance_floor():
    # two cells at the same location: distances collapse to the floor
    q = build_q_spatial(Grid([0.5, 0.5], [0.5, 0.5], [0.5, 0.5])).to_dense()
    assert np.isfinite(q).all()
    assert np.abs(q.sum(axis=1) - 1.0).max() < 1e-12


def test_uniform_chain_step_and_wrap():
    chain = UniformChain(5)
    rng = random.Random(0)
    full = (1 << 5) - 1
    assert chain.step(full, rng) == 0
    for _ in range(50):
        state = rng.getrandbits(5)
        if state == full:
            continue
        nxt = chain.step(state, rng)
        assert bin(state ^ nxt).count("1") == 1


@pytest.mark.parametrize("n,alpha", [(1, 1.0), (2, 1.0), (2, 0.3), (5, 0.85),
                                     (64, 1.0), (100, 0.85)])
def test_walk_ends_stream_equals_walk_end_calls(n, alpha):
    chain = UniformChain(n)
    for start in (0, chain.full, random.Random(n).getrandbits(n)):
        calls_rng, stream_rng = random.Random(9), random.Random(9)
        calls = [chain.walk_end(start, 0.9, calls_rng, alpha=alpha)
                 for _ in range(500)]
        stream = list(itertools.islice(
            chain.walk_ends(start, 0.9, stream_rng, alpha=alpha), 500))
        assert calls == stream
        assert calls_rng.getstate() == stream_rng.getstate()


def exact_end_law(n, alpha, c, start):
    """Law of a walk's end state, sum_l (1 - c) c^l delta_start O^l, on the
    dense 2^n chain: the independent chain on equal probabilities, damped
    by alpha, which UniformChain samples lazily."""
    q = build_q_independent(Grid.regular(n, [0.5] * n))
    o = q if alpha == 1.0 else damp(q, alpha)
    dist = np.zeros(1 << n)
    dist[start] = 1.0
    exact = np.zeros(1 << n)
    weight = 1.0 - c
    while weight > 1e-18:
        exact += weight * dist
        dist = evolve(o, dist, 1)
        weight *= c
    return exact


def membership(n):
    return np.arange(1 << n)[:, None] >> np.arange(n) & 1


@pytest.mark.parametrize("alpha", [1.0, 0.85])
@pytest.mark.parametrize("n", [1, 3, 4, 6])
def test_uniform_chain_walks_follow_the_exact_chain(n, alpha):
    chain, c, walks = UniformChain(n), 0.6, 100_000
    for start in (0, chain.full, 0b0110 & chain.full):
        exact = exact_end_law(n, alpha, c, start)
        rng = random.Random(f"uniform/{n}/{alpha}/{start}")
        ends = itertools.islice(chain.walk_ends(start, c, rng, alpha=alpha), walks)
        freq = np.bincount(list(ends), minlength=1 << n) / walks
        assert 0.5 * np.abs(freq - exact).sum() < 0.03
        marginals = predict_marginals(n, start, chain, walks, c, alpha, rng)
        assert np.abs(np.array(marginals) - exact @ membership(n)).max() < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 7, 10])
def test_end_marginals_equal_the_exact_chain(n):
    """The lumped (cardinality, tagged bit) chain gives the 2^n chain's
    marginals; n = 1 and n = 2 reach the full->empty wrap in one or two
    flips."""
    chain = UniformChain(n)
    for start in (0, chain.full, random.Random(n).getrandbits(n)):
        for alpha in (1.0, 0.85):
            for c in (0.3, 0.6, 0.9):
                expected = exact_end_law(n, alpha, c, start) @ membership(n)
                got = chain.end_marginals(start, c, alpha)
                assert np.abs(got - expected).max() < 1e-12, (start, alpha, c)


def test_end_marginals_validation():
    chain = UniformChain(4)
    for start, c, alpha in ((-1, 0.6, 1.0), (16, 0.6, 1.0), (3, 1.0, 1.0),
                            (3, -0.1, 1.0), (3, 0.6, 0.0), (3, 0.6, 1.5)):
        with pytest.raises(ValueError):
            chain.end_marginals(start, c, alpha)
    # no continuation: the walk ends where it starts
    assert chain.end_marginals(0b0101, 0.0).tolist() == [1.0, 0.0, 1.0, 0.0]
