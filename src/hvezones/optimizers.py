"""Probability-aware grid encoders and baselines.

Every Gray encoder takes cells off one global order, descending
probability then ascending id, over the grid padded with zero-probability
dummies to 2^k cells.  An encoding is therefore its claim order: the t-th
codeword claimed holds the t-th cell of that order, and the encoders
differ only in the order in which they claim codewords.

The Gray optimizer claims codeword 0 and then the Hamming rings around it
stage by stage: stage i weighs each free ring codeword by the probability
product of the claimed cells on the unique complete i-bit Gray cycle
through the seed and that codeword, and claims the ring in descending
weight, which rank-matches the next cells to the heaviest cycles, the
optimal pairing of two sorted sequences.  Every stage, the first
included, runs this one rule; at distance one the cycle is just the seed
and its neighbour, so the weights tie and the free neighbours are claimed
in ascending codeword order.

The multiple-seed variant visits the codewords in (Hamming weight, value)
order and, on each one still free, claims it as the seed of a fresh
cluster and runs a depth-limited pass around it.  It inherits the
single-pass machinery and therefore the same deterministic tie-breaking:
equal probabilities resolve by ascending cell id and equal cycle weights
by ascending codeword value.

The scaled variant is a breadth-first sweep of depth-one passes around the
origin, one per codeword.  It runs as one array pass per Hamming ring:
every ring-i codeword's free neighbours lie in ring i+1, so ring i+1 is
claimed in the order (visit rank of its earliest-visited neighbour in ring
i, codeword value) and needs only a sort per ring.

Cycle weights are accumulated as sums of log-probabilities; a cycle through
any zero-probability or dummy cell sinks to -inf, which preserves the
ordering the rank matching needs while avoiding underflow on long cycles.
The counter tallies one multiplication per extra factor in a product, so a
full-depth run on a power-of-two grid counts exactly
n**log2(3) - 2n + 1 probability multiplications.
"""

from __future__ import annotations

import math
import random
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .gray import cycle_node_values, ring_values
from .grid import Grid, GridEncoding, quadtree_levels


def _global_order(grid: Grid) -> Tuple[np.ndarray, np.ndarray]:
    """The global cell order (descending probability, ascending id) over
    the grid padded with zero-probability dummies to 2^k cells, and the
    probabilities in that order, so by claim position.  Real cells take
    the first n positions."""
    padded = np.zeros(1 << grid.k)
    padded[:grid.n] = grid.p
    order = np.argsort(-padded, kind="stable")
    return order, padded[order]


def _ring_order(k: int) -> np.ndarray:
    """The 2^k codewords by Hamming weight, then value."""
    weight = np.zeros(1 << k, dtype=np.int8)
    for b in range(k):
        weight[1 << b:2 << b] = weight[:1 << b] + 1
    return np.argsort(weight, kind="stable").astype(np.int32)


def _encoding(grid: Grid, order: np.ndarray, claimed: Sequence[int],
              algorithm: str) -> GridEncoding:
    """The encoding whose t-th claimed codeword holds cell order[t]."""
    if len(claimed) < grid.n:
        raise ValueError(f"cell {order[len(claimed)]} left unassigned")
    codewords = np.empty(grid.n, dtype=np.int64)
    codewords[order[:grid.n]] = claimed[:grid.n]
    codewords.setflags(write=False)
    return GridEncoding(n=grid.n, k=grid.k, forward=codewords, algorithm=algorithm)


class OpCounter:
    """Counts probability-product operations during an optimizer run."""

    def __init__(self):
        self.multiplications = 0

    def record_product(self, factors: int) -> None:
        if factors > 1:
            self.multiplications += factors - 1


class Assignment:
    """A Gray encoding under construction, held as its claim order.

    `claimed` lists the codewords claimed so far; the t-th of them holds
    the t-th cell of the global order.  `logp_at` gives, per codeword of
    the padded space, the log-probability of the cell on it, or None while
    the codeword is free.  Dummy cells are dropped from the final encoding.
    """

    def __init__(self, grid: Grid):
        self.grid = grid
        self.k = grid.k
        # math.log, not np.log: np.log may differ in the last bit, which
        # would reorder near-ties between cycle weights
        self.order, probs = _global_order(grid)
        self.logp = [math.log(p) if p > 0.0 else -math.inf for p in probs.tolist()]
        self.claimed: List[int] = []
        self.logp_at: List[Optional[float]] = [None] * (1 << self.k)

    def claim(self, index: int) -> None:
        """Give codeword `index` the next cell of the global order."""
        if self.logp_at[index] is not None:
            raise ValueError(f"codeword {index} already claimed")
        self.logp_at[index] = self.logp[len(self.claimed)]
        self.claimed.append(index)

    def go_stage(self, seed_index: int, distance: int,
                 counter: Optional[OpCounter] = None) -> None:
        """Claim the free part of the ring at `distance` around the seed.

        Ring codewords are weighted by the mean log-probability of the
        claimed cells on their seed cycle (the free target adds nothing)
        and claimed heaviest first, ties by codeword value.
        """
        weighted = []
        for cj in ring_values(seed_index, self.k, distance):
            if self.logp_at[cj] is not None:
                continue
            total = 0.0
            factors = 0
            for node in cycle_node_values(seed_index, cj):
                logp = self.logp_at[node]
                if logp is not None:
                    total += logp
                    factors += 1
            if counter is not None:
                counter.record_product(factors)
            # Per-factor mean rather than the raw sum: on unrestricted
            # stages every cycle has the same factor count, so the ranking
            # is unchanged, but on cluster-restricted stages the raw sum
            # would rank partially assigned cycles above densely assigned
            # ones just for having fewer (all-negative) log terms.
            weight = total / factors if factors else -math.inf
            weighted.append((-weight, cj))
        for _, cj in sorted(weighted):
            self.claim(cj)

    def go_pass(self, seed_index: int, depth: int,
                counter: Optional[OpCounter] = None) -> None:
        if self.logp_at[seed_index] is None:
            raise ValueError("seed codeword must be claimed before a pass")
        for i in range(1, depth + 1):
            self.go_stage(seed_index, i, counter)

    def _free(self) -> List[int]:
        return [i for i, logp in enumerate(self.logp_at) if logp is None]

    def complete_sorted(self) -> None:
        """Claim the free codewords in ascending order."""
        for index in self._free():
            self.claim(index)

    def complete_random(self, rng: random.Random) -> None:
        """Give the free codewords the remaining cells uniformly at random:
        the j-th free codeword takes the j-th of the shuffled cells."""
        free = self._free()
        slots = list(range(len(free)))
        rng.shuffle(slots)
        for _, index in sorted(zip(slots, free)):
            self.claim(index)

    def to_encoding(self, algorithm: str) -> GridEncoding:
        return _encoding(self.grid, self.order, self.claimed, algorithm)


def gray_optimizer(grid: Grid,
                   depth: Optional[int] = None,
                   counter: Optional[OpCounter] = None) -> GridEncoding:
    """Single-seed Gray optimizer.

    Places the highest-probability cell (lowest id on ties) on the
    all-zero codeword and runs every stage; with a shallower depth the
    remaining cells are appended deterministically in probability order.
    """
    k = grid.k
    if depth is None:
        depth = k
    if not 1 <= depth <= k:
        raise ValueError(f"depth {depth} outside [1, {k}]")
    state = Assignment(grid)
    state.claim(0)
    state.go_pass(0, depth, counter)
    state.complete_sorted()
    return state.to_encoding("GO")


def msgo(grid: Grid,
         depth: int,
         rng_seed: Optional[int] = None,
         counter: Optional[OpCounter] = None) -> GridEncoding:
    """Multiple-seed Gray optimizer.

    Visits the codewords in (Hamming weight, value) order; each one still
    free seeds a fresh cluster with the highest-probability unassigned
    cell and runs a depth-limited pass around it, restricted to whatever
    is still free.  The first cluster therefore sits on the origin, which
    makes depth = k reproduce the single-seed optimizer exactly, and every
    later cluster grows against the already-assigned region, so
    consecutive probability ranks stay Gray-adjacent across cluster
    boundaries.

    The encoding draws no randomness: `rng_seed` is accepted and ignored
    only because existing callers still pass it.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    depth = min(depth, grid.k)
    state = Assignment(grid)
    for index in _ring_order(grid.k).tolist():
        if state.logp_at[index] is None:
            state.claim(index)
            state.go_pass(index, depth, counter)
    return state.to_encoding("MSGO")


def sgo(grid: Grid, counter: Optional[OpCounter] = None) -> GridEncoding:
    """Scaled Gray optimizer: breadth-first sweep of depth-one passes.

    The highest-probability cell seeds the all-zero codeword; each ring
    around it is then visited in descending order of its assigned cells'
    probabilities (ties by codeword value), every codeword acting as the
    seed of a depth-one pass that hands the next top cells to its free
    neighbours in ascending codeword order.

    The sweep runs one array pass per ring rather than one pass per
    codeword, which gives the same encoding for two reasons:

    - The seed sits on codeword 0, so a ring-i codeword's free neighbours
      all lie in ring i+1 and visiting ring i claims all of ring i+1.
    - The t-th codeword claimed gets the t-th cell of the global order,
      so ring i+1 is claimed in the order (visit rank of its
      earliest-visited neighbour in ring i, codeword value).

    So each ring costs one sort for its visit order, k gathered minima
    over the neighbours one bit down, and one sort for the next ring's
    claim order.  Depth-one passes weigh nothing, so `counter` records no
    multiplication.
    """
    k = grid.k
    space = 1 << k
    order, neg_p = _global_order(grid)
    np.negative(neg_p, out=neg_p)         # indexed by claim position
    by_ring = _ring_order(k)
    # visit ranks of the current ring; unvisited codewords (the ring two
    # up included) keep `space`, so they never win a minimum
    visit_rank = np.full(space, space, dtype=np.int32)
    claimed = [by_ring[:1]]               # each ring in claim order
    lo = 0
    for i in range(k):
        ring = claimed[-1]
        hi = lo + ring.size
        visits = ring[np.lexsort((ring, neg_p[lo:hi]))]
        visit_rank[visits] = np.arange(ring.size, dtype=np.int32)
        up = by_ring[hi:hi + math.comb(k, i + 1)]
        first = np.full(up.size, space, dtype=np.int32)
        for b in range(k):
            np.minimum(first, visit_rank[up ^ (1 << b)], out=first)
        claimed.append(up[np.lexsort((up, first))])
        lo = hi
    return _encoding(grid, order, np.concatenate(claimed), "SGO")


def _quad_labels(xs: np.ndarray, ys: np.ndarray, levels: int) -> np.ndarray:
    """Root-to-leaf label paths of the points (xs, ys), one tree level at
    a time: 2 Gray bits per level, NW NE SE SW."""
    x0, y0 = np.zeros_like(xs), np.zeros_like(ys)
    x1, y1 = np.ones_like(xs), np.ones_like(ys)
    mid = np.empty_like(xs)
    side = np.empty(xs.shape, dtype=bool)
    labels = np.zeros(xs.shape, dtype=np.int64)
    for _ in range(levels):
        # NW 00, NE 01, SE 11, SW 10: high bit south, low bit east
        np.add(y0, y1, out=mid)
        mid /= 2
        np.greater_equal(ys, mid, out=side)         # north
        np.copyto(y0, mid, where=side)
        np.logical_not(side, out=side)              # south
        np.copyto(y1, mid, where=side)
        labels <<= 1
        labels += side
        np.add(x0, x1, out=mid)
        mid /= 2
        np.less(xs, mid, out=side)                  # west
        np.copyto(x1, mid, where=side)
        np.logical_not(side, out=side)              # east
        np.copyto(x0, mid, where=side)
        labels <<= 1
        labels += side
    return labels


def hge_baseline(grid: Grid) -> GridEncoding:
    """Hierarchical Gray encoding over a quadtree of the unit square.

    Probability-oblivious: each level contributes the 2-bit Gray labels
    00, 01, 11, 10 for the NW, NE, SE, SW quadrants, and a cell's codeword
    concatenates its root-to-leaf labels.  Cell counts that are not powers
    of four are padded to full levels, so the width can exceed the minimal
    ceil(log2 n); the tree deepens if distinct cells ever share a leaf.
    """
    levels = quadtree_levels(grid.n)
    while levels <= 24:
        leaves = _quad_labels(grid.x, grid.y, levels)
        # the stable argsort GridEncoding's checks run, not a second numpy
        # sort routine
        if np.diff(leaves[np.argsort(leaves, kind="stable")]).all():
            leaves.setflags(write=False)
            return GridEncoding(n=grid.n, k=2 * levels, forward=leaves,
                                algorithm="HGE")
        levels += 1
    raise ValueError("cells too close together to separate by quadtree")


def random_baseline(grid: Grid, rng_seed: int) -> GridEncoding:
    """Uniformly random injection of cells into the minimal codeword space."""
    rng = random.Random(rng_seed)
    forward = rng.sample(range(1 << grid.k), grid.n)
    return GridEncoding(n=grid.n, k=grid.k, forward=forward,
                        algorithm="RANDOM")
