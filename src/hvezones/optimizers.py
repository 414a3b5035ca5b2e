"""Probability-aware grid encoders and baselines.

The Gray optimizer places the highest-probability cell on codeword 0 and
then fills the Hamming rings around it stage by stage: stage i takes the
ring-size many highest-probability unassigned cells, weighs each ring
codeword by the probability product of the already-assigned cells on the
unique complete i-bit Gray cycle through the seed and that codeword
(target excluded), and matches cells to codewords rank to rank, which is
the optimal pairing of two sorted sequences.  Every stage, the first
included, runs this one rule; at distance one the cycle is just the seed
and its neighbour, so the weights tie and the free neighbours take the
next top cells in ascending codeword order.

The multiple-seed variant visits the codewords in (Hamming weight, value)
order and, on each one still free, seeds a fresh cluster with the top
unassigned cell and runs a depth-limited pass around it.  It inherits the
single-pass machinery and therefore the same deterministic tie-breaking:
equal probabilities resolve by ascending cell id and equal cycle weights
by ascending codeword value.

The scaled variant is a breadth-first sweep of depth-one passes around the
origin, one per codeword.  It runs as one array pass per Hamming ring:
every ring-i codeword's free neighbours lie in ring i+1, and cells come off
the global probability order one per claimed codeword, so ring i+1 is
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
from typing import List, Optional, Tuple

import numpy as np

from .gray import cycle_node_values, ring_values
from .grid import Grid, GridEncoding, quadtree_levels


def _global_order(grid: Grid) -> Tuple[np.ndarray, List[float]]:
    """The global cell order (descending probability, ascending id) and
    the cells' log-probabilities (-inf at zero), over the grid padded with
    zero-probability dummies to 2^k cells.

    math.log, not np.log: np.log may differ in the last bit, which would
    reorder near-ties between cycle weights.
    """
    padded = np.zeros(1 << grid.k)
    padded[:grid.n] = grid.p
    order = np.argsort(-padded, kind="stable")
    logp = [math.log(p) if p > 0.0 else -math.inf for p in padded.tolist()]
    return order, logp


class OpCounter:
    """Counts probability-product operations during an optimizer run."""

    def __init__(self):
        self.multiplications = 0

    def record_product(self, factors: int) -> None:
        if factors > 1:
            self.multiplications += factors - 1


class Assignment:
    """Mutable cell-to-codeword assignment over the padded codeword space.

    Real cells are padded with zero-probability dummies up to 2^k so every
    ring can be fully matched; dummies are dropped from the final encoding.
    Cells are consumed in a fixed global order (descending probability,
    ascending id), so every "highest-probability unassigned" selection is a
    scan from one pointer.
    """

    def __init__(self, grid: Grid):
        self.n = grid.n
        self.k = grid.k
        self.space = 1 << self.k
        order, self.logp = _global_order(grid)
        self._order = order.tolist()
        self._ptr = 0
        self.cell_at: List[Optional[int]] = [None] * self.space
        self.index_of: List[Optional[int]] = [None] * self.space

    # --- bookkeeping ---

    def assign(self, cell: int, index: int) -> None:
        if self.index_of[cell] is not None:
            raise ValueError(f"cell {cell} already assigned")
        if self.cell_at[index] is not None:
            raise ValueError(f"codeword {index} already assigned")
        self.index_of[cell] = index
        self.cell_at[index] = cell

    def take_top_cells(self, count: int) -> List[int]:
        """Next `count` unassigned cells in global probability order."""
        out = []
        while len(out) < count:
            cell = self._order[self._ptr]
            self._ptr += 1
            if self.index_of[cell] is None:
                out.append(cell)
        return out

    # --- the core stage ---

    def go_stage(self, seed_index: int, distance: int,
                 counter: Optional[OpCounter] = None) -> None:
        """Fill the unassigned part of the ring at `distance` around the seed.

        Ring codewords are weighted by the mean log-probability of the
        assigned cells on their seed cycle (target excluded) and matched
        rank to rank against the highest-probability unassigned cells.
        """
        ring = [c for c in ring_values(seed_index, self.k, distance)
                if self.cell_at[c] is None]
        if not ring:
            return
        weighted = []
        for cj in ring:
            total = 0.0
            factors = 0
            for node in cycle_node_values(seed_index, cj):
                if node == cj:
                    continue
                cell = self.cell_at[node]
                if cell is not None:
                    total += self.logp[cell]
                    factors += 1
            if counter is not None:
                counter.record_product(factors)
            # Per-factor mean rather than the raw sum: on unrestricted
            # stages every cycle has the same factor count, so the ranking
            # is unchanged, but on cluster-restricted stages the raw sum
            # would rank partially assigned cycles above densely assigned
            # ones just for having fewer (all-negative) log terms.
            weight = total / factors if factors else -math.inf
            weighted.append((weight, cj))
        weighted.sort(key=lambda t: (-t[0], t[1]))
        cells = self.take_top_cells(len(ring))
        for cell, (_, cj) in zip(cells, weighted):
            self.assign(cell, cj)

    def go_pass(self, seed_index: int, depth: int,
                counter: Optional[OpCounter] = None) -> None:
        if self.cell_at[seed_index] is None:
            raise ValueError("seed codeword must be assigned before a pass")
        for i in range(1, depth + 1):
            self.go_stage(seed_index, i, counter)

    def complete_sorted(self) -> None:
        """Assign leftover cells to leftover codewords deterministically."""
        free = [i for i in range(self.space) if self.cell_at[i] is None]
        for index, cell in zip(free, self.take_top_cells(len(free))):
            self.assign(cell, index)

    def complete_random(self, rng: random.Random) -> None:
        """Assign leftover cells to leftover codewords uniformly at random."""
        free = [i for i in range(self.space) if self.cell_at[i] is None]
        cells = self.take_top_cells(len(free))
        rng.shuffle(cells)
        for index, cell in zip(free, cells):
            self.assign(cell, index)

    def to_encoding(self, algorithm: str) -> GridEncoding:
        forward = []
        for cell in range(self.n):
            index = self.index_of[cell]
            if index is None:
                raise ValueError(f"cell {cell} left unassigned")
            forward.append(index)
        return GridEncoding(n=self.n, k=self.k, forward=tuple(forward),
                            algorithm=algorithm)


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
    state.assign(state.take_top_cells(1)[0], 0)
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
    for index in sorted(range(state.space), key=lambda i: (i.bit_count(), i)):
        if state.cell_at[index] is None:
            state.assign(state.take_top_cells(1)[0], index)
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
    codeword, which gives the same encoding for three reasons:

    - The seed sits on codeword 0, so a ring-i codeword's free neighbours
      all lie in ring i+1 and visiting ring i assigns all of ring i+1.
    - Cells are only ever taken from the top of the global (descending
      probability, ascending id) order, so the t-th codeword claimed gets
      the t-th cell of that order.
    - Ring i+1 is therefore claimed in the order (visit rank of its
      earliest-visited neighbour in ring i, codeword value).

    So each ring costs one sort for its visit order, k gathered minima
    over the neighbours one bit down, and one sort for the next ring's
    claim order.  Depth-one passes weigh nothing, so `counter` records no
    multiplication.
    """
    k = grid.k
    space = 1 << k
    order, logp = _global_order(grid)
    neg_logp = -np.array(logp)[order]     # indexed by claim position
    # codewords grouped by Hamming weight, ascending value within a ring
    weight = np.zeros(space, dtype=np.int8)
    for b in range(k):
        weight[1 << b:2 << b] = weight[:1 << b] + 1
    by_ring = np.argsort(weight, kind="stable").astype(np.int32)
    # visit ranks of the current ring; unvisited codewords (the ring two
    # up included) keep `space`, so they never win a minimum
    visit_rank = np.full(space, space, dtype=np.int32)
    claimed = [by_ring[:1]]               # each ring in claim order
    lo = 0
    for i in range(k):
        ring = claimed[-1]
        hi = lo + ring.size
        visits = ring[np.lexsort((ring, neg_logp[lo:hi]))]
        visit_rank[visits] = np.arange(ring.size, dtype=np.int32)
        up = by_ring[hi:hi + math.comb(k, i + 1)]
        first = np.full(up.size, space, dtype=np.int32)
        for b in range(k):
            np.minimum(first, visit_rank[up ^ (1 << b)], out=first)
        claimed.append(up[np.lexsort((up, first))])
        lo = hi
    forward = np.empty(space, dtype=np.int32)
    forward[order] = np.concatenate(claimed)
    return GridEncoding(n=grid.n, k=k, forward=tuple(forward[:grid.n].tolist()),
                        algorithm="SGO")


def _quad_labels(xs: np.ndarray, ys: np.ndarray, levels: int) -> np.ndarray:
    """Root-to-leaf label paths of the points (xs, ys), one tree level at
    a time: 2 Gray bits per level, NW NE SE SW."""
    x0, y0 = np.zeros_like(xs), np.zeros_like(ys)
    x1, y1 = np.ones_like(xs), np.ones_like(ys)
    labels = np.zeros(xs.shape, dtype=np.int64)
    for _ in range(levels):
        mx, my = (x0 + x1) / 2, (y0 + y1) / 2
        west = xs < mx
        north = ys >= my
        # NW 00, NE 01, SE 11, SW 10: high bit south, low bit east
        labels <<= 2
        labels += 2 * ~north
        labels += ~west
        np.copyto(x1, mx, where=west)
        np.copyto(x0, mx, where=~west)
        np.copyto(y0, my, where=north)
        np.copyto(y1, my, where=~north)
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
        leaves = _quad_labels(grid.x, grid.y, levels).tolist()
        if len(set(leaves)) == grid.n:
            return GridEncoding(n=grid.n, k=2 * levels, forward=tuple(leaves),
                                algorithm="HGE")
        levels += 1
    raise ValueError("cells too close together to separate by quadtree")


def random_baseline(grid: Grid, rng_seed: int) -> GridEncoding:
    """Uniformly random injection of cells into the minimal codeword space."""
    rng = random.Random(rng_seed)
    forward = rng.sample(range(1 << grid.k), grid.n)
    return GridEncoding(n=grid.n, k=grid.k, forward=tuple(forward),
                        algorithm="RANDOM")
