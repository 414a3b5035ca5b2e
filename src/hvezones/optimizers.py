"""Probability-aware grid encoders and baselines.

The Gray optimizer places the seed cell on a chosen codeword and then fills
the Hamming rings around it stage by stage: stage i takes the ring-size
many highest-probability unassigned cells, weighs each ring codeword by the
probability product of the already-assigned cells on the unique complete
i-bit Gray cycle through the seed and that codeword (target excluded), and
matches cells to codewords rank to rank, which is the optimal pairing of
two sorted sequences.

The multiple-seed variant repeats depth-limited passes around fresh
cluster seeds (breadth-first from the origin by default, uniformly random
as an option).  It inherits the single-pass machinery and therefore the
same deterministic tie-breaking: equal probabilities resolve by ascending
cell id and equal cycle weights by ascending codeword value.

Depth-one stages (stage 1 of every pass) skip the cycle weights: the cycle
through the seed and a neighbour is just that pair, so all candidates tie
and the free neighbours take the next top cells in ascending codeword
order.

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
from typing import List, Optional, Sequence

import numpy as np

from .gray import cycle_node_values, ring_values
from .grid import Cell, Grid, GridEncoding, quadtree_levels


# Cells labelled per array pass in the hierarchical baseline: whole-grid
# arrays at n=50625 raised the alert round's peak RSS by about 1 MB over
# the scalar loop, chunks of this size by about half that.
HGE_CHUNK = 4096


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
        self.grid = grid
        self.n = grid.n
        self.k = grid.k
        self.space = 1 << self.k
        self._bits = [1 << b for b in range(self.k)]
        probs = grid.probabilities()
        padded = probs + [0.0] * (self.space - self.n)
        self.logp = [math.log(p) if p > 0.0 else -math.inf for p in padded]
        self._order = sorted(range(self.space), key=lambda c: (-padded[c], c))
        self._ptr = 0
        self.cell_at: List[Optional[int]] = [None] * self.space
        self.index_of: List[Optional[int]] = [None] * self.space
        self.unassigned_indices = self.space

    # --- bookkeeping ---

    def assign(self, cell: int, index: int) -> None:
        if self.index_of[cell] is not None:
            raise ValueError(f"cell {cell} already assigned")
        if self.cell_at[index] is not None:
            raise ValueError(f"codeword {index} already assigned")
        self.index_of[cell] = index
        self.cell_at[index] = cell
        self.unassigned_indices -= 1

    def take_top_cells(self, count: int) -> List[int]:
        """Next `count` unassigned cells in global probability order."""
        out = []
        while len(out) < count:
            cell = self._order[self._ptr]
            self._ptr += 1
            if self.index_of[cell] is None:
                out.append(cell)
        return out

    def top_unassigned_cell(self) -> int:
        ptr = self._ptr
        while self.index_of[self._order[ptr]] is not None:
            ptr += 1
        return self._order[ptr]

    def random_unassigned_index(self, rng: random.Random) -> int:
        target = rng.randrange(self.unassigned_indices)
        seen = 0
        for index in range(self.space):
            if self.cell_at[index] is None:
                if seen == target:
                    return index
                seen += 1
        raise RuntimeError("no unassigned index left")

    # --- the core stage ---

    def go_stage(self, seed_index: int, distance: int,
                 counter: Optional[OpCounter] = None) -> None:
        """Fill the unassigned part of the ring at `distance` around the seed.

        Ring codewords are weighted by the log-probability sum of assigned
        cells on their seed cycle (target excluded) and matched rank to
        rank against the highest-probability unassigned cells.

        At distance one the cycle through the seed and a neighbour is just
        that pair, so every neighbour weighs the same (the seed's own
        log-probability, a one-factor product that counts no
        multiplication) and the matching hands the next top cells to the
        free neighbours in ascending codeword order.
        """
        if distance == 1:
            cell_at = self.cell_at
            ring = [seed_index ^ bit for bit in self._bits
                    if cell_at[seed_index ^ bit] is None]
            if ring:
                ring.sort()
                for cell, cj in zip(self.take_top_cells(len(ring)), ring):
                    self.assign(cell, cj)
            return
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


def default_seed_cell(grid: Grid) -> int:
    """Highest-probability cell, ties to the lowest id."""
    probs = grid.probabilities()
    return min(range(grid.n), key=lambda c: (-probs[c], c))


def gray_optimizer(grid: Grid,
                   seed_cell: Optional[int] = None,
                   seed_index: int = 0,
                   depth: Optional[int] = None,
                   counter: Optional[OpCounter] = None) -> GridEncoding:
    """Single-seed Gray optimizer.

    Defaults place the highest-probability cell on the all-zero codeword
    and run every stage; with a shallower depth the remaining cells are
    appended deterministically in probability order.
    """
    k = grid.k
    if depth is None:
        depth = k
    if not 1 <= depth <= k:
        raise ValueError(f"depth {depth} outside [1, {k}]")
    if seed_cell is None:
        seed_cell = default_seed_cell(grid)
    if not 0 <= seed_cell < grid.n:
        raise ValueError(f"seed cell {seed_cell} does not exist")
    state = Assignment(grid)
    if not 0 <= seed_index < state.space:
        raise ValueError(f"seed codeword {seed_index} outside the {k}-cube")
    state.assign(seed_cell, seed_index)
    state.go_pass(seed_index, depth, counter)
    state.complete_sorted()
    return state.to_encoding("GO")


def msgo(grid: Grid,
         depth: int,
         rng_seed: int,
         first_index: Optional[int] = None,
         seed_policy: str = "bfs",
         counter: Optional[OpCounter] = None) -> GridEncoding:
    """Multiple-seed Gray optimizer.

    Repeatedly seeds a fresh cluster on an unassigned codeword, assigns the
    highest-probability unassigned cell to it, and runs a depth-limited
    pass around it restricted to whatever is still free, until every
    codeword is assigned.  `first_index` pins the first seed codeword,
    which makes depth = k reproduce the single-seed optimizer exactly.

    The default "bfs" policy takes the free codeword of lowest Hamming
    weight (then lowest value), so the first cluster sits on the origin
    and every later cluster grows against the already-assigned region;
    consecutive probability ranks then stay Gray-adjacent across cluster
    boundaries.  Scattering clusters on uniformly random free codewords
    ("random" policy) leaves probability-oblivious shards between cluster
    balls and measures roughly ten improvement points worse against the
    hierarchical baseline at depth 4, with triple the trial variance.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if seed_policy not in ("bfs", "random"):
        raise ValueError("seed policy must be 'bfs' or 'random'")
    depth = min(depth, grid.k)
    rng = random.Random(rng_seed)
    state = Assignment(grid)
    # assignments never revert, so one cursor over the codewords in
    # (weight, value) order finds every "bfs" seed in O(space) overall
    bfs_order = iter(sorted(range(state.space), key=lambda i: (i.bit_count(), i)))
    first = True
    while state.unassigned_indices:
        if first and first_index is not None:
            index = first_index
            if state.cell_at[index] is not None:
                raise ValueError("first_index already assigned")
        elif seed_policy == "random":
            index = state.random_unassigned_index(rng)
        else:
            index = next(i for i in bfs_order if state.cell_at[i] is None)
        first = False
        state.assign(state.top_unassigned_cell(), index)
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
    padded = grid.probabilities() + [0.0] * (space - grid.n)
    order = np.argsort(-np.array(padded), kind="stable")
    # math.log as in Assignment.logp: np.log may differ in the last bit,
    # which would reorder near-ties; indexed by claim position
    neg_logp = -np.array([math.log(p) if p > 0.0 else -math.inf
                          for p in padded])[order]
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


def _quad_labels(cells: Sequence[Cell], levels: int) -> np.ndarray:
    """Root-to-leaf label paths of all cells, one tree level at a time:
    2 Gray bits per level, NW NE SE SW."""
    xs = np.array([c.x for c in cells], dtype=np.float64)
    ys = np.array([c.y for c in cells], dtype=np.float64)
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
        leaves = []
        for start in range(0, grid.n, HGE_CHUNK):
            chunk = grid.cells[start:start + HGE_CHUNK]
            leaves += _quad_labels(chunk, levels).tolist()
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
