"""Markov model of alert-zone evolution over the power-set state space.

State i is the membership bitmask itself: bit j set means cell j is
alerted, so state 0 is the empty zone and state 2^n - 1 the full grid.
This matches the recursive state-space construction in which the states
for n+1 cells are those for n cells followed by the same states with the
new cell added.

Transitions connect states whose memberships differ by exactly one cell,
except the full state, which wraps deterministically to the empty one.
The spatially independent chain weighs a flip of cell v by p(v); the
spatially dependent chain divides by the distance between v and the
centroid of the current zone, so nearby cells are likelier to join or
leave.  Rows are normalized to keep the chain Markovian; damping mixes in
a uniform jump, PageRank style, to force aperiodicity.  Both exact chains
are built as arrays: one (2^n - 1) x n table of flip weights, normalized
by row and packed straight into CSR form.  They stay capped at n <= 20
cells; the spatial chain takes about 0.23 s at n=16, and 1.0 s with a
405 MB peak RSS at n=18 (2-vCPU VM).

The stationary distribution comes from power iteration (which doubles as
the marginal distribution of the chain after m steps) or from chained
Monte Carlo walks: walk r+1 starts where walk r ended, so the sequence of
walk end states is itself an ergodic chain with the same stationary
vector, and end-state frequencies converge to it as the walk count grows.
Restarting every walk at the empty state instead would estimate a
geometrically weighted average of short-horizon distributions, which does
not converge to the stationary vector no matter how many walks are run.
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np
from scipy import sparse

from .grid import Grid

EXACT_CELL_CAP = 20
ROW_SUM_TOL = 1e-12
RESIDUAL_TOL = 1e-9
DISTANCE_FLOOR = 1e-6


class ConvergenceError(RuntimeError):
    """Power iteration failed to settle; damp the chain and retry."""


class TransitionMatrix:
    """Row-stochastic transition structure, optionally damped.

    The undamped rows are sparse (at most n non-zeros each, plus the wrap
    row); damping is kept implicit as `alpha`, so products and sampling
    never materialize the dense uniform component.
    """

    def __init__(self, n: int, base: sparse.csr_matrix, alpha: float = 1.0):
        self.n = n
        self.base = base
        self.alpha = alpha
        sums = np.asarray(base.sum(axis=1)).ravel()
        if np.abs(sums - 1.0).max() > ROW_SUM_TOL:
            raise ValueError("rows must sum to 1")

    @property
    def states(self) -> int:
        return self.base.shape[0]

    @property
    def damped(self) -> bool:
        return self.alpha < 1.0

    def propagate(self, dist: np.ndarray) -> np.ndarray:
        """One step of the chain: dist @ Q."""
        out = np.asarray(dist @ self.base).ravel()
        if self.damped:
            out = self.alpha * out + (1.0 - self.alpha) * dist.sum() / self.states
        return out

    def to_dense(self) -> np.ndarray:
        dense = self.alpha * self.base.toarray()
        if self.damped:
            dense += (1.0 - self.alpha) / self.states
        return dense


@dataclass(frozen=True)
class StationaryDistribution:
    probs: np.ndarray
    method: str                   # "power-iteration" | "monte-carlo"
    samples: Optional[int] = None

    def __post_init__(self):
        if self.probs.min() < 0:
            raise ValueError("negative state probability")


def _check_cap(n: int) -> None:
    if n > EXACT_CELL_CAP:
        raise ValueError(f"exact model capped at {EXACT_CELL_CAP} cells, got {n}"
                         " (use the lazily expanded chains beyond that)")


def _flip_chain(n: int, weights: np.ndarray) -> TransitionMatrix:
    """Chain in which non-full state i flips cell j with weight
    weights[i, j], for a (2^n - 1) x n weight array; each row is normalized
    by its sum, zero entries are dropped, columns are kept in ascending
    order, and the full state wraps to the empty one."""
    totals = np.zeros(len(weights))
    for column in weights.T:    # left to right, like a scalar running sum
        totals += column
    dead = np.flatnonzero(totals <= 0.0)
    if dead.size:
        raise ValueError(f"state {dead[0]} has no outgoing weight")
    cols = np.arange(len(weights))[:, None] ^ (1 << np.arange(n))
    order = np.argsort(cols, axis=1)
    cols = np.take_along_axis(cols, order, axis=1)
    probs = np.take_along_axis(weights / totals[:, None], order, axis=1)
    keep = probs > 0.0
    row_nnz = np.append(keep.sum(axis=1), 1)    # the wrap row has one entry
    indptr = np.concatenate(([0], np.cumsum(row_nnz)))
    size = 1 << n
    base = sparse.csr_matrix(
        (np.append(probs[keep], 1.0), np.append(cols[keep], 0), indptr),
        shape=(size, size))
    return TransitionMatrix(n, base)


def build_q_independent(grid: Grid) -> TransitionMatrix:
    """Spatially independent chain: a flip of cell v has weight p(v).

    Raw weights of a row need not sum to one for n >= 3, so each row is
    normalized by its sum; with two cells of complementary probability the
    normalization is a no-op and the textbook 4x4 matrix falls out.
    """
    n = grid.n
    _check_cap(n)
    probs = np.array(grid.probabilities())
    if probs.sum() <= 0.0:
        raise ValueError("at least one cell probability must be positive")
    return _flip_chain(n, np.broadcast_to(probs, ((1 << n) - 1, n)))


def build_q_spatial(grid: Grid) -> TransitionMatrix:
    """Spatially dependent chain: a flip of cell v from state S has weight
    p(v) / d(v, centroid(S)), distances floored to avoid blowups.

    A single-cell zone keeps its removal weight at plain p(v); the empty
    zone has no centroid, so additions from it use plain p(v) as well.
    """
    n = grid.n
    _check_cap(n)
    probs = np.array(grid.probabilities())
    centers = np.array(grid.centers())
    members = np.arange((1 << n) - 1)[:, None] >> np.arange(n) & 1
    count = members.sum(axis=1, keepdims=True)
    centroids = members @ centers / np.maximum(count, 1)
    d = np.hypot(centers[:, 0] - centroids[:, :1], centers[:, 1] - centroids[:, 1:])
    # the empty zone and the removal of a lone cell have no usable distance
    plain = (count == 0) | ((members == 1) & (count == 1))
    return _flip_chain(n, np.where(plain, probs, probs / np.maximum(d, DISTANCE_FLOOR)))


def damp(q: TransitionMatrix, alpha: float) -> TransitionMatrix:
    """PageRank-style mix: alpha * Q + (1 - alpha) * J / 2^n."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly between 0 and 1")
    if q.damped:
        raise ValueError("chain is already damped")
    return TransitionMatrix(q.n, q.base, alpha=alpha)


def stationary_exact(q: TransitionMatrix,
                     tol: float = 1e-13,
                     max_iter: int = 200_000) -> StationaryDistribution:
    """Left eigenvector for eigenvalue 1 by power iteration from uniform.

    Raises ConvergenceError when the iteration cap is hit with a residual
    above tolerance, which signals a periodic undamped chain.
    """
    s = np.full(q.states, 1.0 / q.states)
    for _ in range(max_iter):
        nxt = q.propagate(s)
        delta = np.abs(nxt - s).max()
        s = nxt
        if delta < tol:
            break
    s = s / s.sum()
    residual = np.abs(q.propagate(s) - s).max()
    if residual > RESIDUAL_TOL:
        raise ConvergenceError(
            f"power iteration residual {residual:.2e}; damp the chain first")
    return StationaryDistribution(probs=s, method="power-iteration")


def evolve(q: TransitionMatrix, start: np.ndarray, steps: int) -> np.ndarray:
    """Marginal distribution after `steps` transitions: start @ Q^steps."""
    dist = np.asarray(start, dtype=float)
    for _ in range(steps):
        dist = q.propagate(dist)
    return dist


def stationary_monte_carlo(q: TransitionMatrix,
                           walks: int,
                           continue_prob: float,
                           rng_seed: int) -> StationaryDistribution:
    """Estimate the stationary vector from end states of chained walks.

    The first walk starts at the empty state; each subsequent walk starts
    where the previous one ended.  Every step first draws the termination
    coin (probability 1 - continue_prob), so a walk may end where it
    began; the estimate is the fraction of walks ending in each state.
    """
    if walks < 1:
        raise ValueError("walk count must be >= 1")
    if not 0.0 < continue_prob < 1.0:
        raise ValueError("continue probability must lie in (0, 1)")
    rng = random.Random(rng_seed)
    size = q.states
    indptr, indices, data = q.base.indptr, q.base.indices, q.base.data
    cumulative = [(np.cumsum(data[a:b]).tolist(), indices[a:b].tolist())
                  for a, b in zip(indptr[:-1], indptr[1:])]
    counts = np.zeros(size)
    state = 0
    jump = 1.0 - q.alpha
    for _ in range(walks):
        while rng.random() < continue_prob:
            if jump > 0.0 and rng.random() < jump:
                state = rng.randrange(size)
                continue
            acc, cols = cumulative[state]
            idx = bisect.bisect_left(acc, rng.random())
            state = cols[min(idx, len(cols) - 1)]
        counts[state] += 1
    return StationaryDistribution(probs=counts / walks, method="monte-carlo",
                                  samples=walks)


def cell_marginals(s: StationaryDistribution) -> np.ndarray:
    """Per-cell alert probability: total stationary mass of the states
    containing the cell.  The cell count n comes from the distribution's
    length, which must be 2^n."""
    size = len(s.probs)
    if size < 1 or size & (size - 1):
        raise ValueError(f"distribution length {size} is not a power of two")
    states = np.arange(size)
    return np.array([s.probs[(states >> j) & 1 == 1].sum()
                     for j in range(size.bit_length() - 1)])


class UniformChain:
    """Lazily expanded chain with uniform outgoing rows, usable far beyond
    the exact-model cap: every state (bar the full one) flips a uniformly
    random cell; the full state wraps to empty."""

    def __init__(self, n: int):
        self.n = n
        self.full = (1 << n) - 1

    def step(self, state: int, rng: random.Random) -> int:
        if state == self.full:
            return 0
        return state ^ (1 << rng.randrange(self.n))

    def walk_end(self, start: int, continue_prob: float, rng: random.Random,
                 alpha: float = 1.0) -> int:
        """End state of one geometric walk; with probability 1 - alpha a
        step jumps to a uniformly random state instead of flipping."""
        return next(self.walk_ends(start, continue_prob, rng, alpha))

    def walk_ends(self, start: int, continue_prob: float, rng: random.Random,
                  alpha: float = 1.0) -> Iterator[int]:
        """End states of successive geometric walks, each one off `start`.

        Every step draws the continue coin, then the jump coin only when
        the chain is damped, then `getrandbits(n)` for a jump or
        `randrange(n)` for a flip; the full->empty wrap draws nothing.  So
        the stream equals that of repeated `walk_end` calls on one rng.
        """
        n, full = self.n, self.full
        coin, randrange, getrandbits = rng.random, rng.randrange, rng.getrandbits
        damped = alpha < 1.0
        while True:
            state = start
            while coin() < continue_prob:
                if damped and coin() >= alpha:
                    state = getrandbits(n)
                elif state == full:
                    state = 0
                else:
                    state ^= 1 << randrange(n)
            yield state
