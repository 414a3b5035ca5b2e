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
by row and written in cell order into CSR form, whose rows scipy then
sorts.  They stay capped at n <= 20 cells; the spatial chain takes about
0.25 s at n=16, 0.5 s with a 166 MB peak RSS at n=18, and 1.1-1.6 s with
a 543 MB peak RSS at n=20 (2-vCPU VM, fresh process).  `scipy.sparse` is
imported only when an exact chain is built, so importing the package
loads numpy and no part of scipy.

The stationary distribution, a plain probability vector over the states,
comes from power iteration (which doubles as the marginal distribution of
the chain after m steps) or from chained Monte Carlo walks: walk r+1
starts where walk r ended, so the sequence of walk end states is itself
an ergodic chain with the same stationary vector, and end-state
frequencies converge to it as the walk count grows.  Restarting every
walk at the empty state instead would estimate a geometrically weighted
average of short-horizon distributions, which does not converge to the
stationary vector no matter how many walks are run.

The lazily expanded `UniformChain` flips a uniformly random cell, so its
cells are exchangeable and its evolved marginals are exact at any n: the
chain lumps onto (zone size, one tagged cell's bit), 2(n + 1) states
(Kemeny & Snell, Finite Markov Chains, 1960, section 6.3).
"""

from __future__ import annotations

import bisect
import random
from typing import TYPE_CHECKING, Iterator

import numpy as np

from .grid import Grid

if TYPE_CHECKING:
    from scipy import sparse

EXACT_CELL_CAP = 20
ROW_SUM_TOL = 1e-12
RESIDUAL_TOL = 1e-9
POWER_STEP_TOL = 1e-13
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


def _check_cap(n: int) -> None:
    if n > EXACT_CELL_CAP:
        raise ValueError(f"exact model capped at {EXACT_CELL_CAP} cells, got {n}"
                         " (use the lazily expanded chains beyond that)")


def _flip_chain(n: int, weights: np.ndarray) -> TransitionMatrix:
    """Chain in which non-full state i flips cell j with weight
    weights[i, j], for a (2^n - 1) x n weight array; each row is normalized
    by its sum, zero entries are dropped, and the full state wraps to the
    empty one.  Rows are written in cell order and scipy sorts each one's
    columns in place.
    """
    from scipy import sparse

    totals = np.zeros(len(weights))
    for column in weights.T:    # left to right, like a scalar running sum
        totals += column
    dead = np.flatnonzero(totals <= 0.0)
    if dead.size:
        raise ValueError(f"state {dead[0]} has no outgoing weight")
    data = np.empty(weights.size + 1)           # the wrap row's entry last
    indices = np.empty(weights.size + 1, dtype=np.int32)
    np.divide(weights, totals[:, None], out=data[:-1].reshape(weights.shape))
    np.bitwise_xor(np.arange(len(weights), dtype=np.int32)[:, None],
                   1 << np.arange(n, dtype=np.int32),
                   out=indices[:-1].reshape(weights.shape))
    data[-1], indices[-1] = 1.0, 0
    indptr = np.append(np.arange(0, weights.size + 1, n), weights.size + 1)
    size = 1 << n
    base = sparse.csr_matrix((data, indices, indptr), shape=(size, size))
    base.sort_indices()
    base.eliminate_zeros()
    return TransitionMatrix(n, base)


def build_q_independent(grid: Grid) -> TransitionMatrix:
    """Spatially independent chain: a flip of cell v has weight p(v).

    Raw weights of a row need not sum to one for n >= 3, so each row is
    normalized by its sum; with two cells of complementary probability the
    normalization is a no-op and the textbook 4x4 matrix falls out.
    """
    n = grid.n
    _check_cap(n)
    if grid.p.sum() <= 0.0:
        raise ValueError("at least one cell probability must be positive")
    return _flip_chain(n, np.broadcast_to(grid.p, ((1 << n) - 1, n)))


def build_q_spatial(grid: Grid) -> TransitionMatrix:
    """Spatially dependent chain: a flip of cell v from state S has weight
    p(v) / d(v, centroid(S)), distances floored to avoid blowups.

    A single-cell zone keeps its removal weight at plain p(v); the empty
    zone has no centroid, so additions from it use plain p(v) as well.
    """
    n = grid.n
    _check_cap(n)
    probs = grid.p
    states = np.arange((1 << n) - 1, dtype="<u4")
    members = np.unpackbits(states.view(np.uint8).reshape(-1, 4), axis=1,
                            bitorder="little")[:, :n].copy()
    count = members.sum(axis=1, keepdims=True)
    centroids = members @ np.column_stack((grid.x, grid.y)) / np.maximum(count, 1)
    # one (2^n - 1) x n float array at a time besides the weights
    w = grid.x - centroids[:, :1]
    dy = grid.y - centroids[:, 1:]
    np.hypot(w, dy, out=w)
    del dy
    np.divide(probs, np.maximum(w, DISTANCE_FLOOR, out=w), out=w)
    # the empty zone and the removal of a lone cell have no usable distance
    np.copyto(w, probs, where=(count == 0) | ((members == 1) & (count == 1)))
    del members
    return _flip_chain(n, w)


def damp(q: TransitionMatrix, alpha: float) -> TransitionMatrix:
    """PageRank-style mix: alpha * Q + (1 - alpha) * J / 2^n."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly between 0 and 1")
    if q.damped:
        raise ValueError("chain is already damped")
    return TransitionMatrix(q.n, q.base, alpha=alpha)


def stationary_exact(q: TransitionMatrix, max_iter: int = 200_000) -> np.ndarray:
    """Left eigenvector for eigenvalue 1 by power iteration from uniform,
    normalized to a probability vector over the states.

    Raises ConvergenceError when the iteration cap is hit with a residual
    above tolerance, which signals a periodic undamped chain.
    """
    s = np.full(q.states, 1.0 / q.states)
    for _ in range(max_iter):
        nxt = q.propagate(s)
        delta = np.abs(nxt - s).max()
        s = nxt
        if delta < POWER_STEP_TOL:
            break
    s = s / s.sum()
    residual = np.abs(q.propagate(s) - s).max()
    if residual > RESIDUAL_TOL:
        raise ConvergenceError(
            f"power iteration residual {residual:.2e}; damp the chain first")
    return s


def evolve(q: TransitionMatrix, start: np.ndarray, steps: int) -> np.ndarray:
    """Marginal distribution after `steps` transitions: start @ Q^steps."""
    dist = np.asarray(start, dtype=float)
    for _ in range(steps):
        dist = q.propagate(dist)
    return dist


def stationary_monte_carlo(q: TransitionMatrix,
                           walks: int,
                           continue_prob: float,
                           rng_seed: int) -> np.ndarray:
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
    return counts / walks


def cell_marginals(probs: np.ndarray) -> np.ndarray:
    """Per-cell alert probability: total mass of the states containing the
    cell, for a probability vector over the states.  The cell count n comes
    from the vector's length, which must be 2^n, and every entry must be
    finite and non-negative."""
    probs = np.asarray(probs, dtype=float)
    size = len(probs)
    if size < 1 or size & (size - 1):
        raise ValueError(f"distribution length {size} is not a power of two")
    bad = ~(np.isfinite(probs) & (probs >= 0.0))
    if bad.any():
        state = int(bad.argmax())
        raise ValueError(f"state {state} probability {probs[state]} is negative"
                         " or not finite")
    states = np.arange(size)
    return np.array([probs[(states >> j) & 1 == 1].sum()
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

    def end_marginals(self, start: int, continue_prob: float,
                      alpha: float = 1.0) -> np.ndarray:
        """Exact probability that each cell is set at the end of one walk
        off `start`, with the law of `walk_ends`: sum_l (1 - c) c^l of the
        l-step distribution.

        Cells are exchangeable, so the chain lumps onto (cardinality m,
        bit b of one tagged cell), state b (n + 1) + m.  From (m, b) with
        m < n the tagged cell flips with probability 1/n, another set cell
        with (m - b)/n and another unset cell with (n - m - 1 + b)/n; the
        full state (n, 1) wraps to (0, 0).  A damped step is alpha times
        that flip plus 1 - alpha times the law of `getrandbits(n)`, under
        which b is a fair coin and m - b is Binomial(n - 1, 1/2).  One
        tagged cell in the zone and one outside it are carried side by
        side as banded numpy steps, O(n) each, until c^l < 1e-17; every
        cell gets its side's value.
        """
        n, size = self.n, self.n + 1
        if not 0 <= start <= self.full:
            raise ValueError(f"start state {start} outside 0..2^{n} - 1")
        if not 0.0 <= continue_prob < 1.0:
            raise ValueError("continue probability must lie in [0, 1)")
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must lie in (0, 1]")
        m = np.arange(size, dtype=float)
        low, high = m < n, (m > 0) & (m < n)    # states that flip, b = 0 and 1
        # flip probabilities out of each state: m + 1 and m - 1 keep b (the
        # unreachable (n, 0) and (0, 1) get none, so no mass crosses planes),
        # a tagged flip moves (m, 0) to (m + 1, 1) and (m, 1) to (m - 1, 0)
        moves = alpha / n * np.stack((
            np.append(np.where(low, n - m - 1, 0), np.where(high, n - m, 0)),
            np.append(np.where(low, m, 0), np.where(high, m - 1, 0)),
            np.append(low, high)))[:, :, None]
        # Binomial(n - 1, 1/2) by its ratio recurrence, in logs, peak at 1
        k = m[:-2]
        logs = np.concatenate(([0.0], np.cumsum(np.log((n - 1 - k) / (k + 1.0)))))
        binom = np.exp(logs - logs.max())[:, None]
        jump = np.zeros((2 * size, 2))
        jump[:n] = jump[size + 1:] = (1.0 - alpha) / 2.0 * binom / binom.sum()
        # columns: a tagged cell in the zone, then one outside it; on an
        # empty or full start one column sits on an unreachable state and
        # is never read
        count = start.bit_count()
        dist = np.zeros((2 * size, 2))
        dist[[size + count, count], [0, 1]] = 1.0
        total = np.zeros_like(dist)
        power = 1.0
        while power >= 1e-17:
            total += power * dist
            flows = moves * dist
            step = jump.copy()
            step[1:] += flows[0, :-1]
            step[:-1] += flows[1, 1:]
            step[size + 1:] += flows[2, :n]
            step[:n] += flows[2, size + 1:]
            step[0] += alpha * dist[-1]     # the full state wraps to empty
            dist = step
            power *= continue_prob
        inside, outside = (1.0 - continue_prob) * total[size:].sum(axis=0)
        bits = np.unpackbits(np.frombuffer(start.to_bytes((n + 7) // 8, "little"),
                                           dtype=np.uint8), bitorder="little")[:n]
        return np.where(bits == 1, inside, outside)

