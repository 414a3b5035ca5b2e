"""Alert-zone token generation via boolean minimization.

An alert zone (a set of cells) becomes, under a given encoding, a set of
codeword minterms; unassigned (dummy) codewords may serve as don't-cares
because no user can ever encrypt under them.  The minimizer produces a
cover of {0,1,*} patterns whose cost is the total non-star bit count, the
quantity that drives pairing work at query time (2 per non-star plus 1).

A cover that may use at most 4096 codewords (minterms plus don't-cares),
at any width k, is minimized exactly: prime implicants, then a
minimum-cost cover search with essential and dominance reductions and
branch-and-bound on the minterm with the fewest holders, from a greedy
incumbent on the cyclic core.  The search drops a subtree when a
disjoint-rows floor (Coudert, DAC 1996) shows it holds nothing as cheap
as the incumbent.  A deterministic node budget of 1500 keeps degenerate
dense cores from stalling; a search that exhausts it keeps its best cover
so far and clears the `exact` flag.  The budget comes from a sweep over
1000-3000 nodes on two sets of 160 fixed `zone-minimize` rounds: 1500 is
the least at which neither set certifies fewer covers than 20,000 nodes
did without the floor.
Every `TokenSet` carries a lower bound on its cost, the floor of its core
plus the essential picks where the search ran out.  Above 4096 allowed
codewords the same greedy step, run over prime cubes grown from each
minterm, builds the whole cover, which is flagged approximate as well.
The greedy step is lazy (a heap of possibly stale gains, rechecked when
popped) and chooses exactly what a full rescan per pick would.

Every uncertified cover, from either path, is finished by a one-out
descent.  Each move takes one pattern out, re-covers what only it covered
by the cheapest primes per minterm, and drops what that made redundant;
it keeps a move only when the cover gets cheaper, so the descent only
ever lowers the cover's cost, and the cover stays flagged inexact.

Two generators give the same prime implicants; `is_dense` picks one from
the input, 2^k against the number of allowed codewords:
- a dense function (2^k at most DENSE_RATIO times the allowed count) is
  worked on as its truth table, one int per star mask with bit v set when
  the cube (mask, v) lies inside the allowed codewords.  Each mask comes
  from its parent by one shift-and-AND, and the primes are the cubes that
  no cube one star larger contains, so every step handles all 2^k
  codewords at once;
- a sparse wide function, such as a 1% zone at k = 16, takes set-based
  Quine-McCluskey, whose work follows the implicants rather than 2^k.
  There every truth-table step would walk 2^k bits to find a few set ones.

Both dominance reductions drop exactly the rows or columns that another
dominates under a strict partial order: a prime goes when a live prime no
costlier covers all it covers (of equal columns the lower index stays), a
minterm goes when every live holder of another minterm holds it (of equal
rows the lower position stays).  The orders are transitive, so whatever a
dropped element dominates, so does an undominated element dominating it,
and that one is never dropped.  Each pass therefore keeps exactly the
undominated set, however early or late each dominated element goes.

The server stops at a user's first matching token, so the cover's
patterns are issued match-first: next the pattern matching the most zone
minterms not yet matched per pairing it costs, every zone cell weighted
alike (no user sits on a dummy codeword).  The order changes no cover,
cost or pairing_cost, only what zone users pay.

Each `minimize` call derives the candidates' columns once, in one
`PrimeTable`: every implicant in (cost, pattern) order with its cost,
pattern text, text rank and minterm bitmask, and every minterm's holder
bitmask, both filled in one pass over the implicants' codewords.  The
cover search, the greedy step, the descent, the issue order and the
`TokenSet` read it by index.  Ties are broken by the implicants, never by
where they sit in the table:
- the greedy step takes most new minterms, then the cheapest, then the
  smaller text (which within one cost is table order);
- the issue order breaks equal ratios by text, and issues the patterns
  that add nothing last, in text order.
"""

from __future__ import annotations

import heapq
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, IO, Iterable, List, Sequence, Set, Tuple

from .gray import bit_positions
from .grid import GridEncoding

EXACT_SPACE_LIMIT = 4096
BRANCH_NODE_BUDGET = 1_500
DENSE_RATIO = 16            # 2^k / allowed codewords up to which `is_dense` holds
_NO_PICK = float("inf")     # entry cost that ends a branch node

Implicant = Tuple[int, int]  # (star mask, value with star bits zeroed)


def implicant_pattern(imp: Implicant, k: int) -> str:
    mask, value = imp
    chars = list(format(value, f"0{k}b"))
    for pos in bit_positions(mask):
        chars[k - 1 - pos] = "*"
    return "".join(chars)


def pattern_implicant(pattern: str) -> Implicant:
    for ch in pattern:
        if ch not in "01*":
            raise ValueError(f"bad pattern symbol {ch!r}")
    return (int(pattern.replace("1", "0").replace("*", "1") or "0", 2),
            int(pattern.replace("*", "0") or "0", 2))


def implicant_cost(imp: Implicant, k: int) -> int:
    """Non-star bit count."""
    return k - bin(imp[0]).count("1")


def expand_implicant(imp: Implicant) -> List[int]:
    """All codeword values covered by an implicant."""
    mask, value = imp
    out = [value]
    sub = mask
    while sub:
        out.append(value | sub)
        sub = (sub - 1) & mask
    return out


@dataclass(frozen=True)
class TokenSet:
    """Minimized pattern cover of one alert zone under one encoding, its
    patterns in issue order."""

    patterns: Tuple[str, ...]
    cost: int                   # total non-star bits
    exact: bool                 # False for greedy covers and for budget-exhausted
                                # ones, which the one-out descent may cheapen
    bound: int                  # no cover of the zone has fewer non-star bits;
                                # equals cost when exact


def pairing_cost(ts: TokenSet) -> int:
    """Query-side bilinear pairings: 2 per non-star bit plus 1 per token."""
    return 2 * ts.cost + len(ts.patterns)


# --- prime implicant generation (exact path) ---

def is_dense(k: int, count: int) -> bool:
    """Whether `count` codewords fill enough of the 2^k space for its truth
    table to be worked on as one bitset."""
    return 1 << k <= DENSE_RATIO * count


def prime_implicants(k: int, minterms: Set[int], dontcares: Set[int]) -> List[Implicant]:
    """All prime implicants of the (minterms | dontcares) function, those
    covering only don't-cares included: no cover search ever picks one."""
    allowed = minterms | dontcares
    if is_dense(k, len(allowed)):
        return _truth_table_primes(k, allowed)
    return _qm_primes(k, allowed)


def _truth_table_primes(k: int, allowed: Set[int]) -> List[Implicant]:
    """Prime implicants bit-parallel over the truth table: bit v of
    `cubes[mask]` is set when the cube (mask, v) lies inside `allowed`
    (only at v with v & mask == 0), each mask built from its parent without
    its top bit by one shift-and-AND; a cube is prime when no cube one star
    larger contains it."""
    space = 1 << k
    table = bytearray(max(space // 8, 1))
    for v in allowed:
        table[v >> 3] |= 1 << (v & 7)
    ones = (1 << space) - 1
    # codewords with bit b clear: s ones then s zeros, s = 2^b, repeated
    clear = [ones // ((1 << (1 << b)) + 1) for b in range(k)]
    cubes = {0: int.from_bytes(table, "little")}
    queue = [0]
    for mask in queue:
        inside = cubes[mask]
        for b in range(mask.bit_length(), k):
            grown = inside & inside >> (1 << b) & clear[b]
            if grown:
                cubes[mask | 1 << b] = grown
                queue.append(mask | 1 << b)
    covered = dict.fromkeys(cubes, 0)
    for mask, inside in cubes.items():
        for b in bit_positions(mask):
            covered[mask ^ 1 << b] |= inside | inside << (1 << b)
    return [(mask, v) for mask, inside in cubes.items()
            for v in bit_positions(inside & ~covered[mask])]


def _qm_primes(k: int, allowed: Set[int]) -> List[Implicant]:
    """Set-based Quine-McCluskey: merge implicant pairs one star at a time;
    the ones never merged are prime."""
    current: Set[Implicant] = {(0, m) for m in allowed}
    primes: Set[Implicant] = set()
    while current:
        merged: Set[Implicant] = set()
        nxt: Set[Implicant] = set()
        by_mask: Dict[int, Set[int]] = defaultdict(set)
        for mask, value in current:
            by_mask[mask].add(value)
        for mask, values in by_mask.items():
            free_bits = [1 << b for b in range(k) if not mask >> b & 1]
            for value in values:
                for bit in free_bits:
                    if value & bit:
                        continue
                    if value | bit in values:
                        nxt.add((mask | bit, value))
                        merged.add((mask, value))
                        merged.add((mask, value | bit))
        primes |= current - merged
        current = nxt
    return list(primes)


# --- cover selection over minterm bitmasks ---

def _cover_bits(implicants: List[Implicant],
                minterms: Set[int]) -> Tuple[List[int], List[int]]:
    """Per implicant, the bitmask of the minterms it covers (bit i for the
    i-th smallest minterm), and per minterm, the bitmask of the implicants
    covering it (bit j for the j-th implicant)."""
    pos_of = {m: i for i, m in enumerate(sorted(minterms))}
    out = []
    holders = [0] * len(pos_of)
    for j, imp in enumerate(implicants):
        bits = 0
        for v in expand_implicant(imp):
            i = pos_of.get(v)
            if i is not None:
                bits |= 1 << i
                holders[i] |= 1 << j
        out.append(bits)
    return out, holders


@dataclass(frozen=True)
class PrimeTable:
    """One cover problem's implicants in (cost, pattern) order, each column
    derived once; every cover step names an implicant by its index here.
    `bits` and `holders` are one incidence matrix read by column and by
    row, both from the one pass of `_cover_bits`."""

    costs: List[int]            # non-star bits
    patterns: List[str]
    rank: List[int]             # position in pattern-text order
    bits: List[int]             # per prime, the minterms it covers
    holders: List[int]          # per minterm, the primes covering it
    full: int                   # every minterm's bit

    @classmethod
    def build(cls, k: int, implicants: Iterable[Implicant],
              minterms: Set[int]) -> "PrimeTable":
        # patterns are unique, so the sort never compares implicants
        keyed = sorted((implicant_cost(p, k), implicant_pattern(p, k), p)
                       for p in implicants)
        primes = [p for _, _, p in keyed]
        patterns = [pattern for _, pattern, _ in keyed]
        rank = [0] * len(primes)
        for r, i in enumerate(sorted(range(len(primes)), key=patterns.__getitem__)):
            rank[i] = r
        return cls([cost for cost, _, _ in keyed], patterns, rank,
                   *_cover_bits(primes, minterms), (1 << len(minterms)) - 1)


def _lazy_picks(candidates: Iterable[int], cover_bits: List[int], full: int,
                key: Callable[[int, int], tuple]) -> Tuple[List[int], int]:
    """Indices in the order a full rescan would pick them, each time the
    least `key(gain, index)` among those with a positive gain (the number of
    minterms of `full` it covers that no earlier pick did), until `full` is
    covered or no candidate adds anything; returns (picks, uncovered rest).

    Lazy evaluation over a heap of possibly stale keys: `key` must be unique
    per index and only grow as the gain shrinks, so an entry whose
    recomputed gain still equals its stored one is the exact minimum a full
    rescan would pick; a stale entry goes back with its new key, or out at
    gain 0.
    """
    heap = []
    for idx in candidates:
        gain = (cover_bits[idx] & full).bit_count()
        if gain:
            heap.append((key(gain, idx), gain, idx))
    heapq.heapify(heap)
    chosen: List[int] = []
    left = full
    while left and heap:
        _, stored, idx = heapq.heappop(heap)
        gain = (cover_bits[idx] & left).bit_count()
        if gain == stored:
            chosen.append(idx)
            left &= ~cover_bits[idx]
        elif gain:
            heapq.heappush(heap, (key(gain, idx), gain, idx))
    return chosen, left


def _prune_redundant(chosen: List[int], cover_bits: List[int], costs: List[int],
                     full: int, tie: Sequence) -> List[int]:
    """Drop patterns whose removal leaves the zone covered, costliest first.

    `chosen` must cover `full`.  A pattern can go when every minterm it
    covers is covered by at least one other kept pattern, so a per-minterm
    count of kept holders replaces rebuilding the union of the others.
    """
    spans = {i: bit_positions(cover_bits[i] & full) for i in chosen}
    holders = [0] * full.bit_length()
    for i in chosen:
        for pos in spans[i]:
            holders[pos] += 1
    dropped = set()
    for idx in sorted(chosen, key=lambda i: (-costs[i], tie[i])):
        if (len(chosen) - len(dropped) > 1
                and all(holders[pos] > 1 for pos in spans[idx])):
            dropped.add(idx)
            for pos in spans[idx]:
                holders[pos] -= 1
    return [i for i in chosen if i not in dropped]


def greedy_cover(table: PrimeTable, candidates: Iterable[int], full: int) -> List[int]:
    """Greedy cover of the minterms of `full` by the candidate primes: most
    new minterms, then cheapest, then least text rank; then redundant picks
    are pruned, costliest first."""
    costs, rank = table.costs, table.rank
    chosen, left = _lazy_picks(candidates, table.bits, full,
                               lambda gain, i: (-gain, costs[i], rank[i]))
    if left:
        raise ValueError("cover is infeasible")
    return _prune_redundant(chosen, table.bits, costs, full, rank)


def _minimal_rows(remaining: int, holders: List[int], active: int,
                  cover_bits: List[int]) -> int:
    """Minterm dominance: the minterms of `remaining` whose live holder set
    contains no other's, and of equal sets the lowest position.

    Covering b forces covering a when every live holder of b holds a, so a
    can go; for one witness b, the AND of its holders' columns is every
    such a at once.  Witnesses go in ascending position, a dropped one
    skipped, so of equal rows the lowest comes first and drops the rest.
    Skipping loses nothing: dominance is transitive, so whatever b would
    drop, a minimal row dominating b drops too, and no witness drops a
    minimal row.
    A minterm without a live holder is neither a witness nor dropped.
    """
    kept = remaining
    for b in bit_positions(remaining):
        hb = holders[b] & active
        if not hb or not kept >> b & 1:
            continue
        over = kept & ~(1 << b)
        for j in bit_positions(hb):
            over &= cover_bits[j]
        kept &= ~over
    return kept


def exact_cover(table: PrimeTable) -> Tuple[List[int], bool, int]:
    """Minimum-cost cover of the minterms by the table's primes, as indices
    in text order.

    Ties prefer fewer patterns, then the lexicographically smaller sorted
    pattern list.  Returns (cover, certified, bound); certified is False
    only if the branch-and-bound budget ran out and the incumbent was kept,
    and bound is a lower bound on every cover's cost: the cover's own cost
    when certified, else the essential picks' cost plus the disjoint-rows
    floor of the cyclic core.
    """
    costs, cover_bits, text_rank = table.costs, table.bits, table.rank
    chosen: List[int] = []
    remaining = table.full
    active = (1 << len(costs)) - 1      # bit i set while prime i is live

    # reductions to a cyclic core; primes are indexed in (cost, pattern)
    # order, so a lower index is never costlier.  The holder masks only lose
    # primes and minterms as the reductions go, so the table's are read
    # through the live primes.
    holders = table.holders
    changed = True
    while changed and remaining:
        changed = False
        # essential implicants: a minterm with a single holder
        for pos in bit_positions(remaining):
            if not remaining >> pos & 1:
                continue
            h = holders[pos] & active
            if not h:
                raise ValueError("cover is infeasible")
            if not h & (h - 1):
                i = h.bit_length() - 1
                chosen.append(i)
                remaining &= ~cover_bits[i]
                active &= ~h
                changed = True
        if not remaining:
            break
        # implicant dominance: drop i when some no-costlier live j covers
        # at least as much of what remains; the primes covering all of i
        # are the AND of its minterms' holders, and of those any lower
        # index wins, a higher one only at equal cost and strictly more
        for i in bit_positions(active):
            ci = cover_bits[i] & remaining
            if ci == 0:
                active &= ~(1 << i)
                changed = True
                continue
            over = active & ~(1 << i)
            for pos in bit_positions(ci):
                over &= holders[pos]
            dominated = over & ((1 << i) - 1) != 0
            if not dominated:
                for j in bit_positions(over):
                    if costs[j] > costs[i]:
                        break
                    if cover_bits[j] & remaining != ci:
                        dominated = True
                        break
            if dominated:
                active &= ~(1 << i)
                changed = True
        kept = _minimal_rows(remaining, holders, active, cover_bits)
        if kept != remaining:
            remaining, changed = kept, True

    base_cost = sum(costs[i] for i in chosen)
    if not remaining:
        return sorted(set(chosen), key=text_rank.__getitem__), True, base_cost

    # covers tie on text ranks, which order the patterns as their text
    # does without comparing strings; within one cost, text rank is index
    # order
    best = chosen + greedy_cover(table, bit_positions(active), remaining)

    # Branch on the minterm with the fewest holders (lowest position on
    # ties).  That key is fixed for the whole search, so the minterms are
    # renumbered in key order once: rank r is the r-th pivot choice, each
    # prime's coverage becomes a mask over ranks, and the pivot of a
    # residue is its lowest set bit.  Holders are tried in index order.
    live = {pos: holders[pos] & active for pos in bit_positions(remaining)}
    order = sorted(live, key=lambda pos: (live[pos].bit_count(), pos))
    holders_at = [bit_positions(live[pos]) for pos in order]
    ranked = [0] * len(costs)
    for r, held in enumerate(holders_at):
        for i in held:
            ranked[i] |= 1 << r
    # per rank its holders as (cost, ranks a pick leaves open, index), then
    # a sentinel no slack admits; index order is cost order, so the first
    # holder over the slack ends the node
    entries = [[(costs[i], ~ranked[i], i) for i in held] + [(_NO_PICK, 0, -1)]
               for held in holders_at]
    # per rank the cost of its cheapest holder, and every rank a holder of
    # it covers: the two inputs of the disjoint-rows floor
    reach = [0] * len(order)
    for r, held in enumerate(holders_at):
        for i in held:
            reach[r] |= ranked[i]
    cheap = [held[0][0] for held in entries]

    best, certified = _branch_and_bound(entries, cheap, reach, chosen, base_cost, best,
                                        costs, text_rank)
    bound = (sum(costs[i] for i in best) if certified
             else base_cost + _disjoint_floor((1 << len(order)) - 1, cheap, reach))
    return sorted(set(best), key=text_rank.__getitem__), certified, bound


def _disjoint_floor(sub: int, cheap: List[int], reach: List[int],
                    limit: float = float("inf")) -> int:
    """A lower bound on the cost of covering the ranks of `sub`: take the
    lowest rank left, add the cost of its cheapest holder and drop every
    rank a holder of it covers, until nothing is left.  No prime holds two
    of the ranks taken, so every cover pays for each separately.  Stops
    once the sum passes `limit`."""
    total = 0
    while sub and total <= limit:
        r = (sub & -sub).bit_length() - 1
        total += cheap[r]
        sub &= ~reach[r]
    return total


def _branch_and_bound(entries: List[list], cheap: List[int], reach: List[int],
                      chosen: List[int], base_cost: int, best: List[int],
                      costs: List[int], text_rank: List[int]) -> Tuple[List[int], bool]:
    """Depth-first search of the core for a cover better than `best` by
    (cost, size, sorted text ranks); `entries[r]` are the holders of the
    r-th pivot choice.  Returns the best picks and whether the search
    finished within the node budget.

    A cover's text ranks are held as one int, bit r set for rank r.  Of two
    covers of one size, the one holding the lowest rank they do not share
    has the smaller sorted rank tuple, so a tie on (cost, size) goes to the
    leaf when the lowest set bit of `leaf ^ best` lies in the leaf.

    The open node lives in locals (its residue of ranks, cost and slack
    under the incumbent's cost), its ancestors on a stack with their
    untried holders and the pick being explored.  Holders are bounded when
    reached and every node entry counts against the budget; the root always
    branches (the greedy incumbent costs over base_cost).  A child is
    pushed only when the disjoint-rows floor of its residue (`cheap` and
    `reach`, see `_disjoint_floor`) fits in the slack left: any other child
    holds no cover as cheap as the incumbent.  A floor that only ties the
    slack is kept, since a leaf of equal cost may still win on size or
    text.  Only dead subtrees go, so the search meets its surviving nodes
    in the same order as without the floor.
    """
    budget, nodes = BRANCH_NODE_BUDGET, 1
    best_cost, best_size = sum(costs[i] for i in best), len(best)
    chosen_bits = best_bits = 0
    for i in chosen:
        chosen_bits |= 1 << text_rank[i]
    for i in best:
        best_bits |= 1 << text_rank[i]
    left, cost, slack = (1 << len(entries)) - 1, base_cost, best_cost - base_cost
    untried = iter(entries[0])
    stack = []
    while True:
        for c, keep, i in untried:
            if c > slack:
                if not stack:
                    return best, True
                left, cost, untried, _ = stack.pop()
                slack = best_cost - cost
                break
            nodes += 1
            if nodes > budget:
                return best, False
            sub = left & keep
            if not sub:
                # the ranks are gathered only for a leaf that can win
                size = len(chosen) + len(stack) + 1
                if c < slack or size <= best_size:
                    bits = chosen_bits | 1 << text_rank[i]
                    for frame in stack:
                        bits |= 1 << text_rank[frame[3]]
                    differ = bits ^ best_bits
                    if c < slack or size < best_size or differ & -differ & bits:
                        best = chosen + [frame[3] for frame in stack] + [i]
                        best_size, best_bits, best_cost, slack = size, bits, cost + c, c
            elif c < slack and _disjoint_floor(sub, cheap, reach, slack - c) <= slack - c:
                stack.append((left, cost, untried, i))
                left, cost, slack = sub, cost + c, slack - c
                untried = iter(entries[(sub & -sub).bit_length() - 1])
                break


def _one_out_descent(table: PrimeTable, cover: List[int]) -> List[int]:
    """A cover no costlier than `cover`, by one-out moves repeated until a
    pass keeps none; as indices in text order.

    A pass tries each pattern still in the cover once, costliest first, ties
    by text rank, whether or not an earlier pass rejected its move.  A move
    takes the pattern out and re-covers the minterms only it covered by a
    ratio greedy over the other primes holding them: least cost per newly
    covered minterm, then cost, then text rank (as floats the ratios order
    exactly, see `_issue_order`).  Then, costliest first, it drops each
    pattern overlapping the new picks whose minterms the rest now cover.
    It is kept only when (non-star bits, patterns) falls and 2 * non-star +
    patterns does not rise, so the descent ends and never raises
    `pairing_cost`.

    Per minterm, the count of cover patterns holding it is kept across
    moves, and `single` marks the minterms held exactly once: those a
    pattern alone covers, and the ones that keep it from being redundant.
    """
    costs, bits, rank = table.costs, table.bits, table.rank
    holders = table.holders
    held = [0] * len(holders)
    single = 0
    spans: Dict[int, Tuple[int, ...]] = {}

    def count(picks: Iterable[int], step: int) -> None:
        nonlocal single
        for i in picks:
            if i not in spans:
                spans[i] = bit_positions(bits[i])
            for pos in spans[i]:
                held[pos] += step
                if held[pos] == 1:
                    single |= 1 << pos
                else:
                    single &= ~(1 << pos)

    count(cover, 1)
    kept = 0                        # bit i set while prime i is in the cover
    for i in cover:
        kept |= 1 << i
    by_cost = lambda i: (-costs[i], rank[i])
    key = lambda gain, i: (costs[i] / gain, costs[i], rank[i])
    moved = True
    while moved:
        moved = False
        for out in sorted(bit_positions(kept), key=by_cost):
            if not kept >> out & 1:
                continue
            alone = bits[out] & single
            reach = 0
            for pos in bit_positions(alone):
                reach |= holders[pos]
            picks, left = _lazy_picks(bit_positions(reach & ~(1 << out)), bits, alone, key)
            if left:
                continue
            count([out], -1)
            count(picks, 1)
            trial = kept & ~(1 << out)
            grown = 0
            for i in picks:
                trial |= 1 << i
                grown |= bits[i]
            touched = 0
            for pos in bit_positions(grown):
                touched |= holders[pos]
            near = sorted(bit_positions(touched & trial), key=by_cost)
            dropped = []
            for i in near:
                if not bits[i] & single:
                    dropped.append(i)
                    count([i], -1)
                    trial &= ~(1 << i)
            cost_delta = (sum(costs[i] for i in picks) - sum(costs[i] for i in dropped)
                          - costs[out])
            size_delta = len(picks) - len(dropped) - 1
            if (cost_delta, size_delta) < (0, 0) and 2 * cost_delta + size_delta <= 0:
                kept, moved = trial, True
            else:
                count(dropped, 1)
                count(picks, -1)
                count([out], 1)
    return sorted(bit_positions(kept), key=rank.__getitem__)


# --- greedy path for more than EXACT_SPACE_LIMIT allowed codewords ---

def _grow_prime_cube(minterm: int, k: int, allowed: Set[int]) -> Implicant:
    """Expand a minterm into a maximal cube inside `allowed`, trying star
    positions in ascending order; the result is a prime implicant."""
    mask, value = 0, minterm
    for b in range(k):
        bit = 1 << b
        other, sub = value ^ bit, mask
        # grow across bit b when every codeword the step adds is allowed
        while other | sub in allowed:
            if not sub:
                mask |= bit
                value &= ~bit
                break
            sub = (sub - 1) & mask
    return mask, value


# --- issue order ---

def _issue_order(table: PrimeTable, cover: List[int]) -> List[str]:
    """The cover's patterns in the order the server should try them: next
    the one matching the most not yet matched minterms per pairing it costs
    (2 per non-star bit plus 1), ties by text rank, then any that add
    nothing in text order.  This is Smith's ratio rule, optimal when no
    minterm matches two patterns, and the greedy min-sum set-cover order
    otherwise.  gain / cost as a float orders exactly: division rounds
    correctly, and distinct ratios of such small integers lie far apart.
    """
    costs, rank = table.costs, table.rank
    first, _ = _lazy_picks(cover, table.bits, table.full,
                           lambda gain, i: (-gain / (2 * costs[i] + 1), rank[i]))
    rest = sorted(set(cover).difference(first), key=rank.__getitem__)
    return [table.patterns[i] for i in first + rest]


def match_pairings(patterns: Sequence[str], values: Iterable[int]) -> int:
    """Pairings the server spends on users at these codewords when it tries
    `patterns` in order: each user pays 2 per non-star bit plus 1 for every
    token up to its first match, or for all of them when none matches."""
    costed = [(*pattern_implicant(p), 2 * (len(p) - p.count("*")) + 1)
              for p in patterns]
    total = 0
    for v in values:
        for mask, value, pairings in costed:
            total += pairings
            if v & ~mask == value:
                break
    return total


def minimize(zone: Iterable[int], enc: GridEncoding,
             allow_dummy_cover: bool = True) -> TokenSet:
    """Minimize an alert zone into a pattern cover under an encoding.

    Dummy codewords are don't-cares by default; disabling that forces the
    cover to expand to exactly the zone's codewords.
    """
    cells = sorted(set(zone))
    if not cells:
        raise ValueError("alert zone must be non-empty")
    for cell in cells:
        if not 0 <= cell < enc.n:
            raise ValueError(f"cell {cell} is not encoded")
    minterms = set(enc.codewords[cells].tolist())
    dontcares = set(enc.dummies()) if allow_dummy_cover else set()
    k = enc.k

    allowed = minterms | dontcares
    if len(allowed) == 1 << k:
        table = PrimeTable.build(k, [((1 << k) - 1, 0)], minterms)
        cover, certified, bound = [0], True, 0
    elif len(allowed) <= EXACT_SPACE_LIMIT:
        table = PrimeTable.build(k, prime_implicants(k, minterms, dontcares), minterms)
        cover, certified, bound = exact_cover(table)
    else:
        cubes = {_grow_prime_cube(m, k, allowed) for m in minterms}
        table = PrimeTable.build(k, cubes, minterms)
        cover, certified = greedy_cover(table, range(len(cubes)), table.full), False
        # the grown cubes are not every prime, so only the cheapest pattern
        # any cover needs bounds it: at most log2 |allowed| stars
        bound = k + 1 - len(allowed).bit_length()
    if not certified:
        cover = _one_out_descent(table, cover)

    return TokenSet(
        patterns=tuple(_issue_order(table, cover)),
        cost=sum(table.costs[i] for i in cover), exact=certified, bound=bound)


def write_token_set(fp: IO[str], ts: TokenSet, zone_size: int, encoder: str) -> None:
    """One msb-first pattern per line under a cost header, in issue order
    (the order the server tries them)."""
    fp.write(f"# cost={ts.cost} zone_size={zone_size} encoder={encoder}"
             f" exact={'yes' if ts.exact else 'no'}\n")
    for pattern in ts.patterns:
        fp.write(pattern + "\n")
