"""Alert-zone token generation via boolean minimization.

An alert zone (a set of cells) becomes, under a given encoding, a set of
codeword minterms; unassigned (dummy) codewords may serve as don't-cares
because no user can ever encrypt under them.  The minimizer produces a
cover of {0,1,*} patterns whose cost is the total non-star bit count, the
quantity that drives pairing work at query time (2 per non-star plus 1).

Spaces up to 2^k = 4096 are minimized exactly: Quine-McCluskey prime
implicants followed by a minimum-cost cover search with essential and
dominance reductions and branch-and-bound on the minterm with the fewest
holders (a deterministic node budget keeps degenerate dense cores from
stalling; exhausting it falls back to the greedy incumbent and clears the
`exact` flag).  Larger spaces go straight to a deterministic greedy set
cover over prime cubes grown on demand from each minterm; those covers
are flagged approximate as well.
The greedy pick is lazy (a heap of possibly stale gains, rechecked when
popped) and chooses exactly what a full rescan per pick would.
"""

from __future__ import annotations

import heapq
import math
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, FrozenSet, IO, Iterable, List, Set, Tuple

from .gray import bit_positions
from .grid import Grid, GridEncoding

EXACT_SPACE_LIMIT = 4096
BRANCH_NODE_BUDGET = 20_000

Implicant = Tuple[int, int]  # (star mask, value with star bits zeroed)


def implicant_pattern(imp: Implicant, k: int) -> str:
    mask, value = imp
    chars = []
    for pos in range(k - 1, -1, -1):
        if mask >> pos & 1:
            chars.append("*")
        else:
            chars.append("1" if value >> pos & 1 else "0")
    return "".join(chars)


def pattern_implicant(pattern: str) -> Implicant:
    mask = 0
    value = 0
    for ch in pattern:
        mask <<= 1
        value <<= 1
        if ch == "*":
            mask |= 1
        elif ch == "1":
            value |= 1
        elif ch != "0":
            raise ValueError(f"bad pattern symbol {ch!r}")
    return mask, value


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


def covers(imp: Implicant, minterm: int) -> bool:
    mask, value = imp
    return minterm & ~mask == value


@dataclass(frozen=True)
class TokenSet:
    """Minimized pattern cover of one alert zone under one encoding."""

    patterns: Tuple[str, ...]
    covered: FrozenSet[int]     # codeword values the patterns expand to
    cost: int                   # total non-star bits
    exact: bool                 # False for greedy / budget-exhausted covers

    def __iter__(self):
        return iter(self.patterns)

    def __len__(self) -> int:
        return len(self.patterns)


def pairing_cost(ts: TokenSet) -> int:
    """Query-side bilinear pairings: 2 per non-star bit plus 1 per token."""
    return 2 * ts.cost + len(ts.patterns)


def zone_probability(zone: Iterable[int], grid: Grid) -> float:
    """Mutual probability of the zone's cells, accumulated in log space."""
    probs = grid.probabilities()
    total = 0.0
    for cell in zone:
        p = probs[cell]
        if p <= 0.0:
            return 0.0
        total += math.log(p)
    return math.exp(total)


# --- prime implicant generation (exact path) ---

def prime_implicants(k: int, minterms: Set[int], dontcares: Set[int]) -> List[Implicant]:
    """All prime implicants of the (minterms | dontcares) function that
    cover at least one real minterm."""
    current: Set[Implicant] = {(0, m) for m in minterms | dontcares}
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
    return [p for p in primes if any(covers(p, m) for m in minterms)]


# --- cover selection over minterm bitmasks ---

def _cover_bits(implicants: List[Implicant], minterms: Set[int]) -> List[int]:
    """Per implicant, the bitmask of the minterms it covers (bit i for the
    i-th smallest minterm)."""
    pos_of = {m: i for i, m in enumerate(sorted(minterms))}
    out = []
    for imp in implicants:
        bits = 0
        for v in expand_implicant(imp):
            i = pos_of.get(v)
            if i is not None:
                bits |= 1 << i
        out.append(bits)
    return out


def _greedy_pick(candidates: Iterable[int], cover_bits: List[int],
                 costs: List[int], full: int) -> List[int]:
    """Deterministic greedy cover: most new minterms, then cheapest, then
    lowest index.

    Lazy evaluation over a heap of (-gain, cost, index) keys: gains only
    shrink as the uncovered set shrinks, so an entry whose recomputed gain
    still equals its stored one is the exact minimum a full rescan would
    pick; a stale entry goes back with its new gain, or out at gain 0.
    """
    heap = []
    for idx in candidates:
        gain = (cover_bits[idx] & full).bit_count()
        if gain:
            heap.append((-gain, costs[idx], idx))
    heapq.heapify(heap)
    chosen: List[int] = []
    left = full
    while left:
        if not heap:
            raise ValueError("cover is infeasible")
        neg_gain, cost, idx = heapq.heappop(heap)
        gain = (cover_bits[idx] & left).bit_count()
        if gain == -neg_gain:
            chosen.append(idx)
            left &= ~cover_bits[idx]
        elif gain:
            heapq.heappush(heap, (-gain, cost, idx))
    return chosen


def _prune_redundant(chosen: List[int], cover_bits: List[int], costs: List[int],
                     full: int, tie: List[str]) -> List[int]:
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


def _holder_masks(active: int, cover_bits: List[int], remaining: int) -> List[int]:
    """Per minterm position, the bitmask of the active primes covering it
    (bit i for prime i); zero outside `remaining`."""
    holders = [0] * remaining.bit_length()
    for i in bit_positions(active):
        bit = 1 << i
        for pos in bit_positions(cover_bits[i] & remaining):
            holders[pos] |= bit
    return holders


def exact_cover(k: int, primes: List[Implicant],
                minterms: Set[int]) -> Tuple[List[Implicant], bool]:
    """Minimum-cost cover of the minterms by prime implicants.

    Ties prefer fewer patterns, then the lexicographically smaller sorted
    pattern list.  Returns (cover, certified); certified is False only if
    the branch-and-bound budget ran out and the incumbent was kept.
    """
    # patterns are unique, so sorting (cost, pattern, prime) never
    # compares primes
    keyed = sorted((implicant_cost(p, k), implicant_pattern(p, k), p)
                   for p in primes)
    costs = [cost for cost, _, _ in keyed]
    patterns = [pattern for _, pattern, _ in keyed]
    primes = [p for _, _, p in keyed]
    cover_bits = _cover_bits(primes, minterms)
    full = (1 << len(minterms)) - 1

    # the only zero-cost implicant is the all-star cube, unbeatable alone
    if costs and costs[0] == 0:
        return [primes[0]], True

    chosen: List[int] = []
    remaining = full
    active = (1 << len(primes)) - 1     # bit i set while prime i is live

    # reductions to a cyclic core; primes are indexed in (cost, pattern)
    # order, so a lower index is never costlier
    changed = True
    while changed and remaining:
        changed = False
        holders = _holder_masks(active, cover_bits, remaining)
        # essential implicants: a minterm with a single holder; a chosen
        # prime covers none of the minterms left, so the masks stay valid
        for pos in bit_positions(remaining):
            if not remaining >> pos & 1:
                continue
            h = holders[pos]
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
        # minterm dominance: covering b forces covering a when b's holder
        # set is contained in a's; every such b is covered by one of a's
        # holders, so only their minterms are candidates
        held = [h & active for h in holders]
        for a in bit_positions(remaining):
            ha = held[a]
            if not ha or not remaining >> a & 1:
                continue
            near = 0
            for j in bit_positions(ha):
                near |= cover_bits[j]
            for b in bit_positions(near & remaining & ~(1 << a)):
                hb = held[b]
                if hb and not hb & ~ha and (hb != ha or b < a):
                    remaining &= ~(1 << a)
                    changed = True
                    break

    if not remaining:
        cover = sorted(set(chosen), key=lambda i: patterns[i])
        return [primes[i] for i in cover], True

    base_cost = sum(costs[i] for i in chosen)
    greedy = _greedy_pick(bit_positions(active), cover_bits, costs, remaining)
    greedy = _prune_redundant(greedy, cover_bits, costs, remaining, patterns)
    best = chosen + greedy
    best_key = (sum(costs[i] for i in best), len(best),
                tuple(sorted(patterns[i] for i in best)))

    # Branch on the minterm with the fewest holders (lowest position on
    # ties).  That key is fixed for the whole search, so the minterms are
    # renumbered in key order once: rank r is the r-th pivot choice, each
    # prime's coverage becomes a mask over ranks, and the pivot of a
    # residue is its lowest set bit.  Holders are tried in index order.
    holders = _holder_masks(active, cover_bits, remaining)
    order = sorted(bit_positions(remaining),
                   key=lambda pos: (holders[pos].bit_count(), pos))
    holders_at = [bit_positions(holders[pos]) for pos in order]
    ranked = [0] * len(primes)
    for r, held in enumerate(holders_at):
        for i in held:
            ranked[i] |= 1 << r

    nodes = 0
    exhausted = False

    def branch(picked: List[int], left: int, cost_so_far: int) -> None:
        nonlocal nodes, exhausted, best, best_key
        nodes += 1
        if nodes > BRANCH_NODE_BUDGET:
            exhausted = True
            return
        if left == 0:
            key = (cost_so_far, len(picked),
                   tuple(sorted(patterns[i] for i in picked)))
            if key < best_key:
                best_key = key
                best = list(picked)
            return
        if cost_so_far + 1 > best_key[0]:
            return
        for i in holders_at[(left & -left).bit_length() - 1]:
            if exhausted:
                return
            if cost_so_far + costs[i] > best_key[0]:
                continue
            picked.append(i)
            branch(picked, left & ~ranked[i], cost_so_far + costs[i])
            picked.pop()

    branch(list(chosen), (1 << len(order)) - 1, base_cost)
    cover = sorted(set(best), key=lambda i: patterns[i])
    return [primes[i] for i in cover], not exhausted


# --- greedy path for wide codeword spaces ---

def _grow_prime_cube(minterm: int, k: int, allowed: Set[int]) -> Implicant:
    """Expand a minterm into a maximal cube inside `allowed`, trying star
    positions in ascending order; the result is a prime implicant."""
    mask = 0
    value = minterm
    for b in range(k):
        bit = 1 << b
        other = value ^ bit
        ok = True
        sub = mask
        while True:
            if other | sub not in allowed:
                ok = False
                break
            if sub == 0:
                break
            sub = (sub - 1) & mask
        if ok:
            mask |= bit
            value &= ~bit
    return mask, value


def greedy_cover(k: int, minterms: Set[int], dontcares: Set[int]) -> List[Implicant]:
    allowed = minterms | dontcares
    cubes = sorted({_grow_prime_cube(m, k, allowed) for m in minterms})
    costs = [implicant_cost(c, k) for c in cubes]
    pats = [implicant_pattern(c, k) for c in cubes]
    cover_bits = _cover_bits(cubes, minterms)
    full = (1 << len(minterms)) - 1
    chosen = _greedy_pick(range(len(cubes)), cover_bits, costs, full)
    chosen = _prune_redundant(chosen, cover_bits, costs, full, pats)
    return [cubes[i] for i in sorted(chosen, key=lambda i: pats[i])]


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
    minterms = {enc.value(c) for c in cells}
    dontcares = set(enc.dummies()) if allow_dummy_cover else set()
    k = enc.k

    if len(minterms | dontcares) == 1 << k:
        cover: List[Implicant] = [((1 << k) - 1, 0)]
        certified = True
    elif (1 << k) <= EXACT_SPACE_LIMIT:
        primes = prime_implicants(k, minterms, dontcares)
        cover, certified = exact_cover(k, primes, minterms)
    else:
        cover = greedy_cover(k, minterms, dontcares)
        certified = False

    patterns = tuple(sorted(implicant_pattern(c, k) for c in cover))
    covered = frozenset(v for c in cover for v in expand_implicant(c))
    cost = sum(implicant_cost(c, k) for c in cover)
    return TokenSet(patterns=patterns, covered=covered, cost=cost, exact=certified)


def write_token_set(fp: IO[str], ts: TokenSet, zone_size: int, encoder: str) -> None:
    """One msb-first pattern per line under a cost header."""
    fp.write(f"# cost={ts.cost} zone_size={zone_size} encoder={encoder}"
             f" exact={'yes' if ts.exact else 'no'}\n")
    for pattern in ts.patterns:
        fp.write(pattern + "\n")
