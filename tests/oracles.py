"""Brute-force oracles and cover checks shared by the test modules."""

import heapq
import math

from hvezones.gray import cycle_node_values, ring_values
from hvezones.tokens import expand_implicant, pattern_implicant


def stage_objective(prob_at, k, seed_index, distance):
    """Sum over the ring's codewords of the full cycle probability product;
    prob_at maps codeword -> probability (1.0 when unassigned)."""
    total = 0.0
    for cj in ring_values(seed_index, k, distance):
        prod = 1.0
        for node in cycle_node_values(seed_index, cj):
            prod *= prob_at.get(node, 1.0)
        total += prod
    return total


def pattern_codewords(patterns):
    """Every codeword the patterns match, expanded from their text."""
    return {v for p in patterns for v in expand_implicant(pattern_implicant(p))}


def brute_force_min_cost(k, minterms, dontcares):
    """Independent oracle: Dijkstra over covered-minterm subsets using every
    implicant contained in minterms | dontcares."""
    allowed = set(minterms) | set(dontcares)
    ms = sorted(minterms)
    index = {m: i for i, m in enumerate(ms)}
    implicants = []
    for mask in range(1 << k):
        for value in range(1 << k):
            if value & mask:
                continue
            cells = expand_implicant((mask, value))
            if all(v in allowed for v in cells):
                bits = 0
                for v in cells:
                    if v in index:
                        bits |= 1 << index[v]
                if bits:
                    implicants.append((k - bin(mask).count("1"), bits))
    full = (1 << len(ms)) - 1
    best = {0: 0}
    heap = [(0, 0)]
    while heap:
        cost, covered = heapq.heappop(heap)
        if covered == full:
            return cost
        if best.get(covered, math.inf) < cost:
            continue
        for c, bits in implicants:
            nxt = covered | bits
            if nxt != covered and best.get(nxt, math.inf) > cost + c:
                best[nxt] = cost + c
                heapq.heappush(heap, (cost + c, nxt))
    raise AssertionError("unreachable: the full cover always exists")


def sample_zone_by_sort(probs, fraction, rng):
    """The weighted zone by its definition: one exponential key per cell
    drawn in id order, all n (-key, cell) pairs sorted, the first
    ceil(fraction * n) cells kept."""
    keyed = []
    for cell, w in enumerate(probs):
        u = rng.random()
        key = math.log(u) / w if w > 0.0 and u > 0.0 else -math.inf
        keyed.append((-key, cell))
    keyed.sort()
    return frozenset(cell for _, cell in keyed[:math.ceil(fraction * len(probs))])
