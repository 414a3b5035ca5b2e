"""Token minimization: exactness, optimality against brute force, costing."""

import io
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hvezones import bench, tokens
from hvezones.gray import bit_positions
from hvezones.grid import Grid, GridEncoding
from hvezones.optimizers import gray_optimizer, hge_baseline, msgo
from hvezones.tokens import (PrimeTable, TokenSet, _cover_bits, _disjoint_floor,
                             _grow_prime_cube, _issue_order, _lazy_picks, _minimal_rows,
                             _prune_redundant, _qm_primes, _truth_table_primes, exact_cover,
                             expand_implicant, greedy_cover, implicant_cost,
                             implicant_pattern, is_dense, match_pairings, minimize,
                             pairing_cost, pattern_implicant, prime_implicants,
                             write_token_set)

from oracles import brute_force_min_cost, pattern_codewords


def identity_encoding(n, k):
    return GridEncoding(n=n, k=k, forward=tuple(range(n)), algorithm="ID")


def greedy_table(k, minterms, dontcares):
    """The table `minimize` builds on the greedy path: one prime cube grown
    from each minterm."""
    allowed = minterms | dontcares
    return PrimeTable.build(k, {_grow_prime_cube(m, k, allowed) for m in minterms},
                            minterms)


def whole_greedy_cover(table):
    """The greedy step over every cube of the table, as the greedy path
    runs it before the descent."""
    return greedy_cover(table, range(len(table.costs)), table.full)


def test_pattern_implicant_round_trip():
    for pattern in ("0000", "01*1", "****", "1*0*"):
        assert implicant_pattern(pattern_implicant(pattern), 4) == pattern


def test_shared_prefix_block_is_single_pattern():
    ts = minimize({0, 1, 2, 3}, identity_encoding(16, 4))
    assert ts.patterns == ("00**",)
    assert ts.cost == 2
    assert ts.exact


def test_single_cell_full_cost():
    ts = minimize({5}, identity_encoding(16, 4))
    assert ts.patterns == ("0101",)
    assert ts.cost == 4


def test_full_space_single_star_pattern():
    ts = minimize(set(range(16)), identity_encoding(16, 4))
    assert ts.patterns == ("****",)
    assert ts.cost == 0
    assert pairing_cost(ts) == 1


@pytest.mark.parametrize("k", [1, 3, 6])
def test_exact_cover_full_space_is_the_all_star_cube(k):
    """A full-space function has the all-star cube as its only prime; the
    reductions take it as essential, with or without don't-cares."""
    full = (1 << k) - 1
    for minterms, dontcares in ((set(range(1 << k)), set()),
                                ({0, full}, set(range(1, full)))):
        primes = prime_implicants(k, minterms, dontcares)
        assert primes == [(full, 0)]
        assert exact_cover(PrimeTable.build(k, primes, minterms)) == ([0], True, 0)


@st.composite
def truth_tables(draw):
    """k <= 10, then each codeword drawn as a minterm, a don't-care or off."""
    k = draw(st.integers(0, 10))
    return k, draw(st.lists(st.sampled_from("mdo"), min_size=1 << k, max_size=1 << k))


@settings(max_examples=80, deadline=None)
@given(truth_tables())
@example((6, ["m"] * 64))                     # the full space
@example((10, ["o"] * 700 + ["m"] + ["o"] * 323))  # a single minterm
@example((9, ["d"] * 511 + ["m"]))            # one minterm, the rest don't-cares
def test_truth_table_primes_match_set_based_qm(problem):
    """The bit-parallel generator returns exactly the set-based
    Quine-McCluskey primes, and `prime_implicants` returns them too, from
    whichever generator `is_dense` picks."""
    k, roles = problem
    minterms = {v for v, r in enumerate(roles) if r == "m"}
    dontcares = {v for v, r in enumerate(roles) if r == "d"}
    want = sorted(_qm_primes(k, minterms | dontcares))
    assert sorted(_truth_table_primes(k, minterms | dontcares)) == want
    assert sorted(prime_implicants(k, minterms, dontcares)) == want


def test_errors():
    enc = identity_encoding(16, 4)
    with pytest.raises(ValueError):
        minimize(set(), enc)
    with pytest.raises(ValueError):
        minimize({16}, enc)


def test_pairing_cost_examples():
    enc = identity_encoding(16, 4)
    assert pairing_cost(minimize({0, 1, 2, 3}, enc)) == 5        # one 00**
    two_singletons = minimize({0b0000, 0b1111}, enc)
    assert pairing_cost(two_singletons) == 18                    # 9 + 9


def test_dummy_coverage_flag():
    # cells on even codewords; odd codewords are dummies
    enc = GridEncoding(n=8, k=4, forward=tuple(range(0, 16, 2)), algorithm="x")
    loose = minimize(set(range(8)), enc, allow_dummy_cover=True)
    strict = minimize(set(range(8)), enc, allow_dummy_cover=False)
    assert loose.patterns == ("****",)
    assert strict.cost > loose.cost
    assert pattern_codewords(strict.patterns) == set(range(0, 16, 2))
    for value in pattern_codewords(strict.patterns):
        assert enc.cell_at(value) is not None


def test_minimizer_matches_bruteforce_random_zones():
    rng = random.Random(13)
    for trial in range(120):
        n = rng.randrange(5, 17)
        forward = tuple(random.Random(trial).sample(range(16), n))
        enc = GridEncoding(n=n, k=4, forward=forward, algorithm="r")
        zone = frozenset(rng.sample(range(n), rng.randrange(1, n + 1)))
        allow = trial % 2 == 0
        ts = minimize(zone, enc, allow_dummy_cover=allow)
        assert ts.exact
        zone_values = {enc.value(c) for c in zone}
        dontcares = set(enc.dummies()) if allow else set()
        assert ts.cost == brute_force_min_cost(4, zone_values, dontcares)
        covered = pattern_codewords(ts.patterns)
        assert zone_values <= covered
        assert covered - zone_values <= dontcares


def test_cover_exactness_randomized_widths():
    """Expanding the cover reproduces exactly the zone's codewords plus, at
    most, dummies."""
    rng = random.Random(3)
    for _ in range(500):
        k = rng.randrange(2, 7)
        n = rng.randrange(2, (1 << k) + 1)
        forward = tuple(rng.sample(range(1 << k), n))
        enc = GridEncoding(n=n, k=k, forward=forward, algorithm="r")
        zone = frozenset(rng.sample(range(n), rng.randrange(1, n + 1)))
        ts = minimize(zone, enc)
        zone_values = {enc.value(c) for c in zone}
        covered = pattern_codewords(ts.patterns)
        assert zone_values <= covered
        assert all(enc.cell_at(v) is None for v in covered - zone_values)
        # no pattern is redundant
        for dropped in range(len(ts.patterns)):
            rest = set()
            for i, pattern in enumerate(ts.patterns):
                if i != dropped:
                    rest.update(expand_implicant(pattern_implicant(pattern)))
            assert not zone_values <= rest or len(ts.patterns) == 1


def test_adding_a_cell_respects_single_pattern_bound():
    """Optimal cost of zone + cell never exceeds optimal cost of zone plus
    one star-free pattern."""
    rng = random.Random(9)
    enc = identity_encoding(16, 4)
    for _ in range(40):
        zone = set(rng.sample(range(16), rng.randrange(1, 15)))
        extra = rng.choice([c for c in range(16) if c not in zone])
        base = minimize(zone, enc).cost
        grown = minimize(zone | {extra}, enc).cost
        assert grown <= base + 4


def test_greedy_path_on_wide_space():
    """A 400-cell zone plus 4192 dummies is 4592 allowed codewords, above
    EXACT_SPACE_LIMIT: greedy covers stay exact as covers, are
    deterministic, and are flagged approximate."""
    rng = random.Random(21)
    n = 4000
    forward = tuple(rng.sample(range(1 << 13), n))
    enc = GridEncoding(n=n, k=13, forward=forward, algorithm="r")
    zone = frozenset(rng.sample(range(n), 400))
    assert len(zone) + len(enc.dummies()) > tokens.EXACT_SPACE_LIMIT
    ts = minimize(zone, enc, allow_dummy_cover=True)
    assert not ts.exact
    zone_values = {enc.value(c) for c in zone}
    covered = pattern_codewords(ts.patterns)
    assert zone_values <= covered
    assert all(enc.cell_at(v) is None for v in covered - zone_values)
    again = minimize(zone, enc, allow_dummy_cover=True)
    assert again.patterns == ts.patterns


def test_wide_zone_without_dontcares_is_certified():
    """At k = 13 a 1500-cell zone without don't-cares takes the exact path,
    and its certified cover costs no more than the greedy one (here 9540
    against 10224 non-star bits)."""
    rng = random.Random(5)
    n = 6000
    forward = tuple(rng.sample(range(1 << 13), n))
    enc = GridEncoding(n=n, k=13, forward=forward, algorithm="r")
    zone = frozenset(rng.sample(range(n), 1500))
    ts = minimize(zone, enc, allow_dummy_cover=False)
    assert ts.exact
    minterms = {enc.value(c) for c in zone}
    assert pattern_codewords(ts.patterns) == minterms
    table = greedy_table(13, minterms, set())
    assert ts.cost <= sum(table.costs[i] for i in whole_greedy_cover(table))


def test_exact_cover_deep_search_needs_no_recursion():
    """4096 random minterms at k = 13 give a search deeper than the default
    recursion limit; the loop returns, uncertified once the budget runs
    out."""
    minterms = set(random.Random(1).sample(range(1 << 13), 4096))
    table = PrimeTable.build(13, prime_implicants(13, minterms, set()), minterms)
    cover, certified, _ = exact_cover(table)
    assert not certified
    assert {v for i in cover for v in expand_implicant(pattern_implicant(table.patterns[i]))} == minterms


def test_greedy_cover_prime_cubes_cannot_grow():
    rng = random.Random(2)
    minterms = set(rng.sample(range(1 << 13), 500))
    dontcares = set(rng.sample(sorted(set(range(1 << 13)) - minterms), 2000))
    allowed = minterms | dontcares
    table = greedy_table(13, minterms, dontcares)
    for mask, value in (pattern_implicant(table.patterns[i])
                        for i in whole_greedy_cover(table)):
        for bit in (1 << b for b in range(13) if not mask >> b & 1):
            grown = expand_implicant((mask | bit, value & ~bit))
            assert not all(v in allowed for v in grown)


def test_hve_round_trip_through_token_sets():
    """End to end: a cell's encrypted codeword matches some token of a
    zone's minimized set exactly when the cell belongs to the zone."""
    from hvezones.hve import MessageSpace, encrypt, gen_token, query, setup
    rng = random.Random(17)
    k = 5
    n = 26
    forward = tuple(rng.sample(range(1 << k), n))
    enc = GridEncoding(n=n, k=k, forward=forward, algorithm="r")
    pk, sk = setup(k, seed=3)
    messages = MessageSpace(pk.group, [9], seed=3)
    for _ in range(6):
        zone = frozenset(rng.sample(range(n), rng.randrange(1, n + 1)))
        ts = minimize(zone, enc)
        tokens = [gen_token(sk, pattern, rng) for pattern in ts.patterns]
        for cell in range(n):
            attribute = format(enc.value(cell), f"0{k}b")
            cipher = encrypt(pk, attribute, messages.element(9), rng)
            hits = [query(pk.group, cipher, token, messages) for token in tokens]
            matched = [r for r in hits if r.matched]
            assert bool(matched) == (cell in zone)
            assert all(r.message == 9 for r in matched)


def test_token_set_text_format():
    ts = minimize({0, 1, 2, 3}, identity_encoding(16, 4))
    buf = io.StringIO()
    write_token_set(buf, ts, zone_size=4, encoder="GO")
    lines = buf.getvalue().splitlines()
    assert lines[0] == "# cost=2 zone_size=4 encoder=GO exact=yes"
    assert lines[1:] == ["00**"]


def rescan_greedy_pick(candidates, cover_bits, costs, full):
    """Reference greedy cover: a full rescan per pick for the least
    (-gain, cost, index) key."""
    chosen = []
    left = full
    while left:
        best_key = None
        for idx in candidates:
            gain = (cover_bits[idx] & left).bit_count()
            if gain:
                key = (-gain, costs[idx], idx)
                if best_key is None or key < best_key:
                    best_key = key
        if best_key is None:
            raise ValueError("cover is infeasible")
        chosen.append(best_key[2])
        left &= ~cover_bits[best_key[2]]
    return chosen


def test_lazy_greedy_pick_matches_full_rescan():
    """Random instances with many gain and cost ties: few minterms, small
    cubes, two cost levels, candidates in shuffled order.  The lazy picks
    run on `greedy_cover`'s key with a random permutation `tie` as the text
    rank; the reference, which ties by index, runs on the instance
    relabelled by it.  Where the candidates cannot cover `full`,
    `greedy_cover` refuses the instance."""
    rng = random.Random(17)
    for trial in range(400):
        width = rng.randrange(1, 24)
        count = rng.randrange(1, 40)
        cover_bits = [sum(1 << b for b in rng.sample(range(width),
                                                     rng.randrange(0, min(width, 5) + 1)))
                      for _ in range(count)]
        costs = [rng.randrange(1, 3) for _ in range(count)]
        candidates = rng.sample(range(count), rng.randrange(1, count + 1))
        tie = list(range(count)) if trial % 2 else rng.sample(range(count), count)
        reachable = 0
        for idx in candidates:
            reachable |= cover_bits[idx]
        full = reachable if trial % 4 else reachable | rng.getrandbits(width)
        relabelled_bits, relabelled_costs = [0] * count, [0] * count
        for idx in range(count):
            relabelled_bits[tie[idx]], relabelled_costs[tie[idx]] = cover_bits[idx], costs[idx]
        picks, left = _lazy_picks(candidates, cover_bits, full,
                                  lambda gain, idx: (-gain, costs[idx], tie[idx]))
        try:
            want = rescan_greedy_pick([tie[idx] for idx in candidates], relabelled_bits,
                                      relabelled_costs, full)
        except ValueError:
            assert left
            table = PrimeTable(costs, [], tie, cover_bits, [], full)
            with pytest.raises(ValueError):
                greedy_cover(table, candidates, full)
            continue
        assert not left and [tie[idx] for idx in picks] == want


def union_prune_redundant(chosen, cover_bits, costs, full, tie):
    """Reference pruning: rebuild the union of the other kept patterns for
    every candidate, costliest first."""
    kept = list(chosen)
    for idx in sorted(chosen, key=lambda i: (-costs[i], tie[i])):
        rest = 0
        for j in kept:
            if j != idx:
                rest |= cover_bits[j]
        if rest & full == full and len(kept) > 1:
            kept.remove(idx)
    return kept


def test_prune_redundant_matches_union_rebuild():
    """Random covers with heavy overlap, two cost levels, repeated tie
    strings, bits outside the target and patterns that cover none of it."""
    rng = random.Random(23)
    for trial in range(600):
        width = rng.randrange(1, 20)
        count = rng.randrange(1, 30)
        cover_bits = [sum(1 << b for b in rng.sample(range(width),
                                                     rng.randrange(0, min(width, 6) + 1)))
                      for _ in range(count)]
        costs = [rng.randrange(1, 3) for _ in range(count)]
        tie = [rng.choice("ab") for _ in range(count)]
        chosen = rng.sample(range(count), rng.randrange(1, count + 1))
        full = 0
        for idx in chosen:
            full |= cover_bits[idx]
        if trial % 3 == 0:
            full &= rng.getrandbits(width)
        want = union_prune_redundant(chosen, cover_bits, costs, full, tie)
        assert _prune_redundant(chosen, cover_bits, costs, full, tie) == want


def min_pivot_exact_cover(k, primes, minterms, floor=True):
    """Reference cover search: set-based reductions and a branch that takes
    the pivot with `min` over the residue's positions at every node.  With
    `floor`, a node whose residue's disjoint-rows floor, taken in the same
    pivot order, overruns the incumbent's cost visits nothing; without it,
    only a node with no cost left to spend does.  It reads the node budget
    from the module, so patching it limits both."""
    primes = sorted(primes, key=lambda p: (implicant_cost(p, k),
                                           implicant_pattern(p, k)))
    costs = [implicant_cost(p, k) for p in primes]
    patterns = [implicant_pattern(p, k) for p in primes]
    cover_bits, _ = _cover_bits(primes, minterms)
    full = (1 << len(minterms)) - 1
    if costs and costs[0] == 0:
        return [primes[0]], True

    chosen = []
    remaining = full
    active = set(range(len(primes)))
    changed = True
    while changed and remaining:
        changed = False
        for pos in bit_positions(remaining):
            if not remaining >> pos & 1:
                continue
            holders = [i for i in active if cover_bits[i] >> pos & 1]
            if not holders:
                raise ValueError("cover is infeasible")
            if len(holders) == 1:
                i = holders[0]
                chosen.append(i)
                remaining &= ~cover_bits[i]
                active.discard(i)
                changed = True
        if not remaining:
            break
        live = sorted(active)
        rem_cover = {i: cover_bits[i] & remaining for i in live}
        for i in live:
            ci = rem_cover[i]
            if ci == 0:
                active.discard(i)
                changed = True
                continue
            for j in active:
                if j == i or costs[j] > costs[i]:
                    continue
                cj = rem_cover[j]
                if ci & ~cj:
                    continue
                if ci != cj or (costs[j], j) < (costs[i], i):
                    active.discard(i)
                    changed = True
                    break
        holder_mask = {}
        for i in active:
            for pos in bit_positions(cover_bits[i] & remaining):
                holder_mask[pos] = holder_mask.get(pos, 0) | (1 << i)
        positions = sorted(holder_mask)
        for a in positions:
            if not remaining >> a & 1:
                continue
            ha = holder_mask[a]
            for b in positions:
                if a == b or not remaining >> b & 1:
                    continue
                hb = holder_mask[b]
                if hb & ~ha:
                    continue
                if hb != ha or b < a:
                    remaining &= ~(1 << a)
                    changed = True
                    break

    if not remaining:
        return [primes[i] for i in sorted(set(chosen), key=lambda i: patterns[i])], True

    base_cost = sum(costs[i] for i in chosen)
    # the incumbent: within one cost, index order is text order
    greedy = rescan_greedy_pick(active, cover_bits, costs, remaining)
    greedy = _prune_redundant(greedy, cover_bits, costs, remaining, patterns)
    best = chosen + greedy
    best_key = (sum(costs[i] for i in best), len(best),
                tuple(sorted(patterns[i] for i in best)))
    holders_by_pos = {
        pos: sorted((i for i in active if cover_bits[i] >> pos & 1),
                    key=lambda i: (costs[i], patterns[i]))
        for pos in bit_positions(remaining)}
    state = {"nodes": 0, "exhausted": False, "best": best, "best_key": best_key}

    pivot_key = lambda pos: (len(holders_by_pos[pos]), pos)
    pivot_order = sorted(holders_by_pos, key=pivot_key)

    def residue_floor(left):
        total = 0
        for pos in pivot_order:
            if left >> pos & 1:
                held = holders_by_pos[pos]
                total += costs[held[0]]
                for i in held:
                    left &= ~cover_bits[i]
        return total

    def branch(picked, left, cost_so_far):
        state["nodes"] += 1
        if state["nodes"] > tokens.BRANCH_NODE_BUDGET:
            state["exhausted"] = True
            return
        if left == 0:
            key = (cost_so_far, len(picked),
                   tuple(sorted(patterns[i] for i in picked)))
            if key < state["best_key"]:
                state["best_key"] = key
                state["best"] = list(picked)
            return
        if cost_so_far + (residue_floor(left) if floor else 1) > state["best_key"][0]:
            return
        for i in holders_by_pos[min(bit_positions(left), key=pivot_key)]:
            if state["exhausted"]:
                return
            if cost_so_far + costs[i] > state["best_key"][0]:
                continue
            picked.append(i)
            branch(picked, left & ~cover_bits[i], cost_so_far + costs[i])
            picked.pop()

    branch(list(chosen), remaining, base_cost)
    cover = sorted(set(state["best"]), key=lambda i: patterns[i])
    return [primes[i] for i in cover], not state["exhausted"]


@pytest.fixture(scope="module")
def cover_instances():
    """(k, primes, minterms) on the exact path: the golden HGE/256/6/0.6
    cover, which exhausts the default budget; zones at 30% and 60% under
    HGE and MSGO at n=256, with and without don't-cares; two dense k = 10
    zones at 60% without don't-cares, under HGE (no complete cover within
    any budget here, so it pins the reductions and the incumbent) and MSGO
    (better covers within 500 and again within 5000 nodes, certified by
    5000); random encodings at k <= 8."""
    model = bench.SigmoidModel(a=0.75, b=10.0)
    grid = Grid.regular(256, bench.gen_probabilities(
        256, model, random.Random("golden/256/6/sigmoid")))
    zone = bench.sample_zone(grid.probabilities(), 0.6, random.Random("golden/zone/256/6"))
    enc = hge_baseline(grid)
    minterms = {enc.value(c) for c in zone}
    out = [(enc.k, prime_implicants(enc.k, minterms, set()), minterms)]
    for seed in range(2):
        rng = random.Random(f"oracle/{seed}")
        grid = Grid.regular(256, bench.gen_probabilities(256, model, rng))
        for enc in (hge_baseline(grid), msgo(grid, depth=4)):
            for fraction in (0.3, 0.6):
                zone = bench.sample_zone(grid.probabilities(), fraction, rng)
                for dummy in (False, True):
                    minterms = {enc.value(c) for c in zone}
                    dontcares = set(enc.dummies()) if dummy else set()
                    out.append((enc.k, prime_implicants(enc.k, minterms, dontcares),
                                minterms))
    for seed, encoder in (("oracle/dense/hge", hge_baseline),
                          ("oracle/dense/msgo/4", lambda g: msgo(g, depth=4))):
        rng = random.Random(seed)
        grid = Grid.regular(1024, bench.gen_probabilities(1024, model, rng))
        enc = encoder(grid)
        minterms = {enc.value(c) for c in bench.sample_zone(grid.probabilities(), 0.6, rng)}
        assert enc.k == 10 and is_dense(enc.k, len(minterms))
        out.append((enc.k, prime_implicants(enc.k, minterms, set()), minterms))
    rng = random.Random(29)
    while len(out) < 302:
        k = rng.randrange(2, 9)
        n = rng.randrange(2, (1 << k) + 1)
        forward = rng.sample(range(1 << k), n)
        zone = rng.sample(forward, rng.randrange(1, n + 1))
        minterms = set(zone)
        dontcares = set(range(1 << k)) - set(forward) if rng.random() < 0.5 else set()
        out.append((k, prime_implicants(k, minterms, dontcares), minterms))
    return out


@pytest.mark.parametrize("budget", [1, 50, 500, 5000, 20_000, tokens.BRANCH_NODE_BUDGET])
def test_exact_cover_matches_min_pivot_search(budget, cover_instances, monkeypatch):
    """The rank-ordered search visits the reference's nodes in the same
    order: equal covers and certification at every node budget, including
    budgets that stop the search part way through."""
    monkeypatch.setattr(tokens, "BRANCH_NODE_BUDGET", budget)
    uncertified = 0
    for k, primes, minterms in cover_instances:
        table = PrimeTable.build(k, primes, minterms)
        cover, certified, _ = exact_cover(table)
        got = [pattern_implicant(table.patterns[i]) for i in cover], certified
        assert got == min_pivot_exact_cover(k, primes, minterms)
        uncertified += not certified
    assert uncertified > 0
    if budget == tokens.BRANCH_NODE_BUDGET:
        assert not exact_cover(PrimeTable.build(*cover_instances[0]))[1]


def test_floor_drops_no_cover_that_could_win(cover_instances, monkeypatch):
    """Wherever the bound-free reference certifies within 20,000 nodes, the
    bounded search certifies too, with the same cover, and its bound is
    that cover's cost: the floor only cuts subtrees that cannot win."""
    monkeypatch.setattr(tokens, "BRANCH_NODE_BUDGET", 20_000)
    both = 0
    for k, primes, minterms in cover_instances:
        want, done = min_pivot_exact_cover(k, primes, minterms, floor=False)
        if not done:
            continue
        table = PrimeTable.build(k, primes, minterms)
        cover, certified, bound = exact_cover(table)
        assert ([pattern_implicant(table.patterns[i]) for i in cover], certified) == (want, True)
        assert bound == sum(table.costs[i] for i in cover)
        both += 1
    assert both > 250


@st.composite
def implicant_tables(draw, max_k=6, max_primes=24):
    """(k, implicants, minterms): distinct cubes of one or two stars, and
    all they cover as the minterms but for a few drawn out.  A table need
    not be any function's primes, and with cubes this alike its core is
    often cyclic."""
    k = draw(st.integers(3, max_k))
    masks = [m for m in range(1, 1 << k) if m.bit_count() <= 2]
    cube = st.tuples(st.sampled_from(masks), st.integers(0, (1 << k) - 1))
    primes = sorted({(m, v & ~m) for m, v in draw(st.lists(
        cube, min_size=max_primes // 2, max_size=max_primes))})
    reached = sorted(set().union(*map(expand_implicant, primes)))
    out = set(draw(st.lists(st.sampled_from(reached), max_size=len(reached) // 4)))
    return k, primes, set(reached) - out or {reached[0]}


@settings(max_examples=150, deadline=None)
@given(implicant_tables())
def test_bounded_search_matches_the_bound_free_reference(problem):
    """With a budget that certifies every table drawn, the bounded search
    and the bound-free reference return the same cover."""
    k, primes, minterms = problem
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tokens, "BRANCH_NODE_BUDGET", 10**6)
        want = min_pivot_exact_cover(k, primes, minterms, floor=False)
        table = PrimeTable.build(k, primes, minterms)
        cover, certified, bound = exact_cover(table)
    assert ([pattern_implicant(table.patterns[i]) for i in cover], certified) == want
    assert certified and bound == sum(table.costs[i] for i in cover)


@settings(max_examples=200, deadline=None)
@given(implicant_tables(max_k=4, max_primes=10), st.integers(0, 2**16 - 1),
       st.integers(0, 40))
def test_disjoint_floor_never_exceeds_the_residue_minimum(problem, residue, limit):
    """Ranks in the search's pivot order, each with its cheapest holder's
    cost and its holders' reach: for any residue of ranks, the floor is at
    most the cheapest choice of implicants covering it, found by trying
    every subset, and stopping at a limit decides `floor <= limit` alike."""
    k, primes, minterms = problem
    table = PrimeTable.build(k, primes, minterms)
    held = [[i for i, bits in enumerate(table.bits) if bits >> pos & 1]
            for pos in range(len(minterms))]
    order = sorted(range(len(minterms)), key=lambda pos: (len(held[pos]), pos))
    ranked = [0] * len(primes)
    for r, pos in enumerate(order):
        for i in held[pos]:
            ranked[i] |= 1 << r
    cheap = [min(table.costs[i] for i in held[pos]) for pos in order]
    reach = [_union(ranked[i] for i in held[pos]) for pos in order]
    sub = residue & table.full
    cheapest = min(sum(table.costs[i] for i in combo)
                   for size in range(len(primes) + 1)
                   for combo in itertools.combinations(range(len(primes)), size)
                   if not sub & ~_union(ranked[i] for i in combo))
    floor = _disjoint_floor(sub, cheap, reach)
    assert floor <= cheapest
    assert (_disjoint_floor(sub, cheap, reach, limit) <= limit) == (floor <= limit)


@pytest.mark.parametrize("budget", [1, tokens.BRANCH_NODE_BUDGET])
def test_token_set_bound_brackets_the_optimum(budget, monkeypatch):
    """Criterion 7's 200 zones at k = 4: the bound never exceeds the
    brute-force optimum, and it is the cover's cost when certified.  At one
    node every search with a cyclic core runs out, so the bound is the
    essential picks plus the core's floor and the cover is the descent's."""
    monkeypatch.setattr(tokens, "BRANCH_NODE_BUDGET", budget)
    rng = random.Random(42)
    uncertified = 0
    for trial in range(200):
        n = rng.randrange(5, 17)
        forward = tuple(random.Random(trial).sample(range(16), n))
        enc = GridEncoding(n=n, k=4, forward=forward, algorithm="r")
        zone = frozenset(rng.sample(range(n), rng.randrange(1, n + 1)))
        allow = trial % 2 == 0
        ts = minimize(zone, enc, allow_dummy_cover=allow)
        optimum = brute_force_min_cost(4, {enc.value(c) for c in zone},
                                       set(enc.dummies()) if allow else set())
        assert ts.bound <= optimum <= ts.cost
        assert ts.bound == ts.cost or not ts.exact
        uncertified += not ts.exact
    assert (uncertified > 0) == (budget == 1)


def test_exact_cover_breaks_equal_cover_ties_past_the_first_rank(monkeypatch):
    """A cyclic core of ten one-star primes at k = 4, none essential.  Its
    minimum covers cost 15 in 5 patterns, and the least by sorted pattern
    text shares its first two patterns with the runner-up.  On the way the
    search replaces its greedy incumbent by a leaf of equal cost and size
    that wins at its fourth pattern."""
    k, minterms = 4, {1, 2, 3, 8, 9, 10, 13, 14, 15}
    primes = prime_implicants(k, minterms, set())
    table = PrimeTable.build(k, primes, minterms)
    assert len(primes) == 10 and set(table.costs) == {3}
    covers = {size: [tuple(sorted(table.patterns[i] for i in combo))
                     for combo in itertools.combinations(range(10), size)
                     if _union(table.bits[i] for i in combo) == table.full]
              for size in (4, 5)}
    ties = sorted(covers[5])
    assert not covers[4] and len(ties) >= 4 and ties[0][:2] == ties[1][:2]

    # the incumbent after each node budget, until the search certifies
    seen = []
    for budget in itertools.count(1):
        monkeypatch.setattr(tokens, "BRANCH_NODE_BUDGET", budget)
        cover, certified, _ = exact_cover(table)
        got = tuple(table.patterns[i] for i in cover)
        if not seen or seen[-1] != got:
            seen.append(got)
        if certified:
            break
    assert got == ties[0]
    assert (([pattern_implicant(table.patterns[i]) for i in cover], certified)
            == min_pivot_exact_cover(k, primes, minterms))
    tie_wins = [next(r for r, (a, b) in enumerate(zip(new, old)) if a != b)
                for old, new in zip(seen, seen[1:]) if len(old) == len(new)]
    assert tie_wins == [3]


# --- one-out descent on budget-exhausted covers ---

def rebuild_one_out_descent(table, cover):
    """Reference descent: every pass tries every pattern of the cover, and
    each move rebuilds the union of the other patterns, rescans all primes
    for the ratio greedy with exact fractions, and tests redundancy against
    the union of the rest."""
    costs, bits, rank = table.costs, table.bits, table.rank
    by_cost = lambda i: (-costs[i], rank[i])
    kept = list(cover)
    moved = True
    while moved:
        moved = False
        for out in sorted(kept, key=by_cost):
            if out not in kept:
                continue
            others = [i for i in kept if i != out]
            left = bits[out] & ~_union(bits[i] for i in others)
            picks = []
            while left:
                ratios = [(Fraction(costs[j], (bits[j] & left).bit_count()), costs[j],
                           rank[j], j) for j in range(len(costs))
                          if j != out and bits[j] & left]
                if not ratios:
                    break
                picks.append(min(ratios)[-1])
                left &= ~bits[picks[-1]]
            if left:
                continue
            trial = others + picks
            grown = _union(bits[i] for i in picks)
            for i in sorted((i for i in trial if bits[i] & grown), key=by_cost):
                if not bits[i] & ~_union(bits[j] for j in trial if j != i):
                    trial.remove(i)
            old = (sum(costs[i] for i in kept), len(kept))
            new = (sum(costs[i] for i in trial), len(trial))
            if new < old and 2 * new[0] + new[1] <= 2 * old[0] + old[1]:
                kept, moved = trial, True
    return sorted(kept, key=rank.__getitem__)


def instance_encoding(k, primes, minterms):
    """An encoding and zone that `minimize` turns into this instance: the
    codewords the primes reach beyond the minterms are the dummies, the
    rest are cells, and the zone's cells sit on the minterms."""
    dontcares = set().union(*map(expand_implicant, primes)) - minterms
    forward = tuple(v for v in range(1 << k) if v not in dontcares)
    zone = [c for c, v in enumerate(forward) if v in minterms]
    return GridEncoding(n=len(forward), k=k, forward=forward, algorithm="ID"), zone


@pytest.mark.parametrize("budget", [50, 200])
def test_minimize_polishes_budget_exhausted_covers(budget, cover_instances, monkeypatch):
    """Where the search runs out of nodes, `minimize` returns the descent's
    cover: it reaches every minterm and no other cell, costs no more than
    the search's cover in non-star bits, patterns or pairings, is what the
    reference descent gives, and comes back the same on a second call.
    Certified covers come back as the search returned them."""
    monkeypatch.setattr(tokens, "BRANCH_NODE_BUDGET", budget)
    searched = []

    def recorded(table):
        searched.append((table, *exact_cover(table)))
        return searched[-1][1:]

    monkeypatch.setattr(tokens, "exact_cover", recorded)
    polished = fell = 0
    for k, primes, minterms in cover_instances:
        enc, zone = instance_encoding(k, primes, minterms)
        searched.clear()
        ts = minimize(zone, enc)
        assert minimize(zone, enc) == ts
        if not searched:                # the full space: one all-star cube
            continue
        table, cover, certified, _ = searched[0]
        assert ts.exact == certified
        cells = set(enc.codewords.tolist())
        assert pattern_codewords(ts.patterns) & cells == minterms
        if certified:
            assert sorted(ts.patterns) == [table.patterns[i] for i in cover]
            continue
        want = rebuild_one_out_descent(table, cover)
        assert sorted(ts.patterns) == [table.patterns[i] for i in want]
        before = TokenSet(tuple(table.patterns[i] for i in cover),
                          sum(table.costs[i] for i in cover), False, ts.bound)
        assert ts.cost <= before.cost
        assert len(ts.patterns) <= len(before.patterns)
        assert pairing_cost(ts) <= pairing_cost(before)
        polished += 1
        fell += pairing_cost(ts) < pairing_cost(before)
    assert polished > 20 and fell > 15


def test_one_out_move_beats_the_greedy_cover(monkeypatch):
    """The six minterms 000, 001, 010, 101, 110, 111 form a cyclic core of
    six two-minterm primes.  Greedy takes four of them; taking *01 out and
    re-covering 001 by 00* leaves 0*0 redundant, which reaches the minimum
    of three patterns and six non-star bits in one move."""
    k, minterms = 3, {0, 1, 2, 5, 6, 7}
    monkeypatch.setattr(tokens, "BRANCH_NODE_BUDGET", 1)
    table = PrimeTable.build(k, prime_implicants(k, minterms, set()), minterms)
    cover, certified, _ = exact_cover(table)
    assert not certified
    assert [table.patterns[i] for i in cover] == ["*01", "*10", "0*0", "1*1"]
    ts = minimize(minterms, identity_encoding(8, k))
    assert sorted(ts.patterns) == ["*10", "00*", "1*1"]
    assert (ts.cost, ts.exact) == (brute_force_min_cost(k, minterms, set()), False)


def _union(columns):
    out = 0
    for bits in columns:
        out |= bits
    return out


def minimal_rows_after(columns, active=None):
    """`_minimal_rows` on a hand-built table: bit j of `columns[i]` is
    minterm j held by prime i; every prime is live unless `active` says
    otherwise."""
    remaining = 0
    for bits in columns:
        remaining |= bits
    holders = [0] * remaining.bit_length()
    for i, bits in enumerate(columns):
        for pos in bit_positions(bits):
            holders[pos] |= 1 << i
    if active is None:
        active = (1 << len(columns)) - 1
    return _minimal_rows(remaining, holders, active, columns)


def test_minimal_rows_keeps_the_lowest_of_equal_rows():
    """Minterms 1 and 3 have the same holders {0, 1}: only 1 stays.  The
    holders of minterm 0 ({1, 2}) and of minterm 2 ({3}) neither hold nor
    sit inside another minterm's."""
    columns = [0b1010, 0b1011, 0b0001, 0b0100]
    assert minimal_rows_after(columns) == 0b0111


def test_minimal_rows_keeps_the_bottom_of_a_chain():
    """Holders {0} of minterm 2, {0, 1} of minterm 1 and {0, 1, 2} of
    minterm 0 nest, so whatever covers minterm 2 covers the other two: only
    it stays, though it is the last witness visited."""
    columns = [0b111, 0b011, 0b001]
    assert minimal_rows_after(columns) == 0b100


def test_minimal_rows_drops_nothing_without_shared_holders():
    """Holders {0}, {1}, {2, 3} and {4}: no two minterms share one."""
    columns = [0b0001, 0b0010, 0b0100, 0b0100, 0b1000]
    assert minimal_rows_after(columns) == 0b1111


def reference_minimal_rows(columns, active):
    """Minterms no other minterm dominates: b dominates a when b's live
    holders are a non-empty subset of a's, a strict one or b < a."""
    remaining = 0
    for bits in columns:
        remaining |= bits
    held = {pos: {i for i in bit_positions(active) if columns[i] >> pos & 1}
            for pos in bit_positions(remaining)}
    kept = 0
    for a, ha in held.items():
        if not any(hb and hb <= ha and (hb != ha or b < a)
                   for b, hb in held.items() if b != a):
            kept |= 1 << a
    return kept


def test_minimal_rows_matches_definition():
    """Random tables with repeated rows, nested rows and dead primes."""
    rng = random.Random(37)
    for _ in range(400):
        width = rng.randrange(1, 16)
        columns = [rng.getrandbits(width) & rng.getrandbits(width)
                   for _ in range(rng.randrange(1, 12))]
        active = rng.getrandbits(len(columns))
        assert minimal_rows_after(columns, active) == reference_minimal_rows(columns, active)


@st.composite
def cover_problems(draw):
    """k, then each codeword drawn as a zone minterm, a don't-care (dummy)
    or an off-zone cell, with at least one minterm."""
    k = draw(st.integers(1, 6))
    roles = draw(st.lists(st.sampled_from("mdo"), min_size=1 << k, max_size=1 << k))
    roles[draw(st.integers(0, (1 << k) - 1))] = "m"
    return k, roles


@settings(max_examples=150, deadline=None)
@given(cover_problems())
def test_exact_path_cover_properties(problem):
    """Every minterm is covered, nothing outside minterms and don't-cares
    is reached, cost is the patterns' non-star bits, and at k <= 4 a
    certified cover's cost is the brute-force minimum."""
    k, roles = problem
    minterms = {v for v, r in enumerate(roles) if r == "m"}
    dontcares = {v for v, r in enumerate(roles) if r == "d"}
    forward = tuple(v for v, r in enumerate(roles) if r != "d")
    enc = GridEncoding(n=len(forward), k=k, forward=forward, algorithm="h")
    zone = {c for c, v in enumerate(forward) if v in minterms}
    ts = minimize(zone, enc, allow_dummy_cover=True)
    reached = pattern_codewords(ts.patterns)
    assert minterms <= reached <= minterms | dontcares
    assert ts.cost == sum(len(p) - p.count("*") for p in ts.patterns)
    if k <= 4 and ts.exact:
        assert ts.cost == brute_force_min_cost(k, minterms, dontcares)



@settings(max_examples=150, deadline=None)
@given(cover_problems())
@example((5, list("modmmmdmmoooomoodommdommmdoomomd")))  # the descent saves a bit
def test_greedy_path_cover_properties(problem):
    """With EXACT_SPACE_LIMIT at 0 every zone short of the full space takes
    the greedy path: its cover reaches every minterm and no off-zone cell,
    is flagged inexact, is what the reference descent makes of the greedy
    step's cover, and is never costlier than that cover in non-star bits or
    pairings."""
    k, roles = problem
    minterms = {v for v, r in enumerate(roles) if r == "m"}
    dontcares = {v for v, r in enumerate(roles) if r == "d"}
    forward = tuple(v for v, r in enumerate(roles) if r != "d")
    enc = GridEncoding(n=len(forward), k=k, forward=forward, algorithm="h")
    zone = {c for c, v in enumerate(forward) if v in minterms}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tokens, "EXACT_SPACE_LIMIT", 0)
        ts = minimize(zone, enc, allow_dummy_cover=True)
    if len(minterms | dontcares) == 1 << k:
        assert ts.patterns == ("*" * k,) and ts.exact
        return
    reached = pattern_codewords(ts.patterns)
    assert minterms <= reached <= minterms | dontcares
    assert not ts.exact
    table = greedy_table(k, minterms, dontcares)
    greedy = whole_greedy_cover(table)
    assert sorted(ts.patterns) == [table.patterns[i]
                                   for i in rebuild_one_out_descent(table, greedy)]
    before = TokenSet(tuple(table.patterns[i] for i in greedy),
                      sum(table.costs[i] for i in greedy), False, ts.bound)
    assert ts.cost == sum(len(p) - p.count("*") for p in ts.patterns) <= before.cost
    assert pairing_cost(ts) <= pairing_cost(before)

# --- issue order ---

def zone_matches(pattern, values):
    """The codewords among `values` that `pattern` matches."""
    return set(expand_implicant(pattern_implicant(pattern))) & values


def rescan_issue_order(patterns, zone_values):
    """Reference issue order: a full rescan per pick for the greatest exact
    ratio of newly matched zone codewords to the token's pairings, then the
    smallest pattern; also counts the picks made among tied positive
    ratios."""
    left = set(zone_values)
    rest = list(patterns)
    order, ties = [], 0
    while rest:
        keyed = sorted((-Fraction(len(zone_matches(p, left)),
                                  2 * (len(p) - p.count("*")) + 1), p)
                       for p in rest)
        ties += len(keyed) > 1 and keyed[0][0] == keyed[1][0] < 0
        pick = keyed[0][1]
        order.append(pick)
        rest.remove(pick)
        left -= zone_matches(pick, left)
    return order, ties


@pytest.fixture(scope="module")
def issued_covers():
    """(token set, zone codewords) of zones at 10%, 30% and 60% under GO,
    MSGO and HGE at n = 100 and 256, with and without don't-cares, then of
    random encodings at k <= 7."""
    model = bench.SigmoidModel(a=0.75, b=10.0)
    out = []
    for n in (100, 256):
        rng = random.Random(f"issue/{n}")
        grid = Grid.regular(n, bench.gen_probabilities(n, model, rng))
        for enc in (gray_optimizer(grid), msgo(grid, depth=4), hge_baseline(grid)):
            for fraction in (0.1, 0.3, 0.6):
                zone = bench.sample_zone(grid.probabilities(), fraction, rng)
                for dummy in (False, True):
                    out.append((minimize(zone, enc, allow_dummy_cover=dummy),
                                {enc.value(c) for c in zone}))
    rng = random.Random(31)
    for trial in range(200):
        k = rng.randrange(2, 8)
        n = rng.randrange(2, (1 << k) + 1)
        enc = GridEncoding(n=n, k=k, forward=tuple(rng.sample(range(1 << k), n)),
                           algorithm="r")
        zone = rng.sample(range(n), rng.randrange(1, n + 1))
        out.append((minimize(zone, enc, allow_dummy_cover=trial % 2 == 0),
                    {enc.value(c) for c in zone}))
    return out


def test_match_pairings_stops_at_the_first_match():
    patterns = ("00**", "0101")                       # 5 and 9 pairings
    assert match_pairings(patterns, [0, 1, 2, 3]) == 4 * 5
    assert match_pairings(patterns, [5]) == 5 + 9
    assert match_pairings(patterns, [15]) == 5 + 9     # no match pays all
    assert match_pairings(patterns[::-1], [0, 5]) == 9 + 5 + 9
    assert match_pairings(patterns, []) == 0


def test_issue_order_matches_full_rescan(issued_covers):
    """The lazy heap issues exactly what a full rescan with exact ratios
    would, on covers whose patterns overlap on zone codewords, whose picks
    tie, and that reach dummy codewords."""
    overlaps = ties = dummies = 0
    for ts, zone_values in issued_covers:
        want, tied = rescan_issue_order(ts.patterns, zone_values)
        assert list(ts.patterns) == want
        ties += tied
        dummies += bool(pattern_codewords(ts.patterns) - zone_values)
        matched = [zone_matches(p, zone_values) for p in ts.patterns]
        overlaps += sum(len(m) for m in matched) > len(set().union(*matched))
    assert overlaps > 10 and ties > 10 and dummies > 10


@pytest.mark.parametrize("k,patterns,zone_values", [
    # 1 of 3 pairings against 3 of 9: the ratios tie across costs
    (6, ("1*****", "0000**"), {0, 1, 2, 32}),
    # after 00** the other two add nothing
    (4, ("00**", "001*", "0000"), {0, 1, 2, 3}),
])
def test_issue_order_ties_by_text_on_hand_built_tables(k, patterns, zone_values):
    """Tied ratios, and the patterns that add nothing, are issued in text
    order, which here disagrees with the table's (cost, pattern) order."""
    table = PrimeTable.build(k, map(pattern_implicant, patterns), zone_values)
    assert table.patterns != sorted(table.patterns)
    want, _ = rescan_issue_order(patterns, zone_values)
    assert _issue_order(table, list(range(len(patterns)))) == want


def test_issue_order_is_optimal_on_disjoint_covers(issued_covers):
    """Smith's ratio rule: when no zone codeword matches two patterns, no
    order of at most 7 patterns makes zone users pay fewer pairings."""
    checked = 0
    for ts, zone_values in issued_covers:
        matched = [zone_matches(p, zone_values) for p in ts.patterns]
        if not 1 < len(ts.patterns) <= 7 or sum(map(len, matched)) != len(zone_values):
            continue
        best = min(match_pairings(order, zone_values)
                   for order in itertools.permutations(ts.patterns))
        assert match_pairings(ts.patterns, zone_values) == best
        checked += 1
    assert checked > 20


def test_issue_order_cuts_zone_users_pairings(issued_covers):
    """Zone users pay strictly fewer pairings in total than under sorted
    order, on the same covers."""
    issued = sum(match_pairings(ts.patterns, values) for ts, values in issued_covers)
    text = sum(match_pairings(sorted(ts.patterns), values) for ts, values in issued_covers)
    assert issued < text
