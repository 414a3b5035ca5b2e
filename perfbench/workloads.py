"""Alert-round workloads for the benchmark.

A workload's set-up depends only on the seed, so repeating it leaves the
rounds unchanged.  Each round's inputs come from the seed and the round
index (untimed), and the timed round runs through the package's public
functions only: `optimizers.*`, `tokens.minimize`,
`hve.*` and `wire.*`, plus `bench.predict_marginals` on the dynamic
workload.  Library functions are always looked up on their module at call
time, so the tracer can wrap them from outside the package.

A round returns an `Outcome`; `check` verifies it afterwards, outside the
timed part, and `Counts.add` folds it into the run's exact counts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from hvezones import bench, hve, optimizers, tokens, wire
from hvezones.dynamics import UniformChain
from hvezones.grid import Grid, GridEncoding

MODEL = bench.SigmoidModel(a=0.75, b=10.0)
MESSAGE_ID = 7


def stream(seed: int, *parts) -> random.Random:
    """Independent random stream per (seed, purpose, round)."""
    return random.Random("/".join(str(p) for p in (seed,) + parts))


@dataclass
class Keys:
    pk: hve.PublicKey
    sk: hve.SecretKey
    messages: hve.MessageSpace
    message: tuple


def make_keys(width: int, seed: int) -> Keys:
    """Authority key pair; the public key reaches clients over the wire."""
    pk, sk = hve.setup(width, seed=seed)
    pk = wire.load_public_key(wire.dump_public_key(pk))
    messages = hve.MessageSpace(pk.group, [MESSAGE_ID], seed=seed)
    return Keys(pk, sk, messages, messages.element(MESSAGE_ID))


@dataclass
class Served:
    """One zone's tokens matched against one batch of user ciphertexts."""

    enc: GridEncoding
    zone: FrozenSet[int]
    users: Sequence[int]
    issued: List[hve.HveToken]
    received: List[hve.HveToken]
    sent: List[hve.Ciphertext]
    received_cts: List[hve.Ciphertext]
    records: List[Tuple[Optional[int], List[int]]]  # (message, per-query pairings)


@dataclass
class Outcome:
    # (encoding, zone, cover, is the candidate side)
    covers: List[Tuple[GridEncoding, FrozenSet[int], tokens.TokenSet, bool]]
    served: List[Served] = field(default_factory=list)


def encrypt_users(keys: Keys, enc: GridEncoding, users: Sequence[int],
                  rng: random.Random):
    """Client side: each user encrypts its cell's codeword and uploads it."""
    sent = [hve.encrypt(keys.pk, format(enc.value(u), f"0{enc.k}b"),
                        keys.message, rng) for u in users]
    return sent, [wire.load_ciphertext(wire.dump_ciphertext(c)) for c in sent]


def match(keys: Keys, cts: Sequence[hve.Ciphertext],
          tks: Sequence[hve.HveToken]) -> List[Tuple[Optional[int], List[int]]]:
    """Server side: query each user against the tokens until the first match."""
    group = keys.pk.group
    out = []
    for ct in cts:
        pairings = []
        message = None
        for tk in tks:
            result = hve.query(group, ct, tk, keys.messages)
            pairings.append(result.pairings)
            if result.matched:
                message = result.message
                break
        out.append((message, pairings))
    return out


def serve(keys: Keys, enc: GridEncoding, zone: FrozenSet[int], ts: tokens.TokenSet,
          users: Sequence[int], sent, received_cts, rng: random.Random) -> Served:
    """The authority issues one token per pattern, ships them to the server,
    and the server matches the users' ciphertexts against them."""
    issued = [hve.gen_token(keys.sk, p, rng) for p in ts.patterns]
    received = [wire.load_token(wire.dump_token(t)) for t in issued]
    return Served(enc, zone, users, issued, received, sent, received_cts,
                  match(keys, received_cts, received))


def minimize_both(zone, cand: GridEncoding, base: GridEncoding,
                  covers: list) -> tokens.TokenSet:
    """Cover the zone under both encodings; returns the candidate cover."""
    ts = tokens.minimize(zone, cand, allow_dummy_cover=False)
    covers.append((cand, zone, ts, True))
    covers.append((base, zone, tokens.minimize(zone, base, allow_dummy_cover=False), False))
    return ts


# --- the four workloads ---

class ServerMatch:
    """n=1024; SGO and HGE built in set-up; one 5% zone and 500 users a round."""

    name = "server-match"
    n = 1024
    fraction = 0.05
    users = 500
    warmup = 2

    def setup(self, seed: int) -> None:
        probs = bench.gen_probabilities(self.n, MODEL, stream(seed, "probs"))
        self.probs = probs
        grid = Grid.regular(self.n, probs)
        self.cand = optimizers.sgo(grid)
        self.base = optimizers.hge_baseline(grid)
        self.keys = make_keys(self.cand.k, seed)

    def inputs(self, seed: int, i: int):
        rng = stream(seed, self.name, "zone", i)
        zone = bench.sample_zone(self.probs, self.fraction, rng)
        users = [rng.randrange(self.n) for _ in range(self.users)]
        return zone, users, stream(seed, self.name, "hve", i)

    def round(self, inp, counter=None) -> Outcome:
        zone, users, rng = inp
        out = Outcome([])
        ts = minimize_both(zone, self.cand, self.base, out.covers)
        sent, received = encrypt_users(self.keys, self.cand, users, rng)
        out.served.append(serve(self.keys, self.cand, zone, ts, users, sent, received, rng))
        return out


class ZoneMinimize:
    """n=256 (k=8), fresh probabilities a round; MSGO (depth 4) against HGE
    on zones at 30% and 60%, 16 users matched against each."""

    name = "zone-minimize"
    n = 256
    fractions = (0.3, 0.6)
    users = 16
    warmup = 2

    def setup(self, seed: int) -> None:
        self.geometry = Grid.regular(self.n)
        self.keys = make_keys(self.geometry.k, seed)

    def inputs(self, seed: int, i: int):
        rng = stream(seed, self.name, "inputs", i)
        probs = bench.gen_probabilities(self.n, MODEL, rng)
        zones = [bench.sample_zone(probs, f, rng) for f in self.fractions]
        users = [rng.randrange(self.n) for _ in range(self.users)]
        return (self.geometry.with_probabilities(probs), zones, users,
                rng.getrandbits(32), stream(seed, self.name, "hve", i))

    def round(self, inp, counter=None) -> Outcome:
        grid, zones, users, msgo_seed, rng = inp
        cand = optimizers.msgo(grid, depth=4, rng_seed=msgo_seed, counter=counter)
        base = optimizers.hge_baseline(grid)
        out = Outcome([])
        sent, received = encrypt_users(self.keys, cand, users, rng)
        for zone in zones:
            ts = minimize_both(zone, cand, base, out.covers)
            out.served.append(serve(self.keys, cand, zone, ts, users, sent, received, rng))
        return out


class WideGrid:
    """n=50625 (225x225, k=16): SGO and HGE re-encoded every round, one 1%
    zone on the greedy cover path, 16 users."""

    name = "wide-grid"
    n = 225 * 225
    fraction = 0.01
    users = 16
    warmup = 1

    def setup(self, seed: int) -> None:
        self.geometry = Grid.regular(self.n)
        self.keys = make_keys(self.geometry.k, seed)

    def inputs(self, seed: int, i: int):
        rng = stream(seed, self.name, "inputs", i)
        probs = bench.gen_probabilities(self.n, MODEL, rng)
        zone = bench.sample_zone(probs, self.fraction, rng)
        users = [rng.randrange(self.n) for _ in range(self.users)]
        return (self.geometry.with_probabilities(probs), zone, users,
                stream(seed, self.name, "hve", i))

    def round(self, inp, counter=None) -> Outcome:
        grid, zone, users, rng = inp
        cand = optimizers.sgo(grid, counter=counter)
        base = optimizers.hge_baseline(grid)
        out = Outcome([])
        ts = minimize_both(zone, cand, base, out.covers)
        sent, received = encrypt_users(self.keys, cand, users, rng)
        out.served.append(serve(self.keys, cand, zone, ts, users, sent, received, rng))
        return out


class DynamicReencode:
    """n=100, static GO encoding; each round predicts evolved marginals from
    an observed 30% zone, re-encodes with GO and costs 50 evolved zones on
    both encodings, matching 16 users against the re-encoded tokens."""

    name = "dynamic-reencode"
    n = 100
    fraction = 0.3
    walks = 100_000
    alpha = 0.85
    continue_prob = 0.6
    evolved = 50
    users = 16
    warmup = 1

    def setup(self, seed: int) -> None:
        probs = bench.gen_probabilities(self.n, MODEL, stream(seed, "probs"))
        self.grid = Grid.regular(self.n, probs)
        self.static = optimizers.gray_optimizer(self.grid)
        self.chain = UniformChain(self.n)
        self.keys = make_keys(self.static.k, seed)

    def inputs(self, seed: int, i: int):
        rng = stream(seed, self.name, "inputs", i)
        observed = bench.sample_zone(self.grid.probabilities(), self.fraction, rng,
                                     uniform=True)
        start = sum(1 << c for c in observed)
        zones = []
        while len(zones) < self.evolved:
            end = self.chain.walk_end(start, self.continue_prob, rng)
            if end:  # an alert zone must be non-empty
                zones.append(frozenset(j for j in range(self.n) if end >> j & 1))
        users = [rng.randrange(self.n) for _ in range(self.users)]
        return (start, zones, users, stream(seed, self.name, "predict", i),
                stream(seed, self.name, "hve", i))

    def round(self, inp, counter=None) -> Outcome:
        start, zones, users, rng_pred, rng = inp
        marginals = bench.predict_marginals(self.n, start, self.chain, self.walks,
                                            self.continue_prob, self.alpha, rng_pred)
        cand = optimizers.gray_optimizer(self.grid.with_probabilities(marginals),
                                         counter=counter)
        out = Outcome([])
        sent, received = encrypt_users(self.keys, cand, users, rng)
        for zone in zones:
            ts = minimize_both(zone, cand, self.static, out.covers)
            out.served.append(serve(self.keys, cand, zone, ts, users, sent, received, rng))
        return out


WORKLOADS = {w.name: w for w in (ServerMatch, ZoneMinimize, WideGrid, DynamicReencode)}


# --- verification and exact counts (untimed) ---

def nonstar(pattern: str) -> int:
    return len(pattern) - pattern.count("*")


def expand(pattern: str) -> List[int]:
    """Codeword values a pattern matches, computed independently of `tokens`."""
    k = len(pattern)
    base = int(pattern.replace("*", "0"), 2)
    stars = [k - 1 - i for i, ch in enumerate(pattern) if ch == "*"]
    out = []
    for sub in range(1 << len(stars)):
        value = base
        for j, pos in enumerate(stars):
            if sub >> j & 1:
                value |= 1 << pos
        out.append(value)
    return out


def pattern_matches(pattern: str, attribute: str) -> bool:
    return all(p == "*" or p == a for p, a in zip(pattern, attribute))


def check(out: Outcome) -> List[str]:
    """Every failed check of one round, as one line each."""
    failures = []
    for enc, zone, ts, _ in out.covers:
        zone_values = {enc.value(c) for c in zone}
        covered = {v for p in ts.patterns for v in expand(p)}
        if not zone_values <= covered:
            failures.append(f"{enc.algorithm} cover misses part of its zone")
        if any(enc.cell_at(v) is not None for v in covered - zone_values):
            failures.append(f"{enc.algorithm} cover reaches a real cell outside its zone")
        if ts.cost != sum(nonstar(p) for p in ts.patterns):
            failures.append(f"{enc.algorithm} cover misreports its non-star bits")
    for s in out.served:
        if s.received != s.issued or s.received_cts != s.sent:
            failures.append("wire round trip altered a token or ciphertext")
        patterns = [t.pattern for t in s.received]
        costs = [2 * nonstar(p) + 1 for p in patterns]
        for user, (message, pairings) in zip(s.users, s.records):
            attribute = format(s.enc.value(user), f"0{s.enc.k}b")
            first = next((j for j, p in enumerate(patterns)
                          if pattern_matches(p, attribute)), None)
            if pairings != costs[:len(pairings)]:
                failures.append("a query's pairing count is not 2|J|+1")
            if (message is not None) != (user in s.zone):
                failures.append("match decision disagrees with zone membership")
            elif message is not None and (message != MESSAGE_ID or len(pairings) != first + 1):
                failures.append("matched user did not stop at its first matching token")
            elif message is None and (first is not None or len(pairings) != len(patterns)):
                failures.append("unmatched user skipped a token")
    return failures


@dataclass
class Counts:
    """Exact counts over a run's measured rounds."""

    rounds: int = 0
    zones: int = 0
    cost: int = 0
    baseline_cost: int = 0
    improvement_pct: float = 0.0
    covers: int = 0
    certified: int = 0
    patterns: int = 0
    nonstar_bits: int = 0
    user_zones: int = 0
    server_pairings: int = 0
    queries: int = 0
    matches: int = 0
    saved_pairings: int = 0

    def add(self, out: Outcome) -> None:
        self.rounds += 1
        cand = [ts for _, _, ts, is_cand in out.covers if is_cand]
        base = [ts for _, _, ts, is_cand in out.covers if not is_cand]
        for ts, tsb in zip(cand, base):
            cost, base_cost = tokens.pairing_cost(ts), tokens.pairing_cost(tsb)
            self.zones += 1
            self.cost += cost
            self.baseline_cost += base_cost
            self.improvement_pct += (base_cost - cost) / base_cost * 100.0
        for _, _, ts, _ in out.covers:
            self.covers += 1
            self.certified += ts.exact
            self.patterns += len(ts.patterns)
            self.nonstar_bits += ts.cost
        for s in out.served:
            costs = [2 * nonstar(t.pattern) + 1 for t in s.received]
            for message, pairings in s.records:
                self.user_zones += 1
                self.server_pairings += sum(pairings)
                self.queries += len(pairings)
                if message is not None:
                    self.matches += 1
                    self.saved_pairings += sum(costs[len(pairings):])

    def exact_metrics(self) -> Dict[str, float]:
        """The seed-determined end-to-end numbers."""
        return {
            "zone_pairing_cost": self.cost / self.zones,
            "baseline_pairing_cost": self.baseline_cost / self.zones,
            "server_pairings_per_user": self.server_pairings / self.user_zones,
            "certified_frac": self.certified / self.covers,
        }
