"""Experiment harness: probability generation, zone sampling, noise
injection, optimizer-versus-baseline comparison, and the static-versus
dynamic protocol, all emitted as CSV.

Every trial derives its own random streams from the master seed, so runs
are reproducible byte for byte; zones are shared between the candidate and
baseline encodings (paired design) so improvement percentages never mix
different workloads.

The dynamic protocol mirrors the evolving-zone experiment: an initial zone
is observed, the true occupancy then evolves along the undamped uniform-row
Markov chain (every outgoing edge equally likely), and the dynamic side
re-encodes once on its prediction of the evolved per-cell marginals; the
static side keeps the encoding built from the initial probabilities.  Both
sides are costed on the same evolved zones.  The prediction is computed
exactly, but for that chain damped by `cfg.alpha` (each step a jump to a
uniformly random state with probability 1 - alpha), so it matches the
evolution only at alpha = 1.  The predicted marginals take two values, one
for the observed zone's cells and one for the rest, so the re-encode's ties
fall to the encoders' documented order: descending probability, then
ascending cell id.
"""

from __future__ import annotations

import heapq
import math
import random
import time
from dataclasses import dataclass
from itertools import islice
from typing import Callable, FrozenSet, IO, List, Optional, Sequence, Tuple

from .dynamics import UniformChain
from .grid import Grid, GridEncoding, min_width
from .hve import MessageSpace, encrypt, gen_token, query, setup
from .optimizers import (Assignment, gray_optimizer, hge_baseline, msgo,
                         random_baseline, sgo)
from .tokens import (TokenSet, expand_implicant, minimize, pairing_cost,
                     pattern_implicant)

ALGORITHMS = ("GO", "MSGO", "SGO", "HGE", "RANDOM")

CSV_HEADER = ("algorithm,n,depth,a,b,fraction,noise,trial,"
              "pairing_cost,baseline_cost,improvement_pct,wall_ms,seed")


def child_seed(master: int, *parts) -> int:
    """Stable per-purpose seed derivation from the master seed.

    `hashlib` is imported here, not at module level: it loads OpenSSL
    (about 3.5 MB of resident memory), and no alert round derives a seed.
    """
    import hashlib

    h = hashlib.blake2b(digest_size=8)
    h.update(str(master).encode())
    for part in parts:
        h.update(b"|" + str(part).encode())
    return int.from_bytes(h.digest(), "big")


def stream(master: int, *parts) -> random.Random:
    """The random stream of one purpose, seeded by `child_seed`."""
    return random.Random(child_seed(master, *parts))


@dataclass(frozen=True)
class SigmoidModel:
    """Cell-probability model: S(x) = 1 / (1 + exp(-b (x - a)))."""

    a: float
    b: float

    def value(self, x: float) -> float:
        try:
            p = 1.0 / (1.0 + math.exp(-self.b * (x - self.a)))
        except OverflowError:   # a steep gradient far below a: S(x) -> 0
            p = 0.0
        return min(max(p, 1e-12), 1.0 - 1e-12)


def gen_probabilities(n: int, model: SigmoidModel, rng: random.Random) -> List[float]:
    """One probability per cell, driven by an independent uniform draw."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return [model.value(rng.random()) for _ in range(n)]


def sample_zone(probs: Sequence[float], fraction: float, rng: random.Random,
                uniform: bool = False) -> FrozenSet[int]:
    """ceil(fraction * n) distinct cells, weights proportional to p(v).

    Weighted draws use exponential keys (log u / w), which reproduce
    sequential weighted sampling without replacement: one u per cell in id
    order, and the cells of the largest keys, ties to the lowest id.  A
    zero weight or a zero u (whose key u^(1/w) is 0) gives the key -inf.
    Only the zone's keys are held, never one per cell.  The uniform flag is the
    alternative sampling law.
    """
    n = len(probs)
    if not 0 < fraction <= 1:
        raise ValueError(f"fraction {fraction} outside (0, 1]")
    if n < 1:
        raise ValueError("no cells to sample")
    count = math.ceil(fraction * n)
    if uniform:
        return frozenset(rng.sample(range(n), count))

    def keyed():
        for cell, w in enumerate(probs):
            u = rng.random()
            key = math.log(u) / w if w > 0.0 and u > 0.0 else -math.inf
            yield -key, cell

    return frozenset(cell for _, cell in heapq.nsmallest(count, keyed()))


def add_noise(probs: Sequence[float], u: float, rng: random.Random) -> List[float]:
    """Add iid Uniform[0, u] noise to each probability, wrapping past 1."""
    if not 0.0 <= u <= 1.0:
        raise ValueError("maximum noise must lie in [0, 1]")
    if u == 0.0:
        return list(probs)
    return [(p + rng.uniform(0.0, u)) % 1.0 for p in probs]


@dataclass(frozen=True)
class ExperimentConfig:
    n: int = 100
    algorithm: str = "GO"
    depth: Optional[int] = None          # MSGO cluster depth / GO pass depth
    a: float = 0.75
    b: float = 10.0
    fractions: Tuple[float, ...] = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6)
    noise: float = 0.0
    trials: int = 20
    seed: int = 0
    uniform_zones: bool = False
    verify: bool = True                  # per-trial spot checks
    # Headline numbers compare exact covers: letting tokens spill onto dummy
    # codewords hands the padded baseline hundreds of free don't-cares at
    # non-power-of-four grid sizes, which conflates its width padding with a
    # minimization bonus and buries the encoders' real difference.
    dummy_cover: bool = False
    # dynamics parameters
    alpha: float = 0.85
    continue_prob: float = 0.6
    dyn_zones: int = 50

    def validate(self) -> None:
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"algorithm must be one of {ALGORITHMS}")
        if self.depth is not None and self.depth < 1:
            raise ValueError("depth must be >= 1")
        # MSGO clamps its depth to k; a GO pass has no ring beyond it
        if self.algorithm == "GO" and (self.depth or 0) > min_width(self.n):
            raise ValueError(f"depth {self.depth} outside [1, {min_width(self.n)}]")
        if not self.fractions:
            raise ValueError("at least one alert fraction is required")
        for i, f in enumerate(self.fractions):
            if not 0.0 < f <= 1.0:
                raise ValueError(f"fraction {f} outside (0, 1]")
            for g in self.fractions[:i]:
                if f == g:
                    raise ValueError(f"fraction {f} repeated")
                if f"{f:g}" == f"{g:g}":
                    raise ValueError(f"fractions {g!r} and {f!r} share the CSV"
                                     f" label {f:g}")
        if not 0.0 <= self.noise <= 1.0:
            raise ValueError("noise must lie in [0, 1]")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not 0.0 <= self.a <= 1.0:
            raise ValueError("sigmoid inflection a must lie in [0, 1]")
        if not (math.isfinite(self.b) and self.b >= 0.0):
            raise ValueError("sigmoid gradient b must be finite and >= 0")
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must lie in (0, 1]")
        if not 0.0 < self.continue_prob < 1.0:
            raise ValueError("continue probability must lie in (0, 1)")
        if self.dyn_zones < 1:
            raise ValueError("dyn_zones must be >= 1")


@dataclass(frozen=True)
class TrialResult:
    algorithm: str
    n: int
    depth: int
    a: float
    b: float
    fraction: float
    noise: float
    trial: int
    pairing_cost: int
    baseline_cost: int
    improvement_pct: float
    wall_ms: float
    seed: int

    def __post_init__(self):
        if self.pairing_cost < 0 or self.baseline_cost < 0:
            raise ValueError("costs must be non-negative")
        if self.improvement_pct > 100.0:
            raise ValueError("improvement cannot exceed 100 percent")

    def csv_row(self) -> str:
        return (f"{self.algorithm},{self.n},{self.depth},{self.a:g},{self.b:g},"
                f"{self.fraction:g},{self.noise:g},{self.trial},"
                f"{self.pairing_cost},{self.baseline_cost},"
                f"{self.improvement_pct:.4f},{self.wall_ms:.3f},{self.seed}")


def write_csv(fp: IO[str], rows: Sequence[TrialResult]) -> None:
    fp.write(CSV_HEADER + "\n")
    for row in sorted(rows, key=lambda r: (r.algorithm, r.n, r.depth, r.fraction,
                                           r.noise, r.trial)):
        fp.write(row.csv_row() + "\n")


def build_encoding(algorithm: str, grid: Grid, cfg: ExperimentConfig,
                   trial: int) -> GridEncoding:
    if algorithm == "GO":
        return gray_optimizer(grid, depth=cfg.depth)
    if algorithm == "MSGO":
        return msgo(grid, depth=cfg.depth or 4)
    if algorithm == "SGO":
        return sgo(grid)
    if algorithm == "HGE":
        return hge_baseline(grid)
    if algorithm == "RANDOM":
        return random_baseline(grid, child_seed(cfg.seed, "random", trial))
    raise ValueError(f"unknown algorithm {algorithm}")


def spot_check(cfg: ExperimentConfig, trial: int, grid: Grid,
               enc: GridEncoding, zone: FrozenSet[int], ts: TokenSet) -> None:
    """Per-trial verification: exact cover and an end-to-end match check.

    Expands the patterns HVE receives against the zone's codewords (dummy
    coverage permitted) and runs a few encrypted cells through real tokens:
    cells in the zone must recover the message, cells outside must not
    match any token, and every query must report 2 * non-star + 1 pairings.
    """
    zone_values = {enc.value(c) for c in zone}
    covered = {v for p in ts.patterns for v in expand_implicant(pattern_implicant(p))}
    if not zone_values <= covered:
        raise AssertionError("token set fails to cover the zone")
    extras = covered - zone_values
    if extras and not cfg.dummy_cover:
        raise AssertionError("exact cover requested but extra codewords covered")
    for extra in extras:
        if enc.cell_at(extra) is not None:
            raise AssertionError("token set covers a real cell outside the zone")

    rng = stream(cfg.seed, "spot", trial)
    inside = sorted(zone)[:2]
    outside = [c for c in range(grid.n) if c not in zone][:2]
    pk, sk = setup(enc.k, seed=child_seed(cfg.seed, "hvekeys", trial))
    messages = MessageSpace(pk.group, [7], seed=child_seed(cfg.seed, "msgs", trial))
    tokens = [gen_token(sk, pattern, rng) for pattern in ts.patterns]
    for cell in inside + outside:
        attribute = format(enc.value(cell), f"0{enc.k}b")
        c = encrypt(pk, attribute, messages.element(7), rng)
        hits = 0
        for token in tokens:
            result = query(pk.group, c, token, messages)
            expected = 2 * sum(1 for ch in token.pattern if ch != "*") + 1
            if result.pairings != expected:
                raise AssertionError("pairing counter mismatch")
            if result.matched:
                if result.message != 7:
                    raise AssertionError("query recovered the wrong message")
                hits += 1
        if (cell in zone) != (hits > 0):
            raise AssertionError("token match disagrees with zone membership")


def _run_trials(cfg: ExperimentConfig, body: Callable[..., List[TrialResult]]
                ) -> Tuple[List[TrialResult], List[str]]:
    """The trial loop every runner shares.

    Each trial draws its probabilities from its own stream, lays out the
    regular grid and calls `body(trial, probs, grid, candidate)`, where
    `candidate(enc, zone)` is the pairing cost of a candidate-side cover;
    when cfg.verify is set the trial's first such cover is spot-checked.
    A trial contributes all of its rows or none.  Failures are isolated
    and reported in the second return value, except a failed verification
    (AssertionError from `spot_check`), which aborts the run.
    """
    cfg.validate()
    results: List[TrialResult] = []
    failures: List[str] = []
    for trial in range(cfg.trials):
        checked = not cfg.verify

        def candidate(enc: GridEncoding, zone: FrozenSet[int]) -> int:
            nonlocal checked
            ts = minimize(zone, enc, allow_dummy_cover=cfg.dummy_cover)
            if not checked:
                spot_check(cfg, trial, grid, enc, zone, ts)
                checked = True
            return pairing_cost(ts)

        try:
            grid = trial_grid(cfg, trial)
            results.extend(body(trial, grid.probabilities(), grid, candidate))
        except AssertionError as exc:
            raise AssertionError(f"trial {trial}: {exc}") from exc
        except Exception as exc:  # noqa: BLE001 - trial isolation is the contract
            failures.append(f"trial {trial}: {exc}")
    return results, failures


def trial_grid(cfg: ExperimentConfig, trial: int) -> Grid:
    """The regular grid of `cfg.n` cells that trial `trial` runs on, its
    probabilities drawn from the trial's own stream under cfg's sigmoid."""
    probs = gen_probabilities(cfg.n, SigmoidModel(cfg.a, cfg.b),
                              stream(cfg.seed, "probs", trial))
    return Grid.regular(cfg.n, probs)


def trial_zone(cfg: ExperimentConfig, probs: Sequence[float], trial: int,
               fraction: float, uniform: bool) -> FrozenSet[int]:
    """The alert zone of trial `trial` at `fraction`, drawn from its own
    stream, so every encoding costed in the trial meets the same zone."""
    return sample_zone(probs, fraction, stream(cfg.seed, "zone", trial, f"{fraction:.6f}"),
                       uniform=uniform)


def _cost(cfg: ExperimentConfig, enc: GridEncoding, zone: FrozenSet[int]) -> int:
    return pairing_cost(minimize(zone, enc, allow_dummy_cover=cfg.dummy_cover))


def _row(cfg: ExperimentConfig, trial: int, fraction: float, cost: int,
         base_cost: int, algorithm: Optional[str] = None,
         depth: Optional[int] = None, wall_ms: float = 0.0,
         improvement_pct: Optional[float] = None) -> TrialResult:
    if improvement_pct is None:
        improvement_pct = (base_cost - cost) / base_cost * 100.0
    return TrialResult(
        algorithm=algorithm or cfg.algorithm, n=cfg.n,
        depth=cfg.depth or 0 if depth is None else depth, a=cfg.a, b=cfg.b,
        fraction=fraction, noise=cfg.noise, trial=trial,
        pairing_cost=cost, baseline_cost=base_cost,
        improvement_pct=improvement_pct, wall_ms=wall_ms, seed=cfg.seed)


def run_experiment(cfg: ExperimentConfig) -> Tuple[List[TrialResult], List[str]]:
    """Optimizer-versus-baseline comparison across the alert-fraction sweep.

    Noise, when requested, perturbs only the probabilities fed to the
    optimizer; zones are always drawn from the true probabilities.
    """
    def body(trial, probs, grid, candidate):
        optimizer_probs = probs
        if cfg.noise > 0.0:
            rng_noise = stream(cfg.seed, "noise", trial)
            optimizer_probs = add_noise(probs, cfg.noise, rng_noise)
        enc = build_encoding(cfg.algorithm, grid.with_probabilities(optimizer_probs),
                             cfg, trial)
        baseline = hge_baseline(grid)
        rows = []
        for fraction in cfg.fractions:
            zone = trial_zone(cfg, probs, trial, fraction, cfg.uniform_zones)
            rows.append(_row(cfg, trial, fraction, candidate(enc, zone),
                             _cost(cfg, baseline, zone)))
        return rows
    return _run_trials(cfg, body)


def run_depth_sweep(cfg: ExperimentConfig) -> Tuple[List[TrialResult], List[str]]:
    """Improvement as a function of pass depth: one seeded pass at each
    depth, every remaining cell assigned uniformly at random, zones shared
    across depths."""
    def body(trial, probs, grid, candidate):
        baseline = hge_baseline(grid)
        zones = {fraction: trial_zone(cfg, probs, trial, fraction, cfg.uniform_zones)
                 for fraction in cfg.fractions}
        rows = []
        for depth in range(1, grid.k + 1):
            state = Assignment(grid)
            state.claim(0)
            state.go_pass(0, depth)
            state.complete_random(stream(cfg.seed, "fill", trial, depth))
            enc = state.to_encoding("GO")
            for fraction, zone in zones.items():
                rows.append(_row(cfg, trial, fraction, candidate(enc, zone),
                                 _cost(cfg, baseline, zone),
                                 algorithm="GO", depth=depth))
        return rows
    return _run_trials(cfg, body)


def run_timing(cfg: ExperimentConfig) -> Tuple[List[TrialResult], List[str]]:
    """Encoding wall time per trial; costs are not evaluated here and no
    zone is sampled, so every row reads fraction 0.

    This is the one runner whose CSV is not byte-stable across re-runs:
    wall_ms carries real measurements, reported rather than asserted.  The
    other runners emit wall_ms = 0.0 so their outputs reproduce exactly.
    """
    def body(trial, probs, grid, candidate):
        started = time.perf_counter()
        build_encoding(cfg.algorithm, grid, cfg, trial)
        wall = (time.perf_counter() - started) * 1000.0
        return [_row(cfg, trial, 0.0, 0, 0, wall_ms=wall,
                     improvement_pct=0.0)]
    return _run_trials(cfg, body)


def predict_marginals(n: int, start_state: int, chain: UniformChain,
                      walks: int, continue_prob: float, alpha: float,
                      rng: random.Random) -> List[float]:
    """Per-cell probability of being alerted at the end of one geometric
    evolution window off the observed state, computed exactly by
    `chain.end_marginals`: two values, one for the observed zone's cells
    and one for the rest.

    Nothing is sampled: `walks` and `rng` are accepted and ignored only
    because existing callers still pass them.
    """
    if chain.n != n:
        raise ValueError(f"chain has {chain.n} cells, expected {n}")
    return chain.end_marginals(start_state, continue_prob, alpha).tolist()


def run_dynamics(cfg: ExperimentConfig) -> Tuple[List[TrialResult], List[str]]:
    """Static versus dynamic encodings under uniform zone evolution.

    Per trial: observe an initial zone, let the occupancy evolve along the
    undamped uniform chain, re-encode once on the exact evolved marginals
    of that chain damped by cfg.alpha (alpha = 1 predicts the evolution
    exactly), and cost both encodings on the same evolved zones.
    baseline_cost carries the static encoding's cost and improvement_pct
    the dynamic gain over it.

    The observed zone is drawn uniformly: under uniform evolution the
    occupancy has long since decoupled from the initial cell probabilities,
    which remain the static encoder's (stale) belief.  Seeding the observed
    zone from those same probabilities would leak the current state into
    the static side and measure nothing about tracking evolution.
    """
    def body(trial, probs, grid, candidate):
        chain = UniformChain(cfg.n)
        static_enc = build_encoding(cfg.algorithm, grid, cfg, trial)
        rows = []
        for fraction in cfg.fractions:
            initial = trial_zone(cfg, probs, trial, fraction, uniform=True)
            start_state = sum(1 << c for c in initial)
            marginals = chain.end_marginals(start_state, cfg.continue_prob,
                                            cfg.alpha).tolist()
            dynamic_enc = build_encoding(
                cfg.algorithm, grid.with_probabilities(marginals), cfg, trial)
            rng_evolve = stream(cfg.seed, "evolve", trial, f"{fraction:.6f}")
            # an alert zone must be non-empty
            evolved = (end for end in chain.walk_ends(
                start_state, cfg.continue_prob, rng_evolve) if end)
            static_total = 0
            dynamic_total = 0
            for end in islice(evolved, cfg.dyn_zones):
                zone = frozenset(j for j in range(cfg.n) if end >> j & 1)
                static_total += _cost(cfg, static_enc, zone)
                dynamic_total += candidate(dynamic_enc, zone)
            rows.append(_row(cfg, trial, fraction, dynamic_total, static_total,
                             algorithm=f"{cfg.algorithm}-dynamic"))
        return rows
    return _run_trials(cfg, body)
