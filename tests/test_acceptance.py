"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report; tolerances and budgets are pinned in the assertions.  Statistics
are frozen under MASTER_SEED, so every figure asserted here reproduces
exactly on re-runs.
"""

import itertools
import math
import random
import statistics
import time

import numpy as np
import pytest

from hvezones.bench import (ExperimentConfig, run_dynamics, run_experiment)
from hvezones.dynamics import (build_q_independent, damp, evolve,
                               stationary_exact, stationary_monte_carlo)
from hvezones.gray import ring_values
from hvezones.grid import Grid, GridEncoding
from hvezones.hve import MessageSpace, encrypt, gen_token, query, setup
from hvezones.optimizers import OpCounter, gray_optimizer, msgo, sgo
from hvezones.tokens import minimize

from oracles import brute_force_min_cost, pattern_codewords, stage_objective

MASTER_SEED = 42

_band_runtime = {}


def report(criterion, detail):
    print(f"criterion {criterion}: PASS - {detail}")


# --- 1. HVE correctness, exhaustive to width 8 ---

def test_01_hve_exhaustive_match_semantics():
    started = time.perf_counter()
    queries = 0
    for width in range(1, 9):
        pk, sk = setup(width, seed=width)
        grp = pk.group
        messages = MessageSpace(grp, [3], seed=width)
        rng = random.Random(width)
        ciphers = []
        for value in range(1 << width):
            attribute = format(value, f"0{width}b")
            ciphers.append((attribute,
                            encrypt(pk, attribute, messages.element(3), rng)))
        for digits in itertools.product("01*", repeat=width):
            pattern = "".join(digits)
            token = gen_token(sk, pattern, rng)
            expected_pairings = 2 * sum(1 for ch in pattern if ch != "*") + 1
            for attribute, cipher in ciphers:
                result = query(grp, cipher, token, messages)
                queries += 1
                should_match = all(p == "*" or p == a
                                   for a, p in zip(attribute, pattern))
                assert result.matched == should_match, (attribute, pattern)
                if should_match:
                    assert result.message == 3
                assert result.pairings == expected_pairings
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    report(1, f"{queries} queries over widths 1..8 in {elapsed:.1f}s")


# --- 2. stationary-distribution reproduction ---

def test_02_stationary_reproduction():
    started = time.perf_counter()
    grid = Grid.regular(2, [0.2, 0.8])
    q2 = build_q_independent(grid)
    s_q2 = stationary_exact(q2)
    assert np.abs(s_q2 - [0.4310, 0.0862, 0.3448, 0.1379]).max() <= 5e-4

    o2 = damp(q2, 0.85)
    o2_expected = np.array([
        [0.0375, 0.2075, 0.7175, 0.0375],
        [0.2075, 0.0375, 0.0375, 0.7175],
        [0.7175, 0.0375, 0.0375, 0.2075],
        [0.8875, 0.0375, 0.0375, 0.0375]])
    assert np.abs(o2.to_dense() - o2_expected).max() <= 1e-4

    s_o2 = stationary_exact(o2)
    target = np.array([0.4111, 0.1074, 0.3171, 0.1644])
    assert np.abs(s_o2 - target).max() <= 5e-4

    settled = evolve(o2, np.full(4, 0.25), 50)
    assert np.abs(settled - target).max() <= 1e-4
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    report(2, f"Q2/O2 vectors and t*O2^50 reproduced in {elapsed:.2f}s")


# --- 3. Monte Carlo agreement ---

def test_03_monte_carlo_agreement():
    started = time.perf_counter()
    o2 = damp(build_q_independent(Grid.regular(2, [0.2, 0.8])), 0.85)
    exact = stationary_exact(o2)
    estimate = stationary_monte_carlo(o2, walks=200_000, continue_prob=0.6,
                                      rng_seed=MASTER_SEED)
    worst = np.abs(estimate - exact).max()
    assert worst <= 0.01
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    report(3, f"200k walks, worst coordinate error {worst:.4f} in {elapsed:.1f}s")


# --- 4. GO complexity formula ---

def test_04_go_operation_counts():
    rng = random.Random(MASTER_SEED)
    counts = {}
    for n in (4, 8, 16, 32):
        probs = [rng.random() for _ in range(n)]
        counter = OpCounter()
        gray_optimizer(Grid.regular(n, probs), counter=counter)
        expected = round(n ** math.log2(3) - 2 * n + 1)
        assert counter.multiplications == expected, n
        counts[n] = counter.multiplications
    report(4, f"multiplication counts {counts} match n^log2(3) - 2n + 1")


# --- 5. GO stage optimality oracle ---

def test_05_go_stage_optimality():
    started = time.perf_counter()
    rng = random.Random(MASTER_SEED)
    for _ in range(100):
        probs = [rng.random() for _ in range(8)]
        grid = Grid.regular(8, probs)
        enc = gray_optimizer(grid)
        seed = min(range(8), key=lambda c: (-probs[c], c))
        assert enc.value(seed) == 0
        placed = {0: probs[seed]}
        used = {seed}
        for distance in (1, 2, 3):
            ring = ring_values(0, 3, distance)
            pool = [c for c in range(8) if c not in used]
            best = -1.0
            for chosen in itertools.permutations(pool, len(ring)):
                trial = dict(placed)
                trial.update({node: probs[c] for node, c in zip(ring, chosen)})
                best = max(best, stage_objective(trial, 3, 0, distance))
            for node in ring:
                cell = next(c for c in range(8) if enc.value(c) == node)
                placed[node] = probs[cell]
                used.add(cell)
            achieved = stage_objective(placed, 3, 0, distance)
            assert achieved >= best - 1e-9
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    report(5, f"100 random vectors, every stage optimal, {elapsed:.1f}s")


# --- 6. rank-matching optimality oracle ---

def test_06_rank_matching_optimality():
    rng = random.Random(MASTER_SEED)
    for _ in range(200):
        size = rng.randrange(1, 9)
        h1 = sorted((rng.random() for _ in range(size)), reverse=True)
        h2 = sorted((rng.random() for _ in range(size)), reverse=True)
        sorted_value = sum(a * b for a, b in zip(h1, h2))
        best = max(sum(a * b for a, b in zip(h1, perm))
                   for perm in itertools.permutations(h2))
        assert sorted_value >= best - 1e-12
    report(6, "200 weight pairs: sorted pairing maximal over all permutations")


# --- 7. token minimization oracle ---

def test_07_token_minimization_oracle():
    started = time.perf_counter()
    rng = random.Random(MASTER_SEED)
    for trial in range(200):
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
    elapsed = time.perf_counter() - started
    report(7, f"200 zones at k=4 match the brute-force optimum, {elapsed:.1f}s")


# --- 8. improvement bands ---

def test_08a_go_band():
    started = time.perf_counter()
    cfg = ExperimentConfig(n=100, algorithm="GO", a=0.75, b=10.0,
                           fractions=(0.1, 0.2, 0.3, 0.4, 0.5, 0.6),
                           trials=20, seed=MASTER_SEED)
    rows, failures = run_experiment(cfg)
    assert not failures, failures
    by_fraction = {}
    for row in rows:
        by_fraction.setdefault(row.fraction, []).append(row.improvement_pct)
    means = {f: statistics.mean(v) for f, v in sorted(by_fraction.items())}
    for fraction, mean in means.items():
        assert 20.0 < mean < 55.0, (fraction, mean)
    assert max(means.values()) >= 30.0
    _band_runtime["GO"] = time.perf_counter() - started
    report("8a", "GO n=100 means " +
           ", ".join(f"{f:g}:{m:.1f}%" for f, m in means.items()))


def test_08b_msgo_band():
    started = time.perf_counter()
    cfg = ExperimentConfig(n=1024, algorithm="MSGO", depth=4, a=0.75, b=10.0,
                           fractions=(0.6,), trials=20, seed=MASTER_SEED)
    rows, failures = run_experiment(cfg)
    assert not failures, failures
    mean = statistics.mean(r.improvement_pct for r in rows)
    _band_runtime["MSGO"] = time.perf_counter() - started
    assert 35.0 < mean < 60.0, mean
    report("8b", f"MSGO n=1024 depth 4, largest fraction mean {mean:.1f}%")


def test_08c_sgo_band():
    started = time.perf_counter()
    cfg = ExperimentConfig(n=10000, algorithm="SGO", a=0.75, b=10.0,
                           fractions=(0.09,), trials=20, seed=MASTER_SEED)
    rows, failures = run_experiment(cfg)
    assert not failures, failures
    mean = statistics.mean(r.improvement_pct for r in rows)
    _band_runtime["SGO"] = time.perf_counter() - started
    assert 18.0 < mean < 35.0, mean
    report("8c", f"SGO n=10000 at 9% alert fraction: mean {mean:.1f}%")


def test_08d_band_suite_runtime():
    if set(_band_runtime) != {"GO", "MSGO", "SGO"}:
        pytest.skip("needs the three band tests to have run in this session")
    total = sum(_band_runtime.values())
    assert total < 1800.0
    report("8d", f"band suite completed in {total:.0f}s (< 30 min)")


# --- 9. noise degradation shape ---

def test_09_noise_degradation():
    levels = (0.0, 0.1, 0.25, 0.5, 1.0)
    means = {}
    ses = {}
    for u in levels:
        cfg = ExperimentConfig(n=64, algorithm="GO", a=0.75, b=10.0,
                               fractions=(0.4,), noise=u, trials=240,
                               seed=MASTER_SEED, verify=False)
        rows, failures = run_experiment(cfg)
        assert not failures, failures
        values = [r.improvement_pct for r in rows]
        means[u] = statistics.mean(values)
        ses[u] = statistics.stdev(values) / math.sqrt(len(values))
    assert abs(means[1.0]) <= 3.0, means[1.0]
    for lo, hi in zip(levels, levels[1:]):
        slack = 3.0 * math.hypot(ses[lo], ses[hi])
        assert means[hi] <= means[lo] + slack, (lo, hi, means)
    report(9, "improvement vs noise " +
           ", ".join(f"{u:g}:{means[u]:.1f}%" for u in levels))


# --- 10. dynamic versus static ---

def test_10_dynamic_beats_static():
    cfg = ExperimentConfig(n=100, algorithm="GO", a=0.75, b=10.0,
                           fractions=(0.1, 0.2, 0.3, 0.4), trials=20,
                           seed=MASTER_SEED, dyn_zones=50,
                           alpha=0.85, continue_prob=0.6)
    rows, failures = run_dynamics(cfg)
    assert not failures, failures
    per_trial = {}
    for row in rows:
        static, dynamic = per_trial.get(row.trial, (0, 0))
        per_trial[row.trial] = (static + row.baseline_cost,
                                dynamic + row.pairing_cost)
    wins = sum(1 for static, dynamic in per_trial.values() if dynamic < static)
    improvements = [(static - dynamic) / static * 100.0
                    for static, dynamic in per_trial.values()]
    mean = statistics.mean(improvements)
    assert wins >= 16, wins                  # strictly below on >= 80% of 20
    assert mean >= 15.0, mean
    report(10, f"dynamic wins {wins}/20 trials, mean improvement {mean:.1f}%")


# --- 11. timing budgets ---

def test_11_timing_budgets():
    rng = random.Random(MASTER_SEED)
    budgets = []

    probs = [rng.random() for _ in range(600)]
    started = time.perf_counter()
    gray_optimizer(Grid.regular(600, probs))
    go_s = time.perf_counter() - started
    assert go_s < 1.0
    budgets.append(f"GO n=600 {go_s:.1f}s")

    probs = [rng.random() for _ in range(50625)]
    started = time.perf_counter()
    sgo(Grid.regular(50625, probs))
    sgo_s = time.perf_counter() - started
    assert sgo_s < 1.0
    budgets.append(f"SGO n=50625 {sgo_s:.1f}s")

    probs = [rng.random() for _ in range(4000)]
    started = time.perf_counter()
    msgo(Grid.regular(4000, probs), depth=4)
    msgo_s = time.perf_counter() - started
    assert msgo_s < 1.0
    budgets.append(f"MSGO n=4000 depth 4 {msgo_s:.1f}s")

    report(11, "; ".join(budgets))
