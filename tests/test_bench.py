"""Harness: probability generation, sampling laws, noise, runs, CSV."""

import io
import itertools
import math
import random
import statistics

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hvezones.bench import (ExperimentConfig, SigmoidModel, TrialResult,
                            add_noise, child_seed, gen_probabilities,
                            predict_marginals, run_depth_sweep, run_dynamics,
                            run_experiment, run_timing, sample_zone,
                            spot_check, write_csv)
from hvezones.dynamics import UniformChain
from hvezones.grid import Grid
from hvezones.optimizers import gray_optimizer
from hvezones.tokens import TokenSet, minimize

from oracles import sample_zone_by_sort


class FixedUniform:
    """Stub rng for the cyclic-noise arithmetic check."""

    def __init__(self, value):
        self.value = value

    def uniform(self, lo, hi):
        return self.value


def test_child_seed_stable_and_distinct():
    assert child_seed(1, "probs", 0) == child_seed(1, "probs", 0)
    assert child_seed(1, "probs", 0) != child_seed(1, "probs", 1)
    assert child_seed(1, "probs", 0) != child_seed(2, "probs", 0)
    assert child_seed(1, "zone", 0) != child_seed(1, "probs", 0)


def test_sigmoid_flat_and_inflection():
    flat = SigmoidModel(a=0.75, b=0.0)
    assert flat.value(0.1) == flat.value(0.9) == 0.5
    assert SigmoidModel(a=0.5, b=10.0).value(0.5) == 0.5
    model = SigmoidModel(a=0.75, b=10.0)
    assert 0.0 < model.value(0.0) < model.value(1.0) < 1.0


def test_sigmoid_saturates_where_exp_overflows():
    steep = SigmoidModel(a=0.75, b=1e308)
    assert steep.value(0.0) == steep.value(0.5) == 1e-12
    assert steep.value(0.75) == 0.5
    assert steep.value(1.0) == 1.0 - 1e-12


def test_probability_mean_matches_quadrature():
    """Empirical mean of generated probabilities against a numerical
    integral of the sigmoid over the unit interval."""
    model = SigmoidModel(a=0.75, b=10.0)
    steps = 200_000
    grid_integral = sum(model.value(i / steps) for i in range(steps + 1))
    grid_integral -= 0.5 * (model.value(0.0) + model.value(1.0))
    grid_integral /= steps
    draws = gen_probabilities(200_000, model, random.Random(31))
    assert statistics.mean(draws) == pytest.approx(grid_integral, abs=5e-3)


def test_sample_zone_full_and_degenerate():
    probs = [0.0, 1.0, 0.0, 0.0]
    assert sample_zone(probs, 1.0, random.Random(0)) == frozenset({0, 1, 2, 3})
    assert sample_zone(probs, 0.25, random.Random(0)) == frozenset({1})
    with pytest.raises(ValueError, match=r"^fraction 0.0 outside \(0, 1\]$"):
        sample_zone(probs, 0.0, random.Random(0))
    with pytest.raises(ValueError, match=r"^fraction 1.5 outside \(0, 1\]$"):
        sample_zone(probs, 1.5, random.Random(0))
    with pytest.raises(ValueError, match="^no cells to sample$"):
        sample_zone([], 0.5, random.Random(0))


def test_sample_zone_weighted_frequencies():
    """Single weighted draws follow the probability weights."""
    probs = [0.4, 0.3, 0.2, 0.1]
    counts = [0, 0, 0, 0]
    trials = 100_000
    for seed in range(trials):
        (cell,) = sample_zone(probs, 0.25, random.Random(seed))
        counts[cell] += 1
    for cell, weight in enumerate(probs):
        assert counts[cell] / trials == pytest.approx(weight, abs=0.01)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from([0.0, 0.3, 1.0]) | st.floats(0.0, 1.0),
                min_size=1, max_size=80),
       st.integers(0, 2**64), st.data())
def test_sample_zone_matches_the_sort_based_rule(probs, seed, data):
    """Zeros, repeated weights and subnormals included, from one cell up to
    every cell: the same zone as sorting every cell's key, and the rng left
    in the same state."""
    n = len(probs)
    fraction = data.draw(st.sampled_from([1 / n, 1.0]) | st.floats(1e-9, 1.0))
    fast, slow = random.Random(seed), random.Random(seed)
    assert sample_zone(probs, fraction, fast) == sample_zone_by_sort(probs, fraction, slow)
    assert fast.getstate() == slow.getstate()


class ScriptedRandom:
    """Stub rng whose random() returns the given draws in turn."""

    def __init__(self, draws):
        self.draws = iter(draws)

    def random(self):
        return next(self.draws)


def test_sample_zone_zero_draw_ranks_last():
    """rng.random() may return 0.0: that cell's key u^(1/w) is 0, below
    every other positive-weight cell's, so it joins the zone last."""
    probs = [0.5, 0.5, 0.5]
    draws = [0.0, 0.5, 0.9]
    for fraction, zone in ((1 / 3, {2}), (2 / 3, {1, 2}), (1.0, {0, 1, 2})):
        assert sample_zone(probs, fraction, ScriptedRandom(draws)) == frozenset(zone)
        assert sample_zone_by_sort(probs, fraction, ScriptedRandom(draws)) == frozenset(zone)


def test_sample_zone_uniform_flag():
    probs = [1.0, 0.0, 0.0, 0.0]
    seen = set()
    for seed in range(200):
        seen |= sample_zone(probs, 0.5, random.Random(seed), uniform=True)
    assert seen == {0, 1, 2, 3}  # zero-probability cells picked too


def test_add_noise_identity_and_cyclic_wrap():
    probs = [0.0, 0.3, 1.0]
    assert add_noise(probs, 0.0, random.Random(0)) == probs
    wrapped = add_noise([0.8], 0.5, FixedUniform(0.5))
    assert wrapped[0] == pytest.approx(0.3)
    with pytest.raises(ValueError):
        add_noise(probs, 1.0001, random.Random(0))


def test_full_noise_is_uniform_ks():
    rng = random.Random(11)
    probs = [0.8] * 10_000
    noisy = sorted(add_noise(probs, 1.0, rng))
    worst = max(abs((i + 1) / len(noisy) - value)
                for i, value in enumerate(noisy))
    assert worst < 1.63 / math.sqrt(len(noisy))  # KS critical value at 1%


def test_config_validation():
    ExperimentConfig().validate()
    bad = [
        ExperimentConfig(n=0),
        ExperimentConfig(algorithm="BOGUS"),
        ExperimentConfig(fractions=()),
        ExperimentConfig(fractions=(0.0,)),
        ExperimentConfig(fractions=(1.2,)),
        ExperimentConfig(noise=2.0),
        ExperimentConfig(trials=0),
        ExperimentConfig(a=1.5),
        ExperimentConfig(b=-1.0),
        ExperimentConfig(alpha=0.0),
        ExperimentConfig(continue_prob=1.0),
        ExperimentConfig(dyn_zones=0),
        ExperimentConfig(depth=0),
    ]
    for cfg in bad:
        with pytest.raises(ValueError):
            cfg.validate()
    with pytest.raises(ValueError, match=r"^fraction 0\.5 repeated$"):
        ExperimentConfig(fractions=(0.25, 0.5, 0.5)).validate()
    # distinct fractions whose CSV labels (`:g`) coincide
    with pytest.raises(ValueError, match=r"^fractions 0\.5 and 0\.5000001 share"
                                         r" the CSV label 0\.5$"):
        ExperimentConfig(fractions=(0.5, 0.25, 0.5000001)).validate()
    ExperimentConfig(fractions=(0.5, 0.500001)).validate()


def test_trial_result_invariants():
    with pytest.raises(ValueError):
        TrialResult("GO", 4, 0, 0.75, 10.0, 0.5, 0.0, 0, -1, 10, 0.0, 1.0, 0)
    with pytest.raises(ValueError):
        TrialResult("GO", 4, 0, 0.75, 10.0, 0.5, 0.0, 0, 10, 10, 101.0, 1.0, 0)


def test_run_experiment_deterministic_csv():
    cfg = ExperimentConfig(n=16, algorithm="GO", fractions=(0.25, 0.5),
                           trials=3, seed=5)
    out = []
    for _ in range(2):
        rows, failures = run_experiment(cfg)
        assert not failures
        buf = io.StringIO()
        write_csv(buf, rows)
        out.append(buf.getvalue())
    assert out[0] == out[1]
    header = out[0].splitlines()[0]
    assert header == ("algorithm,n,depth,a,b,fraction,noise,trial,"
                      "pairing_cost,baseline_cost,improvement_pct,wall_ms,seed")
    assert len(out[0].splitlines()) == 1 + 2 * 3


def test_run_experiment_row_contents():
    cfg = ExperimentConfig(n=16, algorithm="RANDOM", fractions=(0.5,),
                           trials=2, seed=9)
    rows, failures = run_experiment(cfg)
    assert not failures
    for row in rows:
        assert row.algorithm == "RANDOM"
        assert row.pairing_cost > 0 and row.baseline_cost > 0
        assert row.improvement_pct == pytest.approx(
            (row.baseline_cost - row.pairing_cost) / row.baseline_cost * 100)


def test_noise_only_affects_optimizer_input():
    """Zones are drawn from the true probabilities regardless of noise, so
    the baseline cost distribution is unchanged."""
    base = ExperimentConfig(n=32, algorithm="GO", fractions=(0.4,), trials=4,
                            seed=3, noise=0.0)
    noisy = ExperimentConfig(n=32, algorithm="GO", fractions=(0.4,), trials=4,
                             seed=3, noise=0.7)
    rows_a, _ = run_experiment(base)
    rows_b, _ = run_experiment(noisy)
    assert [r.baseline_cost for r in rows_a] == [r.baseline_cost for r in rows_b]
    assert [r.pairing_cost for r in rows_a] != [r.pairing_cost for r in rows_b]


def test_spot_check_detects_bad_cover():
    rng = random.Random(0)
    probs = [rng.random() for _ in range(16)]
    grid = Grid.regular(16, probs)
    enc = gray_optimizer(grid)
    cfg = ExperimentConfig(n=16, algorithm="GO", fractions=(0.25,), seed=1)
    zone = frozenset({0, 1, 2})
    good = minimize(zone, enc, allow_dummy_cover=False)
    spot_check(cfg, 0, grid, enc, zone, good)
    # drop one pattern: the zone is no longer covered
    bad = TokenSet(patterns=good.patterns[:-1] or ("0000",), cost=1, exact=True, bound=1)
    with pytest.raises(AssertionError):
        spot_check(cfg, 0, grid, enc, zone, bad)


def test_depth_sweep_depths_and_shared_zones():
    cfg = ExperimentConfig(n=16, algorithm="GO", fractions=(0.5,), trials=2,
                           seed=8)
    rows, failures = run_depth_sweep(cfg)
    assert not failures
    depths = sorted({r.depth for r in rows})
    assert depths == [1, 2, 3, 4]
    # paired design: the baseline cost for a given trial is depth-invariant
    for trial in (0, 1):
        baselines = {r.baseline_cost for r in rows if r.trial == trial}
        assert len(baselines) == 1


def test_depth_sweep_trend_and_full_depth_equality():
    """Mean gains rise with depth, stabilize between depths 3 and 4, and a
    full-depth pass reproduces the plain optimizer exactly."""
    cfg = ExperimentConfig(n=64, algorithm="GO", fractions=(0.4,), trials=30,
                           seed=42, verify=False)
    rows, failures = run_depth_sweep(cfg)
    assert not failures
    means = {}
    for row in rows:
        means.setdefault(row.depth, []).append(row.improvement_pct)
    means = {d: statistics.mean(v) for d, v in means.items()}
    assert means[1] < means[3]
    assert abs(means[3] - means[4]) < 3.0
    go_rows, _ = run_experiment(cfg)
    assert {r.trial: r.pairing_cost for r in go_rows} == \
        {r.trial: r.pairing_cost for r in rows if r.depth == 6}


def test_timing_rows():
    cfg = ExperimentConfig(n=64, algorithm="SGO", fractions=(0.3,), trials=2,
                           seed=4)
    rows, failures = run_timing(cfg)
    assert not failures
    assert len(rows) == 2
    assert all(r.wall_ms >= 0.0 for r in rows)
    assert all(r.pairing_cost == 0 for r in rows)
    # no zone is sampled, so no row claims one of the configured fractions
    assert all(r.fraction == 0 for r in rows)


def test_predict_marginals_tracks_membership():
    chain = UniformChain(12)
    start = 0b000000111111
    m = predict_marginals(12, start, chain, walks=20_000, continue_prob=0.6,
                          alpha=1.0, rng=random.Random(2))
    inside = statistics.mean(m[:6])
    outside = statistics.mean(m[6:])
    assert inside > 0.85
    assert outside < 0.15
    # short uniform evolution flips roughly continue/(1-continue) / n cells
    assert inside - (1 - outside) == pytest.approx(0.0, abs=0.05)
    with pytest.raises(ValueError):
        predict_marginals(13, start, chain, walks=20_000, continue_prob=0.6,
                          alpha=1.0, rng=random.Random(2))


def reference_walk_end(chain, start, continue_prob, rng, alpha=1.0):
    """One walk drawn call by call through `rng`, as the walks were first
    written: the oracle for the streamed walks."""
    state = start
    while rng.random() < continue_prob:
        if alpha < 1.0 and rng.random() >= alpha:
            state = rng.getrandbits(chain.n)
        else:
            state = chain.step(state, rng)
    return state


def test_predict_marginals_agree_with_walk_tallies():
    """At n=100 the exact marginals take two values, the observed zone's
    above the rest, and sit within 5 sigma of 20k walk-end tallies; the
    walk count and the rng play no part."""
    n, c, alpha, walks = 100, 0.6, 0.85, 20_000
    chain = UniformChain(n)
    start = random.Random(3).getrandbits(n)
    got = np.array(predict_marginals(n, start, chain, 100_000, c, alpha,
                                     random.Random(1)))
    assert got.tolist() == predict_marginals(n, start, chain, 1, c, alpha,
                                             random.Random(2))
    inside = np.array([start >> j & 1 for j in range(n)], dtype=bool)
    assert len(set(got[inside])) == len(set(got[~inside])) == 1
    assert got[inside][0] > got[~inside][0]

    stream_rng, calls_rng = random.Random(4), random.Random(4)
    ends = list(itertools.islice(chain.walk_ends(start, c, stream_rng, alpha), walks))
    assert ends[:200] == [reference_walk_end(chain, start, c, calls_rng, alpha)
                          for _ in range(200)]
    tally = np.array([[end >> j & 1 for j in range(n)] for end in ends]).mean(axis=0)
    sigma = np.sqrt(got * (1.0 - got) / walks)
    assert (np.abs(tally - got) < 5.0 * sigma).all()


def test_run_dynamics_structure():
    cfg = ExperimentConfig(n=12, algorithm="GO", fractions=(0.25,), trials=3,
                           seed=6, dyn_zones=10)
    rows, failures = run_dynamics(cfg)
    assert not failures
    assert len(rows) == 3
    for row in rows:
        assert row.algorithm == "GO-dynamic"
        assert row.pairing_cost > 0 and row.baseline_cost > 0
    again, _ = run_dynamics(cfg)
    assert [(r.pairing_cost, r.baseline_cost) for r in rows] == \
        [(r.pairing_cost, r.baseline_cost) for r in again]


@pytest.mark.parametrize("runner,calls_per_fraction", [
    (run_experiment, 2), (run_depth_sweep, 2), (run_dynamics, 6)])
def test_failing_trial_contributes_no_rows(monkeypatch, runner, calls_per_fraction):
    """A trial that fails after its first fraction leaves no rows behind;
    the other trials still report theirs."""
    from hvezones import bench

    real_minimize = bench.minimize
    calls = 0

    def failing_minimize(*args, **kwargs):
        nonlocal calls
        calls += 1
        if calls == calls_per_fraction + 1:  # trial 0, second fraction
            raise RuntimeError("injected failure")
        return real_minimize(*args, **kwargs)

    monkeypatch.setattr(bench, "minimize", failing_minimize)
    cfg = ExperimentConfig(n=16, fractions=(0.25, 0.5), trials=2, seed=3, dyn_zones=3)
    rows, failures = runner(cfg)
    assert failures == ["trial 0: injected failure"]
    assert rows and {row.trial for row in rows} == {1}
