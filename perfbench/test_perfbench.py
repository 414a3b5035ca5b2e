"""Checks on the benchmark itself.

    python3 -m pytest perfbench -q

The pairing and certification numbers must be exact functions of the seed:
the same rounds give the same numbers, traced or not.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads
from tracing import Tracer

ROUNDS = 1


def exact_run(name: str, seed: int, tracer=None):
    wl = workloads.WORKLOADS[name]()
    wl.setup(seed)
    phase = run.Phase()
    run.measure(wl, seed, phase, rounds=ROUNDS, tracer=tracer)
    assert phase.failed == 0, phase.failures
    return phase.counts.exact_metrics()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_exact_metrics_repeat_for_a_seed(name):
    first = exact_run(name, 11)
    assert exact_run(name, 11) == first
    assert exact_run(name, 11, tracer=Tracer()) == first
    other = exact_run(name, 12)
    assert other["zone_pairing_cost"] > 0
    assert other["baseline_pairing_cost"] > 0
    assert other["server_pairings_per_user"] > 0
    assert 0.0 <= other["certified_frac"] <= 1.0


def test_json_metrics_match_benchmark_json():
    declared = json.loads((Path(__file__).resolve().parent.parent
                           / "BENCHMARK.json").read_text())
    wl = workloads.WORKLOADS["server-match"]()
    wl.setup(3)
    untraced, traced, tracer = run.Phase(), run.Phase(), Tracer()
    run.measure(wl, 3, untraced, rounds=1)
    run.measure(wl, 3, traced, rounds=1, tracer=tracer)
    e2e = {k: u for k, (_, u) in run.end_to_end(untraced, [0.1]).items()
           if k not in run.UNREPORTED}
    layers = {k: u for k, (_, u) in run.per_layer(tracer, traced, untraced).items()}
    assert e2e == {m["name"]: m["unit"] for m in declared["end_to_end"]}
    assert layers == {m["name"]: m["unit"] for m in declared["per_layer"]}
    assert tracer.counts["group.pair_calls"] == traced.counts.server_pairings


def test_tail_keeps_ten_rounds_beyond():
    times = [float(t) for t in range(1, 41)]
    assert run.tail(times) == (30.0, 75.0, 10)
    assert run.tail(times[:5]) == (5.0, 100.0, 0)


def test_refuses_to_run_without_package_sources(tmp_path):
    here = Path(__file__).resolve().parent
    shutil.copytree(here, tmp_path / here.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(here.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{here.name}/run.py", "--workload", "server-match",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
