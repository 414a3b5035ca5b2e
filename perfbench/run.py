"""Alert-round benchmark for hvezones.

    python3 perfbench/run.py --workload server-match --seed 1 --seconds 20 --trace 0

Runs alert rounds of one workload in a closed loop: one process, one
client, no threads.  It sets the workload up SETUP_REPEATS times, runs the
warm-up rounds, then starts rounds until the next one would overrun
`--seconds`, setting the workload up again after each one; `setup_s` is
the median of all those set-ups.  Every round is verified.  Output is the
run context, each metric with its unit, and, as the last line, one JSON
object with the end-to-end metrics (`--trace 0`) or the per-layer metrics
(`--trace 1`).

With `--trace 1` the first half of the time runs untraced, then the same
rounds are replayed with every layer boundary wrapped, which gives the
per-layer numbers and the tracing overhead; spans are written to
.perfbench-out/ at the end.

Exit status 0 when every check passed, 1 when any failed (after printing
the metrics) or the package sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "hvezones" / "__init__.py").is_file():
    sys.exit(f"perfbench: no package sources under {SRC}; run from a full checkout")
sys.path.insert(0, str(SRC))

import numpy  # noqa: E402
import scipy  # noqa: E402

import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

SETUP_REPEATS = 5
TAIL_BEYOND = 10
OVERRUN = 1.5
TRACE_SPLIT = 0.5
TRACE_DIR = ROOT / ".perfbench-out"
UNREPORTED = ("certified_frac", "failed_frac")  # printed, but not in the JSON line


@dataclass
class Phase:
    """Measured rounds of one phase of a run."""

    times: List[float] = field(default_factory=list)
    counts: workloads.Counts = field(default_factory=workloads.Counts)
    attempted: int = 0
    failed: int = 0
    failures: Counter = field(default_factory=Counter)


def play(wl, seed: int, i: int, phase: Phase, tracer: Optional[Tracer] = None,
         measured: bool = True) -> None:
    """Generate round i's inputs, run it (timed), then verify it."""
    inp = wl.inputs(seed, i)
    phase.attempted += 1
    pairs_before = tracer.counts["group.pair_calls"] if tracer else 0
    try:
        started = perf_counter()
        if tracer is None:
            out = wl.round(inp)
        else:
            out = tracer.run(i, wl.round, inp, tracer.counter)
        elapsed = perf_counter() - started
        failures = workloads.check(out)
    except Exception as exc:  # noqa: BLE001 - a crashing round is a failed round
        phase.failed += 1
        phase.failures[f"round raised {exc!r}"] += 1
        return
    if tracer is not None:
        pairings = sum(sum(p) for s in out.served for _, p in s.records)
        if tracer.counts["group.pair_calls"] - pairs_before != pairings:
            failures.append("group.pair calls differ from the pairings queries report")
    if failures:
        phase.failed += 1
        phase.failures.update(set(failures))
    if measured:
        phase.times.append(elapsed)
        phase.counts.add(out)


def measure(wl, seed: int, phase: Phase, seconds: Optional[float] = None,
            rounds: Optional[int] = None, tracer: Optional[Tracer] = None,
            setup_times: Optional[List[float]] = None) -> None:
    """Run rounds 0, 1, ... either `rounds` of them or, when that is None,
    as many as fit in `seconds` of wall time.  A timed run goes on past
    `seconds` (up to OVERRUN times it) until it has more than TAIL_BEYOND
    rounds, so that `round_tail_s` always has a percentile to report.

    With `setup_times`, set the workload up again after each round and time
    it, so that set-up is sampled over the same stretch of time as the
    rounds; set-up is deterministic, so the rounds see the same state."""
    start = perf_counter()
    walls: List[float] = []
    i = 0
    while True:
        elapsed = perf_counter() - start
        if rounds is not None:
            if i >= rounds:
                break
        elif (walls and elapsed + statistics.median(walls) > seconds
              and (len(walls) > TAIL_BEYOND or elapsed > OVERRUN * seconds)):
            break
        began = perf_counter()
        play(wl, seed, i, phase, tracer)
        if setup_times is not None:
            set_up(wl, seed, setup_times)
        walls.append(perf_counter() - began)
        i += 1


def set_up(wl, seed: int, times: List[float]) -> None:
    started = perf_counter()
    wl.setup(seed)
    times.append(perf_counter() - started)


def tail(times: List[float]):
    """Highest percentile with at least TAIL_BEYOND rounds beyond it:
    (value, percentile, rounds beyond).  Short runs fall back to the
    maximum, with none beyond."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    rank = n - TAIL_BEYOND
    return ordered[rank - 1], 100.0 * rank / n, TAIL_BEYOND


def end_to_end(phase: Phase, setup_times: List[float]) -> Dict[str, tuple]:
    value, _, _ = tail(phase.times)
    exact = phase.counts.exact_metrics()
    return {
        "rounds_per_s": (len(phase.times) / sum(phase.times), "1/s"),
        "round_p50_s": (statistics.median(phase.times), "s"),
        "round_tail_s": (value, "s"),
        "zone_pairing_cost": (exact["zone_pairing_cost"], "pairings"),
        "baseline_pairing_cost": (exact["baseline_pairing_cost"], "pairings"),
        "server_pairings_per_user": (exact["server_pairings_per_user"], "pairings"),
        "certified_frac": (exact["certified_frac"], "ratio"),
        "failed_frac": (phase.failed / phase.attempted, "ratio"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(tracer: Tracer, traced: Phase, untraced: Phase) -> Dict[str, tuple]:
    rounds = len(traced.times)
    spans = tracer.totals(lambda r: r >= 0)
    setup_spans = tracer.totals(lambda r: r < 0)
    counts, c = tracer.counts, traced.counts

    def span(name, key="s"):
        return spans.get(name, {}).get(key, 0) / rounds

    def count(name):
        return counts.get(name, 0) / rounds

    query_s = spans.get("hve.query", {}).get("s", 0.0)
    untraced_rate = len(untraced.times) / sum(untraced.times)
    traced_rate = rounds / sum(traced.times)
    return {
        "hve.query_s": (span("hve.query"), "s"),
        "hve.query_calls": (span("hve.query", "calls"), "count"),
        "hve.query_pairings": (c.server_pairings / rounds, "count"),
        "hve.match_ratio": (c.matches / c.queries, "ratio"),
        "hve.early_stop_saved_pairings": (c.saved_pairings / rounds, "count"),
        "group.pair_calls": (count("group.pair_calls"), "count"),
        "group.pairings_per_s": (c.server_pairings / query_s if query_s else 0.0, "1/s"),
        "hve.encrypt_s": (span("hve.encrypt"), "s"),
        "hve.encrypt_calls": (span("hve.encrypt", "calls"), "count"),
        "hve.gen_token_s": (span("hve.gen_token"), "s"),
        "hve.gen_token_calls": (span("hve.gen_token", "calls"), "count"),
        "wire.dump_s": (span("wire.dump"), "s"),
        "wire.load_s": (span("wire.load"), "s"),
        "wire.bytes": (count("wire.bytes"), "bytes"),
        "wire.blobs": (count("wire.blobs"), "count"),
        "tokens.minimize_s": (span("tokens.minimize"), "s"),
        "tokens.minimize_self_s": (span("tokens.minimize", "self_s"), "s"),
        "tokens.prime_implicants_s": (span("tokens.prime_implicants"), "s"),
        "tokens.primes": (count("tokens.primes"), "count"),
        "tokens.exact_cover_s": (span("tokens.exact_cover"), "s"),
        "tokens.exact_cover_calls": (span("tokens.exact_cover", "calls"), "count"),
        "tokens.greedy_cover_s": (span("tokens.greedy_cover"), "s"),
        "tokens.greedy_cover_calls": (span("tokens.greedy_cover", "calls"), "count"),
        "tokens.patterns": (c.patterns / rounds, "count"),
        "tokens.nonstar_bits": (c.nonstar_bits / rounds, "count"),
        "tokens.certified_frac": (c.certified / c.covers, "ratio"),
        "optimizers.go_s": (span("optimizers.go"), "s"),
        "optimizers.msgo_s": (span("optimizers.msgo"), "s"),
        "optimizers.sgo_s": (span("optimizers.sgo"), "s"),
        "optimizers.hge_s": (span("optimizers.hge"), "s"),
        "optimizers.setup_s": (sum(agg["s"] for name, agg in setup_spans.items()
                                   if name.startswith("optimizers.")), "s"),
        "optimizers.multiplications": (tracer.counter.multiplications / rounds, "count"),
        "optimizers.improvement_pct": (c.improvement_pct / c.zones, "%"),
        "gray.ring_values_calls": (count("gray.ring_values_calls"), "count"),
        "gray.cycle_node_values_calls": (count("gray.cycle_node_values_calls"), "count"),
        "bench.predict_marginals_s": (span("bench.predict_marginals"), "s"),
        "dynamics.walk_end_calls": (count("dynamics.walk_end_calls"), "count"),
        "dynamics.step_calls": (count("dynamics.step_calls"), "count"),
        "round.self_s": (span("round", "self_s"), "s"),
        "trace.untraced_rounds_per_s": (untraced_rate, "1/s"),
        "trace.traced_rounds_per_s": (traced_rate, "1/s"),
        "trace.overhead_pct": ((untraced_rate / traced_rate - 1.0) * 100.0, "%"),
        "trace.spans": (len(tracer.span_start) / rounds, "count"),
    }


def git_commit() -> str:
    """HEAD of the checkout's git repository, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    wl = workloads.WORKLOADS[args.workload]()
    setup_times: List[float] = []
    for _ in range(SETUP_REPEATS):
        set_up(wl, args.seed, setup_times)
    warm = Phase()
    for j in range(wl.warmup):
        play(wl, args.seed, -1 - j, warm, measured=False)

    phase = Phase()
    traced = tracer = None
    if args.trace:
        measure(wl, args.seed, phase, seconds=args.seconds * TRACE_SPLIT,
                setup_times=setup_times)
        tracer = Tracer()
        tracer.run(-1, wl.setup, args.seed)
        tracer.counts.clear()  # per-layer counts cover measured rounds only
        traced = Phase()
        measure(wl, args.seed, traced, rounds=len(phase.times), tracer=tracer)
    else:
        measure(wl, args.seed, phase, seconds=args.seconds, setup_times=setup_times)

    phases = [p for p in (warm, phase, traced) if p is not None]
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    failures: Counter = Counter()
    for p in phases:
        failures.update(p.failures)
    for message, times in sorted(failures.items()):
        print(f"FAILED {message} (x{times})")
    if not phase.times:
        return 1  # every round raised: there is nothing to report
    _, pct, beyond = tail(phase.times)
    context = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)), "git_commit": git_commit(),
        "rounds": len(phase.times), "warmup_rounds": wl.warmup,
        "setup_repeats": SETUP_REPEATS, "round_tail_percentile": round(pct, 3),
        "round_tail_beyond": beyond,
    }
    print("context " + json.dumps(context))
    shown = end_to_end(phase, setup_times)
    # The JSON line carries the metrics BENCHMARK.json declares.  failed_frac
    # travels there as failed/attempted, and certified_frac, which is 0 by
    # design on wide-grid, travels as the per-layer tokens.certified_frac.
    reported = {k: v for k, v in shown.items() if k not in UNREPORTED}
    if tracer is not None:
        reported = per_layer(tracer, traced, phase)
        shown.update(reported)
        path = TRACE_DIR / f"spans-{args.workload}-seed{args.seed}.tsv.gz"
        tracer.write(path)
        print(f"spans {path.relative_to(ROOT)}")
    for name, (value, unit) in shown.items():
        print(f"metric {name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in reported.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
