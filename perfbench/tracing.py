"""Span tracing around the package's layer boundaries, installed from outside.

`Tracer.run` replaces public functions on their modules (and three
methods on their classes) with wrappers for one call and then restores
them.  Span wrappers record name, start, end, parent span and round id in
flat arrays; count wrappers only bump a counter, for calls too frequent to
span.  Spans stay in memory until `write` at the end of the run.
"""

from __future__ import annotations

import gzip
from array import array
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import Dict

from hvezones import bench, hve, optimizers, tokens, wire
from hvezones.dynamics import UniformChain
from hvezones.group import BilinearGroup

# (owner, attribute, span name); wire dumps also tally bytes and blobs
SPANS = (
    (hve, "query", "hve.query"),
    (hve, "encrypt", "hve.encrypt"),
    (hve, "gen_token", "hve.gen_token"),
    (wire, "dump_token", "wire.dump"),
    (wire, "dump_ciphertext", "wire.dump"),
    (wire, "load_token", "wire.load"),
    (wire, "load_ciphertext", "wire.load"),
    (tokens, "minimize", "tokens.minimize"),
    (tokens, "prime_implicants", "tokens.prime_implicants"),
    (tokens, "exact_cover", "tokens.exact_cover"),
    (tokens, "greedy_cover", "tokens.greedy_cover"),
    (optimizers, "gray_optimizer", "optimizers.go"),
    (optimizers, "msgo", "optimizers.msgo"),
    (optimizers, "sgo", "optimizers.sgo"),
    (optimizers, "hge_baseline", "optimizers.hge"),
    (bench, "predict_marginals", "bench.predict_marginals"),
)
# (owner, attribute, counter name); `optimizers` binds the two gray helpers
COUNTS = (
    (BilinearGroup, "pair", "group.pair_calls"),
    (optimizers, "ring_values", "gray.ring_values_calls"),
    (optimizers, "cycle_node_values", "gray.cycle_node_values_calls"),
    (UniformChain, "walk_end", "dynamics.walk_end_calls"),
    (UniformChain, "step", "dynamics.step_calls"),
)


class Tracer:
    def __init__(self):
        self.names = []
        self.name_ids: Dict[str, int] = {}
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self.span_round = array("q")
        self.counts: Dict[str, int] = defaultdict(int)
        self.stack = []
        self.round_id = -1
        self.counter = optimizers.OpCounter()

    def _name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def _span(self, name: str, fn):
        nid = self._name_id(name)
        stack, counts = self.stack, self.counts
        names, parents, rounds = self.span_name, self.span_parent, self.span_round
        starts, ends = self.span_start, self.span_end
        is_dump = name == "wire.dump"
        is_primes = name == "tokens.prime_implicants"

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            rounds.append(self.round_id)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if is_dump:
                counts["wire.bytes"] += len(result)
                counts["wire.blobs"] += 1
            elif is_primes:
                counts["tokens.primes"] += len(result)
            return result
        return traced

    def _count(self, name: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    def run(self, round_id: int, fn, *args, **kwargs):
        """Call fn under a root "round" span, with every traced boundary
        wrapped for the length of the call."""
        saved = []
        for table, wrap in ((SPANS, self._span), (COUNTS, self._count)):
            for owner, attr, name in table:
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, wrap(name, original))
        self.round_id = round_id
        try:
            return self._span("round", fn)(*args, **kwargs)
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # --- aggregation ---

    def totals(self, round_filter) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, inclusive and self seconds over the rounds
        that round_filter accepts."""
        child = array("d", bytes(8 * len(self.span_start)))
        for idx in range(len(self.span_start) - 1, -1, -1):
            parent = self.span_parent[idx]
            if parent >= 0:
                child[parent] += self.span_end[idx] - self.span_start[idx]
        out: Dict[str, Dict[str, float]] = {
            name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in self.names}
        for idx in range(len(self.span_start)):
            if not round_filter(self.span_round[idx]):
                continue
            agg = out[self.names[self.span_name[idx]]]
            dur = self.span_end[idx] - self.span_start[idx]
            agg["calls"] += 1
            agg["s"] += dur
            agg["self_s"] += dur - child[idx]
        return out

    def write(self, path: Path) -> None:
        """Spans as gzipped TSV: index, name, start, end, parent, round."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fp:
            fp.write("span\tname\tstart_s\tend_s\tparent\tround\n")
            for idx in range(len(self.span_start)):
                fp.write(f"{idx}\t{self.names[self.span_name[idx]]}\t"
                         f"{self.span_start[idx]:.9f}\t{self.span_end[idx]:.9f}\t"
                         f"{self.span_parent[idx]}\t{self.span_round[idx]}\n")
