"""repro.live acceptance — warm serving under streaming edge mutations.

The claim of the :mod:`repro.live` tier (versioned row-sharing overlays +
scoped cache invalidation): a serving stack that *mutates in place*
keeps its result cache warm across graph-version flips, because a
cached family whose influence watermark clears the mutation's barrier
weight provably still holds byte-identical answers.  The strawman —
what every mutation costs without the tier — rebuilds the graph from
scratch and boots a cold cache on each batch.

The workload models a live deployment:

* a graph whose community structure lives in the high-weight **head**
  (planted dense blocks) while a churning low-weight **tail** absorbs
  the edge stream — mutations land where influential communities
  aren't, which is exactly the case scoped invalidation exists for;
* one ``delta_stream`` mutation batch per tick, scoped to the tail;
* per tick, a zipf-distributed working set of query families (the
  server's coalescing layer already folds same-tick duplicates, so
  each family runs once per tick).

Gates:

* **(a) byte identity** — every answer served by the live path (warm
  cache hits included) equals a scratch rebuild of the mutated model,
  field for field, every tick;
* **(b) warm hit rate** — the live path's cache hit rate is at least
  **10x** the full-rebuild strawman's (whose per-mutation cold cache
  pins it at ~zero);
* **(c) plumbing** — every tick applied exactly one mutation, scoped
  invalidation preserved families, background compaction ran at least
  once, and every generation of the stream, and the one a final
  ``compact`` publishes, has exact core numbers (a fresh
  ``core_decomposition``) and an exact core stop table (a fresh
  ``core_stops``).

Run standalone (asserts the gates and writes a JSON report for CI)::

    python benchmarks/bench_live_mutations.py [--output report.json]
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from bisect import bisect_right
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.api.spec import QuerySpec
from repro.graph.builder import graph_from_arrays
from repro.graph.core_decomposition import core_decomposition, core_stops
from repro.graph.delta import apply_ops_to_model
from repro.service.cache import ResultCache
from repro.service.engine import QueryEngine
from repro.service.metrics import ServiceMetrics
from repro.service.registry import GraphRegistry
from repro.workloads.generators import delta_stream

SEED = 17
GRAPH = "live"

N = 12_000
#: Head: dense blocks among the highest-weight labels — the communities
#: every top-k answer is made of.
NUM_BLOCKS = 16
BLOCK = 32
P_IN = 0.75
#: Tail: the lowest-weight labels; the whole mutation stream lands here.
TAIL = 1_536

#: Family universe (cache keys): gamma x delta at one k.
GAMMAS = (8, 9, 10, 11, 12, 13, 14, 15)
DELTAS = (1.5, 2.0, 2.5)
K = 4

TICKS = 20
OPS_PER_TICK = 6
FAMILIES_PER_TICK = 6
ZIPF_S = 1.2

HIT_RATE_RATIO_FLOOR = 10.0
HIT_RATE_FLOOR = 0.6


# ----------------------------------------------------------------------
# Workload
# ----------------------------------------------------------------------


def build_model(rng: random.Random) -> Tuple[List[Tuple[int, int]], List[float]]:
    """Edge list + label-descending weights: head blocks, sparse tail."""
    edges = set()
    for block in range(NUM_BLOCKS):
        base = block * BLOCK
        for i in range(BLOCK):
            for j in range(i + 1, BLOCK):
                if rng.random() < P_IN:
                    edges.add((base + i, base + j))
    # Sparse background so the graph is not just islands (far too thin
    # to grow a gamma-core anywhere near the queried gammas).
    for _ in range(N):
        u, v = rng.randrange(N), rng.randrange(N)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    # Extra churn material inside the tail: deletes need edges to eat.
    offset = N - TAIL
    for _ in range(2 * TAIL):
        u = offset + rng.randrange(TAIL)
        v = offset + rng.randrange(TAIL)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    weights = [float(N - i) for i in range(N)]
    return sorted(edges), weights


def tail_mutation_stream(rng: random.Random, edges, weights):
    """An infinite ``delta_stream`` whose ops touch only tail labels.

    The stream runs over the tail's sub-model (labels remapped to
    ``0..TAIL``) and each emitted op is shifted back to graph labels —
    every barrier stays far below the head communities' influence.
    """
    offset = N - TAIL
    sub_edges = [
        (u - offset, v - offset)
        for (u, v) in edges
        if u >= offset and v >= offset
    ]
    sub_weights = weights[offset:]
    stream = delta_stream(
        rng, TAIL, sub_edges, sub_weights, ops_per_batch=OPS_PER_TICK
    )
    for batch in stream:
        yield [
            ("reweight", op[1] + offset, op[2])
            if op[0] == "reweight"
            else (op[0], op[1] + offset, op[2] + offset)
            for op in batch.ops
        ]


def family_universe() -> List[QuerySpec]:
    return [
        QuerySpec(graph=GRAPH, gamma=gamma, k=K, delta=delta)
        for gamma in GAMMAS
        for delta in DELTAS
    ]


class ZipfPicker:
    """Zipf(``s``) draws over a (shuffled) family list, via inverse CDF."""

    def __init__(self, rng: random.Random, families: List[QuerySpec]) -> None:
        self.families = list(families)
        rng.shuffle(self.families)
        cum, total = [], 0.0
        for rank in range(1, len(self.families) + 1):
            total += 1.0 / rank ** ZIPF_S
            cum.append(total)
        self._cum, self._total = cum, total

    def tick(self, rng: random.Random) -> List[QuerySpec]:
        """This tick's working set: zipf draws deduped to a fixed size."""
        chosen: List[QuerySpec] = []
        seen = set()
        while len(chosen) < FAMILIES_PER_TICK:
            index = bisect_right(self._cum, rng.random() * self._total)
            if index not in seen:
                seen.add(index)
                chosen.append(self.families[index])
        return chosen


# ----------------------------------------------------------------------
# The two serving paths
# ----------------------------------------------------------------------


def live_stack(edges, weights):
    registry = GraphRegistry(preload_datasets=False)
    registry.register(GRAPH, lambda: graph_from_arrays(N, edges, weights=weights))
    registry.get(GRAPH)
    cache = ResultCache(256)
    metrics = ServiceMetrics()
    engine = QueryEngine(registry, cache=cache, metrics=metrics)
    return registry, cache, metrics, engine


def scratch_engine(model_edges, model_weights) -> QueryEngine:
    """The strawman's world after one mutation: full rebuild, cold cache."""
    edges = sorted(model_edges)
    weights = [model_weights[i] for i in range(N)]
    registry = GraphRegistry(preload_datasets=False)
    registry.register(GRAPH, lambda: graph_from_arrays(N, edges, weights=weights))
    return QueryEngine(registry, cache=ResultCache(256))


def canonical(result) -> str:
    doc = result.to_dict()
    # Provenance and cache-state metadata legitimately differ between
    # a warm live answer and a cold scratch rebuild: the graph version
    # counter (per-process), timing, the serving source,
    # and the completeness flag (scoped migration deliberately forgets
    # completeness because the stream *below* the watermark may have
    # changed).  The answer itself — communities, influences, members,
    # algorithm, kernel, parameters — must be byte-identical.
    for key in ("graph_version", "elapsed_ms", "source", "complete"):
        doc.pop(key, None)
    return json.dumps(doc, sort_keys=True)


def run_streams(report: Dict[str, object]) -> List[str]:
    failures: List[str] = []
    rng = random.Random(SEED)
    edges, weights = build_model(rng)
    report["vertices"] = N
    report["edges"] = len(edges)

    registry, cache, metrics, engine = live_stack(edges, weights)
    mutations = tail_mutation_stream(random.Random(SEED + 1), edges, weights)
    picker = ZipfPicker(random.Random(SEED + 2), family_universe())
    workload_rng = random.Random(SEED + 3)

    model_edges = set(edges)
    model_weights = {i: w for i, w in enumerate(weights)}

    live_queries = live_hits = straw_queries = straw_hits = 0
    mismatches = inexact = 0
    live_seconds = straw_seconds = 0.0
    for tick in range(TICKS):
        ops = next(mutations)
        families = picker.tick(workload_rng)

        started = time.perf_counter()
        registry.apply(GRAPH, ops)
        live_results = [engine.execute(spec) for spec in families]
        live_seconds += time.perf_counter() - started
        live_queries += len(live_results)
        live_hits += sum(1 for r in live_results if r.source == "cache")

        started = time.perf_counter()
        apply_ops_to_model(model_edges, model_weights, ops)
        oracle = scratch_engine(model_edges, model_weights)
        straw_results = [oracle.execute(spec) for spec in families]
        straw_seconds += time.perf_counter() - started
        straw_queries += len(straw_results)
        straw_hits += sum(1 for r in straw_results if r.source == "cache")

        mismatches += sum(
            1
            for live, scratch in zip(live_results, straw_results)
            if canonical(live) != canonical(scratch)
        )
        inexact += not _exact_cores(registry.get(GRAPH).graph)

    live_rate = live_hits / live_queries
    straw_rate = straw_hits / straw_queries
    ratio = live_rate / straw_rate if straw_rate else None
    snapshot = metrics.snapshot()
    live = snapshot.get("live") or {}
    report["stream"] = {
        "ticks": TICKS,
        "ops_per_tick": OPS_PER_TICK,
        "families_per_tick": FAMILIES_PER_TICK,
        "family_universe": len(family_universe()),
        "zipf_s": ZIPF_S,
        "queries": live_queries,
        "mismatches": mismatches,
        "inexact_core_generations": inexact,
        "live_hit_rate": live_rate,
        "strawman_hit_rate": straw_rate,
        "hit_rate_ratio": ratio,  # null = strawman never hit at all
        "live_seconds": live_seconds,
        "strawman_seconds": straw_seconds,
        "rebuild_speedup": straw_seconds / live_seconds if live_seconds else None,
        "metrics": live,
    }

    if mismatches:
        failures.append(
            f"(a) identity: {mismatches} live answers differ from the "
            "scratch-rebuild oracle"
        )
    if live_rate < HIT_RATE_FLOOR:
        failures.append(
            f"(b) warm hit rate {live_rate:.3f} < {HIT_RATE_FLOOR}"
        )
    if ratio is not None and ratio < HIT_RATE_RATIO_FLOOR:
        failures.append(
            f"(b) warm hit rate only {ratio:.1f}x the strawman "
            f"(< {HIT_RATE_RATIO_FLOOR}x)"
        )
    if live.get("mutations_applied") != TICKS:
        failures.append(
            f"(c) {live.get('mutations_applied')} mutations applied, "
            f"expected {TICKS}"
        )
    if not live.get("families_preserved"):
        failures.append("(c) scoped invalidation preserved no families")
    if not live.get("compactions"):
        failures.append("(c) background compaction never folded the chain")
    if inexact:
        failures.append(
            f"(c) {inexact} of {TICKS} generations have core numbers or a "
            "core stop table that differ from a fresh decomposition"
        )
    registry.compact(GRAPH)
    if not _exact_cores(registry.get(GRAPH).graph):
        failures.append(
            "(c) the compacted generation's core numbers or core stop "
            "table differ from a fresh decomposition"
        )
    return failures


def _exact_cores(graph) -> bool:
    """Whether ``graph``'s core numbers and stop table equal a fresh
    decomposition's."""
    return (
        graph.core_numbers() == core_decomposition(graph)
        and graph.core_table() == core_stops(graph)
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--output",
        default="bench_live_mutations.json",
        help="where to write the JSON report (CI uploads it as an artifact)",
    )
    args = parser.parse_args(argv)

    report: Dict[str, object] = {}
    print(
        f"live stream: {TICKS} ticks x {OPS_PER_TICK} ops, "
        f"{FAMILIES_PER_TICK}/{len(family_universe())} zipf families per tick...",
        flush=True,
    )
    failures = run_streams(report)
    stream = report["stream"]
    ratio = stream["hit_rate_ratio"]
    print(
        f"  hit rate {stream['live_hit_rate']:.3f} live vs "
        f"{stream['strawman_hit_rate']:.3f} strawman "
        f"({'inf' if ratio is None else f'{ratio:.1f}'}x), "
        f"{stream['mismatches']} identity mismatches, "
        f"wall {stream['live_seconds']:.2f}s vs "
        f"{stream['strawman_seconds']:.2f}s rebuild"
    )

    report["acceptance_pass"] = not failures
    Path(args.output).write_text(
        json.dumps(report, indent=2, sort_keys=True), encoding="utf-8"
    )
    print(f"report written to {args.output}")
    if failures:
        for failure in failures:
            print("FAIL", failure)
        return 1
    print(
        f"acceptance (byte-identical, >= {HIT_RATE_RATIO_FLOOR:.0f}x warm "
        "hit rate, compaction, exact cores): PASS"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
