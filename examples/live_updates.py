#!/usr/bin/env python3
"""Live graphs: mutate a served graph without restarting or going cold.

``Graph.mutate(ops)`` applies an edge batch through the registry's
``repro.live`` path: the new generation is a versioned *overlay* that
shares every untouched adjacency row with its parent (no rebuild), and
the result cache migrates
under **scoped invalidation** — a cached γ-family survives the flip iff
its influence watermark sits strictly above the family's *barrier*
weight: the largest weight whose threshold subgraph an op of the batch
could have touched, counting only the ops whose core level (an edge's
smaller endpoint core, a reweighted vertex's core) reaches γ.  Every
γ-community lies in the γ-core, so ops below it change no γ-answer,
and everything above the barrier is provably unchanged: preserved
answers are byte-identical to what a full recompute would return.

This script builds a graph with two dense high-weight communities and
a low-weight tail, then shows:

1. tail churn — barriers below the communities' influence — keeps the
   cache warm (``source="cache"`` after the mutation);
2. a tail vertex made the heaviest and wired to the top block: the
   batch barrier is above the watermark, but both ops sit below the
   8-core, so the family stays warm too;
3. deleting an edge *inside* the top community reaches its core and
   raises its barrier past the watermark, so the family recomputes
   (and the answer changes);
4. compaction folds the overlay chain into a fresh flat generation
   with nothing invalidated.

Run:  python examples/live_updates.py
"""

from __future__ import annotations

import random

import repro
from repro.graph.builder import graph_from_arrays
from repro.service.registry import GraphRegistry

N = 400
BLOCK = 12  # two dense blocks on the highest-weight labels


def build_registry() -> GraphRegistry:
    rng = random.Random(7)
    edges = set()
    for base in (0, BLOCK):  # labels 0..11 and 12..23
        for i in range(BLOCK):
            for j in range(i + 1, BLOCK):
                if rng.random() < 0.9:
                    edges.add((base + i, base + j))
    for _ in range(N):  # sparse background + tail churn material
        u, v = rng.randrange(N), rng.randrange(N)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    weights = [float(N - i) for i in range(N)]  # label 0 = heaviest
    registry = GraphRegistry(preload_datasets=False)
    registry.register(
        "demo", lambda: graph_from_arrays(N, sorted(edges), weights=weights)
    )
    return registry


def show(title: str, rs) -> None:
    print(f"\n== {title} ==")
    for i, view in enumerate(rs, start=1):
        print(
            f"  top-{i}: influence={view.influence:g} "
            f"keynode={view.keynode} size={view.size}"
        )
    print(f"  [source={rs.source}]")


def report(event) -> None:
    stats = event.stats
    print(
        f"\nmutated {event.graph!r} v{event.old_version} -> "
        f"v{event.new_version}: +{stats.inserted} -{stats.deleted} "
        f"~{stats.reweighted} barrier={event.barrier:g} "
        f"preserved={event.preserved} invalidated={event.invalidated} "
        f"pending_deltas={event.pending_deltas}"
    )


def main() -> None:
    registry = build_registry()
    with repro.open(registry=registry) as rp:
        g = rp.graph("demo")

        show("top-2 influential 8-communities (cold)", g.topk(k=2, gamma=8))

        # --------------------------------------------------------------
        # 1. Tail churn: the barrier is the smaller endpoint weight —
        #    far below the dense blocks' influence — so the cached
        #    family migrates warm across the version flip.
        # --------------------------------------------------------------
        report(g.mutate([("insert", 390, 395), ("reweight", 398, 1.25)]))
        rs = g.topk(k=2, gamma=8)
        show("same query after tail churn (still warm)", rs)
        assert rs.source == "cache"

        # --------------------------------------------------------------
        # 2. Below the core: vertex 397 (core 2) becomes the heaviest
        #    and gains an edge to vertex 0.  Both ops weigh more than
        #    the watermark, yet neither touches the 8-core.
        # --------------------------------------------------------------
        watermark = rs[-1].influence
        event = g.mutate([("reweight", 397, 500.0), ("insert", 0, 397)])
        report(event)
        assert event.barrier > watermark and event.invalidated == 0
        rs = g.topk(k=2, gamma=8)
        show("after churn above the watermark, below the 8-core", rs)
        assert rs.source == "cache"

        # --------------------------------------------------------------
        # 3. Structural hit: deleting inside the top block raises the
        #    barrier above the watermark — the family recomputes, and
        #    the weakened block drops out of the gamma=8 answer.
        # --------------------------------------------------------------
        for v in range(4, 9):
            report(g.mutate([("delete", 0, v)]))
        show("after deleting inside the top block", g.topk(k=2, gamma=8))

        # --------------------------------------------------------------
        # 4. Compaction: cut the delta chain.  Same content — every
        #    family stays warm.
        # --------------------------------------------------------------
        event = registry.compact("demo")
        if event is not None:
            print(
                f"\ncompacted to v{event.new_version}: "
                f"preserved={event.preserved} invalidated={event.invalidated}"
            )
        show("after compaction (warm again)", g.topk(k=2, gamma=8))

        live = (rp.metrics.snapshot().get("live") or {}) if rp.metrics else {}
        print(f"\nlive counters: {live}")


if __name__ == "__main__":
    main()
