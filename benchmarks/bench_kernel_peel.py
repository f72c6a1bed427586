"""Kernel layer — cold + progressive peel speedups on a 100k-vertex graph.

The performance claims of the flat-array peel kernel (``array``),
measured on a ~100k-vertex Chung-Lu power-law graph with planted dense
blocks (the stand-in shape for the paper's heavy-tailed web/social
graphs) at the service-default γ:

* **cold peel** — one full ``ConstructCVS`` over the whole graph;
* **progressive peel** — the exact LocalSearch-P round sequence
  (doubling prefixes, ``stop_rank`` chaining, one shared
  :class:`~repro.core.fastpeel.PeelScratch`, the last round the first
  to hold the γ-core), taken from
  :meth:`~repro.core.progressive.LocalSearchP.records`, i.e. the serving
  tier's hot path.

Each rep times every kernel once, in turn, and each kernel keeps its
best rep: a slow stretch of the host then costs every kernel a rep
instead of landing on one kernel's whole run.

Acceptance gates (asserted; JSON report uploaded by CI):

* the ``array`` kernel (the default) beats the python kernel by at
  least **1.3x** on both scenarios (the conservative floor absorbs CI
  noise);
* both kernels return identical key/community counts (the full
  byte-identity contract lives in ``tests/test_fastpeel.py``).

Run standalone (asserts the gates and writes a JSON report for CI)::

    python benchmarks/bench_kernel_peel.py [--output report.json]
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from repro.core.count import construct_cvs
from repro.core.progressive import LocalSearchP
from repro.graph.subgraph import PrefixView
from repro.workloads.generators import (
    build_weighted_graph,
    chung_lu,
    planted_dense_blocks,
)

N = 100_000
AVG_DEGREE = 8.0
SEED = 7
GAMMA = 10
DELTA = 2.0
REPS = 3
KERNELS = ("python", "array")

#: Acceptance floor (speedup over the python kernel).
ARRAY_FLOOR = 1.3


def build_graph():
    n, edges = chung_lu(N, AVG_DEGREE, seed=SEED)
    edges = planted_dense_blocks(
        n, edges, num_blocks=24, block_size=60, p_in=0.6, seed=SEED
    )
    graph = build_weighted_graph(n, edges, weights="degree", seed=SEED)
    graph.core_stop(GAMMA)  # the core stop table, built by a first search
    return graph


def time_cold(graph, kernel: str) -> Dict[str, float]:
    """One full ConstructCVS over the whole graph."""
    gc.collect()
    started = time.perf_counter()
    record = construct_cvs(PrefixView.whole(graph), GAMMA, kernel=kernel)
    seconds = time.perf_counter() - started
    return {"seconds": seconds, "communities": record.num_communities}


def time_progressive(graph, kernel: str) -> Dict[str, float]:
    """The LocalSearch-P peel round sequence, timed end to end."""
    gc.collect()
    started = time.perf_counter()
    searcher = LocalSearchP(graph, GAMMA, DELTA, kernel=kernel)
    keys_total = sum(record.num_communities for record in searcher.records())
    seconds = time.perf_counter() - started
    return {
        "seconds": seconds,
        "communities": keys_total,
        "rounds": searcher.stats.rounds,
    }


def kernel_report() -> dict:
    graph = build_graph()
    timers = {"cold": time_cold, "progressive": time_progressive}
    scenarios: Dict[str, Dict[str, Dict[str, float]]] = {
        name: {} for name in timers
    }
    for _ in range(REPS):
        for kernel in KERNELS:
            for name, timer in timers.items():
                row = timer(graph, kernel)
                best = scenarios[name].get(kernel)
                if best is None or row["seconds"] < best["seconds"]:
                    scenarios[name][kernel] = row

    report: dict = {
        "graph": {
            "vertices": graph.num_vertices,
            "edges": graph.num_edges,
            "generator": "chung_lu+planted_dense_blocks",
        },
        "gamma": GAMMA,
        "delta": DELTA,
        "reps": REPS,
        "scenarios": scenarios,
        "speedups": {},
    }
    for name, rows in scenarios.items():
        python_s = rows["python"]["seconds"]
        report["speedups"][name] = {
            "array": python_s / rows["array"]["seconds"]
        }
    return report


def acceptance(report: dict) -> List[str]:
    """Return the list of failed criteria (empty = pass)."""
    failures = []
    scenarios = report["scenarios"]
    for name, rows in scenarios.items():
        counts = {row["communities"] for row in rows.values()}
        if len(counts) != 1:
            failures.append(
                f"(0) kernels disagree on {name} community counts: {counts}"
            )
    for name in scenarios:
        speedups = report["speedups"][name]
        if speedups.get("array", 0.0) < ARRAY_FLOOR:
            failures.append(
                f"(a) stdlib floor: array kernel {speedups.get('array', 0):.2f}x "
                f"< {ARRAY_FLOOR}x on {name} peel"
            )
    return failures


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--output",
        default="bench_kernel_peel.json",
        help="where to write the JSON report (CI uploads it as an artifact)",
    )
    args = parser.parse_args(argv)

    print(f"building {N:,}-vertex power-law graph...", flush=True)
    report = kernel_report()
    graph = report["graph"]
    print(
        f"graph: {graph['vertices']:,} vertices, {graph['edges']:,} edges; "
        f"gamma={GAMMA}"
    )
    for name, rows in report["scenarios"].items():
        for kernel, row in rows.items():
            speedup = report["speedups"][name].get(kernel)
            suffix = f"  ({speedup:.2f}x)" if speedup is not None else ""
            print(
                f"{name:>12} peel  {kernel:>7}: "
                f"{row['seconds'] * 1000:8.1f} ms{suffix}"
            )

    failures = acceptance(report)
    report["acceptance_pass"] = not failures
    Path(args.output).write_text(
        json.dumps(report, indent=2, sort_keys=True), encoding="utf-8"
    )
    print(f"report written to {args.output}")
    if failures:
        for failure in failures:
            print("FAIL", failure)
        return 1
    print(f"acceptance (array >= {ARRAY_FLOOR}x, identical counts): PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
