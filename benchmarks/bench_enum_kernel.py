"""Kernel layer — cold + progressive EnumIC speedups on a 100k-vertex graph.

The performance claims of the flat-array enumeration kernel (the
EnumIC side of the kernel layer, :mod:`repro.core.fastenum`), measured
on a 100k-vertex Chung-Lu power-law graph overlaid with 1,100 planted
clique blocks, queried at γ just below the clique degree.  That is the
paper's deep-core regime (γmax runs into the thousands on its web
graphs): each keynode deletion cascades an entire core, so the answer
is large (>= 1000 communities) *and* the per-community group work is
substantial — the regime where enumeration cost actually shows up next
to the peel.  Two scenarios:

* **cold enumeration** — one full ``EnumIC`` pass over the whole
  graph's ``cvs`` (every community built, ``k = all``);
* **progressive enumeration** — the exact LocalSearch-P round sequence
  (doubling prefixes up to the γ-core stop, the per-round records of
  :meth:`~repro.core.progressive.LocalSearchP.records`, one shared
  EnumIC-P state), timing only the enumeration half of each round.

Every kernel enumerates its *natural* record: the python oracle walks a
python-peeled record (materialised list-of-lists adjacency), the array
kernel walks an array-peeled record (the graph's own rows behind a
:class:`~repro.graph.subgraph.PrefixAdjacency`).  The peels
themselves run outside the timed windows.  Each rep times every kernel
once, in turn, and each kernel keeps its best rep: a slow stretch of
the host then costs every kernel a rep instead of landing on one
kernel's whole run.

Acceptance gates (asserted; JSON report uploaded by CI):

* the ``array`` kernel (the default) beats the oracle by at least
  **1.3x** on both scenarios;
* the answer is genuinely large (>= 1000 communities), so the gates
  measure steady-state enumeration, not per-call overhead;
* both kernels build **byte-identical community forests** (keynode,
  influence, own vertices, children — checked here on the full cold
  forest; the exhaustive differential sweep lives in
  ``tests/test_fastenum.py``).

Run standalone (asserts the gates and writes a JSON report for CI)::

    python benchmarks/bench_enum_kernel.py [--output report.json]
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
from repro.core.enumerate import (
    EnumerationState,
    enumerate_progressive,
    enumerate_top_k,
)
from repro.core.fastenum import EnumScratch
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
#: Clique blocks, not the peel bench's loose ER blocks: at γ one below
#: the clique degree every keynode deletion cascades its whole core, so
#: the groups are large enough to exercise the bulk star path (tiny-group
#: graphs measure Community-object overhead, not kernels).
NUM_BLOCKS = 1050
BLOCK_SIZE = 80
GAMMA = BLOCK_SIZE - 1
DELTA = 2.0
REPS = 5
KERNELS = ("python", "array")

#: Acceptance floor (speedup over the python oracle).
ARRAY_FLOOR = 1.3
#: The large-answer regime the gates are defined over (k >= 1000).
MIN_COMMUNITIES = 1000


def build_graph():
    n, edges = chung_lu(N, AVG_DEGREE, seed=SEED)
    edges = planted_dense_blocks(
        n, edges, num_blocks=NUM_BLOCKS, block_size=BLOCK_SIZE, p_in=1.0,
        seed=SEED,
    )
    graph = build_weighted_graph(n, edges, weights="degree", seed=SEED)
    return graph


def forest_fingerprint(communities):
    """Byte-identity digest of a community forest, in reported order."""
    return [
        (
            c.keynode,
            c.influence,
            list(c.own_vertices),
            [child.keynode for child in c.children],
        )
        for c in communities
    ]


def cold_record(graph, kernel: str):
    """The record ``kernel`` naturally enumerates (peel untimed)."""
    return construct_cvs(PrefixView.whole(graph), GAMMA, kernel=kernel)


def time_cold(graph, kernel: str, record, scratch) -> Dict[str, object]:
    """One full EnumIC pass over ``record`` (``k = all``)."""
    gc.collect()
    started = time.perf_counter()
    communities = enumerate_top_k(
        graph, record, kernel=kernel, scratch=scratch
    )
    seconds = time.perf_counter() - started
    return {"seconds": seconds, "communities": communities}


def progressive_records(graph, kernel: str):
    """The LocalSearch-P round-record sequence for ``kernel`` (untimed)."""
    return list(LocalSearchP(graph, GAMMA, DELTA, kernel=kernel).records())


def time_progressive(graph, kernel: str, records) -> Dict[str, float]:
    """EnumIC-P over the precomputed round records, enumeration only."""
    gc.collect()
    state = EnumerationState() if kernel == "python" else None
    scratch = EnumScratch() if kernel != "python" else None
    total = 0
    started = time.perf_counter()
    for record in records:
        for _community in enumerate_progressive(
            graph, record, state, kernel=kernel, scratch=scratch
        ):
            total += 1
    seconds = time.perf_counter() - started
    return {"seconds": seconds, "communities": total, "rounds": len(records)}


def kernel_report() -> dict:
    graph = build_graph()
    cold_records = {kernel: cold_record(graph, kernel) for kernel in KERNELS}
    round_records = {
        kernel: progressive_records(graph, kernel) for kernel in KERNELS
    }
    scratches = {"python": None, "array": EnumScratch()}

    scenarios: Dict[str, Dict[str, Dict[str, object]]] = {
        "cold": {}, "progressive": {},
    }
    fingerprints = {}
    for _ in range(REPS):
        for kernel in KERNELS:
            cold = time_cold(
                graph, kernel, cold_records[kernel], scratches[kernel]
            )
            fingerprints[kernel] = forest_fingerprint(cold.pop("communities"))
            cold["communities"] = len(fingerprints[kernel])
            progressive = time_progressive(graph, kernel, round_records[kernel])
            for name, row in (("cold", cold), ("progressive", progressive)):
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
        "forests_identical": fingerprints["array"] == fingerprints["python"],
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
    if not report["forests_identical"]:
        failures.append("(0) kernels built different community forests")
    for name, rows in scenarios.items():
        counts = {row["communities"] for row in rows.values()}
        if len(counts) != 1:
            failures.append(
                f"(0) kernels disagree on {name} community counts: {counts}"
            )
        if min(counts) < MIN_COMMUNITIES:
            failures.append(
                f"(0) answer too small on {name}: {min(counts)} "
                f"communities < {MIN_COMMUNITIES} (not the large-answer "
                "regime the gates are defined over)"
            )
    for name in scenarios:
        speedups = report["speedups"][name]
        if speedups.get("array", 0.0) < ARRAY_FLOOR:
            failures.append(
                f"(a) stdlib floor: array kernel {speedups.get('array', 0):.2f}x "
                f"< {ARRAY_FLOOR}x on {name} enumeration"
            )
    return failures


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--output",
        default="bench_enum_kernel.json",
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
                f"{name:>12} enum  {kernel:>7}: "
                f"{row['seconds'] * 1000:8.1f} ms  "
                f"[{row['communities']:,} communities]{suffix}"
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
    print(
        f"acceptance (array >= {ARRAY_FLOOR}x, identical forests, "
        f">= {MIN_COMMUNITIES} communities): PASS"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
