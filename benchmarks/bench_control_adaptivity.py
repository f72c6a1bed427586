"""Control plane — adaptive serving vs every static setting it replaces.

The claim of the :mod:`repro.control` subsystem (ISSUE 10): a workload
whose hot set *moves* cannot be served well by any fixed configuration,
and the adaptive controller — starting from a deliberately bad initial
configuration — beats each of them on **both** p95 latency and
throughput.

The workload is zipf-skewed over (graphs x families): two graphs, each
with a pool of distinct cold query families (whole-graph peels on the
``array`` kernel) **chosen so they all hash-home onto one worker** —
the pathological placement collision that replication exists to fix.
Mid-run the zipf ranking flips: the hot graph becomes the cold one and
vice versa.  Five arms serve the identical query sequence through a
full :class:`ReproServer` over TCP with ``--workers`` process workers:

* ``default``       — batch window 0, no replication: every phase
  concentrates on a single worker.
* ``window-25ms``   — a fixed 25ms collection window: pure added
  latency for this all-distinct-family workload.
* ``replicate-a``   — graph A pinned wide: right for phase 1, wrong
  after the flip.
* ``replicate-b``   — the mirror image.
* ``adaptive``      — starts from the *worst* static settings (25ms
  window, no replication) and must discover the rest: narrow the
  window, grow the hot graph's fan-out, shrink it after the flip.

Machines with a single usable core cannot exhibit spread-vs-concentrate
margins by construction; the gates are skipped (and recorded) when
``os.cpu_count() < 2`` — CI runners provide the cores.

Run standalone (asserts the gates and writes a JSON report for CI)::

    python benchmarks/bench_control_adaptivity.py [--output report.json]
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from repro.api.spec import QuerySpec
from repro.cluster import ClusterPool
from repro.control import (
    AdaptiveController,
    BatchWindowPolicy,
    PlacementPolicy,
    ReplicaPolicy,
)
from repro.server import ReproClient, ReproServer
from repro.workloads.generators import (
    build_weighted_graph,
    chung_lu,
    planted_dense_blocks,
)

N = 16_000
AVG_DEGREE = 8.0
SEED = 7
GRAPHS = ("a", "b")
#: Set as ``REPRO_KERNEL`` for the whole process by :func:`main`.
KERNEL = "array"
WORKERS = 2

#: Queries per phase (phase 1: graph a hot; phase 2: graph b hot).
#: Sized so each phase spans many control intervals — the adaptation
#: lag must be a small fraction of the phase, not the whole of it.
PHASE_QUERIES = 400
CLIENTS = 8
#: Zipf exponent over the 2-graph ranking: ~89% / 11%.
ZIPF_S = 3.0

#: Candidate (gamma, delta) grid mined for hash-colliding families —
#: wide enough that no family ever repeats (a repeat becomes a parent
#: cache hit, which costs no worker CPU and so hides the placement
#: margins the gates measure).
FAMILY_GAMMAS = tuple(range(28, 44))
FAMILY_DELTAS = tuple(2.0 + 0.05 * i for i in range(60))
FAMILIES_PER_GRAPH = 450


def build_graph(seed: int):
    n, edges = chung_lu(N, AVG_DEGREE, seed=seed)
    edges = planted_dense_blocks(
        n, edges, num_blocks=8, block_size=40, p_in=0.6, seed=seed
    )
    graph = build_weighted_graph(n, edges, weights="degree", seed=seed)
    return graph


def colliding_families(graph: str, worker: int) -> List[QuerySpec]:
    """Cold families of ``graph`` whose home hashes onto ``worker``.

    Uses the pool's own placement hash so the collision is exact: with
    one copy, every one of these families' cursors lands on the same
    worker process, and only replication (or re-placement) can spread
    them.
    """
    import zlib

    specs = []
    for gamma in FAMILY_GAMMAS:
        for delta in FAMILY_DELTAS:
            spec = QuerySpec(graph=graph, gamma=gamma, k=8, delta=delta)
            home = (
                zlib.crc32(ClusterPool._family_bytes(spec.cache_key()))
                % WORKERS
            )
            if home == worker:
                specs.append(spec)
            if len(specs) >= FAMILIES_PER_GRAPH:
                return specs
    return specs


def zipf_pick(rng, ranked):
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(len(ranked))]
    total = sum(weights)
    point = rng.random() * total
    for item, weight in zip(ranked, weights):
        point -= weight
        if point <= 0:
            return item
    return ranked[-1]


def build_workload() -> List[List[str]]:
    """The full query-line sequence, one list per phase.

    Deterministic (seeded RNG), identical for every arm.  Families
    never repeat — each query is a cold peel, so per-query cost is the
    worker CPU and placement is what differentiates the arms.
    """
    import random

    rng = random.Random(SEED)
    pools = {
        "a": colliding_families("a", worker=0),
        "b": colliding_families("b", worker=1),
    }
    cursors = {name: 0 for name in GRAPHS}
    phases: List[List[str]] = []
    for ranked in (("a", "b"), ("b", "a")):
        lines = []
        for _ in range(PHASE_QUERIES):
            graph = zipf_pick(rng, ranked)
            pool = pools[graph]
            if cursors[graph] >= len(pool):
                raise RuntimeError(
                    f"family pool for {graph!r} exhausted — widen the "
                    "candidate grid so no query repeats"
                )
            spec = pool[cursors[graph]]
            cursors[graph] += 1
            lines.append(
                f"query {spec.graph} k={spec.k} gamma={spec.gamma} "
                f"delta={spec.delta:g}"
            )
        phases.append(lines)
    return phases


async def drain_phase(host, port, lines) -> List[float]:
    """Serve one phase's lines through CLIENTS concurrent connections;
    returns per-query latencies (seconds)."""
    queue: asyncio.Queue = asyncio.Queue()
    for line in lines:
        queue.put_nowait(line)
    latencies: List[float] = []

    async def worker():
        client = await ReproClient.connect(host=host, port=port)
        try:
            while True:
                try:
                    line = queue.get_nowait()
                except asyncio.QueueEmpty:
                    return
                started = time.perf_counter()
                reply = await client.request(line)
                latencies.append(time.perf_counter() - started)
                if reply and reply[0].startswith("error:"):
                    raise RuntimeError(f"arm query failed: {reply[0]}")
        finally:
            await client.close()

    await asyncio.gather(*(worker() for _ in range(CLIENTS)))
    return latencies


def p95(latencies: List[float]) -> float:
    ordered = sorted(latencies)
    return ordered[min(len(ordered) - 1, int(0.95 * len(ordered)))]


def fast_controller() -> AdaptiveController:
    """The default policy set at benchmark cadence (seconds, not tens)."""
    return AdaptiveController(
        interval_s=0.15,
        window_s=1.5,
        dwell_s=0.3,
        policies=[
            BatchWindowPolicy(),
            ReplicaPolicy(min_window_queries=6),
            PlacementPolicy(max_moves=4),
        ],
    )


def measure_arm(
    name: str,
    phases: List[List[str]],
    graphs,
    *,
    batch_window_ms: float = 0.0,
    replication: Optional[Dict[str, int]] = None,
    adaptive: bool = False,
) -> Dict[str, object]:
    async def run():
        server = ReproServer(
            preload_datasets=False,
            workers=WORKERS,
            shards=WORKERS,
            batch_window_ms=batch_window_ms,
            replication=replication or {},
            controller=fast_controller() if adaptive else None,
            history_interval=0.1 if adaptive else 1.0,
        )
        for graph_name, graph in graphs.items():
            server.registry.register(graph_name, lambda g=graph: g)
        await server.start(tcp=("127.0.0.1", 0))
        try:
            host, port = server.tcp_address
            for graph_name in GRAPHS:
                server.shards.warm(graph_name)
            started = time.perf_counter()
            latencies = []
            for phase in phases:
                latencies.extend(await drain_phase(host, port, phase))
            elapsed = time.perf_counter() - started
            decisions = (
                len(server.controller.audit())
                if server.controller is not None
                else 0
            )
            final_replication = (
                dict(server.shards.replication_map())
                if hasattr(server.shards, "replication_map")
                else {}
            )
            final_window_ms = server.scheduler.window_s * 1000.0
        finally:
            await server.stop()
        return latencies, elapsed, decisions, final_replication, final_window_ms

    latencies, elapsed, decisions, final_replication, final_window = (
        asyncio.run(run())
    )
    total = len(latencies)
    return {
        "arm": name,
        "queries": total,
        "seconds": elapsed,
        "qps": total / elapsed,
        "p95_ms": p95(latencies) * 1000.0,
        "mean_ms": sum(latencies) / total * 1000.0,
        "decisions": decisions,
        "final_replication": final_replication,
        "final_window_ms": final_window,
    }


def acceptance(report: dict) -> List[str]:
    if report["skipped_low_cores"]:
        return []  # one core cannot spread load; gates not applicable
    failures = []
    arms = {run["arm"]: run for run in report["arms"]}
    adaptive = arms["adaptive"]
    for name, run in arms.items():
        if name == "adaptive":
            continue
        if adaptive["p95_ms"] > run["p95_ms"]:
            failures.append(
                f"(a) p95: adaptive {adaptive['p95_ms']:.1f}ms worse "
                f"than static {name} {run['p95_ms']:.1f}ms"
            )
        if adaptive["qps"] < run["qps"]:
            failures.append(
                f"(b) throughput: adaptive {adaptive['qps']:.2f} q/s "
                f"below static {name} {run['qps']:.2f} q/s"
            )
    if adaptive["decisions"] == 0:
        failures.append("(c) the controller made no decisions at all")
    return failures


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--output",
        default="bench_control_adaptivity.json",
        help="where to write the JSON report (CI uploads it as an artifact)",
    )
    args = parser.parse_args(argv)
    # The peel kernel is process configuration: the server's engine
    # resolves it when built, and its workers inherit it.
    os.environ["REPRO_KERNEL"] = KERNEL

    cores = os.cpu_count() or 1
    print(
        f"building 2x {N:,}-vertex graphs ({cores} cores visible)...",
        flush=True,
    )
    graphs = {"a": build_graph(1), "b": build_graph(2)}
    phases = build_workload()
    print(
        f"workload: {sum(len(p) for p in phases)} queries over "
        f"{len(phases)} phases (hot set flips at the boundary)",
        flush=True,
    )

    arms = []
    for name, kwargs in (
        ("default", {}),
        ("window-25ms", {"batch_window_ms": 25.0}),
        ("replicate-a", {"replication": {"a": WORKERS}}),
        ("replicate-b", {"replication": {"b": WORKERS}}),
        (
            "adaptive",
            {"batch_window_ms": 25.0, "adaptive": True},
        ),
    ):
        print(f"arm {name}...", flush=True)
        run = measure_arm(name, phases, graphs, **kwargs)
        arms.append(run)
        extra = (
            f" decisions={run['decisions']} "
            f"window->{run['final_window_ms']:.0f}ms "
            f"replicas->{run['final_replication']}"
            if name == "adaptive"
            else ""
        )
        print(
            f"  {run['qps']:.2f} q/s, p95 {run['p95_ms']:.1f}ms{extra}",
            flush=True,
        )

    report = {
        "vertices": N,
        "kernel": KERNEL,
        "workers": WORKERS,
        "clients": CLIENTS,
        "phase_queries": PHASE_QUERIES,
        "zipf_s": ZIPF_S,
        "cpu_count": cores,
        "skipped_low_cores": cores < 2,
        "mp_start": os.environ.get("REPRO_MP_START") or "default",
        "arms": arms,
    }
    failures = acceptance(report)
    report["acceptance_pass"] = not failures
    Path(args.output).write_text(
        json.dumps(report, indent=2, sort_keys=True), encoding="utf-8"
    )
    print(f"report written to {args.output}")
    if report["skipped_low_cores"]:
        print(
            "NOTE: single-core machine — the adaptive-beats-static gates "
            "are not applicable here and were skipped."
        )
        return 0
    if failures:
        for failure in failures:
            print("FAIL", failure)
        return 1
    print(
        "acceptance (adaptive >= every static arm on p95 AND "
        "throughput): PASS"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
