"""Service layer — cold vs warm vs prefix-reuse latency and throughput.

The serving claim of the new :mod:`repro.service` subsystem (ISSUE 1):

* a **warm** repeat of a query (same graph/gamma/algorithm, ``k' <= k``)
  is served from the result cache at least **10x** faster than the cold
  computation;
* **prefix reuse** (``k' < k``) is just as fast — the cached progressive
  sequence is sliced, never recomputed;
* **extension** (``k' > k``) resumes the cached cursor instead of
  restarting, so it only pays for the *new* suffix;
* a mixed-(gamma, k) workload sustains high queries/sec against a
  long-lived registry without ever rebuilding the graph.

Two entry points:

* ``python benchmarks/bench_service_throughput.py`` — standalone report
  asserting the 10x acceptance criterion and printing the numbers;
* ``pytest benchmarks/bench_service_throughput.py --benchmark-only`` —
  pytest-benchmark timings alongside the other figure benchmarks.
"""

from __future__ import annotations

import sys

import pytest

from repro.api import QuerySpec
from repro.bench.harness import measure_ms
from repro.service import (
    GraphRegistry,
    QueryEngine,
    ResultCache,
    ServiceMetrics,
)

GAMMA = 10
K = 32
DATASET = "wiki"


def make_registry() -> GraphRegistry:
    registry = GraphRegistry()
    registry.get(DATASET)  # pin: construction paid once, outside timings
    return registry


def cold_engine(registry: GraphRegistry) -> QueryEngine:
    """An engine whose every query recomputes (the baseline)."""
    return QueryEngine(registry, cache=None)


def warm_engine(registry: GraphRegistry) -> QueryEngine:
    engine = QueryEngine(
        registry, cache=ResultCache(), metrics=ServiceMetrics()
    )
    engine.execute(QuerySpec(graph=DATASET, gamma=GAMMA, k=K))  # fill
    return engine


def mixed_workload():
    return [
        QuerySpec(graph=DATASET, gamma=gamma, k=k)
        for gamma in (5, 10, 20)
        for k in (4, 8, 16, 8, 4)
    ]


def speedup_report(registry: GraphRegistry) -> dict:
    """Measure cold / warm / prefix / extension latency and mixed qps."""
    engine = warm_engine(registry)
    query = QuerySpec(graph=DATASET, gamma=GAMMA, k=K)
    prefix = QuerySpec(graph=DATASET, gamma=GAMMA, k=K // 4)

    cold_ms = measure_ms(
        lambda: cold_engine(registry).execute(query), repeat=3
    )
    warm_ms = measure_ms(lambda: engine.execute(query), repeat=10, warmup=2)
    prefix_ms = measure_ms(
        lambda: engine.execute(prefix), repeat=10, warmup=2
    )

    def extend():
        fresh = QueryEngine(registry, cache=ResultCache())
        fresh.execute(QuerySpec(graph=DATASET, gamma=GAMMA, k=K))
        result = fresh.execute(
            QuerySpec(graph=DATASET, gamma=GAMMA, k=2 * K)
        )
        assert result.source == "extended"

    extension_ms = measure_ms(extend, repeat=3)

    metrics = ServiceMetrics()
    mixed = QueryEngine(registry, cache=ResultCache(), metrics=metrics)
    workload = mixed_workload() * 3
    builds_before = registry.builds
    mixed_ms = measure_ms(
        lambda: [mixed.execute(q) for q in workload], repeat=1
    )
    assert registry.builds == builds_before, "graph was rebuilt mid-workload"

    return {
        "cold_ms": cold_ms,
        "warm_ms": warm_ms,
        "prefix_ms": prefix_ms,
        "extension_ms": extension_ms,
        "warm_speedup": cold_ms / warm_ms if warm_ms else float("inf"),
        "prefix_speedup": cold_ms / prefix_ms if prefix_ms else float("inf"),
        "mixed_queries": len(workload),
        "mixed_qps": len(workload) / (mixed_ms / 1000.0),
        "mixed_hit_rate": metrics.cache_hit_rate,
    }


# ----------------------------------------------------------------------
# pytest-benchmark entry points
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def registry(wiki):
    registry = GraphRegistry()
    registry.get(DATASET)
    return registry


@pytest.mark.benchmark(group="service-latency")
def bench_cold_query(benchmark, registry):
    engine = cold_engine(registry)
    result = benchmark(
        lambda: engine.execute(QuerySpec(graph=DATASET, gamma=GAMMA, k=K))
    )
    assert result.source == "cold"
    assert len(result) == K


@pytest.mark.benchmark(group="service-latency")
def bench_warm_repeat_query(benchmark, registry):
    engine = warm_engine(registry)
    result = benchmark(
        lambda: engine.execute(QuerySpec(graph=DATASET, gamma=GAMMA, k=K))
    )
    assert result.source == "cache"


@pytest.mark.benchmark(group="service-latency")
def bench_prefix_reuse_query(benchmark, registry):
    engine = warm_engine(registry)
    result = benchmark(
        lambda: engine.execute(
            QuerySpec(graph=DATASET, gamma=GAMMA, k=K // 4)
        )
    )
    assert result.source == "cache"
    assert len(result) == K // 4


@pytest.mark.benchmark(group="service-latency")
def bench_extension_resumes(benchmark, registry):
    """k' > k: pays only for the suffix, not a restart."""

    def extend():
        engine = QueryEngine(registry, cache=ResultCache())
        engine.execute(QuerySpec(graph=DATASET, gamma=GAMMA, k=K))
        return engine.execute(
            QuerySpec(graph=DATASET, gamma=GAMMA, k=2 * K)
        )

    result = benchmark(extend)
    assert result.source == "extended"
    assert len(result) == 2 * K


@pytest.mark.benchmark(group="service-throughput")
def bench_mixed_workload_qps(benchmark, registry):
    engine = QueryEngine(
        registry, cache=ResultCache(), metrics=ServiceMetrics()
    )
    workload = mixed_workload()

    def serve_all():
        return [engine.execute(q) for q in workload]

    results = benchmark(serve_all)
    assert len(results) == len(workload)


@pytest.mark.benchmark(group="service-acceptance")
def bench_acceptance_10x(benchmark, registry):
    """The acceptance criterion, asserted (not just reported)."""
    report = benchmark.pedantic(
        lambda: speedup_report(registry), rounds=1, iterations=1
    )
    assert report["warm_speedup"] >= 10.0, report
    assert report["prefix_speedup"] >= 10.0, report


# ----------------------------------------------------------------------
# standalone entry point
# ----------------------------------------------------------------------
def main() -> int:
    print(f"building registry (dataset {DATASET!r})...", flush=True)
    registry = make_registry()
    report = speedup_report(registry)
    print(f"cold query (k={K}, gamma={GAMMA}):   {report['cold_ms']:10.3f} ms")
    print(f"warm repeat (cache hit):        {report['warm_ms']:10.3f} ms "
          f"({report['warm_speedup']:,.0f}x)")
    print(f"prefix reuse (k'={K // 4}):         {report['prefix_ms']:10.3f} ms "
          f"({report['prefix_speedup']:,.0f}x)")
    print(f"extension (k'={2 * K}, resumed):    {report['extension_ms']:10.3f} ms")
    print(f"mixed workload:                 {report['mixed_queries']} queries, "
          f"{report['mixed_qps']:,.0f} q/s, "
          f"hit rate {report['mixed_hit_rate']:.2f}")
    ok = report["warm_speedup"] >= 10.0 and report["prefix_speedup"] >= 10.0
    print("acceptance (>=10x warm & prefix):", "PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
