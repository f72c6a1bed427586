"""WarmStart: snapshot/restore fidelity, staleness, and resilience."""

from __future__ import annotations

import json

from repro.api import QuerySpec
from repro.graph.builder import graph_from_arrays
from repro.server import WarmStart
from repro.service import (
    GraphRegistry,
    QueryEngine,
    ResultCache,
)
from repro.service.cache import ProgressiveEntry


def layered_cliques(num_cliques=6):
    edges = []
    for c in range(num_cliques):
        base = 4 * c
        for i in range(4):
            for j in range(i + 1, 4):
                edges.append((base + i, base + j))
    return graph_from_arrays(4 * num_cliques, edges)


def make_registry():
    registry = GraphRegistry(preload_datasets=False)
    registry.register("cliques", layered_cliques)
    return registry


def test_progressive_roundtrip_serves_identical_views(tmp_path):
    path = tmp_path / "snap.json"
    registry = make_registry()
    cache = ResultCache()
    engine = QueryEngine(registry, cache=cache)
    original = engine.execute(QuerySpec(graph="cliques", gamma=3, k=4))
    assert WarmStart(str(path)).save(cache, registry) == 1

    registry2 = make_registry()
    cache2 = ResultCache()
    restored = WarmStart(str(path)).load(cache2, registry2)
    assert restored == 1
    engine2 = QueryEngine(registry2, cache=cache2)

    # Prefix: pure slice, byte-identical, no recomputation.
    warm = engine2.execute(QuerySpec(graph="cliques", gamma=3, k=3))
    assert warm.source == "cache"
    assert warm.communities == original.communities[:3]

    # Extension beyond the snapshot: rebuilt cursor, identical stream.
    extended = engine2.execute(QuerySpec(graph="cliques", gamma=3, k=6))
    assert extended.source == "extended"
    reference = QueryEngine(registry2, cache=None).execute(
        QuerySpec(graph="cliques", gamma=3, k=6)
    )
    assert extended.communities == reference.communities


def test_kernel_rows_of_one_family_restore_one_entry(tmp_path):
    """A format-2 snapshot from when the peel kernel was part of the
    cache identity can hold one row per kernel for the same family.
    The kernel field is ignored on load, the first row is restored and
    the later one is skipped by the no-clobber check."""
    path = tmp_path / "snap.json"
    registry = make_registry()
    cache = ResultCache()
    engine = QueryEngine(registry, cache=cache)
    original = engine.execute(QuerySpec(graph="cliques", gamma=3, k=4))
    WarmStart(str(path)).save(cache, registry)
    document = json.loads(path.read_text())
    (row,) = document["entries"]
    assert "kernel" not in row
    python_row = dict(row, kernel="python")
    array_row = dict(row, kernel="array", views=row["views"][:2])
    document["entries"] = [python_row, array_row]
    path.write_text(json.dumps(document))

    registry2 = make_registry()
    cache2 = ResultCache()
    assert WarmStart(str(path)).load(cache2, registry2) == 1
    assert len(cache2) == 1
    warm = QueryEngine(registry2, cache=cache2).execute(
        QuerySpec(graph="cliques", gamma=3, k=4)
    )
    assert warm.source == "cache"
    assert warm.communities == original.communities


def test_exhausted_entry_restores_as_complete(tmp_path):
    path = tmp_path / "snap.json"
    registry = make_registry()
    cache = ResultCache()
    engine = QueryEngine(registry, cache=cache)
    result = engine.execute(QuerySpec(graph="cliques", gamma=3, k=50))
    assert result.complete and len(result.communities) == 6
    WarmStart(str(path)).save(cache, registry)

    registry2 = make_registry()
    cache2 = ResultCache()
    WarmStart(str(path)).load(cache2, registry2)
    engine2 = QueryEngine(registry2, cache=cache2)
    again = engine2.execute(QuerySpec(graph="cliques", gamma=3, k=50))
    assert again.source == "cache"
    assert again.complete
    assert again.communities == result.communities


def test_static_entry_roundtrip(tmp_path):
    path = tmp_path / "snap.json"
    registry = make_registry()
    cache = ResultCache()
    engine = QueryEngine(registry, cache=cache)
    original = engine.execute(
        QuerySpec(graph="cliques", gamma=3, k=4, algorithm="onlineall")
    )
    WarmStart(str(path)).save(cache, registry)

    registry2 = make_registry()
    cache2 = ResultCache()
    assert WarmStart(str(path)).load(cache2, registry2) == 1
    engine2 = QueryEngine(registry2, cache=cache2)
    warm = engine2.execute(
        QuerySpec(graph="cliques", gamma=3, k=4, algorithm="onlineall")
    )
    assert warm.source == "cache"
    assert warm.communities == original.communities


def test_stale_graph_version_boots_cold(tmp_path):
    path = tmp_path / "snap.json"
    registry = make_registry()
    registry.reload("cliques")  # version 1 -> built
    registry.reload("cliques")  # version 2: snapshot keys on v2
    cache = ResultCache()
    engine = QueryEngine(registry, cache=cache)
    engine.execute(QuerySpec(graph="cliques", gamma=3, k=3))
    WarmStart(str(path)).save(cache, registry)

    registry2 = make_registry()  # fresh: first build is version 1 != 2
    cache2 = ResultCache()
    assert WarmStart(str(path)).load(cache2, registry2) == 0
    assert len(cache2) == 0


def test_unregistered_graph_is_skipped(tmp_path):
    path = tmp_path / "snap.json"
    registry = make_registry()
    cache = ResultCache()
    QueryEngine(registry, cache=cache).execute(
        QuerySpec(graph="cliques", gamma=3, k=2)
    )
    WarmStart(str(path)).save(cache, registry)

    empty_registry = GraphRegistry(preload_datasets=False)
    cache2 = ResultCache()
    assert WarmStart(str(path)).load(cache2, empty_registry) == 0


def test_live_entries_are_never_clobbered(tmp_path):
    path = tmp_path / "snap.json"
    registry = make_registry()
    cache = ResultCache()
    engine = QueryEngine(registry, cache=cache)
    engine.execute(QuerySpec(graph="cliques", gamma=3, k=2))
    WarmStart(str(path)).save(cache, registry)

    # Same registry/cache: the key already holds a live entry.
    key = cache.keys()[0]
    live = cache.get(key)
    assert WarmStart(str(path)).load(cache, registry) == 0
    assert cache.get(key) is live


def test_missing_corrupt_and_mismatched_files_boot_cold(tmp_path):
    registry = make_registry()
    cache = ResultCache()
    assert WarmStart(str(tmp_path / "absent.json")).load(cache, registry) == 0

    corrupt = tmp_path / "corrupt.json"
    corrupt.write_text("{not json", encoding="utf-8")
    assert WarmStart(str(corrupt)).load(cache, registry) == 0

    wrong_format = tmp_path / "wrong.json"
    wrong_format.write_text(
        json.dumps({"format": 999, "entries": []}), encoding="utf-8"
    )
    assert WarmStart(str(wrong_format)).load(cache, registry) == 0


def test_malformed_entry_does_not_spoil_the_rest(tmp_path):
    path = tmp_path / "snap.json"
    registry = make_registry()
    cache = ResultCache()
    QueryEngine(registry, cache=cache).execute(
        QuerySpec(graph="cliques", gamma=3, k=2)
    )
    WarmStart(str(path)).save(cache, registry)
    document = json.loads(path.read_text(encoding="utf-8"))
    document["entries"].insert(0, {"kind": "progressive"})  # missing keys
    path.write_text(json.dumps(document), encoding="utf-8")

    registry2 = make_registry()
    cache2 = ResultCache()
    assert WarmStart(str(path)).load(cache2, registry2) == 1


def test_save_is_atomic_over_previous_snapshot(tmp_path):
    path = tmp_path / "snap.json"
    registry = make_registry()
    cache = ResultCache()
    QueryEngine(registry, cache=cache).execute(
        QuerySpec(graph="cliques", gamma=3, k=2)
    )
    warm = WarmStart(str(path))
    warm.save(cache, registry)
    first = path.read_text(encoding="utf-8")
    warm.save(cache, registry)
    assert path.read_text(encoding="utf-8") == first
    assert not (tmp_path / "snap.json.tmp").exists()


def test_restored_entry_respects_max_cached_k(tmp_path):
    path = tmp_path / "snap.json"
    registry = make_registry()
    cache = ResultCache()
    engine = QueryEngine(registry, cache=cache)
    engine.execute(QuerySpec(graph="cliques", gamma=3, k=5))
    WarmStart(str(path)).save(cache, registry)

    registry2 = make_registry()
    cache2 = ResultCache(max_cached_k=2)
    assert WarmStart(str(path)).load(cache2, registry2) == 1
    entry = cache2.get(cache2.keys()[0])
    assert isinstance(entry, ProgressiveEntry)
    engine2 = QueryEngine(registry2, cache=cache2)
    result = engine2.execute(QuerySpec(graph="cliques", gamma=3, k=5))
    assert len(result.communities) == 5
    # Served in full, but retention honours the cap.
    assert entry.materialized == 2


def test_restored_static_entry_respects_max_cached_k(tmp_path):
    path = tmp_path / "snap.json"
    registry = make_registry()
    cache = ResultCache()
    QueryEngine(registry, cache=cache).execute(
        QuerySpec(graph="cliques", gamma=3, k=5, algorithm="localsearch")
    )
    WarmStart(str(path)).save(cache, registry)

    registry2 = make_registry()
    cache2 = ResultCache(max_cached_k=2)
    assert WarmStart(str(path)).load(cache2, registry2) == 1
    entry = cache2.get(cache2.keys()[0])
    assert len(entry.views) == 2
    assert not entry.complete
    # Within the retained prefix: still a byte-identical hit.
    warm = QueryEngine(registry2, cache=cache2).execute(
        QuerySpec(graph="cliques", gamma=3, k=2, algorithm="localsearch")
    )
    assert warm.source == "cache"
    reference = QueryEngine(registry2, cache=None).execute(
        QuerySpec(graph="cliques", gamma=3, k=2, algorithm="localsearch")
    )
    assert warm.communities == reference.communities


def test_changed_data_same_version_boots_cold(tmp_path):
    # The version counter is process-local (fresh boots all build v1);
    # the content fingerprint must catch the data changing between runs.
    path = tmp_path / "snap.json"
    registry = make_registry()
    cache = ResultCache()
    QueryEngine(registry, cache=cache).execute(
        QuerySpec(graph="cliques", gamma=3, k=3)
    )
    WarmStart(str(path)).save(cache, registry)

    changed = GraphRegistry(preload_datasets=False)
    changed.register("cliques", lambda: layered_cliques(4))  # smaller data
    cache2 = ResultCache()
    assert WarmStart(str(path)).load(cache2, changed) == 0
    assert len(cache2) == 0


def test_entries_stale_in_process_are_not_saved(tmp_path):
    path = tmp_path / "snap.json"
    registry = make_registry()
    cache = ResultCache()
    engine = QueryEngine(registry, cache=cache)
    engine.execute(QuerySpec(graph="cliques", gamma=3, k=2))  # keyed v1
    registry.reload("cliques")  # now v2: the cached entry is stale
    assert WarmStart(str(path)).save(cache, registry) == 0


class TestPeriodicSnapshots:
    """WarmStart(snapshot_interval=...): crash-surviving warm state."""

    def test_background_thread_snapshots_without_a_shutdown(self, tmp_path):
        import time

        path = tmp_path / "periodic.json"
        registry = make_registry()
        cache = ResultCache()
        engine = QueryEngine(registry, cache=cache)
        ws = WarmStart(str(path), snapshot_interval=0.05)
        assert ws.start_periodic(cache, registry)
        try:
            engine.execute(QuerySpec(graph="cliques", gamma=3, k=4))
            deadline = time.monotonic() + 10.0
            while not path.exists() and time.monotonic() < deadline:
                time.sleep(0.02)
            assert path.exists(), "no periodic snapshot appeared"
        finally:
            ws.stop_periodic()
        assert ws.periodic_snapshots >= 1
        # Simulated crash: no save() on shutdown — the periodic file
        # alone must boot the next process warm.
        registry2 = make_registry()
        cache2 = ResultCache()
        assert WarmStart(str(path)).load(cache2, registry2) >= 1
        warm = QueryEngine(registry2, cache=cache2).execute(
            QuerySpec(graph="cliques", gamma=3, k=4)
        )
        assert warm.source == "cache"

    def test_start_periodic_is_a_noop_without_interval(self, tmp_path):
        ws = WarmStart(str(tmp_path / "x.json"))
        assert not ws.start_periodic(ResultCache(), make_registry())
        ws.stop_periodic()  # idempotent on a never-started thread

    def test_bad_interval_rejected(self, tmp_path):
        import pytest

        with pytest.raises(ValueError):
            WarmStart(str(tmp_path / "x.json"), snapshot_interval=0.0)

    def test_server_wires_interval_and_requires_path(self, tmp_path):
        import asyncio

        import pytest

        from repro.server import ReproClient, ReproServer

        with pytest.raises(ValueError):
            ReproServer(registry=make_registry(), warmstart_interval=1.0)

        path = tmp_path / "server.json"

        async def main():
            server = ReproServer(
                registry=make_registry(),
                shards=1,
                warmstart_path=str(path),
                warmstart_interval=0.05,
            )
            await server.start(tcp=("127.0.0.1", 0))
            client = await ReproClient.connect(port=server.tcp_address[1])
            await client.request("query cliques k=3 gamma=3")
            deadline = asyncio.get_running_loop().time() + 10.0
            while not path.exists():
                assert asyncio.get_running_loop().time() < deadline
                await asyncio.sleep(0.02)
            await client.close()
            assert server.warmstart is not None
            snapshots_before_stop = server.warmstart.periodic_snapshots
            await server.stop()
            assert server.warmstart._thread is None  # thread joined
            return snapshots_before_stop

        assert asyncio.run(main()) >= 1
