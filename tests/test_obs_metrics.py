"""ServiceMetrics satellites: snapshot purity, error kinds, bounding."""

from __future__ import annotations

import io
import json
import sys
import threading

import pytest

from repro.api.spec import FamilyKey, QuerySpec
from repro.graph.builder import graph_from_arrays
from repro.service import (
    GraphRegistry,
    QueryEngine,
    ResultCache,
    ServiceMetrics,
    ServiceShell,
    SessionManager,
)
from repro.service.metrics import METRICS, family_label


def k4():
    return graph_from_arrays(
        4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    )


def family(graph="g", gamma=2, delta=2.0):
    return FamilyKey(
        graph=graph, gamma=gamma, algorithm="localsearch-p",
        delta=delta,
    )


class TestSnapshotPurity:
    def test_fresh_snapshot_has_empty_by_source(self):
        # Regression: cache_hit_rate used to *index* the by_source
        # defaultdict, materialising zero-count keys on a pure read.
        metrics = ServiceMetrics()
        assert metrics.cache_hit_rate == 0.0
        snap = metrics.snapshot()
        assert snap["by_source"] == {}
        assert snap["by_error"] == {}
        assert snap["queries_served"] == 0

    def test_hit_rate_read_does_not_mutate(self):
        metrics = ServiceMetrics()
        metrics.observe_query("localsearch-p", 1.0, "cold")
        _ = metrics.cache_hit_rate
        assert set(metrics.snapshot()["by_source"]) == {"cold"}


def populated_metrics():
    """Every snapshot table populated at least once."""
    metrics = ServiceMetrics()
    for i, source in enumerate(("cold", "cache", "coalesced")):
        metrics.observe_query(
            "localsearch-p",
            1.0 + i,
            source,
            kernel="python",
            family=family(),
        )
    metrics.observe_error(kind="ValueError")
    metrics.session_opened()
    metrics.connection_opened()
    metrics.observe_batch(2)
    metrics.observe_queue_depth(3)
    metrics.observe_mutation("g", 2, invalidated=1, preserved=1)
    return metrics


class TestSnapshotIsolation:
    """The snapshot() defensive-copy contract, both directions.

    The history collector retains snapshots for minutes; a container
    aliasing live state would silently rewrite retained ticks (and a
    caller scribbling on a snapshot must never reach the live tables).
    """

    MUTABLE_PATHS = (
        ("by_source",),
        ("by_algorithm",),
        ("by_kernel",),
        ("by_error",),
        ("by_family",),
        ("latency_ms",),
        ("latency_overall_ms",),
        ("server",),
        ("live",),
        ("live", "graph_generation"),
    )

    @staticmethod
    def _dig(snap, path):
        node = snap
        for key in path:
            node = node[key]
        return node

    def test_later_mutation_does_not_rewrite_snapshot(self):
        metrics = populated_metrics()
        before = metrics.snapshot()
        frozen = json.dumps(before, sort_keys=True, default=str)
        # Keep observing: every table the snapshot carries moves.
        metrics.observe_query(
            "forward", 9.0, "cold", kernel="numpy",
            family=family(gamma=9),
        )
        metrics.observe_error(kind="OSError")
        metrics.observe_batch(5)
        metrics.observe_mutation("h", 3, compaction=True)
        assert json.dumps(before, sort_keys=True, default=str) == frozen

    def test_mutating_snapshot_does_not_leak_into_live_state(self):
        metrics = populated_metrics()
        snap = metrics.snapshot()
        # Resolve every node before clearing any: clearing a parent
        # first would make its nested paths unreachable.
        nodes = [(path, self._dig(snap, path)) for path in self.MUTABLE_PATHS]
        for path, node in nodes:
            assert isinstance(node, dict), path
            node.clear()
            node["poisoned"] = 1
        for row in snap.get("by_family", {}).values():
            if isinstance(row, dict):
                row["poisoned"] = 1
        clean = metrics.snapshot()
        for path in self.MUTABLE_PATHS:
            node = self._dig(clean, path)
            assert "poisoned" not in node, path
        assert clean["by_source"]["cold"] == 1
        assert clean["live"]["graph_generation"] == {"g": 2}

    def test_snapshot_containers_are_distinct_objects(self):
        metrics = populated_metrics()
        first, second = metrics.snapshot(), metrics.snapshot()
        for path in self.MUTABLE_PATHS:
            a, b = self._dig(first, path), self._dig(second, path)
            assert a is not b, path
            assert a == b, path


class TestSnapshotConsistency:
    """snapshot() is one cut: every derived field agrees with the counts."""

    def test_derived_fields_agree_under_concurrent_writers(self):
        metrics = ServiceMetrics()
        families = (family(gamma=2), family(gamma=3))
        stop = threading.Event()

        def writer():
            i = 0
            while not stop.is_set():
                metrics.observe_query(
                    "localsearch-p",
                    1.0,
                    "cache" if i % 2 else "cold",
                    family=families[i % 2],
                )
                i += 1

        # More writers than cores, and a short switch interval, so the
        # snapshot is preempted as often as possible.
        threads = [threading.Thread(target=writer) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        torn = []
        try:
            for thread in threads:
                thread.start()
            for _ in range(3000):
                snap = metrics.snapshot()
                served = snap["queries_served"]
                family_total = sum(
                    row["queries"] for row in snap["by_family"].values()
                )
                source = snap["by_source"]
                hit_rate = source.get("cache", 0) / served if served else 0.0
                if (
                    family_total != served
                    or snap["cache_hit_rate"] != hit_rate
                ):
                    torn.append((served, family_total, source))
        finally:
            stop.set()
            sys.setswitchinterval(interval)
            for thread in threads:
                thread.join(timeout=10.0)
        assert not any(thread.is_alive() for thread in threads)
        assert metrics.snapshot()["queries_served"] > 0
        assert not torn, torn[:3]


class TestMetricTable:
    def test_rows_name_distinct_state_series_and_tick_keys(self):
        for field in ("path", "attr", "prom", "tick"):
            values = [
                getattr(metric, field)
                for metric in METRICS
                if getattr(metric, field) is not None
                and not (field == "attr" and metric.kind == "rate")
            ]
            assert len(values) == len(set(values)), field


class TestErrorKinds:
    def test_observe_error_counts_by_kind(self):
        metrics = ServiceMetrics()
        metrics.observe_error(kind="UnknownGraphError")
        metrics.observe_error(kind="UnknownGraphError")
        metrics.observe_error()  # kind-less errors still count
        snap = metrics.snapshot()
        assert snap["errors"] == 3
        assert snap["by_error"] == {"UnknownGraphError": 2}

    def test_shell_error_path_records_kind(self):
        registry = GraphRegistry(preload_datasets=False)
        registry.register("g", k4)
        metrics = ServiceMetrics()
        shell = ServiceShell(
            QueryEngine(registry, cache=ResultCache(), metrics=metrics),
            SessionManager(registry),
            io.StringIO(),
            metrics=metrics,
        )
        assert shell.execute_line("query missing k=1 gamma=2")
        by_error = metrics.snapshot()["by_error"]
        assert by_error == {"UnknownGraphError": 1}


class TestBounding:
    def test_family_table_evicts_least_recently_active(self):
        metrics = ServiceMetrics(max_families=4)
        families = [family(gamma=g) for g in range(2, 8)]
        for fam in families:
            metrics.observe_query(
                "localsearch-p", 1.0, "cold", family=fam
            )
        rows = metrics.by_family()
        assert len(rows) == 4
        kept = {family_label(fam) for fam in families[-4:]}
        assert set(rows) == kept

    def test_family_activity_refreshes_lru_position(self):
        metrics = ServiceMetrics(max_families=2)
        first, second, third = (family(gamma=g) for g in (2, 3, 4))
        metrics.observe_query("localsearch-p", 1.0, "cold", family=first)
        metrics.observe_query("localsearch-p", 1.0, "cold", family=second)
        metrics.observe_query("localsearch-p", 1.0, "cache", family=first)
        metrics.observe_query("localsearch-p", 1.0, "cold", family=third)
        rows = metrics.by_family()
        assert family_label(first) in rows  # refreshed, so second fell out
        assert family_label(second) not in rows
        assert rows[family_label(first)]["queries"] == 2

    def test_reservoirs_are_bounded(self):
        metrics = ServiceMetrics(max_samples=8)
        fam = family()
        for n in range(100):
            metrics.observe_query(
                "localsearch-p", float(n), "cold", family=fam
            )
        assert metrics._latency_ms["localsearch-p"].maxlen == 8
        assert len(metrics._latency_ms["localsearch-p"]) == 8
        row = metrics.by_family()[family_label(fam)]
        # Percentiles reflect only the newest max_samples values.
        assert row["p50_ms"] >= 92.0
        assert row["queries"] == 100

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError):
            ServiceMetrics(max_samples=0)
        with pytest.raises(ValueError):
            ServiceMetrics(max_families=0)


class TestFamilyLabel:
    def test_label_is_stable_and_json_safe(self):
        label = family_label(family())
        assert label == "g|gamma=2|localsearch-p|delta=2"
        assert family_label(family()) == label

    def test_label_distinguishes_fields(self):
        assert family_label(family(gamma=2)) != family_label(family(gamma=3))
        assert family_label(family(delta=2.0)) != family_label(
            family(delta=2.5)
        )


class TestFamilyPhases:
    def test_phases_snapshot_lands_in_family_row(self):
        metrics = ServiceMetrics()
        fam = family()
        metrics.observe_query(
            "localsearch-p", 2.0, "cold", family=fam,
            phases={"peel": 1.5, "enumerate": 0.25},
        )
        row = metrics.by_family()[family_label(fam)]
        assert row["phases_ms"] == {"peel": 1.5, "enumerate": 0.25}

    def test_cache_hit_without_phases_keeps_previous_breakdown(self):
        metrics = ServiceMetrics()
        fam = family()
        metrics.observe_query(
            "localsearch-p", 2.0, "cold", family=fam,
            phases={"peel": 1.5, "enumerate": 0.25},
        )
        metrics.observe_query("localsearch-p", 0.1, "cache", family=fam)
        row = metrics.by_family()[family_label(fam)]
        assert row["phases_ms"] == {"peel": 1.5, "enumerate": 0.25}
        assert row["queries"] == 2

    def test_phases_rows_are_defensive_copies(self):
        metrics = ServiceMetrics()
        fam = family()
        phases = {"peel": 1.0}
        metrics.observe_query(
            "localsearch-p", 1.0, "cold", family=fam, phases=phases
        )
        phases["peel"] = 99.0  # the caller's dict is never aliased
        row = metrics.by_family()[family_label(fam)]
        assert row["phases_ms"] == {"peel": 1.0}
        row["phases_ms"]["poisoned"] = 1  # nor is the reported row
        clean = metrics.by_family()[family_label(fam)]
        assert "poisoned" not in clean["phases_ms"]

    def test_family_without_phases_reports_empty_breakdown(self):
        metrics = ServiceMetrics()
        fam = family()
        metrics.observe_query("localsearch-p", 1.0, "cold", family=fam)
        assert metrics.by_family()[family_label(fam)]["phases_ms"] == {}


class TestByFamily:
    def test_by_family_aggregates_hit_rate_and_percentiles(self):
        metrics = ServiceMetrics()
        fam = QuerySpec(graph="g", gamma=3, k=5).cache_key()
        metrics.observe_query("localsearch-p", 10.0, "cold", family=fam)
        metrics.observe_query("localsearch-p", 1.0, "cache", family=fam)
        metrics.observe_query("localsearch-p", 2.0, "extended", family=fam)
        rows = metrics.by_family()
        label = family_label(fam)
        assert label in rows
        row = rows[label]
        assert row["queries"] == 3
        assert row["hit_rate"] == pytest.approx(2 / 3)
        assert row["p50_ms"] == 2.0
        assert row["p95_ms"] == 10.0

    def test_by_family_table_is_bounded(self):
        metrics = ServiceMetrics(max_families=4)
        for gamma in range(1, 11):
            fam = QuerySpec(graph="g", gamma=gamma, k=5).cache_key()
            metrics.observe_query("localsearch-p", 1.0, "cold", family=fam)
        assert len(metrics.by_family()) == 4  # least-recently-active dropped

    def test_shell_metrics_text_and_json_modes(self):
        registry = GraphRegistry(preload_datasets=False)
        registry.register("g", k4)
        metrics = ServiceMetrics()
        engine = QueryEngine(registry, cache=ResultCache(8), metrics=metrics)
        out = io.StringIO()
        shell = ServiceShell(
            engine,
            SessionManager(registry, metrics=metrics),
            out,
            metrics=metrics,
        )
        shell.execute_line("query g gamma=3 k=4")
        shell.execute_line("query g gamma=3 k=4")
        out.seek(0)
        out.truncate(0)
        shell.execute_line("metrics")
        text = out.getvalue()
        assert "family[" in text
        assert "hit_rate=0.500" in text
        out.seek(0)
        out.truncate(0)
        shell.execute_line("metrics json")
        snapshot = json.loads(out.getvalue())
        assert snapshot["queries_served"] == 2
        (family_row,) = snapshot["by_family"].values()
        assert family_row["queries"] == 2
        assert family_row["p50_ms"] is not None
        out.seek(0)
        out.truncate(0)
        shell.execute_line("metrics nonsense")
        assert "error" in out.getvalue()
