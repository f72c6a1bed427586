"""repro.obs.trace — spans, sampling, stores, stitching, engine hooks."""

from __future__ import annotations

import pytest

from repro.api import QuerySpec
from repro.graph.builder import graph_from_arrays
from repro.obs.trace import (
    NO_TRACE,
    Span,
    TraceStore,
    Tracer,
    current_span,
    format_trace,
    format_trace_line,
    record_phase,
    use_span,
)
from repro.service import GraphRegistry, QueryEngine, ResultCache


def two_k4s():
    return graph_from_arrays(
        8,
        [
            (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
            (4, 5), (4, 6), (4, 7), (5, 6), (5, 7), (6, 7),
            (3, 4),
        ],
    )


@pytest.fixture()
def registry():
    registry = GraphRegistry(preload_datasets=False)
    registry.register("g", two_k4s)
    return registry


class TestSampling:
    def test_full_sampling_traces_every_query(self):
        tracer = Tracer(sample=1.0)
        for _ in range(5):
            span = tracer.maybe_start("query")
            assert span is not None
            tracer.end(span)
        assert tracer.store.counters()["traces_recorded"] == 5

    def test_first_query_always_traced(self):
        # The tick counter starts at zero, so even a 1-in-50 sampler
        # mints a root for the very first query.
        tracer = Tracer(sample=0.02)
        assert tracer.maybe_start("query") is not None

    def test_period_sampling(self):
        tracer = Tracer(sample=0.5)
        minted = [
            tracer.maybe_start("query") is not None for _ in range(10)
        ]
        assert minted == [True, False] * 5

    def test_sample_zero_never_mints(self):
        tracer = Tracer(sample=0.0)
        assert not tracer.sampling
        assert all(tracer.maybe_start("q") is None for _ in range(20))
        assert tracer.store.counters()["traces_recorded"] == 0

    def test_sample_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Tracer(sample=1.5)

    def test_trace_ids_unique(self):
        tracer = Tracer(sample=1.0)
        ids = {tracer.maybe_start("q").trace_id for _ in range(50)}
        assert len(ids) == 50

    def test_span_ids_unique_across_tracers(self):
        # Spans of two tracers rendered together must not collide.
        a, b = Tracer(sample=1.0), Tracer(sample=1.0)
        ours = {a.maybe_start("q").span_id for _ in range(10)}
        theirs = {b.maybe_start("q").span_id for _ in range(10)}
        assert not ours & theirs


class TestContext:
    def test_use_span_sets_and_restores(self):
        tracer = Tracer(sample=1.0)
        span = tracer.maybe_start("query")
        assert current_span() is None
        with use_span(span) as entered:
            assert entered is span
            assert current_span() is span
        assert current_span() is None

    def test_use_span_none_is_no_trace(self):
        with use_span(None):
            assert current_span() is NO_TRACE
        assert current_span() is None

    def test_start_span_refuses_no_trace_parent(self):
        tracer = Tracer(sample=1.0)
        assert tracer.start_span("child", None) is None
        assert tracer.start_span("child", NO_TRACE) is None

    def test_end_tolerates_none_and_no_trace(self):
        tracer = Tracer(sample=1.0)
        assert tracer.end(None) is None
        assert tracer.end(NO_TRACE) is None


class TestRecordPhase:
    def test_writes_stats_dict_without_span(self):
        phases = {}
        record_phase("peel", 0.002, phases)
        record_phase("peel", 0.001, phases)
        assert phases["peel"] == pytest.approx(3.0)

    def test_writes_active_span_and_stats(self):
        tracer = Tracer(sample=1.0)
        span = tracer.maybe_start("query")
        phases = {}
        with use_span(span):
            record_phase("gamma_core", 0.004, phases)
        assert phases["gamma_core"] == pytest.approx(4.0)
        assert span.phases["gamma_core"] == pytest.approx(4.0)

    def test_no_trace_blocks_span_write(self):
        with use_span(None):
            record_phase("peel", 0.001)  # must not blow up on NO_TRACE


class TestTraceAssembly:
    def test_child_spans_nest_under_root(self):
        tracer = Tracer(sample=1.0)
        root = tracer.maybe_start("transport")
        child = tracer.start_span("engine", root, kernel="fastpeel")
        tracer.end(child)
        trace = tracer.end(root, source="cold")
        names = [span["name"] for span in trace["spans"]]
        assert sorted(names) == ["engine", "transport"]
        engine = next(s for s in trace["spans"] if s["name"] == "engine")
        assert engine["parent_id"] == root.span_id
        assert engine["tags"]["kernel"] == "fastpeel"

    def test_late_child_after_root_closed_is_dropped(self):
        tracer = Tracer(sample=1.0)
        root = tracer.maybe_start("transport")
        straggler = tracer.start_span("engine", root)
        tracer.end(root)
        tracer.end(straggler)  # trace already assembled: no leak
        assert tracer._active == {}
        trace = tracer.store.get(root.trace_id)
        assert [s["name"] for s in trace["spans"]] == ["transport"]

    def test_max_spans_backstop(self):
        tracer = Tracer(sample=1.0)
        root = tracer.maybe_start("transport")
        for _ in range(Tracer.MAX_SPANS + 40):
            tracer.end(tracer.start_span("chatty", root))
        trace = tracer.end(root)
        assert len(trace["spans"]) <= Tracer.MAX_SPANS + 1


class TestTraceStore:
    def _trace(self, n, duration_ms=1.0):
        return {
            "trace_id": f"t-{n}",
            "name": "query",
            "start_ms": float(n),
            "duration_ms": duration_ms,
            "spans": [],
        }

    def test_ring_bounded_newest_first(self):
        store = TraceStore(capacity=4, slow_capacity=2, slow_ms=1e9)
        for n in range(10):
            store.add(self._trace(n))
        recent = store.recent(100)
        assert [t["trace_id"] for t in recent] == [
            "t-9", "t-8", "t-7", "t-6"
        ]
        assert store.counters()["traces_recorded"] == 10

    def test_slow_exemplars_survive_fast_traffic(self):
        store = TraceStore(capacity=2, slow_capacity=4, slow_ms=100.0)
        store.add(self._trace(0, duration_ms=500.0))  # slow
        for n in range(1, 6):
            store.add(self._trace(n, duration_ms=1.0))
        # Rotated out of the recent ring, still held as an exemplar.
        assert store.get("t-0")["slow"] is True
        assert [t["trace_id"] for t in store.slow(10)] == ["t-0"]

    def test_slow_ms_zero_marks_everything(self):
        tracer = Tracer(sample=1.0, slow_ms=0.0)
        tracer.end(tracer.maybe_start("query"))
        assert tracer.store.slow(10)[0]["slow"] is True

    def test_get_unknown_returns_none(self):
        assert TraceStore().get("nope") is None


class TestFormatting:
    def test_format_trace_line(self):
        tracer = Tracer(sample=1.0, slow_ms=0.0)
        trace = tracer.end(tracer.maybe_start("query"))
        line = format_trace_line(trace)
        assert trace["trace_id"] in line
        assert "SLOW" in line

    def test_format_trace_renders_tree(self):
        tracer = Tracer(sample=1.0)
        root = tracer.maybe_start("transport")
        child = tracer.start_span("engine", root)
        with use_span(child):
            record_phase("peel", 0.001)
        tracer.end(child)
        trace = tracer.end(root)
        rendered = "\n".join(format_trace(trace))
        assert "transport" in rendered and "engine" in rendered
        assert "peel=" in rendered

    def test_format_trace_tolerates_cycles(self):
        # Malformed parent ids (e.g. a hand-crafted payload) must not
        # recurse forever.
        trace = {
            "trace_id": "t",
            "name": "query",
            "start_ms": 0.0,
            "duration_ms": 1.0,
            "spans": [
                {"span_id": 1, "parent_id": 2, "name": "a",
                 "start_ms": 0.0, "duration_ms": 1.0},
                {"span_id": 2, "parent_id": 1, "name": "b",
                 "start_ms": 0.0, "duration_ms": 1.0},
            ],
        }
        rendered = "\n".join(format_trace(trace))
        assert "a" in rendered and "b" in rendered


class TestEngineIntegration:
    def test_cold_query_records_kernel_phases(self, registry):
        tracer = Tracer(sample=1.0)
        engine = QueryEngine(
            registry, cache=ResultCache(), tracer=tracer
        )
        engine.execute(QuerySpec(graph="g", k=2, gamma=2))
        [trace] = tracer.store.recent(10)
        [span] = trace["spans"]
        assert span["name"] == "query"
        assert span["tags"]["source"] == "cold"
        assert len(span.get("phases", {})) >= 3

    def test_engine_respects_upstream_no_trace(self, registry):
        tracer = Tracer(sample=1.0)
        engine = QueryEngine(
            registry, cache=ResultCache(), tracer=tracer
        )
        with use_span(None):  # upstream sampled the query out
            engine.execute(QuerySpec(graph="g", k=2, gamma=2))
        assert tracer.store.counters()["traces_recorded"] == 0

    def test_engine_nests_under_parent_span(self, registry):
        tracer = Tracer(sample=1.0)
        engine = QueryEngine(
            registry, cache=ResultCache(), tracer=tracer
        )
        root = tracer.maybe_start("transport")
        with use_span(root):
            engine.execute(QuerySpec(graph="g", k=2, gamma=2))
        trace = tracer.end(root)
        names = [span["name"] for span in trace["spans"]]
        assert sorted(names) == ["engine", "transport"]

    def test_engine_error_tags_span(self, registry):
        tracer = Tracer(sample=1.0)
        engine = QueryEngine(registry, tracer=tracer)
        with pytest.raises(Exception):
            engine.execute(QuerySpec(graph="missing", k=2, gamma=2))
        [trace] = tracer.store.recent(10)
        assert "error" in trace["spans"][0]["tags"]
