"""Serving-tier integration of the kernel layer and the JSON wire mode.

Covers the pieces the flat-array refactor threads through the service
stack: the graph build at registration, per-query kernel provenance
(QueryResult.kernel / ServiceMetrics.by_kernel), the allocation-free
cache-hit paths (memoised cursor slices and cache-entry answers), and
the structured ``json`` response mode across the stdio shell, the
asyncio transport and ReproClient.
"""

from __future__ import annotations

import asyncio
import importlib
import io
import json

import pytest

from repro.api import KERNEL_ALGORITHMS, QuerySpec
from repro.core.fastpeel import KERNELS, resolve_kernel
from repro.core.progressive import LocalSearchP
from repro.errors import QueryParameterError
from repro.graph.builder import graph_from_arrays
from repro.server import ReproClient, ReproServer
from repro.service import (
    GraphRegistry,
    QueryEngine,
    ResultCache,
    ServiceMetrics,
    ServiceShell,
    SessionManager,
)


def two_k4s():
    return graph_from_arrays(
        8,
        [
            (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
            (4, 5), (4, 6), (4, 7), (5, 6), (5, 7), (6, 7),
            (3, 4),
        ],
    )


def make_registry(**kwargs):
    registry = GraphRegistry(preload_datasets=False, **kwargs)
    registry.register("g", two_k4s)
    return registry


def make_shell(registry=None, cache=True):
    registry = registry if registry is not None else make_registry()
    metrics = ServiceMetrics()
    engine = QueryEngine(
        registry,
        cache=ResultCache(16) if cache else None,
        metrics=metrics,
    )
    out = io.StringIO()
    shell = ServiceShell(
        engine, SessionManager(registry, metrics=metrics), out, metrics=metrics
    )
    return shell, out, metrics


# ----------------------------------------------------------------------
class TestRegistryBuild:
    def test_graph_built_at_registration(self):
        registry = make_registry()
        handle = registry.get("g")
        # The kernels read the graph's own rows: the build is the
        # whole preparation a first query needs.
        assert handle.graph.num_vertices == 8
        row = registry.describe()[0]
        assert row["loaded"] and row["build_seconds"] >= 0
        assert "csr_seconds" not in row


class TestKernelProvenance:
    def test_query_result_reports_kernel(self):
        registry = make_registry()
        engine = QueryEngine(registry, cache=ResultCache(4))
        result = engine.execute(QuerySpec(graph="g", k=2, gamma=3))
        assert result.kernel == resolve_kernel()
        assert result.to_dict()["kernel"] == result.kernel

    def test_metrics_count_by_kernel(self):
        shell, out, metrics = make_shell()
        shell.execute_line("query g k=2 gamma=3")
        shell.execute_line("query g k=2 gamma=3")
        snap = metrics.snapshot()
        assert snap["by_kernel"] == {resolve_kernel(): 2}
        shell.execute_line("metrics")
        assert f"kernel[{resolve_kernel()}]" in out.getvalue()

    @pytest.mark.parametrize(
        "algorithm", ["localsearch", "forward", "onlineall", "backward"]
    )
    def test_only_kernel_algorithms_report_a_kernel(self, algorithm):
        engine = QueryEngine(make_registry(), cache=None)
        result = engine.execute(
            QuerySpec(graph="g", k=2, gamma=3, algorithm=algorithm)
        )
        expected = engine.kernel if algorithm in KERNEL_ALGORITHMS else None
        assert result.kernel == expected

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_forward_reports_the_kernel_construct_cvs_ran(
        self, kernel, monkeypatch
    ):
        """Regression: ``forward`` used to report one kernel while its
        global peel resolved another.  The engine resolves the kernel
        once, when it is built; a later change of ``$REPRO_KERNEL``
        must not split what runs from what is reported."""
        forward_module = importlib.import_module("repro.baselines.forward")
        original = forward_module.construct_cvs
        ran = []

        def spy(*args, **kwargs):
            ran.append(resolve_kernel(kwargs.get("kernel")))
            return original(*args, **kwargs)

        monkeypatch.setattr(forward_module, "construct_cvs", spy)
        monkeypatch.setenv("REPRO_KERNEL", kernel)
        engine = QueryEngine(make_registry(), cache=None)
        other = "python" if kernel != "python" else "array"
        monkeypatch.setenv("REPRO_KERNEL", other)
        result = engine.execute(
            QuerySpec(graph="g", k=2, gamma=3, algorithm="forward")
        )
        assert ran == [resolve_kernel(kernel)]
        assert result.kernel == ran[0]


class TestKernelNames:
    """``auto`` runs the array kernel, and ``numpy`` (the name of a
    retired vectorised kernel) stays legal wherever a kernel can be
    named: the query is served and reports ``array``."""

    def test_auto_and_numpy_serve_and_report_array(
        self, monkeypatch, tmp_path
    ):
        from repro import cli
        from repro.api.facade import Repro
        from repro.graph.io import write_edge_list

        for name in ("auto", "numpy"):
            monkeypatch.setenv("REPRO_KERNEL", name)
            engine = QueryEngine(make_registry(), cache=None)
            result = engine.execute(QuerySpec(graph="g", k=2, gamma=3))
            assert engine.kernel == result.kernel == "array"
            assert len(result.communities) == 2

        # Wire: an older client's kernel=numpy is checked, then dropped.
        monkeypatch.delenv("REPRO_KERNEL")
        shell, out, _ = make_shell()
        shell.execute_line("query g k=2 gamma=3 kernel=numpy json")
        payload = json.loads(out.getvalue())
        assert payload["kernel"] == "array"
        assert len(payload["communities"]) == 2

        # CLI: --kernel numpy pins the process, which then runs array.
        served = []
        real_topk = Repro.topk

        def spy(self, *args, **kwargs):
            served.append(real_topk(self, *args, **kwargs))
            return served[-1]

        monkeypatch.setattr(Repro, "topk", spy)
        edges = tmp_path / "g.txt"
        write_edge_list(edges, two_k4s().edges_as_labels())
        text = io.StringIO()
        code = cli.main(
            ["query", "--edges", str(edges), "--k", "2", "--gamma", "3",
             "--kernel", "numpy"],
            out=text,
        )
        assert code == 0
        assert "2 communities" in text.getvalue()
        assert [rs.kernel for rs in served] == ["array"]

    def test_unknown_kernel_is_still_an_error(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "fortran")
        with pytest.raises(ValueError, match="unknown peel kernel 'fortran'"):
            QueryEngine(make_registry(), cache=None)
        # A wire payload's kernel must be a known name, not any hashable.
        for kernel in ("fortran", ["array"], {"array": 1}):
            with pytest.raises(QueryParameterError, match="unknown kernel"):
                QuerySpec.from_wire({"graph": "g", "kernel": kernel})


class TestAllocationFreeHits:
    def test_cursor_take_returns_stable_tuples(self):
        cursor = LocalSearchP(two_k4s(), gamma=3).cursor()
        first = cursor.take(2)
        assert isinstance(first, tuple)
        assert cursor.take(2) == first  # pure slice, no recompute
        bigger = cursor.take(50)  # exhausts the stream
        assert bigger[:2] == first

    def test_entry_serve_memoises_answers(self):
        registry = make_registry()
        engine = QueryEngine(registry, cache=ResultCache(4))
        query = QuerySpec(graph="g", k=2, gamma=3)
        cold = engine.execute(query)
        assert cold.source == "cold"
        hit1 = engine.execute(query)
        hit2 = engine.execute(query)
        assert hit1.source == hit2.source == "cache"
        # The served tuple is memoised per k: identical object, no copy.
        assert hit1.communities is hit2.communities
        assert hit1.communities == cold.communities


class TestJsonWireMode:
    def test_shell_json_response(self):
        shell, out, _ = make_shell()
        shell.execute_line("query g k=2 gamma=3 json")
        payload = json.loads(out.getvalue().strip())
        assert payload["graph"] == "g"
        assert payload["k"] == 2
        assert payload["algorithm"] == "localsearch-p"
        assert payload["kernel"] == resolve_kernel()
        assert len(payload["communities"]) == 2
        # members elided unless requested
        assert "members" not in payload["communities"][0]

    def test_shell_json_with_members(self):
        shell, out, _ = make_shell()
        shell.execute_line("query g k=1 gamma=3 json members")
        payload = json.loads(out.getvalue().strip())
        assert sorted(payload["communities"][0]["members"]) == [0, 1, 2, 3]

    def test_json_bytes_identical_between_cold_and_cache(self):
        """The cache contract, restated for the wire: same bytes."""
        shell, out, _ = make_shell()
        shell.execute_line("query g k=3 gamma=3 json")
        cold = json.loads(out.getvalue().strip())
        out.seek(0); out.truncate(0)
        shell.execute_line("query g k=2 gamma=3 json")
        cached = json.loads(out.getvalue().strip())
        assert cached["source"] == "cache"
        assert cached["communities"] == cold["communities"][:2]

    def test_transport_and_client_json_mode(self):
        async def main():
            server = ReproServer(make_registry(), shards=1)
            await server.start(tcp=("127.0.0.1", 0))
            host, port = server.tcp_address
            client = await ReproClient.connect(host, port=port)
            try:
                payload = await client.query(
                    "g", k=2, gamma=3, mode="json"
                )
                assert payload["graph"] == "g"
                assert payload["source"] in ("cold", "cache", "extended")
                assert len(payload["communities"]) == 2
                # text mode unchanged
                lines = await client.query("g", k=2, gamma=3)
                assert lines[0].startswith("localsearch-p[")
                with pytest.raises(ValueError):
                    await client.query("g", mode="xml")
                # a JSON response is exactly one line, parseable by any
                # client speaking the framing — not just ours
                raw = await client.request("query g k=1 gamma=3 json")
                assert len(raw) == 1
                json.loads(raw[0])
            finally:
                await client.close()
                await server.stop()
        asyncio.run(main())

    def test_unknown_flag_still_rejected(self):
        shell, out, _ = make_shell()
        shell.execute_line("query g k=2 gamma=3 yaml")
        assert "unknown query argument" in out.getvalue()
