"""CLI tests: all subcommands end to end."""

from __future__ import annotations

import io
import os
import subprocess
import sys

import pytest

import repro
from repro.cli import build_parser, main
from repro.graph.io import write_edge_list, write_weights


@pytest.fixture()
def edge_file(tmp_path):
    path = tmp_path / "g.txt"
    # Two K4s with a weak bridge.
    edges = [
        (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
        (4, 5), (4, 6), (4, 7), (5, 6), (5, 7), (6, 7),
        (3, 4),
    ]
    write_edge_list(path, edges)
    return str(path)


@pytest.fixture()
def weight_file(tmp_path):
    path = tmp_path / "w.txt"
    write_weights(path, {i: float(10 - i) for i in range(8)})
    return str(path)


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_requires_graph_source(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["query"])

    def test_dataset_and_edges_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["query", "--dataset", "email", "--edges", "x"]
            )


class TestStats:
    def test_stats_on_file(self, edge_file):
        code, text = run_cli(["stats", "--edges", edge_file])
        assert code == 0
        assert "#vertices: 8" in text
        assert "#edges: 13" in text
        assert "gammamax: 3" in text

    def test_stats_on_dataset(self):
        code, text = run_cli(["stats", "--dataset", "email"])
        assert code == 0
        assert "#vertices: 2,000" in text


class TestQuery:
    @pytest.mark.parametrize(
        "algorithm",
        ["localsearch", "localsearch-p", "forward", "onlineall", "backward"],
    )
    def test_algorithms_agree(self, edge_file, weight_file, algorithm):
        code, text = run_cli([
            "query", "--edges", edge_file, "--weights", weight_file,
            "--k", "2", "--gamma", "3", "--algorithm", algorithm,
        ])
        assert code == 0
        assert "2 communities" in text
        assert "top-1" in text and "top-2" in text
        # With weights 10..3, the heavy K4 {0,1,2,3} has influence 7.
        assert "influence=7" in text

    def test_members_flag(self, edge_file, weight_file):
        code, text = run_cli([
            "query", "--edges", edge_file, "--weights", weight_file,
            "--k", "1", "--gamma", "3", "--members",
        ])
        assert code == 0
        assert "members:" in text

    def test_truss_algorithm(self, edge_file, weight_file):
        code, text = run_cli([
            "query", "--edges", edge_file, "--weights", weight_file,
            "--k", "1", "--gamma", "4", "--algorithm", "truss",
        ])
        assert code == 0
        assert "size=4" in text

    def test_noncontainment_algorithm(self, edge_file, weight_file):
        # Only the heavy K4 is non-containment: the influence-3 community
        # is the whole graph, which contains it (Definition 5.1).
        code, text = run_cli([
            "query", "--edges", edge_file, "--weights", weight_file,
            "--k", "2", "--gamma", "3", "--algorithm", "noncontainment",
        ])
        assert code == 0
        assert "1 communities" in text
        assert "influence=7" in text

    def test_query_on_dataset(self):
        code, text = run_cli([
            "query", "--dataset", "email", "--k", "3", "--gamma", "5",
        ])
        assert code == 0
        assert "3 communities" in text


class TestStream:
    def test_limit(self, edge_file, weight_file):
        code, text = run_cli([
            "stream", "--edges", edge_file, "--weights", weight_file,
            "--gamma", "3", "--limit", "1",
        ])
        assert code == 0
        assert "limit 1 reached" in text

    def test_min_influence(self, edge_file, weight_file):
        code, text = run_cli([
            "stream", "--edges", edge_file, "--weights", weight_file,
            "--gamma", "3", "--min-influence", "6.5",
        ])
        assert code == 0
        assert "top-1" in text
        assert "fell below" in text

    def test_decreasing_influences(self, edge_file, weight_file):
        code, text = run_cli([
            "stream", "--edges", edge_file, "--weights", weight_file,
            "--gamma", "3",
        ])
        values = [
            float(line.split("influence=")[1].split()[0])
            for line in text.splitlines()
            if "influence=" in line
        ]
        assert values == sorted(values, reverse=True)
        assert len(values) == 2


class TestOneShotErrors:
    def test_typed_error_is_one_line_on_stderr(self, edge_file, capsys):
        code, text = run_cli(["mutate", "--edges", edge_file, "insert=0:x"])
        assert code == 1
        assert text == ""
        assert capsys.readouterr().err == (
            "error: vertex 'x' is not in the graph\n"
        )


class TestServe:
    """The stdio serving loop (`repro serve`) and its shell behaviours."""

    def run_serve(self, script: str, *extra_args):
        out = io.StringIO()
        code = main(
            ["serve", "--no-datasets", *extra_args],
            out=out,
            in_stream=io.StringIO(script),
        )
        return code, out.getvalue()

    def test_load_query_quit(self, edge_file, weight_file):
        code, text = self.run_serve(
            f"load g {edge_file} {weight_file}\n"
            "query g k=2 gamma=3\n"
            "quit\n"
        )
        assert code == 0
        assert "loaded 'g' v1" in text
        assert "top-1:" in text

    def test_eof_without_quit_is_clean(self, edge_file):
        code, text = self.run_serve(f"load g {edge_file}\n")
        assert code == 0

    def test_shutdown_command_ends_loop_and_fires_callback(self, edge_file):
        from repro.service import (
            GraphRegistry,
            QueryEngine,
            ServiceShell,
            SessionManager,
        )

        registry = GraphRegistry(preload_datasets=False)
        engine = QueryEngine(registry)
        sessions = SessionManager(registry)
        out = io.StringIO()
        fired = []
        shell = ServiceShell(
            engine, sessions, out, on_shutdown=lambda: fired.append(True)
        )
        code = shell.run(io.StringIO("shutdown\nquery g\n"))
        assert code == 0
        assert fired == [True]
        assert "shutting down" in out.getvalue()
        # The loop ended at `shutdown`: the next command never ran.
        assert "error" not in out.getvalue()

    def test_broken_pipe_mid_loop_is_clean(self, edge_file):
        from repro.service import (
            GraphRegistry,
            QueryEngine,
            ServiceShell,
            SessionManager,
        )

        class BrokenOut(io.StringIO):
            def write(self, text):
                if "top-" in text:
                    raise BrokenPipeError("peer went away")
                return super().write(text)

        registry = GraphRegistry(preload_datasets=False)
        registry.register_edge_list("g", edge_file)
        engine = QueryEngine(registry)
        shell = ServiceShell(engine, SessionManager(registry), BrokenOut())
        code = shell.run(io.StringIO("query g k=1 gamma=3\nquery g\n"))
        assert code == 0

    def test_script_flag(self, tmp_path, edge_file):
        script = tmp_path / "commands.txt"
        script.write_text(
            f"load g {edge_file}\nquery g k=1 gamma=3\nquit\n",
            encoding="utf-8",
        )
        code, text = run_cli(["serve", "--no-datasets", "--script", str(script)])
        assert code == 0
        assert "top-1:" in text

    def test_failed_load_keeps_the_graph(self, tmp_path):
        missing = tmp_path / "missing.txt"
        out = io.StringIO()
        code = main(
            ["serve"],
            out=out,
            in_stream=io.StringIO(
                "query email k=2 gamma=5\n"
                f"load email {missing}\n"
                f"load x {missing}\n"
                "query email k=2 gamma=5\n"
                "graphs\n"
            ),
        )
        assert code == 0
        lines = out.getvalue().splitlines()
        assert sum(line.startswith("error: [Errno 2]") for line in lines) == 2
        # Same version as before the failed load, so the cache answers.
        assert sum("localsearch-p[cold]" in line for line in lines) == 1
        assert sum("localsearch-p[cache]" in line for line in lines) == 1
        listed = [line.strip() for line in lines]
        assert any(line.startswith("email: loaded v1") for line in listed)
        assert not any(line.startswith("x:") for line in listed)

    def test_max_cached_k_flag_accepted(self, edge_file):
        code, text = self.run_serve(
            f"load g {edge_file}\nquery g k=2 gamma=3\nquit\n",
            "--max-cached-k", "1",
        )
        assert code == 0
        assert "top-2:" in text  # served in full despite the retention cap


class TestServerFlags:
    """Parsing of the asyncio-server flags (the server itself is covered
    in tests/test_server_transport.py)."""

    def test_parser_accepts_network_flags(self):
        args = build_parser().parse_args([
            "serve", "--tcp", "0.0.0.0:8642", "--socket", "/tmp/x.sock",
            "--shards", "2", "--replicate", "wiki=2", "--max-batch", "16",
            "--batch-window-ms", "2.5", "--warmstart", "cache.json",
            "--max-cached-k", "64",
        ])
        assert args.tcp == "0.0.0.0:8642"
        assert args.shards == 2
        assert args.replicate == ["wiki=2"]

    def test_parse_tcp(self):
        from repro.cli import _parse_tcp

        assert _parse_tcp("8642") == ("127.0.0.1", 8642)
        assert _parse_tcp("0.0.0.0:9000") == ("0.0.0.0", 9000)
        assert _parse_tcp("127.0.0.1:65535") == ("127.0.0.1", 65535)
        for bad in ("not-a-port", "127.0.0.1:70000", "127.0.0.1:-1", "65536"):
            with pytest.raises(ValueError):
                _parse_tcp(bad)

    @pytest.mark.parametrize(
        "flags",
        [
            ["--tcp", "127.0.0.1:70000"],
            ["--tcp", "127.0.0.1:-1"],
            ["--tcp", "not-a-port"],
            ["--metrics-port", "70000"],
            ["--metrics-port", "-1"],
            ["--tcp", "127.0.0.1:0", "--metrics-port", "65536"],
        ],
    )
    def test_out_of_range_ports_fail_cleanly(self, flags):
        code, text = run_cli(["serve", "--no-datasets", *flags])
        assert code == 2
        assert text.startswith("error: ")
        assert "out of range (0-65535)" in text or "bad --tcp" in text

    @pytest.mark.parametrize("ttl", ["0", "-5", "nan"])
    @pytest.mark.parametrize(
        "front_end", [[], ["--tcp", "127.0.0.1:0"], ["--socket", "unused"]],
        ids=["stdio", "tcp", "socket"],
    )
    def test_non_positive_session_ttl_fails_cleanly(self, front_end, ttl):
        code, text = run_cli(
            ["serve", "--no-datasets", "--session-ttl", ttl, *front_end]
        )
        assert code == 2
        assert text.startswith("error: session_ttl must be a positive")

    def test_parse_replication(self):
        from repro.cli import _parse_replication

        assert _parse_replication(None) == {}
        assert _parse_replication(["wiki=2", "email=1"]) == {
            "wiki": 2, "email": 1,
        }
        for bad in ("wiki", "wiki=", "wiki=0", "=2"):
            with pytest.raises(SystemExit):
                _parse_replication([bad])

    def test_tcp_serve_roundtrip(self, tmp_path, edge_file):
        """`repro serve --socket` end to end through the CLI entry point."""
        import asyncio
        import threading

        from repro.server import ReproClient

        sock = str(tmp_path / "cli.sock")
        out = io.StringIO()
        done = []

        def serve():
            done.append(main(["serve", "--socket", sock, "--no-datasets"], out=out))

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()

        async def drive():
            for _ in range(200):
                try:
                    return await ReproClient.connect(unix_path=sock)
                except (ConnectionError, FileNotFoundError, OSError):
                    await asyncio.sleep(0.02)
            raise AssertionError("server never came up")

        async def session():
            client = await drive()
            response = await client.request(f"load g {edge_file}")
            assert "loaded 'g' v1" in response[0]
            lines = await client.query("g", k=1, gamma=3)
            assert lines[1].startswith("top-1:")
            assert (await client.request("shutdown")) == ["shutting down"]

        asyncio.run(session())
        thread.join(timeout=15)
        assert not thread.is_alive()
        assert done == [0]
        assert "listening on unix://" in out.getvalue()

    def test_script_rejected_in_network_mode(self, tmp_path):
        script = tmp_path / "s.txt"
        script.write_text("quit\n", encoding="utf-8")
        code, text = run_cli([
            "serve", "--tcp", "0", "--script", str(script), "--no-datasets",
        ])
        assert code == 2
        assert "error: --script" in text

    def test_replication_beyond_shards_fails_cleanly(self):
        code, text = run_cli([
            "serve", "--tcp", "0", "--no-datasets",
            "--shards", "2", "--replicate", "wiki=4",
        ])
        assert code == 2
        assert text.startswith("error: replication")

    def test_adaptive_flag_is_a_usage_error(self):
        # A subprocess, so a flag that were accepted again would time
        # out instead of serving forever inside the test run.
        src = os.path.dirname(os.path.dirname(repro.__file__))
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "serve", "--adaptive",
             "--tcp", "127.0.0.1:0"],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 2
        assert "unrecognized arguments: --adaptive" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_server_only_flags_rejected_in_stdio_mode(self):
        code, text = run_cli([
            "serve", "--no-datasets", "--warmstart", "cache.json",
        ])
        assert code == 2
        assert "--warmstart" in text and "network server" in text
        code, text = run_cli(["serve", "--no-datasets", "--shards", "2"])
        assert code == 2
        assert "--shards" in text
