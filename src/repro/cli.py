"""Command-line interface: query graphs from the shell.

Seven subcommands::

    repro query  --dataset wiki --k 10 --gamma 10
    repro query  --edges g.txt --algorithm forward --k 5
    repro stats  --dataset arabic
    repro stream --dataset wiki --gamma 10 --min-influence 1e-3
    repro mutate --dataset email insert=100:200 --k 3 --gamma 5
    repro serve  --cache-size 256
    repro serve  --tcp 8642 --shards 4 --warmstart cache.json
    repro trace  --port 9100 --slow
    repro metrics --port 9100 --history

(also reachable as ``python -m repro`` / ``python -m repro.cli``.)

``query`` runs a top-k search with a chosen algorithm (localsearch,
localsearch-p, forward, onlineall, backward, truss, noncontainment) on a
registered stand-in dataset or a SNAP-style edge-list file (weights file
optional; PageRank otherwise).  ``stats`` prints the Table-1 statistics.
``stream`` runs the progressive search and prints communities until an
influence floor or count cap is hit — the "no k needed" workflow of
Section 4.  ``mutate`` applies one live edge-mutation batch and, with
``--k``, queries the mutated graph.  ``serve`` starts the long-lived
serving loop of :mod:`repro.service`: graphs are built once and pinned,
answers are cached and reused across queries, and progressive sessions
stream results on demand (type ``help`` at its prompt for the
protocol).  With ``--tcp``/``--socket`` it becomes the concurrent
asyncio server of :mod:`repro.server` — many clients, batch-coalesced
progressive execution, per-graph shard threads, and warm-start cache
persistence.  ``trace`` and ``metrics`` read a serving process's
``--metrics-port`` endpoint.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from .api.facade import Repro
from .api.facade import open as api_open
from .api.spec import ALGORITHMS, AUTO, QuerySpec
from .core.fastpeel import KERNEL_ENV_VAR, KERNELS
from .errors import ReproError
from .graph.io import load_snap_graph
from .graph.metrics import GraphStatistics, graph_statistics
from .service.shell import (
    ServiceShell,
    parse_mutation_ops,
    render_metrics,
    render_mutation,
    render_traces,
)
from .workloads.datasets import dataset_names, load_dataset

__all__ = ["main", "build_parser"]

def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Top-k influential community search (Bi et al., VLDB'18)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_graph_source(p: argparse.ArgumentParser) -> None:
        src = p.add_mutually_exclusive_group(required=True)
        src.add_argument(
            "--dataset", choices=dataset_names(),
            help="a registered synthetic stand-in dataset",
        )
        src.add_argument(
            "--edges", metavar="FILE",
            help="SNAP-style edge list file ('u v' per line)",
        )
        p.add_argument(
            "--weights", metavar="FILE", default=None,
            help="optional 'vertex weight' file (default: PageRank)",
        )

    query = sub.add_parser("query", help="run one top-k query")
    add_graph_source(query)
    query.add_argument("--k", type=int, default=10)
    query.add_argument("--gamma", type=int, default=10)
    query.add_argument(
        "--algorithm",
        choices=[name for name in ALGORITHMS if name != AUTO],
        default="localsearch-p",
    )
    query.add_argument("--delta", type=float, default=2.0)
    query.add_argument(
        "--members", action="store_true",
        help="print full member lists (default: sizes only)",
    )
    query.add_argument(
        "--kernel", choices=tuple(KERNELS), default=None,
        help="peel kernel (default: $REPRO_KERNEL, then auto = array; "
             "numpy is an old name for array)",
    )

    stats = sub.add_parser("stats", help="print Table-1 statistics")
    add_graph_source(stats)

    mutate = sub.add_parser(
        "mutate",
        help="apply live edge mutations, then (optionally) query",
    )
    add_graph_source(mutate)
    mutate.add_argument(
        "ops", nargs="+", metavar="OP",
        help="mutation ops: insert=U:V, delete=U:V, reweight=V:W "
             "(applied in order, one versioned batch)",
    )
    mutate.add_argument(
        "--k", type=int, default=None,
        help="also run a top-k query on the mutated graph",
    )
    mutate.add_argument("--gamma", type=int, default=10)
    mutate.add_argument("--delta", type=float, default=2.0)

    stream = sub.add_parser(
        "stream", help="progressive search: no k, stop on conditions"
    )
    add_graph_source(stream)
    stream.add_argument("--gamma", type=int, default=10)
    stream.add_argument(
        "--kernel", choices=tuple(KERNELS), default=None,
        help="peel kernel (default: $REPRO_KERNEL, then auto)",
    )
    stream.add_argument(
        "--min-influence", type=float, default=None,
        help="stop once influence drops below this value",
    )
    stream.add_argument(
        "--limit", type=int, default=20,
        help="maximum number of communities to print (default 20)",
    )

    serve = sub.add_parser(
        "serve", help="long-lived serving loop (registry + cache + sessions)"
    )
    serve.add_argument(
        "--cache-size", type=int, default=256,
        help="result-cache capacity in entries (default 256)",
    )
    serve.add_argument(
        "--max-cached-k", type=int, default=None,
        help="retain at most this many communities per cache entry "
             "(default: unbounded)",
    )
    serve.add_argument(
        "--session-ttl", type=float, default=300.0,
        help="idle seconds before a progressive session expires (default 300)",
    )
    serve.add_argument(
        "--script", metavar="FILE", default=None,
        help="read protocol commands from FILE instead of stdin",
    )
    serve.add_argument(
        "--no-datasets", action="store_true",
        help="start with an empty registry (use 'load' to add graphs)",
    )
    serve.add_argument(
        "--tcp", metavar="[HOST:]PORT", default=None,
        help="serve the line protocol over TCP (asyncio, concurrent "
             "clients); default host 127.0.0.1",
    )
    serve.add_argument(
        "--socket", metavar="PATH", default=None,
        help="serve the line protocol over a unix domain socket",
    )
    serve.add_argument(
        "--shards", type=int, default=None,
        help="shard threads, routed by graph, running graph builds and "
             "whole-graph algorithms (network mode only; default 4)",
    )
    serve.add_argument(
        "--replicate", metavar="GRAPH=COPIES", action="append", default=None,
        help="replicate a hot graph across COPIES shards, which run "
             "its graph builds and whole-graph algorithms; progressive "
             "queries run on the event loop (network mode only; "
             "repeatable)",
    )
    serve.add_argument(
        "--max-batch", type=int, default=None,
        help="maximum queries coalesced onto one engine pass "
             "(network mode only; default 64)",
    )
    serve.add_argument(
        "--batch-window-ms", type=float, default=None,
        help="collection pause before flushing a query batch (network "
             "mode only; default 0: coalesce only under load)",
    )
    serve.add_argument(
        "--warmstart", metavar="FILE", default=None,
        help="restore the result cache from FILE on boot and snapshot "
             "it back on shutdown (network mode only)",
    )
    serve.add_argument(
        "--warmstart-interval", metavar="SECONDS", type=float, default=None,
        help="also snapshot the cache every SECONDS in the background, "
             "so a crash (not just a clean shutdown) keeps it warm "
             "(requires --warmstart; network mode only)",
    )
    serve.add_argument(
        "--metrics-port", type=int, default=None, metavar="PORT",
        help="serve Prometheus-text /metrics, /metrics.json, /traces, "
             "/dashboard, /history.json, /readyz and /profile over HTTP "
             "on this port (0 = ephemeral; stdlib only, works in both "
             "stdio and network modes)",
    )
    serve.add_argument(
        "--trace-sample", type=float, default=None, metavar="RATE",
        help="trace roughly this fraction of queries end to end "
             "(0 disables; the first query is always traced; default "
             "0.02 once any observability flag is set)",
    )
    serve.add_argument(
        "--slow-ms", type=float, default=None, metavar="MS",
        help="traces slower than this are retained as slow-query "
             "exemplars ('trace slow' / /traces/slow; default 250)",
    )
    serve.add_argument(
        "--slo", metavar="SPEC", default=None,
        help="serving objectives, e.g. 'p95_ms=50,err_rate=0.01"
             "[,window_s=60]' — evaluated continuously; breaches flip "
             "/readyz to 503 and export repro_slo_* series",
    )
    serve.add_argument(
        "--history-interval", type=float, default=None, metavar="SECONDS",
        help="seconds between metrics-history samples feeding "
             "/dashboard and /history.json (default 1.0)",
    )

    def add_endpoint(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--port", type=int, required=True,
            help="the server's --metrics-port",
        )
        p.add_argument(
            "--host", default="127.0.0.1", help="metrics host (default local)"
        )
        p.add_argument(
            "--json", action="store_true", help="raw JSON instead of rendering"
        )

    trace = sub.add_parser(
        "trace",
        help="fetch traces from a serving repro's metrics endpoint",
    )
    add_endpoint(trace)
    trace.add_argument(
        "--slow", action="store_true",
        help="list retained slow-query exemplars instead of recent traces",
    )
    trace.add_argument(
        "--id", default=None, metavar="TRACE_ID",
        help="print one trace as a full span tree",
    )
    trace.add_argument(
        "--limit", type=int, default=20,
        help="maximum traces to list (default 20)",
    )

    metrics = sub.add_parser(
        "metrics",
        help="fetch metrics from a serving repro's metrics endpoint",
    )
    add_endpoint(metrics)
    metrics.add_argument(
        "--history", action="store_true",
        help="fetch the derived time-series (/history.json) instead of "
             "the instantaneous snapshot",
    )
    metrics.add_argument(
        "--window", type=float, default=None, metavar="SECONDS",
        help="history window to fetch (with --history; default 300)",
    )
    return parser


def _open_facade(args: argparse.Namespace) -> "tuple[Repro, str]":
    """An in-process facade + the graph name the command targets.

    This is the CLI's whole graph-loading story now: a dataset name maps
    to the preloaded registry, an edge-list file is registered as the
    facade's default graph.  Either way the query subcommands build one
    :class:`QuerySpec` and hand it to the same ``topk`` surface every
    other frontend uses.  ``--kernel`` is exported as ``REPRO_KERNEL``
    first: the peel kernel is process configuration, resolved once when
    the facade's engine is built.
    """
    kernel = getattr(args, "kernel", None)
    if kernel is not None:
        os.environ[KERNEL_ENV_VAR] = kernel
    if args.dataset:
        return api_open(), args.dataset
    rp = api_open(args.edges, weights=args.weights, datasets=False)
    return rp, rp.graph().name


def _build_spec(args: argparse.Namespace, graph: str, **overrides) -> QuerySpec:
    params = dict(
        graph=graph,
        gamma=args.gamma,
        k=getattr(args, "k", 10),
        algorithm=getattr(args, "algorithm", "localsearch-p"),
        delta=getattr(args, "delta", 2.0),
    )
    params.update(overrides)
    return QuerySpec(**params)


def _print_lines(lines, out) -> None:
    for line in lines:
        print(line, file=out)


def _parse_tcp(value: str):
    """``[HOST:]PORT`` -> ``(host, port)`` (default host 127.0.0.1);
    a ``ValueError`` for anything else."""
    from .server.transport import check_port

    host, _, port_text = value.rpartition(":")
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(
            f"bad --tcp value {value!r} (want [HOST:]PORT)"
        ) from None
    return (host or "127.0.0.1", check_port(port, "--tcp port"))


def _parse_replication(values):
    """``["wiki=2", ...]`` -> ``{"wiki": 2, ...}``."""
    replication = {}
    for item in values or ():
        name, sep, copies_text = item.partition("=")
        try:
            copies = int(copies_text)
        except ValueError:
            copies = 0
        if not sep or not name or copies < 1:
            raise ValueError(
                f"bad --replicate value {item!r} (want GRAPH=COPIES)"
            )
        replication[name] = copies
    return replication


def _run_server_async(server, tcp, args: argparse.Namespace, out) -> int:
    """Run ``server`` as the network server of ``repro serve
    --tcp/--socket`` until it is shut down."""
    import asyncio
    import signal

    async def _main() -> None:
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, server.request_shutdown)
            except (NotImplementedError, RuntimeError, ValueError):
                # Unsupported platform, or not the main thread (tests).
                pass
        await server.start(tcp=tcp, unix_path=args.socket)
        if server.tcp_address is not None:
            host, port = server.tcp_address
            print(f"listening on tcp://{host}:{port}", file=out)
        if server.unix_path is not None:
            print(f"listening on unix://{server.unix_path}", file=out)
        if server.metrics_address is not None:
            mhost, mport = server.metrics_address
            print(f"metrics on http://{mhost}:{mport}/metrics", file=out)
        if server.warmstart is not None:
            print(
                f"warm start: {server.restored_entries} cache entries "
                "restored",
                file=out,
            )
        out.flush()
        await server.serve_until_shutdown()
        if server.warmstart is not None:
            print(
                f"warm start: {server.saved_entries} cache entries saved",
                file=out,
            )

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:  # pragma: no cover — signal-handler fallback
        return 130
    except OSError as exc:  # bind failures (port/socket in use, ...)
        print(f"error: {exc}", file=out)
        return 2
    return 0


def _run_serve(args: argparse.Namespace, out, in_stream) -> int:
    """``repro serve``: the network server with ``--tcp``/``--socket``,
    else the stdio loop over the same :class:`ReproServer` stack."""
    from .server import ReproServer

    network = args.tcp is not None or args.socket is not None
    if network and args.script is not None:
        print(
            "error: --script drives the stdio loop and is not supported "
            "with --tcp/--socket (use repro.server.ReproClient instead)",
            file=out,
        )
        return 2
    ignored = [
        flag
        for flag, value in (
            ("--warmstart", args.warmstart),
            ("--warmstart-interval", args.warmstart_interval),
            ("--shards", args.shards),
            ("--replicate", args.replicate),
            ("--max-batch", args.max_batch),
            ("--batch-window-ms", args.batch_window_ms),
        )
        if value is not None
    ]
    if ignored and not network:
        print(
            f"error: {', '.join(ignored)} only appl"
            f"{'y' if len(ignored) > 1 else 'ies'} to the network server; "
            "add --tcp PORT or --socket PATH",
            file=out,
        )
        return 2
    try:
        tcp = _parse_tcp(args.tcp) if args.tcp is not None else None
        server = ReproServer(
            cache_size=args.cache_size,
            max_cached_k=args.max_cached_k,
            session_ttl=args.session_ttl,
            shards=args.shards if args.shards is not None else 4,
            replication=_parse_replication(args.replicate),
            max_batch=args.max_batch if args.max_batch is not None else 64,
            batch_window_ms=(
                args.batch_window_ms
                if args.batch_window_ms is not None
                else 0.0
            ),
            warmstart_path=args.warmstart,
            warmstart_interval=args.warmstart_interval,
            preload_datasets=not args.no_datasets,
            metrics_port=args.metrics_port,
            trace_sample=args.trace_sample,
            slow_ms=args.slow_ms,
            slo=args.slo,
            history_interval=(
                args.history_interval
                if args.history_interval is not None
                else 1.0
            ),
        )
    except ValueError as exc:
        print(f"error: {exc}", file=out)
        return 2
    if network:
        return _run_server_async(server, tcp, args, out)
    server.start_observability()
    try:
        if server.metrics_address is not None:
            mhost, mport = server.metrics_address
            print(f"metrics on http://{mhost}:{mport}/metrics", file=out)
        shell = ServiceShell(
            server.engine, out, session_ttl=server.session_ttl
        )
        if args.script is not None:
            with open(args.script, "r", encoding="utf-8") as handle:
                return shell.run(handle)
        in_stream = in_stream if in_stream is not None else sys.stdin
        if getattr(in_stream, "isatty", lambda: False)():
            shell.prompt = "repro> "
        return shell.run(in_stream)
    finally:
        server.stop_observability()
        server.shards.shutdown(wait=False)


def _fetch(args: argparse.Namespace, path: str, missing, out):
    """GET ``path`` off a server's metrics endpoint as JSON.  On failure
    print the error (``missing`` answers a 404 when given) and return
    None."""
    import urllib.error
    import urllib.request

    base = f"http://{args.host}:{args.port}"
    try:
        with urllib.request.urlopen(base + path, timeout=10.0) as response:
            return json.loads(response.read().decode("utf-8"))
    except urllib.error.HTTPError as exc:
        if exc.code == 404 and missing is not None:
            print(f"error: {missing}", file=out)
        else:
            print(f"error: {base}{path}: HTTP {exc.code}", file=out)
    except (urllib.error.URLError, OSError) as exc:
        reason = getattr(exc, "reason", exc)
        print(
            f"error: cannot reach {base} ({reason}) — is the server "
            "running with --metrics-port?",
            file=out,
        )
    return None


def _run_trace(args: argparse.Namespace, out) -> int:
    """``repro trace`` — pull traces off a server's metrics endpoint."""
    if args.id is not None:
        path = f"/traces/{args.id}"
    else:
        path = f"/traces{'/slow' if args.slow else ''}?limit={args.limit}"
    missing = None if args.id is None else f"no trace {args.id!r} retained"
    payload = _fetch(args, path, missing, out)
    if payload is None:
        return 1
    if not (args.json or args.id is not None) and isinstance(payload, dict):
        payload = payload.get("traces", [])
    _print_lines(render_traces(payload, args.slow, args.json), out)
    return 0


def _run_metrics(args: argparse.Namespace, out) -> int:
    """``repro metrics`` — pull the snapshot / history off a server."""
    if args.history:
        window = args.window if args.window is not None else 300.0
        payload = _fetch(
            args,
            f"/history.json?window={window:g}",
            "history collector disabled on this server",
            out,
        )
    else:
        payload = _fetch(args, "/metrics.json", None, out)
    if payload is None:
        return 1
    if args.json:
        print(json.dumps(payload, sort_keys=True), file=out)
        return 0
    if args.history:
        points = payload.get("points", [])
        if not points:
            print("(no history points yet — is traffic flowing?)", file=out)
        for point in points:
            lat = point.get("latency_overall_ms") or {}
            p95 = lat.get("p95")
            hit = point.get("hit_rate")
            print(
                f"t={point['t']:.1f} qps={point['qps']:.2f} "
                f"err_rate={point['error_rate']:.3f} "
                + (f"hit_rate={hit:.3f} " if hit is not None else "hit_rate=– ")
                + (f"p95={p95:.3f}ms " if p95 is not None else "p95=– ")
                + f"queue={point['queue_depth']}",
                file=out,
            )
        status = payload.get("slo_status")
        if status is not None:
            verdict = "ok" if status["ok"] else "BREACH"
            objectives = ", ".join(
                f"{name}={obj['value'] if obj['value'] is not None else '–'}"
                f"/{obj['target']:g}"
                for name, obj in sorted(status["objectives"].items())
            )
            print(f"slo[{verdict}]: {objectives}", file=out)
        return 0
    _print_lines(render_metrics(payload), out)
    traces = payload.get("traces")
    if traces:
        print(
            f"traces: recorded={traces['traces_recorded']} "
            f"slow={traces['slow_traces']} "
            f"spans={traces['spans_recorded']}",
            file=out,
        )
    return 0


def main(argv: Optional[List[str]] = None, out=None, in_stream=None) -> int:
    """CLI entry point; returns a process exit code.

    A typed error (:class:`~repro.errors.ReproError`, e.g. an unknown
    vertex in a ``mutate`` op) prints one ``error:`` line on stderr and
    exits 1.
    """
    out = out if out is not None else sys.stdout
    args = build_parser().parse_args(argv)
    try:
        return _run_command(args, out, in_stream)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _run_command(args: argparse.Namespace, out, in_stream) -> int:
    if args.command == "serve":
        return _run_serve(args, out, in_stream)

    if args.command == "trace":
        return _run_trace(args, out)

    if args.command == "metrics":
        return _run_metrics(args, out)

    if args.command == "stats":
        graph = (
            load_dataset(args.dataset)
            if args.dataset
            else load_snap_graph(args.edges, args.weights)
        )
        stats = graph_statistics(
            graph, args.dataset or args.edges or "graph"
        )
        for name, value in zip(GraphStatistics.header(), stats.as_row()):
            print(f"{name:>12}: {value}", file=out)
        return 0

    if args.command == "mutate":
        rp, graph_name = _open_facade(args)
        event = rp.mutate(graph_name, parse_mutation_ops(args.ops))
        print(render_mutation(graph_name, event), file=out)
        if args.k is not None:
            views = rp.topk(_build_spec(args, graph_name)).communities
            _print_lines(ServiceShell.format_views(views, False), out)
        return 0

    if args.command == "query":
        rp, graph_name = _open_facade(args)
        spec = _build_spec(args, graph_name)
        result_set = rp.topk(spec)
        views = result_set.communities
        print(
            f"{args.algorithm}: {len(views)} communities "
            f"(k={args.k}, gamma={args.gamma}) "
            f"in {result_set.elapsed_ms:.2f} ms",
            file=out,
        )
        _print_lines(ServiceShell.format_views(views, args.members), out)
        return 0

    if args.command == "stream":
        rp, graph_name = _open_facade(args)
        # The stream surface is the same lazy ResultSet: communities are
        # fetched in doubling batches only as far as the stop conditions
        # let the iteration run.
        spec = _build_spec(
            args, graph_name, k=args.limit, algorithm="localsearch-p"
        )
        printed = 0
        for view in rp.topk(spec).stream():
            if (
                args.min_influence is not None
                and view.influence < args.min_influence
            ):
                print(
                    f"(stopped: influence fell below {args.min_influence})",
                    file=out,
                )
                break
            printed += 1
            _print_lines(
                ServiceShell.format_views([view], False, start=printed), out
            )
            if printed >= args.limit:
                print(f"(stopped: limit {args.limit} reached)", file=out)
                break
        return 0

    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    raise SystemExit(main())
