"""ServiceShell — the `repro serve` line-protocol loop.

A dependency-free serving frontend: one command per line on an input
stream, human-readable responses on an output stream.  The same loop
serves an interactive REPL (stdin on a TTY), a piped script, or a test
feeding a ``StringIO`` — no network stack required, while exercising the
full service stack (registry -> planner -> cache -> sessions -> metrics)
exactly as a socket server would.

Protocol (one command per line; ``key=value`` arguments in any order)::

    graphs
    load NAME EDGES_FILE [WEIGHTS_FILE]
    mutate GRAPH insert=U:V delete=U:V reweight=V:W ...
    query GRAPH [k=10] [gamma=10] [algorithm=auto] [delta=2.0] [members]
    session open GRAPH [gamma=10] [delta=2.0]
    session next SID [N]
    session close SID
    sessions
    metrics
    help
    quit
"""

from __future__ import annotations

import json
import math
import shlex
from typing import Callable, Dict, List, Optional, Sequence, TextIO, Tuple

from ..api.spec import QuerySpec, parse_spec_tokens, parse_wire_query
from ..errors import QueryParameterError, ReproError
from ..obs.trace import Tracer, format_trace, format_trace_line
from .engine import QueryEngine
from .metrics import ServiceMetrics
from .model import CommunityView, QueryResult
from .sessions import SessionManager

__all__ = ["ServiceShell", "render_metrics", "parse_mutation_ops"]

_HELP = """\
commands:
  graphs                                list registered graphs
  load NAME EDGES [WEIGHTS]             register an edge-list file
  mutate GRAPH insert=U:V delete=U:V reweight=V:W ...
                                        apply a live edge-mutation batch
  query GRAPH [k=N] [gamma=N] [algorithm=A] [delta=F]
        [cohesion=core|truss] [containment=BOOL] [members] [json]
  query {"v": 1, "graph": ...}          versioned wire-JSON query
  session open GRAPH [gamma=N] [delta=F]
  session next SID [N]                  stream the next N communities
  session close SID
  sessions                              list active sessions
  metrics [json]                        service counters and latencies
                                        (one JSON document with 'json')
  trace [slow] [json] [ID] [limit=N]    recent (or slow / one) traces
  profile [seconds=N] [top=N]           cProfile the live engine for N s
  help                                  this text
  quit                                  close this connection / loop
  shutdown                              stop the whole server gracefully\
"""


def render_metrics(snap: Dict) -> List[str]:
    """The ``metrics`` command's text rendering of one snapshot.

    Shared verbatim by the shell command and the ``repro metrics`` CLI
    client (which fetches the same snapshot over ``/metrics.json``), so
    the two frontends can never drift apart.
    """
    lines: List[str] = []
    lines.append(f"queries_served: {snap['queries_served']}")
    lines.append(f"cache_hit_rate: {snap['cache_hit_rate']:.3f}")
    for source, count in sorted(snap["by_source"].items()):
        lines.append(f"source[{source}]: {count}")
    for kernel, count in sorted(snap.get("by_kernel", {}).items()):
        lines.append(f"kernel[{kernel}]: {count}")
    for backend, count in sorted(snap.get("by_backend", {}).items()):
        lines.append(f"backend[{backend}]: {count}")
    for algo, pcts in sorted(snap["latency_ms"].items()):
        rendered = ", ".join(
            f"{name}={value:.3f}ms" if value is not None else f"{name}=–"
            for name, value in pcts.items()
        )
        lines.append(f"latency[{algo}]: {rendered}")
    for family, row in sorted(snap.get("by_family", {}).items()):
        p50, p95 = row.get("p50_ms"), row.get("p95_ms")
        lines.append(
            f"family[{family}]: queries={row['queries']} "
            f"hit_rate={row['hit_rate']:.3f} "
            + (f"p50={p50:.3f}ms " if p50 is not None else "p50=– ")
            + (f"p95={p95:.3f}ms" if p95 is not None else "p95=–")
        )
    lines.append(
        f"sessions: opened={snap['sessions_opened']} "
        f"closed={snap['sessions_closed']} "
        f"expired={snap['sessions_expired']}"
    )
    server = snap.get("server") or {}
    if server.get("connections_opened") or server.get("batches"):
        lines.append(
            f"connections: opened={server['connections_opened']} "
            f"closed={server['connections_closed']}"
        )
        lines.append(
            f"batches: {server['batches']} "
            f"(queries={server['batched_queries']}, "
            f"max_width={server['max_batch_width']}, "
            f"coalesce_rate={server['coalesce_rate']:.3f})"
        )
        lines.append(
            f"queue_depth: now={server['queue_depth']} "
            f"peak={server['queue_depth_peak']}"
        )
        if server.get("replica_idle_dispatches"):
            lines.append(
                "replica_idle_dispatches: "
                f"{server['replica_idle_dispatches']}"
            )
    live = snap.get("live") or {}
    if live.get("mutations_applied") or live.get("compactions"):
        lines.append(
            f"mutations: applied={live['mutations_applied']} "
            f"compactions={live['compactions']} "
            f"invalidated={live['families_invalidated']} "
            f"preserved={live['families_preserved']}"
        )
        for graph, generation in sorted(
            (live.get("graph_generation") or {}).items()
        ):
            lines.append(f"generation[{graph}]: v{generation}")
    cluster = snap.get("cluster") or {}
    if cluster.get("by_worker") or cluster.get("worker_restarts"):
        for worker, count in sorted(cluster["by_worker"].items()):
            depth = cluster.get("queue_depth", {}).get(worker, 0)
            lines.append(
                f"cluster[{worker}]: dispatches={count} depth={depth}"
            )
        attaches = ", ".join(
            f"{mode}={count}"
            for mode, count in sorted(cluster["segment_attaches"].items())
        )
        lines.append(
            f"cluster: attaches=({attaches or 'none'}) "
            f"restarts={cluster['worker_restarts']} "
            f"depth_peak={cluster['queue_depth_peak']}"
        )
    control = snap.get("control") or {}
    if control.get("decisions") or control.get("admission_rejected"):
        for policy, count in sorted(
            (control.get("decisions") or {}).items()
        ):
            lines.append(f"control[{policy}]: decisions={count}")
        for tenant, count in sorted(
            (control.get("admission_rejected") or {}).items()
        ):
            lines.append(f"admission[{tenant}]: rejected={count}")
    return lines


def _mutation_label(text: str):
    """Vertex labels in mutate ops: int when it parses, else string
    (matching the loader's labelling of edge-list files)."""
    try:
        return int(text)
    except ValueError:
        return text


def parse_mutation_ops(tokens: Sequence[str]) -> List[Tuple]:
    """Parse ``insert=U:V`` / ``delete=U:V`` / ``reweight=V:W`` tokens
    into label-level op tuples (the shared grammar of the shell's
    ``mutate`` command and the ``repro mutate`` CLI)."""
    usage = "want insert=U:V, delete=U:V, or reweight=V:W"
    ops: List[Tuple] = []
    for token in tokens:
        kind, sep, value = token.partition("=")
        left, sep2, right = value.partition(":")
        if not sep or not sep2 or kind not in (
            "insert", "delete", "reweight"
        ):
            raise QueryParameterError(f"bad mutation op {token!r} ({usage})")
        if kind == "reweight":
            try:
                weight = float(right)
            except ValueError as exc:
                raise QueryParameterError(
                    f"bad reweight value in {token!r}"
                ) from exc
            if not math.isfinite(weight):
                raise QueryParameterError(
                    f"reweight value must be finite in {token!r}"
                )
            ops.append((kind, _mutation_label(left), weight))
        else:
            ops.append((kind, _mutation_label(left), _mutation_label(right)))
    return ops


def _parse_kv(tokens: List[str]) -> Tuple[Dict[str, str], List[str]]:
    """Split tokens into ``key=value`` pairs and bare flags."""
    kv: Dict[str, str] = {}
    flags: List[str] = []
    for token in tokens:
        if "=" in token:
            key, _, value = token.partition("=")
            kv[key] = value
        else:
            flags.append(token)
    return kv, flags


class ServiceShell:
    """Drive a :class:`QueryEngine` + :class:`SessionManager` over text.

    ``on_shutdown`` is the hook behind the ``shutdown`` command: the
    asyncio server passes a (thread-safe) callback requesting a graceful
    whole-server stop, so the same command dispatch serves stdio and
    network transports without anyone calling ``sys.exit`` mid-loop.
    """

    def __init__(
        self,
        engine: QueryEngine,
        sessions: SessionManager,
        out: TextIO,
        metrics: Optional[ServiceMetrics] = None,
        prompt: str = "",
        on_shutdown: Optional[Callable[[], None]] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.engine = engine
        self.sessions = sessions
        self.out = out
        self.metrics = metrics if metrics is not None else engine.metrics
        self.prompt = prompt
        self.on_shutdown = on_shutdown
        self.tracer = tracer if tracer is not None else engine.tracer

    # ------------------------------------------------------------------
    @staticmethod
    def parse_query_line(rest: str) -> Tuple[QuerySpec, bool]:
        """Parse everything after ``query ``: ``(QuerySpec, members)``.

        Accepts both request shapes every frontend shares: the
        ``key=value`` token grammar, and — when the remainder opens a
        JSON object — the versioned wire document consumed by
        :func:`repro.api.spec.parse_wire_query`.
        """
        if rest.lstrip().startswith("{"):
            return parse_wire_query(rest)
        try:
            tokens = shlex.split(rest, comments=True)
        except ValueError as exc:
            raise QueryParameterError(str(exc)) from exc
        return parse_spec_tokens(tokens)

    @staticmethod
    def format_views(
        views: Sequence[CommunityView], members: bool, start: int = 1
    ) -> List[str]:
        """Render community views as protocol lines.

        Only the ``top-{i}`` index depends on position; the rest of each
        view's text is memoised on the view.
        """
        lines: List[str] = []
        for i, view in enumerate(views, start=start):
            lines.append(f"top-{i}: {view.text_head()}")
            if members:
                lines.append(view.text_members())
        return lines

    @classmethod
    def render_result(
        cls, result: QueryResult, members: bool, as_json: bool = False
    ) -> List[str]:
        """Render one served query exactly as the ``query`` command does.

        With ``as_json`` the response is a single deterministic JSON
        line (the structured wire mode shared by the stdio shell and
        the network transport).
        """
        if as_json:
            return [result.to_json(include_members=members)]
        header = (
            f"{result.algorithm}[{result.source}]: "
            f"{len(result.communities)} communities "
            f"(k={result.query.k}, gamma={result.query.gamma}) "
            f"in {result.elapsed_ms:.2f} ms"
        )
        return [header] + cls.format_views(list(result.communities), members)

    # ------------------------------------------------------------------
    def _print(self, text: str = "") -> None:
        print(text, file=self.out)

    def _print_views(
        self, views: List[CommunityView], members: bool, start: int = 1
    ) -> None:
        for line in self.format_views(views, members, start=start):
            self._print(line)

    # ------------------------------------------------------------------
    def _cmd_graphs(self, tokens: List[str]) -> None:
        for row in self.engine.registry.describe():
            status = (
                f"loaded v{row['version']} "
                f"({row['vertices']:,} vertices, {row['edges']:,} edges)"
                if row["loaded"]
                else "not loaded"
            )
            self._print(f"{row['name']:>14}: {status} — {row['description']}")

    def _cmd_load(self, tokens: List[str]) -> None:
        if not 2 <= len(tokens) <= 3:
            raise QueryParameterError(
                "usage: load NAME EDGES_FILE [WEIGHTS_FILE]"
            )
        name, edges = tokens[0], tokens[1]
        weights = tokens[2] if len(tokens) == 3 else None
        self.engine.registry.register_edge_list(
            name, edges, weights, replace=True
        )
        handle = self.engine.registry.get(name)
        self._print(
            f"loaded {name!r} v{handle.version}: "
            f"{handle.num_vertices:,} vertices, {handle.num_edges:,} edges"
        )

    def _cmd_mutate(self, tokens: List[str]) -> None:
        if len(tokens) < 2:
            raise QueryParameterError(
                "usage: mutate GRAPH insert=U:V delete=U:V reweight=V:W ..."
            )
        name = tokens[0]
        ops = parse_mutation_ops(tokens[1:])
        apply_ops = getattr(self.engine.registry, "apply", None)
        if apply_ops is None:
            raise QueryParameterError(
                "this registry does not support live mutations"
            )
        event = apply_ops(name, ops)
        stats = event.stats
        changed = (
            f"+{stats.inserted} -{stats.deleted} ~{stats.reweighted}"
            if stats is not None
            else "?"
        )
        barrier = (
            f"{event.barrier:.8g}"
            if event.barrier != float("-inf")
            else "none"
        )
        self._print(
            f"mutated {name!r} v{event.old_version} -> v{event.new_version}: "
            f"{changed} (noops={stats.noops if stats else 0}) "
            f"barrier={barrier} "
            f"invalidated={event.invalidated} preserved={event.preserved} "
            f"pending_deltas={event.pending_deltas}"
        )

    def _cmd_query(self, rest: str) -> None:
        spec, members = self.parse_query_line(rest)
        result = self.engine.execute(spec)
        for line in self.render_result(result, members, spec.mode == "json"):
            self._print(line)

    def _cmd_session(self, tokens: List[str]) -> None:
        if not tokens:
            raise QueryParameterError(
                "usage: session open|next|close|... (see help)"
            )
        action, rest = tokens[0], tokens[1:]
        if action == "open":
            if not rest:
                raise QueryParameterError(
                    "usage: session open GRAPH [gamma=N] [delta=F]"
                )
            kv, flags = _parse_kv(rest[1:])
            unknown = flags + [
                key for key in kv if key not in ("gamma", "delta")
            ]
            if unknown:
                raise QueryParameterError(
                    f"unknown session argument(s): {', '.join(unknown)}"
                )
            session = self.sessions.create(
                rest[0],
                gamma=int(kv.get("gamma", "10")),
                delta=float(kv.get("delta", "2.0")),
            )
            self._print(
                f"session {session.session_id} open: graph={session.graph} "
                f"gamma={session.gamma}"
            )
        elif action == "next":
            if not rest:
                raise QueryParameterError("usage: session next SID [N]")
            count = int(rest[1]) if len(rest) > 1 else 1
            session = self.sessions.get(rest[0])
            start = session.delivered
            views, done = self.sessions.next(rest[0], count)
            self._print_views(views, False, start=start + 1)
            if done:
                self._print(f"(session {rest[0]} exhausted)")
        elif action == "close":
            if not rest:
                raise QueryParameterError("usage: session close SID")
            self.sessions.close(rest[0])
            self._print(f"session {rest[0]} closed")
        else:
            raise QueryParameterError(
                f"unknown session action {action!r} (open/next/close)"
            )

    def _cmd_sessions(self, tokens: List[str]) -> None:
        rows = self.sessions.active()
        if not rows:
            self._print("(no active sessions)")
        for row in rows:
            self._print(
                f"{row['session_id']}: graph={row['graph']} "
                f"gamma={row['gamma']} delivered={row['delivered']} "
                f"exhausted={row['exhausted']}"
            )

    def _cmd_metrics(self, tokens: List[str]) -> None:
        if self.metrics is None:
            self._print("(metrics disabled)")
            return
        unknown = [token for token in tokens if token != "json"]
        if unknown:
            raise QueryParameterError(
                f"unknown metrics argument(s): {', '.join(unknown)} "
                "(usage: metrics [json])"
            )
        snap = self.metrics.snapshot()
        if "json" in tokens:
            # One deterministic document — the structured twin of the
            # text rendering below, for programmatic scrapers.
            self._print(json.dumps(snap, sort_keys=True, default=str))
            return
        for line in render_metrics(snap):
            self._print(line)

    def _cmd_profile(self, tokens: List[str]) -> None:
        """``profile [seconds=N] [top=N]`` — capture a cProfile window."""
        profiler = getattr(self.engine, "profiler", None)
        if profiler is None:
            self._print(
                "(profiling disabled — serve with --metrics-port or "
                "--trace-sample)"
            )
            return
        kv, flags = _parse_kv(tokens)
        unknown = flags + [key for key in kv if key not in ("seconds", "top")]
        if unknown:
            raise QueryParameterError(
                f"unknown profile argument(s): {', '.join(unknown)} "
                "(usage: profile [seconds=N] [top=N])"
            )
        try:
            seconds = float(kv.get("seconds", "5"))
            top = int(kv.get("top", "25"))
        except ValueError as exc:
            raise QueryParameterError(str(exc)) from exc
        try:
            report = profiler.capture(seconds, top=top)
        except Exception as exc:
            # ProfileBusyError (and bad-window ValueError) both render
            # as protocol errors; the capture slot stays usable.
            raise QueryParameterError(str(exc)) from exc
        for line in report.rstrip("\n").split("\n"):
            self._print(line)

    def _cmd_trace(self, tokens: List[str]) -> None:
        """``trace [slow] [json] [ID] [limit=N]`` — inspect the trace rings."""
        tracer = self.tracer
        if tracer is None or tracer.store is None:
            self._print("(tracing disabled — serve with --trace-sample)")
            return
        store = tracer.store
        kv, flags = _parse_kv(tokens)
        unknown = [key for key in kv if key != "limit"]
        if unknown:
            raise QueryParameterError(
                f"unknown trace argument(s): {', '.join(unknown)} "
                "(usage: trace [slow] [json] [ID] [limit=N])"
            )
        as_json = "json" in flags
        slow = "slow" in flags
        trace_id = next(
            (f for f in flags if f not in ("json", "slow")), None
        )
        try:
            limit = int(kv.get("limit", "20"))
        except ValueError as exc:
            raise QueryParameterError("limit must be an integer") from exc
        if trace_id is not None:
            trace = store.get(trace_id)
            if trace is None:
                raise QueryParameterError(f"no trace {trace_id!r} retained")
            if as_json:
                self._print(json.dumps(trace, sort_keys=True, default=str))
            else:
                for rendered in format_trace(trace):
                    self._print(rendered)
            return
        traces = store.slow(limit) if slow else store.recent(limit)
        if as_json:
            self._print(json.dumps(traces, sort_keys=True, default=str))
            return
        if not traces:
            hint = (
                ""
                if tracer.sampling
                else " — sampling is off; serve with --trace-sample"
            )
            self._print(f"(no {'slow ' if slow else ''}traces retained{hint})")
            return
        for trace in traces:
            self._print(format_trace_line(trace))

    # ------------------------------------------------------------------
    def execute_line(self, line: str) -> bool:
        """Run one protocol line; returns False when the loop should end."""
        # ``query`` takes its raw remainder (not pre-tokenized): a wire-
        # JSON payload contains spaces and quotes that shlex would eat.
        # split() (not partition) so any whitespace separates the verb.
        parts = line.strip().split(maxsplit=1)
        head = parts[0] if parts else ""
        remainder = parts[1] if len(parts) > 1 else ""
        if head.lower() == "query":
            try:
                self._cmd_query(remainder)
            except (ReproError, ValueError, OSError) as exc:
                if self.metrics is not None:
                    self.metrics.observe_error(kind=type(exc).__name__)
                self._print(f"error: {exc}")
            return True
        try:
            tokens = shlex.split(line, comments=True)
        except ValueError as exc:
            self._print(f"error: {exc}")
            return True
        if not tokens:
            return True
        command, rest = tokens[0].lower(), tokens[1:]
        if command in ("quit", "exit"):
            return False
        if command == "shutdown":
            self._print("shutting down")
            if self.on_shutdown is not None:
                self.on_shutdown()
            return False
        handler = {
            "graphs": self._cmd_graphs,
            "load": self._cmd_load,
            "mutate": self._cmd_mutate,
            "session": self._cmd_session,
            "sessions": self._cmd_sessions,
            "metrics": self._cmd_metrics,
            "trace": self._cmd_trace,
            "profile": self._cmd_profile,
            "help": lambda _tokens: self._print(_HELP),
        }.get(command)
        if handler is None:
            self._print(
                f"error: unknown command {command!r} (try 'help')"
            )
            return True
        try:
            handler(rest)
        except (ReproError, ValueError, OSError) as exc:
            if self.metrics is not None:
                self.metrics.observe_error(kind=type(exc).__name__)
            self._print(f"error: {exc}")
        return True

    def run(self, in_stream) -> int:
        """Serve until ``quit``/``shutdown`` or end of input.

        EOF on the input stream and a vanished peer (broken pipe /
        connection reset / a stream closed under us) all end the loop
        cleanly with exit code 0 — a piped client hanging up is a normal
        way for a serving process to stop, not a crash.
        """
        try:
            self._print(
                f"repro service: {len(self.engine.registry.names())} graphs "
                "registered; type 'help' for the protocol"
            )
            while True:
                if self.prompt:
                    self.out.write(self.prompt)
                    self.out.flush()
                line = in_stream.readline()
                if not line:
                    break
                if not self.execute_line(line):
                    break
        except (BrokenPipeError, ConnectionResetError):
            return 0
        except ValueError:
            # "I/O operation on closed file": the in/out stream was
            # closed mid-loop (e.g. the transport tearing down).
            return 0
        return 0
