"""ServiceShell — the `repro serve` line-protocol loop.

A dependency-free serving frontend: one command per line on an input
stream, human-readable responses on an output stream.  The same loop
serves an interactive REPL (stdin on a TTY), a piped script, or a test
feeding a ``StringIO`` — no network stack required, while exercising the
full service stack (registry -> planner -> cache -> metrics; sessions
stream from the cache's progressive entries) exactly as a socket server
would; the network transport runs every command but ``query`` through
it as well.

:attr:`ServiceShell.COMMANDS` is the protocol: one row per verb holds
its grammar, its help text and its handler.  Type ``help`` for the
rendered list.
"""

from __future__ import annotations

import json
import math
import shlex
import textwrap
from typing import Any, Callable, Dict, List, Optional, Sequence, TextIO, Tuple

from ..api.spec import (
    QUERY_USAGE,
    QuerySpec,
    parse_argument,
    parse_spec_tokens,
    parse_wire_query,
)
from ..errors import QueryParameterError, ReproError
from ..graph.io import load_snap_graph
from ..obs.trace import format_trace, format_trace_line
from .engine import QueryEngine
from .metrics import ServiceMetrics
from .model import CommunityView, QueryResult
from .sessions import SessionManager

__all__ = [
    "ServiceShell",
    "parse_mutation_ops",
    "render_metrics",
    "render_mutation",
    "render_traces",
    "split_verb",
]


def split_verb(line: str) -> Tuple[str, str]:
    """``(verb, remainder)`` of one protocol line, the verb lower-cased
    (``exit`` reads ``quit``).  Every front end routes lines by it."""
    parts = line.strip().split(maxsplit=1)
    verb = parts[0].lower() if parts else ""
    return ("quit" if verb == "exit" else verb), (
        parts[1] if len(parts) > 1 else ""
    )


#: Value names with a type; any other value is a string.
_TYPES = {"N": int, "F": float}


def _bind(
    verb: str, usage: str, tokens: Sequence[str]
) -> Tuple[List[Any], Dict[str, Any]]:
    """Check ``tokens`` against ``usage``, the verb's grammar: the
    handler's positional and keyword arguments, typed.

    In ``usage`` an upper-case word is a positional argument, a
    lower-case word a flag (passed as ``word=True``), ``key=VALUE`` an
    option, ``[...]`` marks what may be left out, and a final ``...``
    repeats the last positional.  A value named ``N`` is an integer,
    ``F`` a number, any other a string.
    """
    group, grammar = verb.split()[0], f"{verb} {usage}".rstrip()
    terms = usage.split()
    words = [term.strip("[]") for term in terms]
    names = [word for word in words if word.isupper()]
    flags = [word for word in words if word.islower() and "=" not in word]
    options = dict(word.split("=") for word in words if "=" in word)
    args: List[Any] = []
    kwargs: Dict[str, Any] = {}
    unknown: List[str] = []
    for token in tokens:
        key, sep, value = token.partition("=")
        if token in flags:
            kwargs[token] = True
        elif sep and options:
            if key in options:
                kind = _TYPES.get(options[key], str)
                kwargs[key] = parse_argument(group, key, value, kind)
            else:
                unknown.append(key)
        elif len(args) < len(names) or terms[-1:] == ["..."]:
            name = names[min(len(args), len(names) - 1)]
            kind = _TYPES.get(name, str)
            args.append(parse_argument(group, name, token, kind))
        else:
            unknown.append(token)
    if unknown:
        raise QueryParameterError(
            f"unknown {group} argument(s): {', '.join(unknown)} "
            f"(usage: {grammar})"
        )
    if len(args) < sum(term[0] != "[" and term.isupper() for term in terms):
        raise QueryParameterError(f"usage: {grammar}")
    return args, kwargs


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


def _dumps(document: Any) -> str:
    return json.dumps(document, sort_keys=True, default=str)


def render_mutation(name: str, event) -> str:
    """The answer line of one applied mutation batch (a
    :class:`~repro.service.registry.MutationEvent`), shared by the
    ``mutate`` command and ``repro mutate``."""
    stats = event.stats
    barrier = (
        f"{event.barrier:.8g}" if event.barrier != float("-inf") else "none"
    )
    return (
        f"mutated {name!r} v{event.old_version} -> v{event.new_version}: "
        f"+{stats.inserted} -{stats.deleted} ~{stats.reweighted} "
        f"(noops={stats.noops}) barrier={barrier} "
        f"invalidated={event.invalidated} preserved={event.preserved} "
        f"pending_deltas={event.pending_deltas}"
    )


def render_traces(
    found, slow: bool = False, as_json: bool = False, hint: str = ""
) -> List[str]:
    """The ``trace`` answer for one trace (a dict) or a list of traces,
    shared by the ``trace`` command and ``repro trace``."""
    if as_json:
        return [_dumps(found)]
    if isinstance(found, dict):
        return format_trace(found)
    if not found:
        return [f"(no {'slow ' if slow else ''}traces retained{hint})"]
    return [format_trace_line(trace) for trace in found]


class ServiceShell:
    """Drive a :class:`QueryEngine` and a session scope over text.

    Each shell owns one :class:`SessionManager` over its engine (idle
    sessions expire after ``session_ttl`` seconds): the stdio loop has
    one, and the network transport builds one shell per connection, so
    session ids never cross connections.

    ``on_shutdown`` is the hook behind the ``shutdown`` command: the
    asyncio server passes a (thread-safe) callback requesting a graceful
    whole-server stop, so the same command dispatch serves stdio and
    network transports without anyone calling ``sys.exit`` mid-loop.
    :meth:`run` and :meth:`execute_line` print answers to ``out``; the
    network transport passes None and sends what :meth:`respond`
    returns.
    """

    def __init__(
        self,
        engine: QueryEngine,
        out: Optional[TextIO],
        metrics: Optional[ServiceMetrics] = None,
        prompt: str = "",
        on_shutdown: Optional[Callable[[], None]] = None,
        session_ttl: float = 300.0,
    ) -> None:
        self.engine = engine
        self.sessions = SessionManager(engine, ttl_seconds=session_ttl)
        self.out = out
        self.metrics = metrics if metrics is not None else engine.metrics
        self.prompt = prompt
        self.on_shutdown = on_shutdown

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
    # Handlers: one per row of COMMANDS, called with the row's checked
    # arguments; each returns its answer lines.
    def _cmd_graphs(self) -> List[str]:
        lines = []
        for row in self.engine.registry.describe():
            status = (
                f"loaded v{row['version']} "
                f"({row['vertices']:,} vertices, {row['edges']:,} edges)"
                if row["loaded"]
                else "not loaded"
            )
            lines.append(f"{row['name']:>14}: {status} — {row['description']}")
        return lines

    def _cmd_load(
        self, name: str, edges: str, weights: Optional[str] = None
    ) -> List[str]:
        # Build before registering: a bad file keeps the old entry.
        handle = self.engine.registry.load(
            name,
            lambda: load_snap_graph(edges, weights),
            description=f"edge list {edges!r}",
        )
        return [
            f"loaded {name!r} v{handle.version}: "
            f"{handle.num_vertices:,} vertices, {handle.num_edges:,} edges"
        ]

    def _cmd_mutate(self, name: str, *ops: str) -> List[str]:
        event = self.engine.registry.apply(name, parse_mutation_ops(ops))
        return [render_mutation(name, event)]

    def _cmd_query(self, rest: str) -> List[str]:
        spec, members = self.parse_query_line(rest)
        result = self.engine.execute(spec)
        return self.render_result(result, members, spec.mode == "json")

    def _cmd_session_open(
        self, graph: str, gamma: int = 10, delta: float = 2.0
    ) -> List[str]:
        session = self.sessions.create(graph, gamma=gamma, delta=delta)
        return [
            f"session {session.session_id} open: graph={session.graph} "
            f"gamma={session.gamma}"
        ]

    def _cmd_session_next(self, sid: str, count: int = 1) -> List[str]:
        start = self.sessions.get(sid).delivered
        views, done = self.sessions.next(sid, count)
        lines = self.format_views(views, False, start=start + 1)
        return lines + [f"(session {sid} exhausted)"] if done else lines

    def _cmd_session_close(self, sid: str) -> List[str]:
        self.sessions.close(sid)
        return [f"session {sid} closed"]

    def _cmd_sessions(self) -> List[str]:
        return [
            f"{row['session_id']}: graph={row['graph']} "
            f"gamma={row['gamma']} delivered={row['delivered']} "
            f"exhausted={row['exhausted']}"
            for row in self.sessions.active()
        ] or ["(no active sessions)"]

    def _cmd_metrics(self, json: bool = False) -> List[str]:
        if self.metrics is None:
            return ["(metrics disabled)"]
        if json:
            # One deterministic document — the structured twin of the
            # text rendering, for programmatic scrapers.
            return [_dumps(self.metrics.snapshot())]
        return render_metrics(self.metrics.snapshot())

    def _cmd_profile(self, seconds: float = 5.0, top: int = 25) -> List[str]:
        profiler = getattr(self.engine, "profiler", None)
        if profiler is None:
            return [
                "(profiling disabled — serve with --metrics-port or "
                "--trace-sample)"
            ]
        try:
            report = profiler.capture(seconds, top=top)
        except Exception as exc:
            # ProfileBusyError (and bad-window ValueError) both render
            # as protocol errors; the capture slot stays usable.
            raise QueryParameterError(str(exc)) from exc
        return report.rstrip("\n").split("\n")

    def _cmd_trace(
        self,
        trace_id: Optional[str] = None,
        limit: int = 20,
        slow: bool = False,
        json: bool = False,
    ) -> List[str]:
        tracer = self.engine.tracer
        if tracer is None or tracer.store is None:
            return ["(tracing disabled — serve with --trace-sample)"]
        if trace_id is not None:
            found = tracer.store.get(trace_id)
            if found is None:
                raise QueryParameterError(f"no trace {trace_id!r} retained")
        else:
            found = (tracer.store.slow if slow else tracer.store.recent)(limit)
        hint = "" if tracer.sampling else (
            " — sampling is off; serve with --trace-sample"
        )
        return render_traces(found, slow, json, hint)

    def _cmd_help(self) -> List[str]:
        return [_HELP]

    def _cmd_quit(self) -> List[str]:
        return []

    def _cmd_shutdown(self) -> List[str]:
        if self.on_shutdown is not None:
            self.on_shutdown()
        return ["shutting down"]

    #: The protocol: every verb, in ``help`` order, as ``(handler,
    #: usage, help text)``.  The usage is the verb's grammar (see
    #: :func:`_bind`); a newline continues the help text.  A two-word
    #: verb is an action of its first word.  ``query`` takes its raw
    #: remainder, parsed by :meth:`parse_query_line`.
    COMMANDS: Dict[str, Tuple[Callable[..., List[str]], str, str]] = {
        "graphs": (_cmd_graphs, "", "list registered graphs"),
        "load": (
            _cmd_load, "NAME EDGES [WEIGHTS]", "register an edge-list file"
        ),
        "mutate": (
            _cmd_mutate,
            "GRAPH OP ...",
            "apply a live edge-mutation batch; OP is\n"
            "insert=U:V, delete=U:V or reweight=V:W",
        ),
        "query": (
            _cmd_query,
            QUERY_USAGE,
            'top-k query; also query {"v": 1, ...}\n'
            "(a versioned wire-JSON document)",
        ),
        "session open": (
            _cmd_session_open,
            "GRAPH [gamma=N] [delta=F]",
            "open a progressive session",
        ),
        "session next": (
            _cmd_session_next, "SID [N]", "stream the next N communities"
        ),
        "session close": (_cmd_session_close, "SID", "close a session"),
        "sessions": (_cmd_sessions, "", "list active sessions"),
        "metrics": (
            _cmd_metrics,
            "[json]",
            "service counters and latencies\n(one JSON document with 'json')",
        ),
        "trace": (
            _cmd_trace,
            "[slow] [json] [ID] [limit=N]",
            "recent (or slow / one) traces",
        ),
        "profile": (
            _cmd_profile,
            "[seconds=F] [top=N]",
            "cProfile the live engine for F s",
        ),
        "help": (_cmd_help, "", "this text"),
        "quit": (_cmd_quit, "", "close this connection / loop"),
        "shutdown": (_cmd_shutdown, "", "stop the whole server gracefully"),
    }

    # ------------------------------------------------------------------
    def respond(self, line: str) -> Tuple[bool, List[str]]:
        """Run one protocol line: ``(keep going, answer lines)``."""
        verb, rest = split_verb(line)
        if verb != "query":
            try:
                tokens = shlex.split(line, comments=True)
            except ValueError as exc:
                return True, [f"error: {exc}"]
            if not tokens:
                return True, []
            verb = split_verb(tokens[0])[0]
            if verb == "query" or (
                verb not in self.COMMANDS and verb not in _GROUPS
            ):
                return True, [f"error: unknown command {verb!r} (try 'help')"]
        try:
            if verb == "query":
                return True, self._cmd_query(rest)
            verb, arguments = _resolve(verb, tokens[1:])
            handler, usage, _ = self.COMMANDS[verb]
            args, kwargs = _bind(verb, usage, arguments)
            return verb not in ("quit", "shutdown"), handler(
                self, *args, **kwargs
            )
        except (ReproError, ValueError, OSError) as exc:
            if self.metrics is not None:
                self.metrics.observe_error(kind=type(exc).__name__)
            return True, [f"error: {exc}"]

    def execute_line(self, line: str) -> bool:
        """Run one protocol line and print its answer; returns False
        when the loop should end."""
        keep_going, lines = self.respond(line)
        for text in lines:
            print(text, file=self.out)
        return keep_going

    def run(self, in_stream) -> int:
        """Serve until ``quit``/``shutdown`` or end of input.

        EOF on the input stream and a vanished peer (broken pipe /
        connection reset / a stream closed under us) all end the loop
        cleanly with exit code 0 — a piped client hanging up is a normal
        way for a serving process to stop, not a crash.
        """
        try:
            print(
                f"repro service: {len(self.engine.registry.names())} graphs "
                "registered; type 'help' for the protocol",
                file=self.out,
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


#: First words of the two-word verbs.
_GROUPS = {verb.split()[0] for verb in ServiceShell.COMMANDS if " " in verb}


def _resolve(verb: str, tokens: List[str]) -> Tuple[str, List[str]]:
    """Join a group word and its action into one verb (``session
    open``); a missing or unknown action is a usage error."""
    if verb not in _GROUPS:
        return verb, tokens
    actions = [
        key.split()[1]
        for key in ServiceShell.COMMANDS
        if key.startswith(verb + " ")
    ]
    if not tokens:
        raise QueryParameterError(
            f"usage: {verb} {'|'.join(actions)}|... (see help)"
        )
    if tokens[0] not in actions:
        raise QueryParameterError(
            f"unknown {verb} action {tokens[0]!r} ({'/'.join(actions)})"
        )
    return f"{verb} {tokens[0]}", tokens[1:]


def _render_help() -> str:
    """The ``help`` text: usage from column 2, summary from column 40."""
    lines = ["commands:"]
    for verb, (_, grammar, text) in ServiceShell.COMMANDS.items():
        usage = textwrap.wrap(
            f"{verb} {grammar}", 76, subsequent_indent=" " * 6
        )
        summary = text.split("\n")
        if len(usage[-1]) < 37:
            usage[-1] = usage[-1].ljust(38) + summary.pop(0)
        lines += ["  " + line for line in usage]
        lines += [" " * 40 + line for line in summary]
    return "\n".join(lines)


_HELP = _render_help()
