"""ReproServer — asyncio transport for the service line protocol.

Serves the exact protocol of :class:`~repro.service.shell.ServiceShell`
over TCP and/or a unix domain socket, many clients per process:

* **framing** — one command per line in; each response is a block of
  lines terminated by a single ``.`` line (SMTP-style; payload lines
  starting with ``.`` are dot-stuffed), so programmatic clients know
  exactly where a response ends;
* **per-connection session scoping** — every connection gets its own
  :class:`~repro.service.shell.ServiceShell`, which owns one
  :class:`~repro.service.sessions.SessionManager`; session ids are
  meaningless outside their connection, and a dropped connection closes
  its sessions.  The sessions themselves stream from the shared result
  cache's progressive entries, so they peel nothing a query already did;
* **query path** — ``query`` commands go through the
  :class:`~repro.server.scheduler.BatchScheduler` (coalescing) onto the
  :class:`~repro.server.shards.ShardPool` (progressive queries on the
  event loop, builds and whole-graph algorithms on shard threads);
  ``quit`` answers ``bye``; every other command runs the command
  table of a per-connection :class:`~repro.service.shell.ServiceShell`
  on the default executor, so the two frontends can never drift apart;
* **graceful shutdown** — the shell's ``shutdown`` command (or a
  signal/`stop()` call) stops accepting, unblocks connected clients,
  waits for in-flight handlers, snapshots the result cache via
  :class:`~repro.server.warmstart.WarmStart`, and stops the shard pool.
"""

from __future__ import annotations

import asyncio
import contextlib
import errno
import os
from typing import Any, Dict, Iterable, List, Mapping, Optional, Set, Tuple, Union

from ..errors import ReproError, UnknownSessionError
from ..obs.history import SLO, MetricsHistory, parse_slo
from ..obs.profiling import OnDemandProfiler
from ..obs.trace import (
    DEFAULT_SLOW_MS,
    DEFAULT_TRACE_SAMPLE,
    Tracer,
)
from ..service.cache import ResultCache
from ..service.engine import QueryEngine
from ..service.metrics import ServiceMetrics
from ..service.registry import GraphRegistry
from ..service.shell import ServiceShell, split_verb
from .scheduler import BatchScheduler
from .shards import ShardPool
from .warmstart import WarmStart

__all__ = ["ReproServer", "check_port", "dot_stuff", "dot_unstuff"]

#: End-of-response sentinel line.
TERMINATOR = "."


def check_port(port: int, what: str) -> int:
    """``port`` if it is a TCP port number (0 = ephemeral), else a
    ``ValueError`` naming ``what``."""
    if not 0 <= port <= 65535:
        raise ValueError(f"{what} {port} is out of range (0-65535)")
    return port


def dot_stuff(line: str) -> str:
    """Escape a payload line so it can never read as the terminator."""
    return "." + line if line.startswith(".") else line


def dot_unstuff(line: str) -> str:
    """Inverse of :func:`dot_stuff` (client side)."""
    return line[1:] if line.startswith("..") else line


class ReproServer:
    """The concurrent serving tier over one shared service stack.

    This is also where the stdio loop of ``repro serve`` gets its
    stack: it builds a server, never calls :meth:`start`, and runs a
    :class:`ServiceShell` over :attr:`engine` (its sessions expiring
    after :attr:`session_ttl`) between :meth:`start_observability` and
    :meth:`stop_observability`.

    Parameters
    ----------
    registry:
        Optional pre-built graph registry (a fresh one, with the
        stand-in datasets pre-registered, is created by default).
    cache_size / max_cached_k:
        Result cache geometry (see :class:`ResultCache`).
    session_ttl:
        Idle seconds before a progressive session expires (positive).
    shards / replication:
        Shard pool geometry (see :class:`ShardPool`).
    max_batch / batch_window_ms:
        Coalescing knobs (see :class:`BatchScheduler`).
    warmstart_path:
        When set, the result cache is restored from this snapshot on
        :meth:`start` and saved back on :meth:`stop`.
    metrics_port / metrics_host:
        When ``metrics_port`` is set (0 = ephemeral), :meth:`start`
        additionally binds a zero-dep HTTP exporter
        (:class:`~repro.obs.export.MetricsServer`) serving
        ``/metrics`` (Prometheus text), ``/metrics.json``, ``/traces``,
        ``/healthz``, ``/readyz``, ``/dashboard``, ``/history.json``
        and ``/profile``; the bound address is ``metrics_address``.
    trace_sample / slow_ms:
        Tracing knobs.  Observability is enabled when any of
        ``metrics_port`` / ``trace_sample`` / ``slow_ms`` / ``slo`` is
        set; ``trace_sample`` defaults to
        :data:`~repro.obs.trace.DEFAULT_TRACE_SAMPLE` when enabled
        (first query is always traced — the sampler fires on tick 0),
        and ``slow_ms`` marks slower traces as retained exemplars.
        A pre-built ``tracer`` overrides both.
    slo:
        Optional SLO spec — a ``"p95_ms=50,err_rate=0.01"`` string (see
        :func:`~repro.obs.history.parse_slo`) or a pre-built
        :class:`~repro.obs.history.SLO`.  Evaluated by the history
        collector each tick; drives ``/readyz`` and the
        ``repro_slo_*`` exposition.
    history_interval:
        Seconds between history collector samples (default 1.0).  The
        collector starts whenever observability is enabled.
    """

    def __init__(
        self,
        registry: Optional[GraphRegistry] = None,
        *,
        cache_size: int = 256,
        max_cached_k: Optional[int] = None,
        session_ttl: float = 300.0,
        shards: int = 1,
        replication: Optional[Mapping[str, int]] = None,
        max_batch: int = 64,
        batch_window_ms: float = 0.0,
        warmstart_path: Optional[str] = None,
        warmstart_interval: Optional[float] = None,
        metrics: Optional[ServiceMetrics] = None,
        preload_datasets: bool = True,
        metrics_port: Optional[int] = None,
        metrics_host: str = "127.0.0.1",
        trace_sample: Optional[float] = None,
        slow_ms: Optional[float] = None,
        tracer: Optional[Tracer] = None,
        slo: Optional[Union[str, SLO]] = None,
        history_interval: float = 1.0,
    ) -> None:
        if not session_ttl > 0:  # NaN fails this too
            raise ValueError(
                f"session_ttl must be a positive number of seconds, "
                f"not {session_ttl!r}"
            )
        if metrics_port is not None:
            check_port(metrics_port, "metrics port")
        self.metrics = metrics if metrics is not None else ServiceMetrics()
        obs_enabled = (
            metrics_port is not None
            or trace_sample is not None
            or slow_ms is not None
            or slo is not None
            or tracer is not None
        )
        if tracer is None:
            # Observability opts in via any of its knobs; the tracer
            # object always exists (sample=0 = off) so every layer can
            # hold a reference unconditionally.
            sample = (
                trace_sample
                if trace_sample is not None
                else (DEFAULT_TRACE_SAMPLE if obs_enabled else 0.0)
            )
            tracer = Tracer(
                sample=sample,
                slow_ms=slow_ms if slow_ms is not None else DEFAULT_SLOW_MS,
            )
        self.tracer = tracer
        self.slo: Optional[SLO] = (
            parse_slo(slo) if isinstance(slo, str) else slo
        )
        self.history: Optional[MetricsHistory] = (
            MetricsHistory(
                self.metrics,
                trace_store=self.tracer.store,
                interval_s=history_interval,
                slo=self.slo,
                gauges=self._history_gauges,
            )
            if obs_enabled
            else None
        )
        self.metrics_port = metrics_port
        self.metrics_host = metrics_host
        self.metrics_server = None
        self.metrics_address: Optional[Tuple[str, int]] = None
        self.registry = (
            registry
            if registry is not None
            else GraphRegistry(preload_datasets=preload_datasets)
        )
        self.cache = ResultCache(cache_size, max_cached_k=max_cached_k)
        self.engine = QueryEngine(
            self.registry,
            cache=self.cache,
            metrics=self.metrics,
            tracer=self.tracer,
        )
        if obs_enabled:
            self.engine.profiler = OnDemandProfiler()
        self.shards = ShardPool(
            shards, replication=replication, metrics=self.metrics
        )
        self.scheduler = BatchScheduler(
            self.engine,
            self.shards,
            metrics=self.metrics,
            max_batch=max_batch,
            window_s=batch_window_ms / 1000.0,
            tracer=self.tracer,
        )
        self.session_ttl = session_ttl
        if warmstart_interval is not None and warmstart_path is None:
            raise ValueError("warmstart_interval requires warmstart_path")
        self.warmstart = (
            WarmStart(warmstart_path, snapshot_interval=warmstart_interval)
            if warmstart_path is not None
            else None
        )
        self.restored_entries = 0
        self.saved_entries = 0
        self.tcp_address: Optional[Tuple[str, int]] = None
        self.unix_path: Optional[str] = None
        self._servers: List[asyncio.AbstractServer] = []
        self._connections: Dict["asyncio.Task[None]", asyncio.StreamWriter] = {}
        self._busy: Set["asyncio.Task[None]"] = set()
        self._shutdown_requested: Optional[asyncio.Event] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stopped = False

    # ------------------------------------------------------------------
    async def start(
        self,
        tcp: Optional[Tuple[str, int]] = None,
        unix_path: Optional[str] = None,
    ) -> None:
        """Bind listeners (TCP ``(host, port)`` — port 0 for ephemeral —
        and/or a unix socket path) and restore the warm-start snapshot."""
        if tcp is None and unix_path is None:
            raise ValueError("need at least one of tcp=(host, port), unix_path")
        if tcp is not None:
            check_port(tcp[1], "tcp port")
        self._loop = asyncio.get_running_loop()
        self._shutdown_requested = asyncio.Event()
        if self.warmstart is not None:
            # Graph builds during restore are CPU-bound: off the loop.
            self.restored_entries = await self._loop.run_in_executor(
                None, self.warmstart.load, self.cache, self.registry
            )
            # Periodic snapshots (when configured) keep the cache warm
            # across crashes, not just clean shutdowns; the thread is
            # the WarmStart's own and never touches the event loop.
            self.warmstart.start_periodic(self.cache, self.registry)
        self.start_observability()
        if tcp is not None:
            host, port = tcp
            server = await asyncio.start_server(self._handle, host, port)
            self._servers.append(server)
            self.tcp_address = server.sockets[0].getsockname()[:2]
        if unix_path is not None:
            await self._guard_live_socket(unix_path)
            server = await asyncio.start_unix_server(
                self._handle, path=unix_path
            )
            self._servers.append(server)
            self.unix_path = unix_path

    def start_observability(self) -> None:
        """Start the history collector and, with a ``metrics_port``,
        bind the HTTP exporter.  :meth:`start` calls it; the stdio loop
        of ``repro serve`` calls it on a server it never starts."""
        if self.history is not None:
            self.history.start()
        if self.metrics_port is not None and self.metrics_server is None:
            from ..obs.export import MetricsServer

            self.metrics_server = MetricsServer(
                self.metrics,
                trace_store=self.tracer.store,
                host=self.metrics_host,
                port=self.metrics_port,
                history=self.history,
                readiness=self.history.readiness,
                profiler=self.engine.profiler,
            )
            self.metrics_address = self.metrics_server.start()

    def stop_observability(self) -> None:
        """Undo :meth:`start_observability`."""
        if self.history is not None:
            self.history.stop()
        if self.metrics_server is not None:
            self.metrics_server.stop()

    @staticmethod
    async def _guard_live_socket(path: str) -> None:
        """Refuse to bind over a unix socket a live server still answers.

        asyncio's unix bind *unconditionally* removes an existing socket
        file before binding — which conveniently clears the leftover of
        a ``kill -9``'d predecessor, but would also silently steal the
        path from a running server.  Probe first: a dead leftover is
        left for the bind to clear; a responding one is an error.
        """
        if not os.path.exists(path):
            return
        try:
            _, writer = await asyncio.open_unix_connection(path)
        except OSError:
            return  # stale leftover: the bind will remove and replace it
        writer.close()
        with contextlib.suppress(Exception):
            await writer.wait_closed()
        raise OSError(
            errno.EADDRINUSE,
            f"unix socket {path!r} is in use by a live server",
        )

    def request_shutdown(self) -> None:
        """Ask for a graceful stop.  Thread-safe: the shell's ``shutdown``
        command runs on an executor thread, signal handlers on the loop."""
        loop, event = self._loop, self._shutdown_requested
        if loop is None or event is None:
            return
        loop.call_soon_threadsafe(event.set)

    async def serve_until_shutdown(self) -> None:
        """Block until a shutdown is requested, then stop gracefully."""
        assert self._shutdown_requested is not None, "call start() first"
        await self._shutdown_requested.wait()
        await self.stop()

    async def stop(self) -> None:
        """Graceful stop: close listeners, drain handlers, snapshot, halt."""
        if self._stopped:
            return
        self._stopped = True
        if self._shutdown_requested is not None:
            self._shutdown_requested.set()
        for server in self._servers:
            server.close()
        for server in self._servers:
            with contextlib.suppress(Exception):
                await server.wait_closed()
        # Unblock handlers parked on readline.  Handlers that are mid-
        # command keep their transports so the in-flight response still
        # reaches the client (e.g. the `shutdown` acknowledgement).
        current = asyncio.current_task()
        for task, writer in list(self._connections.items()):
            if task not in self._busy:
                writer.close()
        pending = [
            task
            for task in self._connections
            if task is not current and not task.done()
        ]
        if pending:
            await asyncio.wait(pending, timeout=5.0)
        for writer in self._connections.values():  # stragglers, if any
            writer.close()
        pending = [
            task
            for task in self._connections
            if task is not current and not task.done()
        ]
        if pending:
            await asyncio.wait(pending, timeout=2.0)
        if self.warmstart is not None and self._loop is not None:
            self.warmstart.stop_periodic()
            self.saved_entries = await self._loop.run_in_executor(
                None, self.warmstart.save, self.cache, self.registry
            )
        self.shards.shutdown(wait=False)
        self.stop_observability()
        if self.unix_path is not None:
            with contextlib.suppress(OSError):
                os.unlink(self.unix_path)

    # ------------------------------------------------------------------
    def _history_gauges(self) -> Dict[str, Any]:
        """Server-side gauges sampled into each history tick."""
        return {"pending_families": self.scheduler.pending_by_family()}

    # ------------------------------------------------------------------
    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        assert task is not None
        self._connections[task] = writer
        self.metrics.connection_opened()
        shell = ServiceShell(
            self.engine,
            None,
            on_shutdown=self.request_shutdown,
            session_ttl=self.session_ttl,
        )
        loop = asyncio.get_running_loop()
        try:
            await self._send(
                writer,
                [
                    f"repro server: {len(self.registry.names())} graphs "
                    "registered; type 'help' for the protocol"
                ],
            )
            while not (
                self._shutdown_requested is not None
                and self._shutdown_requested.is_set()
            ):
                # readuntil (not readline) so an over-limit line leaves
                # the buffer intact: LimitOverrunError does not consume,
                # which makes the discard below deterministic whether the
                # oversized line is fully buffered or still arriving.
                try:
                    raw = await reader.readuntil(b"\n")
                except asyncio.IncompleteReadError as eof:
                    raw = eof.partial  # final unterminated line, if any
                    if not raw:
                        break
                except asyncio.LimitOverrunError:
                    # The rest of the line is unrecoverable: consume it
                    # (closing with unread data would RST away our
                    # response), answer, and hang up.  If the peer is
                    # streaming beyond any reasonable line (discard cap
                    # hit), skip the courtesy reply — it could not
                    # survive the RST anyway.
                    if await self._discard_partial_line(reader):
                        with contextlib.suppress(Exception):
                            await self._send(
                                writer, ["error: protocol line too long"]
                            )
                    break
                # Busy = mid-command: stop() will let the response flush
                # before tearing this connection down.
                self._busy.add(task)
                try:
                    try:
                        line = raw.decode("utf-8")
                    except UnicodeDecodeError:
                        await self._send(writer, ["error: lines must be utf-8"])
                        continue
                    verb, rest = split_verb(line)
                    if verb == "query":
                        await self._send(writer, await self._serve_query(rest))
                    elif verb == "quit":
                        await self._send(writer, ["bye"])
                        break
                    else:
                        # Every other verb runs the shell's command
                        # table, off the event loop.
                        keep_going, lines = await loop.run_in_executor(
                            None, shell.respond, line
                        )
                        await self._send(writer, lines)
                        if not keep_going:
                            break
                finally:
                    self._busy.discard(task)
        except (
            ConnectionResetError,
            BrokenPipeError,
            asyncio.IncompleteReadError,
        ):
            pass
        finally:
            self._connections.pop(task, None)
            self.metrics.connection_closed()
            for row in shell.sessions.active():
                with contextlib.suppress(UnknownSessionError):
                    shell.sessions.close(str(row["session_id"]))
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def _serve_query(self, rest: str) -> List[str]:
        """Parse + schedule one ``query`` line; render shell-identical.

        The raw remainder after the verb goes straight into
        :meth:`ServiceShell.parse_query_line`, so the transport accepts
        exactly what the stdio shell does: the ``key=value`` token
        grammar *and* the versioned wire-JSON document
        (:meth:`~repro.api.spec.QuerySpec.from_wire`).  ``spec.mode``
        selects the structured one-line JSON response (same bytes as
        the stdio shell's).
        """
        # The trace root is minted here, at the serving edge, before the
        # line is even parsed — the sampling decision happens exactly
        # once per query and is threaded down explicitly (spans ride the
        # scheduler's waiter tuples; contextvars don't survive
        # run_in_executor hops).
        span = self.tracer.maybe_start("transport")
        try:
            spec, members = ServiceShell.parse_query_line(rest)
            if span is not None:
                span.annotate(graph=spec.graph, k=spec.k, gamma=spec.gamma)
            result = await self.scheduler.submit(spec, span=span)
            # The trace is finalised before the response bytes leave, so
            # a client that queries then immediately scrapes /traces
            # always sees its own trace.
            self.tracer.end(span, source=result.source)
            return ServiceShell.render_result(
                result, members, spec.mode == "json"
            )
        except (ReproError, ValueError, OSError) as exc:
            self.tracer.end(span, error=type(exc).__name__)
            self.metrics.observe_error(kind=type(exc).__name__)
            return [f"error: {exc}"]

    # ------------------------------------------------------------------
    @staticmethod
    async def _discard_partial_line(
        reader: asyncio.StreamReader, cap: int = 8 * 1024 * 1024
    ) -> bool:
        """Swallow the remainder of an oversized line (bounded by ``cap``).

        Returns True when the line was fully consumed (newline or EOF
        reached) — i.e. a response sent now can actually be delivered —
        and False when the cap was exhausted with the peer still
        streaming.
        """
        discarded = 0
        while discarded < cap:
            chunk = await reader.read(64 * 1024)
            if not chunk or b"\n" in chunk:
                return True
            discarded += len(chunk)
        return False

    async def _send(
        self, writer: asyncio.StreamWriter, lines: Iterable[str]
    ) -> None:
        payload: List[str] = []
        for line in lines:
            for part in line.split("\n"):
                payload.append(dot_stuff(part))
        payload.append(TERMINATOR)
        writer.write(("\n".join(payload) + "\n").encode("utf-8"))
        await writer.drain()
