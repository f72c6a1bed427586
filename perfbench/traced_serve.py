"""``repro serve`` with outside-in layer spans.

Usage: ``PYTHONPATH=src python perfbench/traced_serve.py serve --tcp ...``
(the arguments of ``repro``'s CLI).  Before calling the CLI entry point
this wraps, at class level, the per-query functions of each layer:

====================  ===============================================
span                  wrapped function
====================  ===============================================
transport.serve       ``ReproServer._serve_query`` (one query line)
transport.send        ``ReproServer._send`` (framing + socket write)
shell.parse           ``ServiceShell.parse_query_line``
shell.render          ``ServiceShell.render_result``
scheduler.submit      ``BatchScheduler.submit``
pool.execute          ``ShardPool.execute_spec``
engine.execute        ``QueryEngine.execute``
cache.get             ``ResultCache.get``
cache.serve           ``ProgressiveEntry.serve``
cache.migrate         ``ResultCache.migrate_graph``
kernel.take           ``ProgressiveCursor.take``
registry.apply        ``GraphRegistry.apply``
registry.compact      ``GraphRegistry.compact``
registry.build        ``GraphRegistry.get`` calls that built a graph
====================  ===============================================

The transport has no public per-query function, so its two per-line
seams are wrapped instead.  Spans of one request share a request id,
carried from the transport through the ``QuerySpec`` object every
layer receives; a span's parent is the span of the layer above.  A
``kernel.take`` span also records the cursor's phase timings
(``SearchStats.phases``) and accessed prefix size gained during the
call.

Recording starts on ``SIGUSR1`` (graph builds are always recorded).
Spans stay in memory and are printed as one ``PERFBENCH-SPANS <json>``
line on stdout after the server has shut down.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import signal
import sys
import threading
import time

from repro import cli
from repro.core.progressive import ProgressiveCursor
from repro.server.scheduler import BatchScheduler
from repro.server.shards import ShardPool
from repro.server.transport import ReproServer
from repro.service.cache import ProgressiveEntry, ResultCache
from repro.service.engine import QueryEngine
from repro.service.registry import GraphRegistry
from repro.service.shell import ServiceShell

#: ``[name, start, end, request_id, parent_index, extra]`` rows.
SPANS: list = []
_recording = False
_request_ids = itertools.count(1)
#: ``id(QuerySpec)`` -> request id, for specs in flight.
_spec_request: dict = {}
#: request id -> {span name: span index}, for parent links.
_request_spans: dict = {}
_current_request = contextvars.ContextVar("perfbench_request", default=None)
_stack = threading.local()
_clock = time.perf_counter


def _open(name, request, parent, extra=None):
    row = [name, _clock(), None, request, parent, extra]
    SPANS.append(row)
    index = len(SPANS) - 1
    if request is not None:
        _request_spans.setdefault(request, {})[name] = index
    return row, index


def _parent_of(request, name):
    spans = _request_spans.get(request)
    return None if spans is None else spans.get(name)


def _frames():
    frames = getattr(_stack, "frames", None)
    if frames is None:
        frames = _stack.frames = []
    return frames


def _nested(name, method):
    """Wrap a synchronous method whose span nests under the calling
    thread's innermost open span."""

    @functools.wraps(method)
    def wrapper(*args, **kwargs):
        if not _recording:
            return method(*args, **kwargs)
        frames = _frames()
        request, parent = frames[-1] if frames else (None, None)
        row, index = _open(name, request, parent)
        frames.append((request, index))
        try:
            return method(*args, **kwargs)
        finally:
            frames.pop()
            row[2] = _clock()

    return wrapper


# -- transport ---------------------------------------------------------
_serve_query = ReproServer._serve_query
_send = ReproServer._send


async def serve_query(self, line):
    if not _recording:
        return await _serve_query(self, line)
    request = next(_request_ids)
    _current_request.set(request)
    row, _ = _open("transport.serve", request, None)
    try:
        return await _serve_query(self, line)
    finally:
        row[2] = _clock()


async def send(self, writer, lines):
    request = _current_request.get()
    if not _recording or request is None:
        return await _send(self, writer, lines)
    _current_request.set(None)
    row, _ = _open("transport.send", request, None)
    try:
        return await _send(self, writer, lines)
    finally:
        row[2] = _clock()
        _request_spans.pop(request, None)


# -- shell -------------------------------------------------------------
_parse = ServiceShell.parse_query_line
_render = ServiceShell.render_result.__func__


def parse_query_line(rest):
    request = _current_request.get()
    if not _recording or request is None:
        return _parse(rest)
    row, _ = _open("shell.parse", request, _parent_of(request, "transport.serve"))
    try:
        spec, members = _parse(rest)
    finally:
        row[2] = _clock()
    _spec_request[id(spec)] = request
    return spec, members


def render_result(cls, result, members, as_json=False):
    request = _spec_request.pop(id(result.query), None)
    if not _recording or request is None:
        return _render(cls, result, members, as_json)
    row, _ = _open("shell.render", request, _parent_of(request, "transport.serve"))
    try:
        return _render(cls, result, members, as_json)
    finally:
        row[2] = _clock()


# -- scheduler and pool ------------------------------------------------
_submit = BatchScheduler.submit
_execute_spec = ShardPool.execute_spec


async def submit(self, query, span=None):
    request = _spec_request.get(id(query))
    if not _recording or request is None:
        return await _submit(self, query, span)
    row, _ = _open(
        "scheduler.submit", request, _parent_of(request, "transport.serve")
    )
    try:
        return await _submit(self, query, span)
    finally:
        row[2] = _clock()


async def execute_spec(self, engine, spec, span=None):
    request = _spec_request.get(id(spec))
    if not _recording or request is None:
        return await _execute_spec(self, engine, spec, span)
    row, _ = _open(
        "pool.execute", request, _parent_of(request, "scheduler.submit")
    )
    try:
        return await _execute_spec(self, engine, spec, span)
    finally:
        row[2] = _clock()


# -- engine, cache, kernel ---------------------------------------------
_execute = QueryEngine.execute
_take = ProgressiveCursor.take


def execute(self, query=None, **params):
    request = _spec_request.get(id(query))
    if not _recording or request is None:
        return _execute(self, query, **params)
    row, index = _open(
        "engine.execute", request, _parent_of(request, "pool.execute")
    )
    frames = _frames()
    frames.append((request, index))
    try:
        return _execute(self, query, **params)
    finally:
        frames.pop()
        row[2] = _clock()


def take(self, k):
    if not _recording:
        return _take(self, k)
    frames = _frames()
    request, parent = frames[-1] if frames else (None, None)
    stats = self.searcher.stats
    phases_before = dict(stats.phases)
    rounds_before = len(stats.prefix_sizes)
    row, _ = _open("kernel.take", request, parent)
    try:
        return _take(self, k)
    finally:
        row[2] = _clock()
        phases = {
            name: ms - phases_before.get(name, 0.0)
            for name, ms in stats.phases.items()
        }
        accessed = (
            stats.prefix_sizes[-1]
            if len(stats.prefix_sizes) > rounds_before
            else None
        )
        row[5] = {
            "phases": phases,
            "family": [stats.graph_size, stats.gamma, k],
            "accessed": accessed,
        }


# -- registry ----------------------------------------------------------
_get = GraphRegistry.get


def registry_get(self, name):
    builds = self.builds
    started = _clock()
    handle = _get(self, name)
    if self.builds != builds:
        SPANS.append(["registry.build", started, _clock(), None, None, None])
    return handle


def _start_recording(signum, frame):
    global _recording
    _recording = True


def install():
    ReproServer._serve_query = serve_query
    ReproServer._send = send
    ServiceShell.parse_query_line = staticmethod(parse_query_line)
    ServiceShell.render_result = classmethod(render_result)
    BatchScheduler.submit = submit
    ShardPool.execute_spec = execute_spec
    QueryEngine.execute = execute
    ResultCache.get = _nested("cache.get", ResultCache.get)
    ResultCache.migrate_graph = _nested("cache.migrate", ResultCache.migrate_graph)
    ProgressiveEntry.serve = _nested("cache.serve", ProgressiveEntry.serve)
    ProgressiveCursor.take = take
    GraphRegistry.apply = _nested("registry.apply", GraphRegistry.apply)
    GraphRegistry.compact = _nested("registry.compact", GraphRegistry.compact)
    GraphRegistry.get = registry_get
    signal.signal(signal.SIGUSR1, _start_recording)


def main() -> int:
    install()
    code = cli.main(sys.argv[1:])
    sys.stdout.write(
        "PERFBENCH-SPANS " + json.dumps(SPANS, separators=(",", ":")) + "\n"
    )
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
