"""Closed-loop load over pipelined connections, from one client thread.

Each connection keeps ``depth`` requests in flight: a new request is
written the moment a response completes, so the server always has a
line waiting and never idles on the client.  A request's latency runs
from the write of its line to the read of its response's terminator,
so it includes the wait behind the requests pipelined ahead of it.

Timing is split by *marks* (absolute ``perf_counter`` times): responses
completing before the first mark are warm-up, those between mark ``i``
and ``i + 1`` belong to sub-window ``i``, and after the last mark no
new request is sent and the in-flight ones are drained.
"""

from __future__ import annotations

import selectors
import socket
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, List, Sequence, Tuple

TERMINATOR = b"\n.\n"


@dataclass
class SubWindow:
    start: float
    end: float = 0.0
    completed: int = 0
    latencies_ms: List[float] = field(default_factory=list)


class Connection:
    """One pipelined protocol connection over a request list."""

    def __init__(self, address: Tuple[str, int], requests: Sequence, depth: int):
        self.sock = socket.create_connection(address, timeout=60.0)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.requests = requests
        self.depth = depth
        self.position = 0
        self.inflight: Deque[Tuple[object, float]] = deque()
        self.buffer = bytearray()
        self._scan = 0
        self.greeting = self.read_block()

    def read_block(self) -> bytes:
        """Blocking read of one whole response block (set-up traffic)."""
        while True:
            block = self.pop_block()
            if block is not None:
                return block
            data = self.sock.recv(1 << 16)
            if not data:
                raise ConnectionError("server closed the connection")
            self.buffer += data

    def request(self, line: bytes) -> bytes:
        self.sock.sendall(line)
        return self.read_block()

    def pop_block(self):
        end = self.buffer.find(TERMINATOR, self._scan)
        if end < 0:
            self._scan = max(0, len(self.buffer) - 2)
            return None
        block = bytes(self.buffer[:end])
        del self.buffer[: end + len(TERMINATOR)]
        self._scan = 0
        return block

    def fill(self) -> None:
        """Top the pipeline up to ``depth`` requests in flight."""
        lines = []
        now = time.perf_counter()
        while len(self.inflight) < self.depth:
            request = self.requests[self.position % len(self.requests)]
            self.position += 1
            self.inflight.append((request, now))
            lines.append(request.line)
        if lines:
            self.sock.sendall(b"".join(lines))

    def close(self) -> None:
        self.sock.close()


def run(
    connections: List[Connection],
    marks: Sequence[float],
    check: Callable[[object, bytes], bool],
    on_mark: Callable[[int], None],
    drain_timeout: float = 60.0,
) -> Tuple[List[SubWindow], int, int]:
    """Drive the closed loop until the last mark, then drain.

    ``check(request, payload)`` verifies each
    response.  Returns the sub-windows plus the attempted and failed
    operation counts over the whole run (warm-up and drain included).
    """
    selector = selectors.DefaultSelector()
    for index, conn in enumerate(connections):
        conn.sock.setblocking(False)
        selector.register(conn.sock, selectors.EVENT_READ, index)
    windows: List[SubWindow] = []
    attempted = failed = 0
    next_mark = 0
    sending = True
    for conn in connections:
        conn.fill()
    deadline = None
    try:
        while True:
            now = time.perf_counter()
            while next_mark < len(marks) and now >= marks[next_mark]:
                if windows:
                    windows[-1].end = marks[next_mark]
                if next_mark < len(marks) - 1:
                    windows.append(SubWindow(start=marks[next_mark]))
                on_mark(next_mark)
                next_mark += 1
                if next_mark == len(marks):
                    sending = False
                    deadline = now + drain_timeout
            if not sending:
                if not any(conn.inflight for conn in connections):
                    break
                if now > deadline:
                    raise TimeoutError("responses still in flight after drain")
                timeout = deadline - now
            else:
                timeout = marks[next_mark] - now
            for key, _ in selector.select(max(timeout, 0.0)):
                conn = connections[key.data]
                data = conn.sock.recv(1 << 20)
                done = time.perf_counter()
                if not data:
                    raise ConnectionError("server closed a load connection")
                conn.buffer += data
                timed = sending and next_mark > 0
                window = windows[-1] if timed else None
                while True:
                    block = conn.pop_block()
                    if block is None:
                        break
                    request, sent = conn.inflight.popleft()
                    attempted += 1
                    if not check(request, block):
                        failed += 1
                    if window is not None:
                        window.completed += 1
                        window.latencies_ms.append((done - sent) * 1000.0)
                if sending:
                    conn.fill()
    finally:
        selector.close()
        for conn in connections:
            conn.sock.setblocking(True)
    return windows, attempted, failed
