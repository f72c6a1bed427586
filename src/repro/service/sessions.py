"""SessionManager — progressive streaming sessions with TTL eviction.

The paper's "no k needed" workflow (Section 4): a client opens a session
for ``(graph, gamma)``, repeatedly asks for the *next* few communities —
each batch arrives in strictly decreasing influence order — and closes
(or abandons) the session when it has seen enough.

A session holds its family's :class:`~repro.service.cache.ProgressiveEntry`
(the one the result cache and the query engine share) and a delivered
count; ``next`` serves ``delivered + N`` from it and drops what was
delivered, so a session and a query on one family peel once.  The held
entry pins the generation the session opened on, even after a mutation
re-keys or re-seeds the family in the cache.  Abandoned sessions are
evicted once idle longer than the TTL; the clock is injectable so tests
can drive expiry deterministically.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

from ..errors import UnknownSessionError
from .cache import CacheKey, ProgressiveEntry
from .engine import QueryEngine
from .model import CommunityView

__all__ = ["Session", "SessionManager"]


@dataclass
class Session:
    """One progressive streaming session."""

    session_id: str
    graph: str
    graph_version: int
    gamma: int
    delta: float
    entry: ProgressiveEntry
    created_at: float
    last_used: float
    delivered: int = 0
    exhausted: bool = False
    _lock: threading.Lock = field(default_factory=threading.Lock)

    def describe(self) -> Dict[str, object]:
        return {
            "session_id": self.session_id,
            "graph": self.graph,
            "graph_version": self.graph_version,
            "gamma": self.gamma,
            "delta": self.delta,
            "delivered": self.delivered,
            "exhausted": self.exhausted,
        }


class SessionManager:
    """Create / advance / close progressive sessions, evicting idle ones.

    Parameters
    ----------
    engine:
        The query engine whose registry, cache, kernel and metrics the
        sessions use; each session pins the graph handle current when
        it opens.
    ttl_seconds:
        Idle time after which a session may be evicted (checked on every
        public operation — no background thread needed).
    clock:
        Monotonic time source (injectable for tests).
    """

    def __init__(
        self,
        engine: QueryEngine,
        ttl_seconds: float = 300.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if not ttl_seconds > 0:  # NaN fails this too
            raise ValueError("ttl_seconds must be positive")
        self.engine = engine
        self.ttl_seconds = ttl_seconds
        self.clock = clock
        self._sessions: Dict[str, Session] = {}
        self._lock = threading.RLock()
        self._counter = 0

    # ------------------------------------------------------------------
    def _sweep(self) -> None:
        now = self.clock()
        with self._lock:
            expired = [
                sid
                for sid, session in self._sessions.items()
                if now - session.last_used > self.ttl_seconds
            ]
            for sid in expired:
                del self._sessions[sid]
        metrics = self.engine.metrics
        if metrics is not None:
            for _ in expired:
                metrics.session_closed(expired=True)

    def get(self, session_id: str) -> Session:
        """The live session called ``session_id`` (raises if unknown)."""
        with self._lock:
            session = self._sessions.get(session_id)
        if session is None:
            raise UnknownSessionError(session_id)
        return session

    # ------------------------------------------------------------------
    def create(self, graph: str, gamma: int, delta: float = 2.0) -> Session:
        """Open a session streaming ``graph``'s communities at ``gamma``."""
        self._sweep()
        handle = self.engine.registry.get(graph)
        key = CacheKey(graph, handle.version, gamma, "localsearch-p", delta)
        entry = self.engine.progressive_entry(handle, key)
        now = self.clock()
        with self._lock:
            self._counter += 1
            session = Session(
                session_id=f"s{self._counter}",
                graph=handle.name,
                graph_version=handle.version,
                gamma=gamma,
                delta=delta,
                entry=entry,
                created_at=now,
                last_used=now,
            )
            self._sessions[session.session_id] = session
        if self.engine.metrics is not None:
            self.engine.metrics.session_opened()
        return session

    def next(
        self, session_id: str, count: int = 1
    ) -> Tuple[List[CommunityView], bool]:
        """The next ``count`` communities and whether the stream is done.

        Successive calls never repeat a community; the family's stream
        resumes where the furthest reader stopped.
        """
        if count < 1:
            raise ValueError("count must be at least 1")
        self._sweep()
        session = self.get(session_id)
        with session._lock:
            start = session.delivered
            views, _, session.exhausted = session.entry.serve(start + count)
            session.delivered = len(views)
            session.last_used = self.clock()
            return list(views[start:]), session.exhausted

    def close(self, session_id: str) -> None:
        """Close a session (idempotent errors: unknown ids raise)."""
        with self._lock:
            if session_id not in self._sessions:
                raise UnknownSessionError(session_id)
            del self._sessions[session_id]
        if self.engine.metrics is not None:
            self.engine.metrics.session_closed()

    def touch(self, session_id: str) -> None:
        """Refresh a session's idle timer without advancing it."""
        session = self.get(session_id)
        with session._lock:
            session.last_used = self.clock()

    # ------------------------------------------------------------------
    def active(self) -> List[Dict[str, object]]:
        """Status rows of all live sessions (post-sweep)."""
        self._sweep()
        with self._lock:
            return [s.describe() for s in self._sessions.values()]

    def __len__(self) -> int:
        with self._lock:
            return len(self._sessions)

    def __contains__(self, session_id: str) -> bool:
        with self._lock:
            return session_id in self._sessions
