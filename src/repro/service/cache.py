"""ResultCache — LRU result reuse built on the paper's progressive order.

Two properties of the algorithms make top-k answers unusually cacheable:

* the result sequence for a given ``(graph, gamma)`` is **independent of
  k** — ``k`` only truncates it — so a cached top-``k`` serves *any*
  follow-up with ``k' <= k`` exactly (prefix reuse);
* LocalSearch-P's stream can be **resumed**: a follow-up with ``k' > k``
  continues peeling where the cached query stopped (suffix property,
  Lemma 3.1/3.2) instead of restarting from scratch.

Entries are keyed by ``(graph name, graph version, gamma, algorithm,
delta)``; the graph version comes from the :class:`GraphRegistry`, so a
``reload`` silently invalidates all stale answers.  Progressive entries
hold a live :class:`~repro.core.progressive.ProgressiveCursor`; static
entries (non-progressive algorithms) hold a frozen tuple of views and
can only serve ``k' <= k`` (or anything, once the answer is known to be
complete).  A family has one progressive entry: the engine's queries
and the progressive sessions (:mod:`repro.service.sessions`) both read
it, so a session never re-peels what a query already materialised.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from ..core.progressive import ProgressiveCursor
from ..errors import ServiceError
from .model import CommunityView, ForestProjector

__all__ = [
    "CacheKey",
    "CacheStats",
    "ProgressiveEntry",
    "StaticEntry",
    "ResultCache",
    "BUSY",
]

#: What a non-blocking :meth:`ResultCache.get` answers when another
#: thread holds the cache lock (``None`` means "no entry").
BUSY = object()


@dataclass(frozen=True)
class CacheKey:
    """Identity of a cached answer.

    ``(gamma, algorithm, delta)`` mirror the spec's canonical
    :meth:`~repro.api.spec.QuerySpec.cache_key` family (algorithm
    *resolved*); ``version`` pins the graph build the answer was
    computed against, so reloads invalidate for free.
    """

    graph: str
    version: int
    gamma: int
    algorithm: str
    delta: float

    @classmethod
    def for_spec(cls, spec, version: int) -> "CacheKey":
        """The cache identity of ``spec`` against graph ``version``."""
        return cls.for_family(spec.cache_key(), version)

    @classmethod
    def for_family(cls, family, version: int) -> "CacheKey":
        """The cache identity of a resolved
        :class:`~repro.api.spec.FamilyKey` against graph ``version``."""
        return cls(
            graph=family.graph,
            version=version,
            gamma=family.gamma,
            algorithm=family.algorithm,
            delta=family.delta,
        )


@dataclass
class CacheStats:
    """Lookup counters (kept by the cache itself; latency lives in
    :class:`~repro.service.metrics.ServiceMetrics`)."""

    hits: int = 0
    extended: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.extended + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served (fully or by resuming) from cache."""
        total = self.lookups
        return (self.hits + self.extended) / total if total else 0.0


class ProgressiveEntry:
    """A resumable cached answer: views + the (re)buildable cursor behind them.

    Three lifecycles share this class:

    * the engine's hot path holds a **live cursor** and materialises views
      as queries and progressive sessions pull on it (a session serves
      ``delivered + N`` and drops what it already delivered);
    * a **warm-start restore** seeds the entry with frozen views only
      (plus a ``cursor_factory``); small ``k`` is a slice, a larger ``k``
      rebuilds the cursor and re-peels — the stream is deterministic, so
      the recomputed prefix matches the restored views exactly;
    * the **k-truncation policy** (``max_cached_k``): once more than
      ``max_cached_k`` views have been materialised, the tail views *and*
      the cursor (whose internal list of live ``Community`` objects is the
      real memory hog) are released, bounding what a long-running server
      retains per entry.  Queries above the cap recompute via the
      factory, and so does each batch of a session that reads past it.

    Views are projected by a :class:`ForestProjector` that lives exactly
    as long as the cursor: its memo holds the cursor's communities, so
    it is dropped with the cursor and a rebuilt cursor starts a new one.
    """

    __slots__ = (
        "_cursor",
        "_projector",
        "cursor_factory",
        "max_cached_k",
        "_views",
        "_served",
        "_exhausted",
        "_lock",
    )

    #: Cap on memoised per-k answer tuples (distinct k's per entry).
    _MAX_CACHED_SLICES = 128

    def __init__(
        self,
        cursor: Optional[ProgressiveCursor] = None,
        *,
        cursor_factory: Optional[Callable[[], ProgressiveCursor]] = None,
        views: Iterable[CommunityView] = (),
        exhausted: bool = False,
        max_cached_k: Optional[int] = None,
    ) -> None:
        if cursor is None and cursor_factory is None and not exhausted:
            raise ValueError(
                "ProgressiveEntry needs a cursor, a cursor_factory, or "
                "exhausted=True (a complete set of restored views)"
            )
        if max_cached_k is not None:
            if max_cached_k < 1:
                raise ValueError("max_cached_k must be at least 1")
            if cursor_factory is None:
                raise ValueError(
                    "max_cached_k requires a cursor_factory (truncation "
                    "releases the cursor; extension must rebuild it)"
                )
        self._cursor = cursor
        self._projector = ForestProjector() if cursor is not None else None
        self.cursor_factory = cursor_factory
        self.max_cached_k = max_cached_k
        self._views: List[CommunityView] = list(views)
        #: Memoised answer tuples by k: the view sequence is append-only,
        #: so a fully-materialised top-k prefix never changes and repeat
        #: hits (the dominant server-tier traffic) allocate nothing.
        self._served: dict = {}
        self._exhausted = exhausted
        self._lock = threading.Lock()
        self._trim()  # seeded views (warm-start restore) respect the cap

    @property
    def cursor(self) -> Optional[ProgressiveCursor]:
        """The live cursor, if one is attached (``None`` after truncation
        released it, or for warm-start restored entries)."""
        return self._cursor

    @property
    def materialized(self) -> int:
        with self._lock:
            return len(self._views)

    @property
    def exhausted(self) -> bool:
        """True when ``views`` is known to be the *complete* answer."""
        return self._exhausted

    @property
    def views(self) -> Tuple[CommunityView, ...]:
        """Snapshot of the materialised views (for warm-start persistence)."""
        with self._lock:
            return tuple(self._views)

    def _trim(self) -> None:
        """Enforce ``max_cached_k`` (lock held): drop tail views + cursor."""
        cap = self.max_cached_k
        if cap is None or len(self._views) <= cap:
            return
        del self._views[cap:]
        self._cursor = None
        self._projector = None
        # The tail is gone; only the retained prefix is known complete,
        # and memoised answers beyond the cap are no longer servable.
        self._exhausted = False
        for k in [k for k in self._served if k > cap]:
            del self._served[k]

    def _answer(self, k: int) -> Tuple[CommunityView, ...]:
        """The (memoised) top-``k`` tuple (lock held)."""
        have = len(self._views)
        # Once the stream is exhausted, every k >= have yields the same
        # full answer: normalise the memo key so oversized k's share one
        # entry instead of crowding out the hot small-k slots.
        key = min(k, have) if self._exhausted else k
        cached = self._served.get(key)
        if cached is not None:
            return cached
        out = tuple(self._views[:k])
        # Only memoise slices that can never change: k fully covered by
        # the materialised views, or the stream known exhausted.
        if (
            have >= k or self._exhausted
        ) and len(self._served) < self._MAX_CACHED_SLICES:
            self._served[key] = out
        return out

    def _hit(
        self, k: int
    ) -> Optional[Tuple[Tuple[CommunityView, ...], str, bool]]:
        """The pure prefix answer for ``k``, or ``None`` if the cursor
        would have to resume (lock held)."""
        if len(self._views) >= k or self._exhausted:
            complete = self._exhausted and k >= len(self._views)
            return self._answer(k), "cache", complete
        return None

    def serve(
        self, k: int, *, blocking: bool = True, resume: bool = True
    ) -> Optional[Tuple[Tuple[CommunityView, ...], str, bool]]:
        """Serve top-``k``, resuming (or rebuilding) the cursor as needed.

        Returns ``(views, source, complete)``: source is ``"cold"`` on
        first fill, ``"cache"`` for pure prefix reuse, ``"extended"``
        when the stream had to be resumed; ``complete`` is True when the
        served views are the *entire* answer (computed before any
        ``max_cached_k`` truncation, which may forget exhaustion).

        With ``blocking=False`` it returns ``None`` instead of waiting
        when another thread holds the entry lock, so an event loop can
        call it; with ``resume=False`` it returns ``None`` instead of
        resuming or rebuilding the cursor (a pure prefix hit only).
        """
        if not self._lock.acquire(blocking):
            return None
        try:
            hit = self._hit(k)
            if hit is not None or not resume:
                return hit
            had = len(self._views)
            cursor = self._cursor
            if cursor is None:
                if self.cursor_factory is None:
                    raise ServiceError(
                        "progressive cache entry cannot be extended: no "
                        "cursor and no cursor_factory"
                    )
                cursor = self.cursor_factory()
                self._cursor = cursor
                self._projector = ForestProjector()
            communities = cursor.take(k)
            self._views.extend(map(self._projector.view, communities[had:]))
            self._exhausted = cursor.exhausted
            if had == 0:
                source = "cold"
            elif len(self._views) == had:
                # Nothing left to resume; the cached prefix is the answer.
                source = "cache"
            else:
                source = "extended"
            out = self._answer(k)
            complete = self._exhausted and k >= len(self._views)
            self._trim()
            return out, source, complete
        finally:
            self._lock.release()


class StaticEntry:
    """A frozen cached answer from a non-resumable algorithm."""

    __slots__ = ("views", "complete")

    def __init__(self, views: Tuple[CommunityView, ...], complete: bool) -> None:
        self.views = tuple(views)
        #: True when the views are *all* communities of the graph (the
        #: query asked for more than exist), so any k' can be served.
        self.complete = complete

    @classmethod
    def capped(
        cls,
        views: Tuple[CommunityView, ...],
        complete: bool,
        max_cached_k: Optional[int],
    ) -> "StaticEntry":
        """Build an entry honouring a retention cap.

        The one rule for cap semantics — shared by the engine's put path
        and the warm-start restore, so a restored entry can never carry
        different completeness semantics than a live-computed one:
        truncated views stop being ``complete`` (the tail is gone).
        """
        stored = views if max_cached_k is None else views[:max_cached_k]
        return cls(stored, complete and len(stored) == len(views))

    def serve(self, k: int) -> Optional[Tuple[Tuple[CommunityView, ...], str]]:
        """Serve top-``k`` if the entry covers it, else ``None`` (miss)."""
        if k <= len(self.views) or self.complete:
            return self.views[:k], "cache"
        return None


def _family_barrier(
    levels: Sequence[Tuple[float, float]], key: CacheKey
) -> float:
    """The largest weight among the ``(level, weight)`` ops that reach
    ``key``'s family: level at least its γ, or γ - 1 for truss (a
    γ-truss lies in the (γ-1)-core); ``-inf`` when none does."""
    floor = key.gamma - 1 if key.algorithm == "truss" else key.gamma
    return max(
        (weight for level, weight in levels if level >= floor),
        default=float("-inf"),
    )


class ResultCache:
    """Thread-safe LRU over progressive/static entries.

    Parameters
    ----------
    capacity:
        Maximum number of entries (LRU eviction beyond it).
    max_cached_k:
        Per-entry retention cap: progressive entries release views and
        cursors beyond the top-``max_cached_k`` (long-running servers
        answering the occasional huge ``k`` would otherwise pin unbounded
        community lists); static entries are stored pre-truncated.
        ``None`` (the default) retains everything.
    """

    def __init__(
        self, capacity: int = 256, max_cached_k: Optional[int] = None
    ) -> None:
        if capacity < 1:
            raise ValueError("cache capacity must be at least 1")
        if max_cached_k is not None and max_cached_k < 1:
            raise ValueError("max_cached_k must be at least 1")
        self.capacity = capacity
        self.max_cached_k = max_cached_k
        self._data: "OrderedDict[CacheKey, object]" = OrderedDict()
        self._lock = threading.RLock()
        # Source counters take their own lock: ``record`` runs on the
        # event loop for loop-served hits and must never wait behind a
        # migration holding ``_lock``.
        self._stats_lock = threading.Lock()
        self.stats = CacheStats()

    def _lookup(self, key: CacheKey):
        """The entry for ``key``, refreshing its LRU slot (lock held)."""
        entry = self._data.get(key)
        if entry is not None:
            self._data.move_to_end(key)
        return entry

    def get(self, key: CacheKey, blocking: bool = True):
        """The entry for ``key`` (refreshing its LRU slot), or ``None``.

        With ``blocking=False`` a busy lock answers :data:`BUSY` instead
        of waiting (the event loop's lookup).
        """
        if not self._lock.acquire(blocking):
            return BUSY
        try:
            return self._lookup(key)
        finally:
            self._lock.release()

    def put(self, key: CacheKey, entry, blocking: bool = True) -> bool:
        """Store ``entry`` under ``key``; with ``blocking=False`` a busy
        lock stores nothing and answers ``False``."""
        if not self._lock.acquire(blocking):
            return False
        try:
            self._data[key] = entry
            self._data.move_to_end(key)
            while len(self._data) > self.capacity:
                self._data.popitem(last=False)
                self.stats.evictions += 1
            return True
        finally:
            self._lock.release()

    def record(self, source: str) -> None:
        """Count one served query by its source tag."""
        with self._stats_lock:
            if source == "cache":
                self.stats.hits += 1
            elif source == "extended":
                self.stats.extended += 1
            else:
                self.stats.misses += 1

    def migrate_graph(
        self,
        graph: str,
        old_version: int,
        new_version: int,
        barrier: float,
        *,
        identical: bool = False,
        levels: Optional[Sequence[Tuple[float, float]]] = None,
        progressive_factory: Optional[
            Callable[[CacheKey], Callable[[], ProgressiveCursor]]
        ] = None,
    ) -> Tuple[int, int]:
        """Scoped invalidation for one graph-version flip (``repro.live``).

        Re-keys entries from ``old_version`` to ``new_version``,
        keeping a family warm **iff its answer provably survived the
        mutation**: every cached view's influence must sit strictly
        above the family's barrier weight.  The cached view sequence
        is an influence-descending prefix, so the watermark is simply
        the *last* view's influence — the family's current influence
        frontier.  Communities with influence above the barrier live
        entirely inside threshold prefixes the mutation never touched
        (see :mod:`repro.graph.delta`), so the preserved prefix is
        byte-identical to what the new generation would recompute.

        ``levels`` are the batch's ``(core level, weight)`` pairs
        (:attr:`~repro.graph.delta.MutationStats.levels`).  With them,
        each family gets its own barrier: the largest weight among the
        ops whose level is at least its γ (γ - 1 for truss), since an op
        below that level leaves the family's γ-core, and so its answer,
        alone.  A family no op reaches is unchanged as a whole: it keeps
        its exhaustion, completeness and an empty answer.  Without
        ``levels`` every family takes ``barrier``.

        Preserved progressive entries are re-seeded from their frozen
        views with a cursor factory bound to the **new** graph (via
        ``progressive_factory(new_key)``) — the old cursor still walks
        the old generation, so the cache lets go of it (a session
        holding the old entry keeps streaming that generation).  A
        reached family forgets exhaustion/completeness because the
        stream *below* the watermark may have changed.  With
        ``identical=True`` (compaction: the same graph under a new
        version) every entry object is re-keyed unchanged, its live
        cursor included.
        Families that cannot be preserved — or reached progressive
        families when no factory is supplied — are dropped.  An entry
        already under the new key (a query of the new generation that
        ran between the handle flip and this migration) is newer and
        stays; the old one is dropped and counts as preserved.

        Returns ``(preserved, invalidated)``.
        """
        with self._lock:
            moved = [
                (key, entry)
                for key, entry in self._data.items()
                if key.graph == graph and key.version == old_version
            ]
            preserved = invalidated = 0
            for key, entry in moved:
                del self._data[key]
                new_key = replace(key, version=new_version)
                if new_key not in self._data:
                    entry = self._carried(
                        entry, new_key, identical, barrier, levels,
                        progressive_factory,
                    )
                    if entry is None:
                        invalidated += 1
                        continue
                    self._data[new_key] = entry
                preserved += 1
            return preserved, invalidated

    def _carried(
        self, entry, new_key, identical, barrier, levels, progressive_factory
    ):
        """What ``entry`` becomes under ``new_key``, or ``None`` to drop
        it (see :meth:`migrate_graph`)."""
        if identical:
            return entry  # same graph: a live cursor carries on
        scope = barrier if levels is None else _family_barrier(
            levels, new_key
        )
        unchanged = levels is not None and scope == float("-inf")
        views = getattr(entry, "views", ())
        if not (unchanged or (views and views[-1].influence > scope)):
            return None
        if isinstance(entry, ProgressiveEntry):
            factory = (
                progressive_factory(new_key)
                if progressive_factory is not None
                else None
            )
            exhausted = unchanged and entry.exhausted
            if factory is None and not exhausted:
                return None  # inextensible without a factory
            return ProgressiveEntry(
                cursor_factory=factory,
                views=views,
                exhausted=exhausted,
                max_cached_k=self.max_cached_k if factory is not None else None,
            )
        if isinstance(entry, StaticEntry):
            return entry if unchanged else StaticEntry(views, False)
        return entry if unchanged else None  # unknown entry type

    def invalidate_graph(self, graph: str, version: Optional[int] = None) -> int:
        """Drop all entries for ``graph`` (optionally one version only)."""
        with self._lock:
            doomed = [
                key
                for key in self._data
                if key.graph == graph
                and (version is None or key.version == version)
            ]
            for key in doomed:
                del self._data[key]
            return len(doomed)

    def clear(self) -> None:
        with self._lock:
            self._data.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def keys(self) -> List[CacheKey]:
        with self._lock:
            return list(self._data)
