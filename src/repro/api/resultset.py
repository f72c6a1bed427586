"""ResultSet — a lazy, extensible view over one query's answer.

The engine's :class:`~repro.service.model.QueryResult` is an eager
snapshot: execute, get ``k`` frozen views.  :class:`ResultSet` is the
facade the public API hands out instead: nothing runs until the result
is actually touched, slicing ``rs[:k']`` is served from the cache (the
progressive order makes any prefix exact), :meth:`extend_to` resumes
the underlying :class:`~repro.core.progressive.ProgressiveCursor`
instead of recomputing, and :meth:`stream` iterates past the original
``k`` in doubling fetches — the paper's "no k needed" workflow without
the caller managing cursors.

A ResultSet is backend-agnostic: it only needs a ``fetch(k)`` callable
returning a QueryResult-shaped object (``communities``, ``source``,
``complete``, ``kernel``, ...).  The same class therefore fronts the
in-process :class:`~repro.service.engine.QueryEngine` and a remote
:class:`~repro.server.client.ReproClient` — ``repro.open(...)`` and
``repro.connect(...)`` hand back the identical type.
"""

from __future__ import annotations

from dataclasses import replace
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    Optional,
    Tuple,
    TYPE_CHECKING,
    Union,
)

if TYPE_CHECKING:  # pragma: no cover — typing only, avoids import cycles
    from ..service.model import CommunityView, QueryResult
    from .spec import QuerySpec

__all__ = ["ResultSet"]


class ResultSet:
    """Lazy top-k answer for one :class:`~repro.api.spec.QuerySpec`.

    Parameters
    ----------
    spec:
        The query this set answers; ``spec.k`` is the default
        materialisation target.
    fetch:
        ``fetch(k) -> QueryResult`` — executes (or re-serves from
        cache) the spec's family at ``k``.  Called lazily and as few
        times as the access pattern allows.
    """

    __slots__ = ("_spec", "_fetch", "_result")

    def __init__(
        self,
        spec: "QuerySpec",
        fetch: Callable[["QuerySpec"], "QueryResult"],
    ) -> None:
        self._spec = spec
        #: ``fetch(spec)`` — executes the (already k-adjusted) spec.
        #: Taking the spec as the argument (rather than closing over
        #: it) lets the local backend pass ``QueryEngine.execute``
        #: itself, keeping the per-query facade cost to one ResultSet
        #: allocation and zero wrapper frames.
        self._fetch = fetch
        self._result: Optional["QueryResult"] = None

    # ------------------------------------------------------------------
    @property
    def spec(self) -> "QuerySpec":
        """The query this result set answers."""
        return self._spec

    def _materialize(self, k: int) -> "QueryResult":
        """Ensure at least ``k`` communities are materialised (or the
        stream is known complete); returns the backing result."""
        result = self._result
        if result is None or (
            len(result.communities) < k and not result.complete
        ):
            spec = self._spec
            self._result = result = self._fetch(
                spec if spec.k == k else replace(spec, k=k)
            )
        return result

    @property
    def fetched(self) -> bool:
        """True once any backend call has run (laziness probe)."""
        return self._result is not None

    @property
    def result(self) -> "QueryResult":
        """The backing :class:`QueryResult` at the spec's ``k``."""
        return self._materialize(self._spec.k)

    @property
    def communities(self) -> Tuple["CommunityView", ...]:
        """The top-``k`` community views (materialising if needed)."""
        k = self._spec.k
        views = self._materialize(k).communities
        # A fetch at k returns at most k views, so the slice only runs
        # in the extend_to-shrunk-spec corner — the hot path is copy-free.
        return views if len(views) <= k else views[:k]

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        # _materialize inlined: len() is the facade's hottest accessor
        # and the <5% overhead budget is measured in single frames.
        spec = self._spec
        k = spec.k
        result = self._result
        if result is None or (
            len(result.communities) < k and not result.complete
        ):
            self._result = result = self._fetch(spec)
        have = len(result.communities)
        return have if have < k else k

    def __iter__(self) -> Iterator["CommunityView"]:
        return iter(self.communities)

    def __bool__(self) -> bool:
        return len(self) > 0

    def __getitem__(
        self, index: Union[int, slice]
    ) -> Union["CommunityView", Tuple["CommunityView", ...]]:
        """Index or slice the answer, fetching only what is needed.

        ``rs[:k']`` with ``k' <= k`` asks the backend for exactly ``k'``
        communities — a pure cache slice when the family is warm —
        instead of forcing the full ``k``.  Access is bounded by
        ``spec.k`` (the sequence contract: ``rs[len(rs)]`` raises
        IndexError); growing past it is :meth:`extend_to`'s job.
        """
        k = self._spec.k
        if isinstance(index, slice):
            start, stop, step = index.start, index.stop, index.step
            if (
                (start is None or (isinstance(start, int) and start >= 0))
                and isinstance(stop, int)
                and 0 <= stop <= k
                and step in (None, 1)
            ):
                views = self._materialize(stop).communities
                return tuple(views[index])
            return tuple(self.communities[index])
        if isinstance(index, int):
            if index >= 0:
                if index >= k:
                    raise IndexError(index)
                views = self._materialize(index + 1).communities
                if index >= len(views):
                    raise IndexError(index)
                return views[index]
            return self.communities[index]
        raise TypeError(
            f"ResultSet indices must be integers or slices, "
            f"not {type(index).__name__}"
        )

    # ------------------------------------------------------------------
    def extend_to(self, k: int) -> "ResultSet":
        """Grow the answer to ``k`` communities (resuming, not
        recomputing: the backend's progressive cursor continues where
        it stopped).  Returns ``self`` for chaining."""
        if k < 1:
            raise ValueError("k must be at least 1")
        self._materialize(k)
        if k > self._spec.k:
            self._spec = self._spec.with_k(k)
        return self

    def stream(self, prefetch: int = 4) -> Iterator["CommunityView"]:
        """Yield communities lazily, past ``spec.k`` if iterated far
        enough, fetching in doubling batches until the stream is
        exhausted.  Abandoning the iterator early leaves the work at
        the largest batch actually fetched."""
        if prefetch < 1:
            raise ValueError("prefetch must be at least 1")
        i = 0
        target = prefetch
        while True:
            result = self._materialize(target)
            views = result.communities
            while i < len(views):
                yield views[i]
                i += 1
            if result.complete or len(views) < target:
                return
            target *= 2

    # ------------------------------------------------------------------
    def _provenance(self) -> "QueryResult":
        """The backing result for provenance reads: whatever fetch
        already ran (however partial), else the spec's full ``k`` —
        reading ``.source`` after ``rs[:2]`` must not trigger a fetch."""
        result = self._result
        return result if result is not None else self.result

    @property
    def source(self) -> str:
        """Cache provenance of the backing result (``cold`` / ``cache``
        / ``extended`` / ``coalesced``)."""
        return self._provenance().source

    @property
    def kernel(self) -> Optional[str]:
        """Peel kernel the backing result ran on (``None`` for
        algorithms that never reach the kernel dispatcher)."""
        return self._provenance().kernel

    @property
    def complete(self) -> bool:
        """True when the answer is the graph's *entire* community list."""
        return self._provenance().complete

    @property
    def elapsed_ms(self) -> float:
        return self._provenance().elapsed_ms

    @property
    def stats(self) -> Dict[str, Any]:
        """Provenance snapshot of the backing result (JSON-friendly)."""
        result = self._provenance()
        return {
            "algorithm": result.algorithm,
            "graph": self._spec.graph,
            "graph_version": result.graph_version,
            "k": self._spec.k,
            "served": len(result.communities),
            "source": result.source,
            "kernel": result.kernel,
            "complete": result.complete,
            "elapsed_ms": result.elapsed_ms,
            "plan_reason": result.plan_reason,
        }

    # ------------------------------------------------------------------
    def to_dict(self, include_members: bool = True) -> Dict[str, Any]:
        """The backing result's wire projection (see
        :meth:`~repro.service.model.QueryResult.to_dict`)."""
        return self.result.to_dict(include_members)

    def to_json(self, include_members: bool = True) -> str:
        return self.result.to_json(include_members)

    def __repr__(self) -> str:
        if self._result is None:
            return (
                f"<ResultSet {self._spec.graph!r} k={self._spec.k} "
                f"gamma={self._spec.gamma} (not fetched)>"
            )
        return (
            f"<ResultSet {self._spec.graph!r} k={self._spec.k} "
            f"gamma={self._spec.gamma} served={len(self._result.communities)} "
            f"source={self._result.source}>"
        )
