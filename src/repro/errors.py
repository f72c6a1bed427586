"""Exception hierarchy for the :mod:`repro` library.

All errors raised intentionally by the library derive from
:class:`ReproError`, so callers can catch a single base class.  The hierarchy
distinguishes construction-time problems (bad input graphs, weight
collisions) from query-time problems (invalid parameters) and storage-layer
problems (the simulated disk-resident edge store).
"""

from __future__ import annotations

import math

__all__ = [
    "ReproError",
    "GraphConstructionError",
    "DuplicateWeightError",
    "SelfLoopError",
    "UnknownVertexError",
    "QueryParameterError",
    "check_delta",
    "StorageError",
    "DatasetError",
    "ServiceError",
    "UnknownGraphError",
    "UnknownSessionError",
]


class ReproError(Exception):
    """Base class for every intentional error raised by :mod:`repro`."""


class GraphConstructionError(ReproError):
    """Raised when an input edge list or weight vector cannot form a graph."""


class DuplicateWeightError(GraphConstructionError):
    """Raised when two vertices share a weight and the policy is ``"error"``.

    The paper assumes distinct vertex weights (Section 2).  The
    :class:`~repro.graph.builder.GraphBuilder` offers tie-breaking policies;
    this error is raised only under the strict policy.
    """

    def __init__(self, weight: float, first, second) -> None:
        self.weight = weight
        self.first = first
        self.second = second
        super().__init__(
            f"vertices {first!r} and {second!r} share weight {weight!r}; "
            "the paper requires distinct weights "
            "(use ties='rank' or ties='jitter' to break ties automatically)"
        )


class SelfLoopError(GraphConstructionError):
    """Raised when a self-loop is supplied and the policy is ``"error"``."""

    def __init__(self, vertex) -> None:
        self.vertex = vertex
        super().__init__(
            f"self-loop on vertex {vertex!r}; influential-community search "
            "is defined on simple graphs (use drop_self_loops=True)"
        )


class UnknownVertexError(ReproError):
    """Raised when a vertex label is not part of the graph."""

    def __init__(self, vertex) -> None:
        self.vertex = vertex
        super().__init__(f"vertex {vertex!r} is not in the graph")


class QueryParameterError(ReproError):
    """Raised for invalid query parameters (``k``, ``gamma``, ``delta``...)."""


def check_delta(delta: float) -> None:
    """Raise :class:`QueryParameterError` unless ``delta`` is a valid
    growth ratio.

    The doubling searchers grow their prefix by ``delta`` per round, so
    it must be finite and greater than 1; ``nan``/``inf`` would fail
    deep inside the growth arithmetic with an untyped error instead.
    """
    if not math.isfinite(delta):
        raise QueryParameterError(
            f"delta must be a finite number, not {delta!r}"
        )
    if delta <= 1.0:
        raise QueryParameterError("delta must be greater than 1")


class StorageError(ReproError):
    """Raised by the disk-resident edge store on malformed files or reads."""


class DatasetError(ReproError):
    """Raised by the workload/dataset registry for unknown dataset names."""


class ServiceError(ReproError):
    """Base class for errors raised by the query-serving layer."""


class UnknownGraphError(ServiceError):
    """Raised when a graph name is not registered with the GraphRegistry."""

    def __init__(self, name, available=()) -> None:
        self.name = name
        hint = f"; registered: {', '.join(sorted(map(str, available)))}" if available else ""
        super().__init__(f"graph {name!r} is not registered{hint}")


class UnknownSessionError(ServiceError):
    """Raised for an unknown (or expired and evicted) session id."""

    def __init__(self, session_id) -> None:
        self.session_id = session_id
        super().__init__(
            f"session {session_id!r} does not exist (it may have expired)"
        )
