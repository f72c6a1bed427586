"""QuerySpec — the one typed representation of a top-k community query.

Every layer of the system used to re-parse and re-thread the same
parameter tuple (graph, gamma, k, delta, algorithm, ...) in its own
shape: the CLI as argparse attributes, the shell as a positional
3-tuple, the scheduler as an ad-hoc coalesce key, the transports as raw
``key=value`` tokens.  :class:`QuerySpec` replaces all of them: a frozen
dataclass that validates on construction, resolves ``auto`` choices
canonically (:meth:`QuerySpec.resolved_algorithm`,
:meth:`QuerySpec.cache_key`), and round-trips through a **versioned**
wire schema (:meth:`QuerySpec.to_wire` / :meth:`QuerySpec.from_wire`)
that also accepts the legacy pre-versioned payload shape, so old wire
clients keep working.

The canonical :meth:`cache_key` is what the result cache and the batch
scheduler key off: it is ``k``-independent (the progressive order only
truncates at ``k``).  The peel kernel is not part of a query: the
python and array kernels produce identical answers, so the kernel
is process configuration (``$REPRO_KERNEL``, resolved once by each
:class:`~repro.service.engine.QueryEngine`) and only reported on each
result as provenance.  The text and wire grammars still accept a
``kernel=K`` argument from older clients: a ``K`` outside
:data:`~repro.core.fastpeel.KERNELS` is rejected, a known one is
ignored.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from ..core.fastpeel import KERNELS
from ..errors import QueryParameterError, check_delta

__all__ = [
    "ALGORITHMS",
    "AUTO",
    "COHESIONS",
    "KERNEL_ALGORITHMS",
    "MODES",
    "QUERY_USAGE",
    "WIRE_VERSION",
    "FamilyKey",
    "QuerySpec",
    "parse_argument",
    "parse_spec_tokens",
    "parse_wire_query",
]

AUTO = "auto"

#: Algorithms the planner can dispatch to (mirrors the CLI choices).
ALGORITHMS = (
    AUTO,
    "localsearch",
    "localsearch-p",
    "forward",
    "onlineall",
    "backward",
    "truss",
    "noncontainment",
)

#: Cohesiveness families a spec can ask for.  ``core`` is the paper's
#: minimum-degree (γ-core) definition; ``truss`` the Section-6 k-truss
#: variant.  ``auto`` + ``cohesion="truss"`` resolves to the truss
#: searcher without the caller naming an algorithm.
COHESIONS = ("core", "truss")

#: Output modes a spec can request over the wire: human-rendered text
#: lines, or one deterministic JSON document.
MODES = ("text", "json")

#: Algorithms whose peel runs through the kernel dispatcher
#: (:func:`repro.core.count.construct_cvs`); onlineall/backward/truss
#: use their own peels and report no kernel.
KERNEL_ALGORITHMS = frozenset(
    {"localsearch", "localsearch-p", "forward", "noncontainment"}
)

#: Wire-schema version emitted by :meth:`QuerySpec.to_wire`.  Bump only
#: on incompatible changes; :meth:`QuerySpec.from_wire` keeps accepting
#: every version it knows (including the legacy pre-versioned shape).
WIRE_VERSION = 1

_TRUE_WORDS = frozenset({"1", "true", "yes", "on"})
_FALSE_WORDS = frozenset({"0", "false", "no", "off"})


@dataclass(frozen=True)
class FamilyKey:
    """The canonical, ``k``-independent identity of a query family.

    Two queries sharing a FamilyKey share one result stream: the cache
    stores one (resumable) entry per family, and the batch scheduler
    coalesces concurrent queries of a family onto one engine pass.
    ``algorithm`` is *resolved* (never ``auto``).
    """

    graph: str
    gamma: int
    algorithm: str
    delta: float


@dataclass(frozen=True)
class QuerySpec:
    """One top-k influential-community query, fully specified.

    This is the only query-parameter representation that crosses layer
    boundaries: the CLI, the stdio shell, the network transports, the
    batch scheduler, the result cache, and the engine all consume and
    produce it.

    Parameters
    ----------
    graph:
        Registered graph name the query runs against.
    gamma:
        Minimum-degree (or truss) cohesiveness parameter, >= 1.
    k:
        Number of communities requested, >= 1.
    algorithm:
        One of :data:`ALGORITHMS`; ``auto`` lets the planner pick
        (LocalSearch-P, or the truss/non-containment searcher when
        ``cohesion``/``containment`` say so).
    delta:
        Progressive growth ratio, > 1.
    containment:
        ``False`` restricts the answer to non-containment communities
        (Section 5.1); only valid with ``algorithm`` ``auto`` or
        ``noncontainment``.
    cohesion:
        ``core`` (default) or ``truss``; ``truss`` is only valid with
        ``algorithm`` ``auto`` or ``truss``.
    mode:
        Response rendering over the wire: ``text`` lines or one
        ``json`` document.  Not part of the query identity.
    tenant:
        Optional caller identity, accepted and validated on the wire
        for v1 clients that send it; the server attaches no behaviour
        to it.  Absent by default and **never** emitted on the wire
        when unset, so pre-tenant recorded exchanges stay
        byte-identical.  Like ``k``/``mode`` it is not part of the
        query identity: two tenants asking for the same family share
        one cache entry.
    """

    graph: str
    gamma: int = 10
    k: int = 10
    algorithm: str = AUTO
    delta: float = 2.0
    containment: bool = True
    cohesion: str = "core"
    mode: str = "text"
    tenant: Optional[str] = None

    def __post_init__(self) -> None:
        self.validate()

    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Raise :class:`QueryParameterError` unless the spec is coherent."""
        if not self.graph:
            raise QueryParameterError("graph name must be non-empty")
        if self.k < 1:
            raise QueryParameterError("k must be at least 1")
        if self.gamma < 1:
            raise QueryParameterError("gamma must be at least 1")
        check_delta(self.delta)
        if self.algorithm not in ALGORITHMS:
            raise QueryParameterError(
                f"unknown algorithm {self.algorithm!r}; "
                f"choose from {', '.join(ALGORITHMS)}"
            )
        if self.cohesion not in COHESIONS:
            raise QueryParameterError(
                f"unknown cohesion {self.cohesion!r}; "
                f"choose from {', '.join(COHESIONS)}"
            )
        if self.mode not in MODES:
            raise QueryParameterError(
                f"unknown mode {self.mode!r}; choose from {', '.join(MODES)}"
            )
        if self.tenant is not None and not self.tenant:
            raise QueryParameterError("tenant must be non-empty when set")
        if self.cohesion == "truss":
            if self.algorithm not in (AUTO, "truss"):
                raise QueryParameterError(
                    f"cohesion='truss' conflicts with "
                    f"algorithm={self.algorithm!r} (use 'auto' or 'truss')"
                )
            if not self.containment:
                raise QueryParameterError(
                    "non-containment search is not defined for "
                    "cohesion='truss'"
                )
        if not self.containment and self.algorithm not in (
            AUTO,
            "noncontainment",
        ):
            raise QueryParameterError(
                f"containment=False conflicts with "
                f"algorithm={self.algorithm!r} (use 'auto' or "
                "'noncontainment')"
            )

    # ------------------------------------------------------------------
    def resolved_algorithm(self) -> str:
        """The concrete algorithm this spec runs (``auto`` resolved).

        ``auto`` resolves by declared intent: ``cohesion='truss'`` ->
        the truss searcher, ``containment=False`` -> the non-containment
        searcher, otherwise LocalSearch-P (instance-optimal and
        resumable, which is what makes the serving tier's caching and
        coalescing pay off).
        """
        if self.algorithm != AUTO:
            return self.algorithm
        if self.cohesion == "truss":
            return "truss"
        if not self.containment:
            return "noncontainment"
        return "localsearch-p"

    def cache_key(self) -> FamilyKey:
        """The canonical cache / coalesce identity of this query.

        ``k``, ``mode`` and ``tenant`` are excluded (the result stream
        does not depend on them); ``algorithm`` is resolved.
        """
        return FamilyKey(
            graph=self.graph,
            gamma=self.gamma,
            algorithm=self.resolved_algorithm(),
            delta=self.delta,
        )

    def with_k(self, k: int) -> "QuerySpec":
        """This spec asking for ``k`` communities (same family)."""
        return self if k == self.k else replace(self, k=k)

    # ------------------------------------------------------------------
    def to_wire_dict(self) -> Dict[str, Any]:
        """The versioned wire projection (plain JSON types only).

        ``tenant`` rides along only when set: the key is an additive v1
        extension (old decoders ignore it), and omitting it when unset
        keeps every pre-tenant recorded exchange byte-identical.
        """
        out: Dict[str, Any] = {
            "v": WIRE_VERSION,
            "graph": self.graph,
            "gamma": self.gamma,
            "k": self.k,
            "algorithm": self.algorithm,
            "delta": self.delta,
            "containment": self.containment,
            "cohesion": self.cohesion,
            "mode": self.mode,
        }
        if self.tenant is not None:
            out["tenant"] = self.tenant
        return out

    def to_wire(self) -> str:
        """Deterministic JSON encoding (sorted keys, no whitespace)."""
        return json.dumps(
            self.to_wire_dict(), sort_keys=True, separators=(",", ":")
        )

    @classmethod
    def from_wire(
        cls, payload: Union[str, bytes, Dict[str, Any]]
    ) -> "QuerySpec":
        """Decode a wire payload (versioned or legacy) into a spec.

        Accepts the :data:`WIRE_VERSION` schema, and — for
        compatibility with pre-versioned clients and with recorded
        :meth:`~repro.service.model.QueryResult.to_dict` documents —
        any dict carrying the classic ``graph``/``gamma``/``k``/
        ``delta``/``algorithm`` keys without a ``"v"`` marker.  Unknown
        keys are ignored (a v1 decoder stays forward-compatible with
        additive v1 extensions).  A ``kernel`` key is checked by
        :func:`_check_kernel` and dropped.
        """
        if isinstance(payload, (str, bytes)):
            try:
                payload = json.loads(payload)
            except json.JSONDecodeError as exc:
                raise QueryParameterError(
                    f"bad wire payload: {exc}"
                ) from exc
        if not isinstance(payload, dict):
            raise QueryParameterError(
                "wire payload must be a JSON object"
            )
        version = payload.get("v")
        if version is not None and version != WIRE_VERSION:
            raise QueryParameterError(
                f"unsupported wire version {version!r} "
                f"(this build speaks v{WIRE_VERSION})"
            )
        if "graph" not in payload:
            raise QueryParameterError("wire payload is missing 'graph'")
        _check_kernel(payload.get("kernel"))
        tenant = payload.get("tenant")
        gamma = _wire_field(payload, "gamma", 10, int)
        k = _wire_field(payload, "k", 10, int)
        containment = _wire_field(payload, "containment", True, bool)
        try:
            return cls(
                graph=str(payload["graph"]),
                gamma=gamma,
                k=k,
                algorithm=str(payload.get("algorithm", AUTO)),
                delta=float(payload.get("delta", 2.0)),
                containment=containment,
                cohesion=str(payload.get("cohesion", "core")),
                mode=str(payload.get("mode", "text")),
                tenant=None if tenant is None else str(tenant),
            )
        except (TypeError, ValueError) as exc:
            raise QueryParameterError(
                f"bad wire payload field: {exc}"
            ) from exc


# ----------------------------------------------------------------------
# Token / wire request parsing — the shared grammar of every frontend.
# ----------------------------------------------------------------------

#: The ``query`` grammar after the verb (the shell's help prints it).
QUERY_USAGE = (
    "GRAPH [k=N] [gamma=N] [algorithm=A] [delta=F] "
    "[cohesion=core|truss] [containment=BOOL] [tenant=T] [members] [json]"
)

_KV_KEYS = (
    "k",
    "gamma",
    "algorithm",
    "delta",
    "kernel",
    "cohesion",
    "containment",
    "mode",
    "tenant",
)
_FLAG_WORDS = ("members", "json", "nc")


def _check_kernel(kernel: Any) -> None:
    """Reject an unknown legacy ``kernel`` argument; a known one is
    dropped, because the kernel is process configuration."""
    if kernel is not None and (
        not isinstance(kernel, str) or kernel not in KERNELS
    ):
        raise QueryParameterError(
            f"unknown kernel {kernel!r}; choose from {', '.join(KERNELS)}"
        )


def _wire_field(
    payload: Dict[str, Any], key: str, default: Any, kind: type
) -> Any:
    """``payload[key]`` (or ``default``), which must be a JSON ``kind``.

    No coercion: ``int(10.9)`` would serve γ=10, ``int(1e400)``
    overflows and ``bool("false")`` is true.  JSON decodes ``true`` to
    a Python bool, which is also an int, so a bool is no integer here.
    """
    value = payload.get(key, default)
    if not isinstance(value, kind) or (
        kind is int and isinstance(value, bool)
    ):
        name = "boolean" if kind is bool else "integer"
        raise QueryParameterError(
            f"bad wire payload field: {key} must be a JSON {name}, "
            f"not {value!r}"
        )
    return value


_TYPE_NAMES = {int: "an integer", float: "a number"}


def parse_argument(verb: str, key: str, value: str, kind: type) -> Any:
    """One text-protocol argument ``key=value`` as a ``kind`` (``str``,
    ``int``, ``float`` or ``bool``); a value that is not one answers
    ``bad VERB argument: key='value' is not an integer`` (or a number,
    or a boolean)."""
    if kind is bool:
        lowered = value.lower()
        if lowered in _TRUE_WORDS:
            return True
        if lowered in _FALSE_WORDS:
            return False
        raise QueryParameterError(
            f"bad {verb} argument: {key}={value!r} is not a boolean "
            "(true/false)"
        )
    try:
        return kind(value)
    except ValueError:
        raise QueryParameterError(
            f"bad {verb} argument: {key}={value!r} is not {_TYPE_NAMES[kind]}"
        ) from None


def _query_argument(kv: Dict[str, str], key: str, kind: type, default: Any):
    value = kv.get(key)
    return default if value is None else parse_argument("query", key, value, kind)


def parse_spec_tokens(tokens: Sequence[str]) -> Tuple[QuerySpec, bool]:
    """Parse line-protocol ``query`` tokens: ``(spec, members_flag)``.

    The grammar every text frontend shares (stdio shell, TCP and unix
    transports): a graph name followed by ``key=value`` pairs in any
    order plus bare flags.  ``json`` selects ``mode="json"``; ``nc`` is
    shorthand for ``containment=false``.  A ``kernel=K`` argument is
    checked and dropped (see :func:`_check_kernel`).
    """
    if not tokens:
        raise QueryParameterError(f"usage: query {QUERY_USAGE}")
    graph, rest = tokens[0], list(tokens[1:])
    kv: Dict[str, str] = {}
    flags: List[str] = []
    for token in rest:
        if "=" in token:
            key, _, value = token.partition("=")
            kv[key] = value
        else:
            flags.append(token)
    unknown = [flag for flag in flags if flag not in _FLAG_WORDS] + [
        key for key in kv if key not in _KV_KEYS
    ]
    if unknown:
        raise QueryParameterError(
            f"unknown query argument(s): {', '.join(unknown)}"
        )
    mode = kv.get("mode", "json" if "json" in flags else "text")
    _check_kernel(kv.get("kernel"))
    try:
        spec = QuerySpec(
            graph=graph,
            k=_query_argument(kv, "k", int, 10),
            gamma=_query_argument(kv, "gamma", int, 10),
            algorithm=kv.get("algorithm", AUTO),
            delta=_query_argument(kv, "delta", float, 2.0),
            containment=_query_argument(
                kv, "containment", bool, "nc" not in flags
            ),
            cohesion=kv.get("cohesion", "core"),
            mode=mode,
            tenant=kv.get("tenant"),
        )
    except ValueError as exc:
        raise QueryParameterError(f"bad query argument: {exc}") from exc
    return spec, "members" in flags


def parse_wire_query(
    payload: Union[str, bytes, Dict[str, Any]]
) -> Tuple[QuerySpec, bool]:
    """Parse a JSON *request* document: ``(spec, members_flag)``.

    ``members`` is a request-rendering concern (include member lists in
    the response), not part of the query identity, so it rides next to
    the spec fields in the request document rather than inside the spec.
    """
    if isinstance(payload, (str, bytes)):
        try:
            payload = json.loads(payload)
        except json.JSONDecodeError as exc:
            raise QueryParameterError(f"bad wire payload: {exc}") from exc
    if not isinstance(payload, dict):
        raise QueryParameterError("wire payload must be a JSON object")
    spec = QuerySpec.from_wire(payload)
    return spec, bool(payload.get("members", False))
