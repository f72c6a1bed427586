"""Seeded request streams and their independently computed answers.

Three workloads over the Table-1 stand-ins (email, youtube, wiki,
livejournal) at the paper's fig-8 k sweep and fig-9 gamma sweep:

* ``warm-zipf``  -- zipf draws over (graph x gamma) families, k from the
  k sweep; every family is primed, so each timed query is a cache hit.
* ``cold-sweep`` -- the fig 8/9 sweeps over one connection, cycled so
  that consecutive requests never share a family; served with a
  one-entry result cache, every query is ``cold``.
* ``live-churn`` -- the warm-zipf reads with a ``mutate`` line every
  ``MUTATE_EVERY`` requests on connection 0, drawn from
  :func:`repro.workloads.generators.delta_stream`.

Everything the server receives is generated here from the seed before
any timing starts.  Expected answers come from the python peel kernel
(the repository's differential-testing oracle), run in this process on
graphs built independently of the server.
"""

from __future__ import annotations

import hashlib
import json
import random
from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.api.spec import QuerySpec
from repro.core.progressive import LocalSearchP
from repro.graph.builder import graph_from_arrays
from repro.graph.delta import apply_ops_to_model
from repro.service.model import CommunityView
from repro.workloads.datasets import load_dataset
from repro.workloads.generators import delta_stream

GRAPHS = ("email", "youtube", "wiki", "livejournal")
#: Fig 8 varies k at gamma=10; fig 9 varies gamma at k=10.
K_SWEEP = (5, 10, 50, 100)
GAMMA_SWEEP = (5, 10, 20, 50)
FIG_GAMMA, FIG_K = 10, 10
K_MAX = max(K_SWEEP)

ZIPF_S = 1.1
#: Load connections of warm-zipf and live-churn, and the requests each
#: connection keeps pipelined.
CONNECTIONS = 2
DEPTH = 8
#: Requests generated per connection; a stream that runs out wraps.
STREAM_LEN = 60_000

#: live-churn: one mutate line per this many requests on connection 0.
MUTATE_EVERY = 16
OPS_PER_BATCH = 2
#: Reweights reorder ranks and force a full graph rebuild (hundreds of
#: ms on the larger stand-ins), so only email, where a rebuild costs a
#: few ms, draws them; the other graphs churn edges.
MIX_REWEIGHT = (0.4, 0.4, 0.2)
MIX_EDGES = (0.5, 0.5, 0.0)
REWEIGHT_GRAPHS = ("email",)

#: The order of families by zipf rank is fixed, not seeded: a seed that
#: made the hottest family a heavy one would move every figure.
_FAMILY_ORDER_SEED = 0

#: Byte prefix of every json-mode response (keys are sorted).
RESPONSE_PREFIX = b'{"algorithm": "localsearch-p", "communities": '
RESPONSE_SPLIT = b', "complete": '


def query_line(graph: str, gamma: int, k: int) -> bytes:
    """The wire line ``repro.connect()`` ships for one query."""
    doc = QuerySpec(graph=graph, gamma=gamma, k=k, mode="json").to_wire_dict()
    doc["members"] = True
    body = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return ("query " + body + "\n").encode("utf-8")


def mutate_line(graph: str, ops: Sequence[Tuple]) -> bytes:
    tokens = []
    for kind, a, b in ops:
        value = repr(float(b)) if kind == "reweight" else str(b)
        tokens.append(f"{kind}={a}:{value}")
    return f"mutate {graph} {' '.join(tokens)}\n".encode("utf-8")


def communities_bytes(communities) -> bytes:
    """The ``communities`` member of a json response, as the server
    renders it, for a list of oracle communities."""
    views = [CommunityView.from_community(c).to_dict(True) for c in communities]
    return json.dumps(views, sort_keys=True, default=str).encode("utf-8")


def communities_slice(response: bytes) -> Optional[bytes]:
    """Cut the ``communities`` member out of one json response line."""
    if not response.startswith(RESPONSE_PREFIX):
        return None
    end = response.rfind(RESPONSE_SPLIT)
    if end < 0:
        return None
    return response[len(RESPONSE_PREFIX):end]


def digest(data: bytes) -> bytes:
    return hashlib.blake2b(data, digest_size=16).digest()


# ----------------------------------------------------------------------
# Oracle
# ----------------------------------------------------------------------
class Oracle:
    """Expected answers from the python kernel on locally built graphs."""

    def __init__(self) -> None:
        self.graphs = {name: load_dataset(name) for name in GRAPHS}
        self._answers: Dict[Tuple[str, int], list] = {}

    def top(self, graph: str, gamma: int) -> list:
        """Top-``K_MAX`` communities of the unmutated stand-in."""
        key = (graph, gamma)
        if key not in self._answers:
            self._answers[key] = _python_top(self.graphs[graph], gamma)
        return self._answers[key]

    def expected(self, graph: str, gamma: int, k: int) -> bytes:
        return communities_bytes(self.top(graph, gamma)[:k])


def _python_top(graph, gamma: int) -> list:
    return LocalSearchP(graph, gamma=gamma, kernel="python").run(k=K_MAX).communities


class GraphModel:
    """A stand-in as a plain (edge set, weights) model for live-churn."""

    def __init__(self, graph) -> None:
        self.n = graph.num_vertices
        self.edges = sorted(
            (u, v) if u < v else (v, u) for u, v in graph.edges_as_labels()
        )
        by_label = graph.weights_by_label()
        self.weights = [by_label[v] for v in range(self.n)]

    def answers_after(
        self, batches: Sequence[Sequence[Tuple]], gammas: Sequence[int]
    ) -> Dict[int, list]:
        """Top communities per gamma after replaying ``batches``."""
        edges = set(self.edges)
        weights = dict(enumerate(self.weights))
        for ops in batches:
            apply_ops_to_model(edges, weights, ops)
        graph = graph_from_arrays(
            self.n, sorted(edges), weights=[weights[v] for v in range(self.n)]
        )
        return {gamma: _python_top(graph, gamma) for gamma in gammas}


# ----------------------------------------------------------------------
# Streams
# ----------------------------------------------------------------------
@dataclass
class Request:
    line: bytes
    #: ``(graph, gamma, k)`` for a query, ``None`` for a mutation.
    query: Optional[Tuple[str, int, int]]
    #: For a mutation: its graph and the batch's ops.
    graph: Optional[str] = None
    ops: Tuple = ()


@dataclass
class Workload:
    name: str
    seed: int
    server_args: List[str]
    #: Queries sent one at a time during set-up (graph builds + priming).
    priming: List[Request]
    #: One request list per connection.
    streams: List[List[Request]]

    def stream_hash(self) -> str:
        h = hashlib.sha256()
        for index, stream in enumerate(self.streams):
            h.update(f"connection {index}\n".encode())
            for request in stream:
                h.update(request.line)
        return h.hexdigest()


def _families() -> List[Tuple[str, int]]:
    families = [(g, gamma) for g in GRAPHS for gamma in GAMMA_SWEEP]
    random.Random(_FAMILY_ORDER_SEED).shuffle(families)
    return families


def _zipf_reads(rng: random.Random, count: int) -> List[Request]:
    families = _families()
    cumulative, total = [], 0.0
    for rank in range(1, len(families) + 1):
        total += 1.0 / rank ** ZIPF_S
        cumulative.append(total)
    table: Dict[Tuple[str, int, int], Request] = {}
    out = []
    for _ in range(count):
        graph, gamma = families[bisect_right(cumulative, rng.random() * total)]
        out.append(_query(table, graph, gamma, rng.choice(K_SWEEP)))
    return out


def _query(table: Dict, graph: str, gamma: int, k: int) -> Request:
    """The shared Request for one (graph, gamma, k) query."""
    key = (graph, gamma, k)
    request = table.get(key)
    if request is None:
        request = table[key] = Request(query_line(*key), key)
    return request


def _prime_all_families() -> List[Request]:
    return [
        Request(query_line(g, gamma, K_MAX), (g, gamma, K_MAX))
        for g in GRAPHS
        for gamma in GAMMA_SWEEP
    ]


def warm_zipf(seed: int) -> Workload:
    rng = random.Random(seed)
    streams = [_zipf_reads(rng, STREAM_LEN) for _ in range(CONNECTIONS)]
    return Workload("warm-zipf", seed, [], _prime_all_families(), streams)


def sweep_combos() -> List[Tuple[int, int]]:
    """(gamma, k) pairs of the fig-8 and fig-9 sweeps."""
    combos = [(FIG_GAMMA, k) for k in K_SWEEP]
    combos += [(gamma, FIG_K) for gamma in GAMMA_SWEEP if gamma != FIG_GAMMA]
    return combos


def cold_sweep(seed: int) -> Workload:
    """One connection cycling the four graphs, so consecutive requests
    never share a family.  The peels are CPU-bound under one GIL: a
    second connection would only interleave two of them on the server's
    CPU, and the share of cheap and costly queries served would then
    follow thread scheduling instead of the stream."""
    rng = random.Random(seed)
    combos = sweep_combos()
    table: Dict[Tuple[str, int, int], Request] = {}
    stream: List[Request] = []
    while len(stream) < STREAM_LEN:
        orders = []
        for _ in GRAPHS:
            order = combos[:]
            rng.shuffle(order)
            orders.append(order)
        for round_ in zip(*orders):
            for graph, (gamma, k) in zip(GRAPHS, round_):
                stream.append(_query(table, graph, gamma, k))
    # One query per graph builds it; k=5 at gamma=10 peels little.
    priming = [Request(query_line(g, FIG_GAMMA, 5), (g, FIG_GAMMA, 5)) for g in GRAPHS]
    return Workload("cold-sweep", seed, ["--cache-size", "1"], priming, [stream])


def live_churn(seed: int, oracle: Oracle) -> Workload:
    rng = random.Random(seed)
    reads = [_zipf_reads(rng, STREAM_LEN) for _ in range(CONNECTIONS)]
    mutations_needed = STREAM_LEN // MUTATE_EVERY + 1
    per_graph = mutations_needed // len(GRAPHS) + 1
    batches: Dict[str, List[Tuple]] = {}
    for index, graph in enumerate(GRAPHS):
        model = GraphModel(oracle.graphs[graph])
        stream = delta_stream(
            random.Random(seed * 101 + index),
            model.n,
            model.edges,
            model.weights,
            ops_per_batch=OPS_PER_BATCH,
            mix=MIX_REWEIGHT if graph in REWEIGHT_GRAPHS else MIX_EDGES,
        )
        batches[graph] = [next(stream).ops for _ in range(per_graph)]
    # All mutations ride connection 0, in stream order: the server then
    # applies each graph's batches in exactly the order they were drawn.
    first: List[Request] = []
    taken = {graph: 0 for graph in GRAPHS}
    for position, request in enumerate(reads[0]):
        if position % MUTATE_EVERY == MUTATE_EVERY - 1:
            graph = GRAPHS[(position // MUTATE_EVERY) % len(GRAPHS)]
            ops = batches[graph][taken[graph]]
            taken[graph] += 1
            first.append(Request(mutate_line(graph, ops), None, graph, ops))
        else:
            first.append(request)
    return Workload("live-churn", seed, [], _prime_all_families(), [first, reads[1]])


def build(name: str, seed: int, oracle: Oracle) -> Workload:
    if name == "warm-zipf":
        return warm_zipf(seed)
    if name == "cold-sweep":
        return cold_sweep(seed)
    if name == "live-churn":
        return live_churn(seed, oracle)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("warm-zipf", "cold-sweep", "live-churn")
