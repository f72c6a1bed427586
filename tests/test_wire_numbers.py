"""Wire numbers are typed: ``gamma``/``k`` are JSON integers, ``containment``
a JSON boolean.

The wire decoder used to coerce: ``"k": 1e400`` raised an uncaught
``OverflowError`` (the connection dropped), ``"gamma": 10.9`` was served
as γ=10, ``"gamma": true`` as γ=1 and ``"containment": "false"`` with
containment on.  Each is now one typed ``error:`` line, the connection
keeps serving, and the token grammar rejects the same values.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.api.spec import QuerySpec, parse_spec_tokens
from repro.errors import QueryParameterError
from repro.graph.builder import graph_from_arrays
from repro.server import ReproClient, ReproServer
from repro.service.registry import GraphRegistry

#: (wire document, token arguments or None): each must be rejected.  A
#: token value is text, so a quoted wire value has no token twin.
MALFORMED = [
    ('{"graph": "g", "k": 1e400, "mode": "json"}', "k=1e400 json"),
    ('{"graph": "g", "gamma": 10.9}', "gamma=10.9"),
    ('{"graph": "g", "k": 2.9}', "k=2.9"),
    ('{"graph": "g", "gamma": true}', "gamma=true"),
    ('{"graph": "g", "k": "3"}', None),
    ('{"graph": "g", "gamma": null}', None),
    ('{"graph": "g", "containment": "false"}', None),
    ('{"graph": "g", "containment": 0}', None),
]


def _graph():
    # Two K4s joined by one edge: a few communities for gamma 1-3.
    edges = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    edges += [(i + 4, j + 4) for i, j in edges] + [(3, 4)]
    return graph_from_arrays(8, edges)


@pytest.mark.parametrize("document,tokens", MALFORMED)
def test_decoder_and_token_grammar_reject_alike(document, tokens):
    with pytest.raises(QueryParameterError):
        QuerySpec.from_wire(document)
    if tokens is not None:
        with pytest.raises(QueryParameterError):
            parse_spec_tokens(["g", *tokens.split()])


def test_well_typed_values_still_decode():
    spec = QuerySpec.from_wire(
        '{"graph": "g", "gamma": 3, "k": 2, "containment": false}'
    )
    assert (spec.gamma, spec.k, spec.containment) == (3, 2, False)
    assert spec == parse_spec_tokens(["g", "gamma=3", "k=2", "nc"])[0]


def test_tcp_answers_one_error_line_and_keeps_the_connection():
    async def main():
        registry = GraphRegistry(preload_datasets=False, compact_after=None)
        registry.register("g", _graph)
        server = ReproServer(registry, shards=1)
        await server.start(tcp=("127.0.0.1", 0))
        host, port = server.tcp_address
        client = await ReproClient.connect(host, port=port)
        try:
            valid = await client.request("query g k=2 gamma=3")
            assert valid[0].startswith("localsearch-p[cold]: 2 communities")
            for document, tokens in MALFORMED:
                for line in (document, tokens):
                    if line is None:
                        continue
                    answer = await client.request(f"query {line}")
                    assert len(answer) == 1, (line, answer)
                    assert answer[0].startswith("error: "), (line, answer)
                    # The same connection still serves a valid query.
                    again = await client.request("query g k=2 gamma=3")
                    assert again[0].startswith(
                        "localsearch-p[cache]: 2 communities"
                    )
                    assert again[1:] == valid[1:]
        finally:
            await client.close()
            await server.stop()

    asyncio.run(main())
