"""Golden transcripts of the text front ends.

One fixed script runs every shell verb, its usage errors and ``help``
through two front ends of ``repro serve``:

* the stdio loop (``repro serve --no-datasets --script FILE``), whose
  whole stdout is pinned;
* the network server (``repro serve --tcp 127.0.0.1:0``), whose
  response block to each request line is pinned.

A second, shorter script does the same for ``trace`` and ``profile``
with observability on (``--trace-sample 0``).  The one-shot commands
``repro query``, ``stream``, ``mutate`` and ``stats`` are pinned too.
All of them are compared byte for byte against
``tests/golden/transcript.json``, except for timings: an elapsed time
(``0.66 ms``, ``p50=0.663ms``, a float under a ``*_ms`` JSON key) reads
``<MS>``, and what depends on the process's peel kernel
(``kernel[array]``, a JSON ``kernel`` value, a ``by_kernel`` key and
the per-kernel ``phases_ms`` timings) reads ``<K>``.

The expected file changes only when an answer changes on purpose.
Regenerate it with::

    PYTHONPATH=src python tests/test_shell_golden.py --regenerate
"""

from __future__ import annotations

import io
import json
import os
import re
import socket
import sys
import tempfile
import threading
import time
from contextlib import contextmanager
from typing import Any, Dict, List, Tuple

import pytest

from repro.cli import main
from repro.graph.io import write_edge_list, write_weights

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "transcript.json")

#: Every verb with its usage errors; run with ``--no-datasets`` from a
#: directory holding ``g.txt`` and ``w.txt`` (see :func:`_write_graph`).
SCRIPT = [
    "help",
    "help x",
    "graphs",
    "graphs a b",
    "load",
    "load g g.txt w.txt",
    "load h g.txt",
    "load g g.txt w.txt extra",
    "load x missing.txt",
    "graphs",
    "query",
    "query g k=2 gamma=3",
    "query g k=1 gamma=3 members",
    "query g k=2 gamma=3 json",
    "query g k=2 gamma=3 algorithm=backward",
    'query {"v": 1, "graph": "g", "k": 1, "gamma": 3}',
    "query g k=1.5",
    "query g gamma=x",
    "query g delta=y",
    "query g containment=maybe",
    "query g wat=1",
    "query nope k=1",
    "mutate",
    "mutate g",
    "mutate g bogus=1:2",
    "mutate g reweight=0:x",
    "mutate g insert=0:5 delete=3:4",
    "mutate nope insert=0:1",
    "query g k=2 gamma=3",
    "session",
    "session frob",
    "session open",
    "session open g gamma=2.5",
    "session open g foo=1",
    "session open g gamma=3",
    "session next",
    "session next s1 x",
    "session next s1",
    "session next s1 5",
    "session next s9",
    "sessions",
    "sessions foo",
    "session close",
    "session close s1",
    "sessions",
    "metrics foo",
    "trace",
    "trace foo=1",
    "profile",
    "profile seconds=x",
    "frobnicate",
    'load "unterminated',
    "",
    "# a comment",
    "metrics",
    "metrics json",
    "quit",
]

#: ``trace`` and ``profile`` with a tracer and a profiler armed.
OBS_SCRIPT = [
    "trace",
    "trace slow",
    "trace json",
    "trace slow json",
    "trace limit=x",
    "trace limit=5",
    "trace nosuch",
    "trace a b",
    "trace foo=1",
    "profile seconds=x",
    "profile top=x",
    "profile x=1",
    "profile seconds=0",
    "shutdown",
]

OBS_FLAGS = ["--trace-sample", "0"]

_GRAPH = ["--edges", "g.txt", "--weights", "w.txt"]

#: One-shot commands: name -> argv.
ONESHOT = {
    "stats": ["stats", "--edges", "g.txt"],
    "query": ["query", *_GRAPH, "--k", "2", "--gamma", "3"],
    "query-members": ["query", *_GRAPH, "--k", "1", "--gamma", "3", "--members"],
    "query-backward": [
        "query", *_GRAPH, "--k", "2", "--gamma", "3", "--algorithm", "backward",
    ],
    "stream": ["stream", *_GRAPH, "--gamma", "3"],
    "stream-limit": ["stream", *_GRAPH, "--gamma", "3", "--limit", "1"],
    "stream-floor": ["stream", *_GRAPH, "--gamma", "3", "--min-influence", "5"],
    "mutate": [
        "mutate", *_GRAPH, "insert=0:5", "delete=3:4", "--k", "2",
        "--gamma", "3",
    ],
    "mutate-only": ["mutate", *_GRAPH, "reweight=7:0.5"],
}

_MS = re.compile(r"\d+\.\d+(?= ?ms\b)")
_KERNEL = re.compile(r"kernel\[\w+\]")
_KERNEL_NAMES = ("array", "numpy", "python")


def _mask(doc: Any, timed: bool = False) -> Any:
    if isinstance(doc, dict):
        return {
            ("<K>" if key in _KERNEL_NAMES else key): (
                "<K>"
                if key in ("kernel", "phases_ms")
                else _mask(value, timed or key.endswith("ms"))
            )
            for key, value in doc.items()
        }
    if isinstance(doc, list):
        return [_mask(value, timed) for value in doc]
    if timed and isinstance(doc, float):
        return "<MS>"
    return doc


def _normalise(line: str) -> str:
    """Mask timings and the kernel name; leave every other byte alone."""
    if line.startswith(("{", "[")):
        try:
            doc = json.loads(line)
        except ValueError:
            pass
        else:
            return json.dumps(_mask(doc), sort_keys=True)
    return _KERNEL.sub("kernel[<K>]", _MS.sub("<MS>", line))


def _write_graph(directory: str) -> None:
    """Two K4s joined by one edge, weighted 10..3 (vertex 0 heaviest)."""
    edges = [
        (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
        (4, 5), (4, 6), (4, 7), (5, 6), (5, 7), (6, 7),
        (3, 4),
    ]
    write_edge_list(os.path.join(directory, "g.txt"), edges)
    write_weights(
        os.path.join(directory, "w.txt"), {i: float(10 - i) for i in range(8)}
    )


def _stdio(script: List[str], flags: List[str]) -> List[str]:
    with open("script.txt", "w", encoding="utf-8") as handle:
        handle.write("\n".join(script) + "\n")
    out = io.StringIO()
    code = main(
        ["serve", "--no-datasets", "--script", "script.txt", *flags], out=out
    )
    assert code == 0
    return [_normalise(line) for line in out.getvalue().splitlines()]


class _Connection:
    """A blocking line-protocol client: one request, one ``.`` block."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=30)
        self.file = self.sock.makefile("rw", encoding="utf-8", newline="\n")
        self.banner = self.read_block()

    def read_block(self) -> List[str]:
        lines = []
        while True:
            line = self.file.readline()
            assert line, "connection closed mid-response"
            line = line[:-1] if line.endswith("\n") else line
            if line == ".":
                return lines
            lines.append(line[1:] if line.startswith("..") else line)

    def request(self, line: str) -> List[str]:
        self.file.write(line + "\n")
        self.file.flush()
        return [_normalise(got) for got in self.read_block()]

    def close(self) -> None:
        self.file.close()
        self.sock.close()


@contextmanager
def _tcp_server(flags: List[str]):
    """``repro serve --tcp 127.0.0.1:0`` in a thread; yields its port."""
    out = io.StringIO()
    codes: List[int] = []
    thread = threading.Thread(
        target=lambda: codes.append(
            main(
                ["serve", "--tcp", "127.0.0.1:0", "--no-datasets", *flags],
                out=out,
            )
        ),
        daemon=True,
    )
    thread.start()
    deadline = time.monotonic() + 30
    while True:
        found = re.search(r"listening on tcp://[^:]+:(\d+)", out.getvalue())
        if found is not None:
            break
        assert time.monotonic() < deadline, out.getvalue()
        assert thread.is_alive(), out.getvalue()
        time.sleep(0.01)
    try:
        yield int(found.group(1))
    finally:
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert codes == [0]


def _tcp(script: List[str], flags: List[str]) -> List[Tuple[str, List[str]]]:
    exchanges: List[Tuple[str, List[str]]] = []
    with _tcp_server(flags) as port:
        client = _Connection(port)
        exchanges.append(("", [_normalise(line) for line in client.banner]))
        for line in script:
            exchanges.append((line, client.request(line)))
        client.close()
        if script[-1] != "shutdown":
            closer = _Connection(port)
            assert closer.request("shutdown") == ["shutting down"]
            closer.close()
    return exchanges


def _oneshot(argv: List[str]) -> List[str]:
    out = io.StringIO()
    assert main(argv, out=out) == 0
    return [_normalise(line) for line in out.getvalue().splitlines()]


def build(directory: str) -> Dict[str, Any]:
    """Every pinned transcript, run from ``directory``."""
    _write_graph(directory)
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        return {
            "stdio": _stdio(SCRIPT, []),
            "tcp": [list(pair) for pair in _tcp(SCRIPT, [])],
            "stdio_obs": _stdio(OBS_SCRIPT, OBS_FLAGS),
            "tcp_obs": [list(pair) for pair in _tcp(OBS_SCRIPT, OBS_FLAGS)],
            "oneshot": {name: _oneshot(argv) for name, argv in ONESHOT.items()},
        }
    finally:
        os.chdir(cwd)


def _load() -> Dict[str, Any]:
    with open(GOLDEN, "r", encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    return build(str(tmp_path_factory.mktemp("transcript")))


def test_stdio_transcript_is_unchanged(built):
    assert built["stdio"] == _load()["stdio"]


def test_tcp_transcript_is_unchanged(built):
    assert built["tcp"] == _load()["tcp"]


def test_observability_transcripts_are_unchanged(built):
    golden = _load()
    assert built["stdio_obs"] == golden["stdio_obs"]
    assert built["tcp_obs"] == golden["tcp_obs"]


@pytest.mark.parametrize("name", sorted(ONESHOT))
def test_oneshot_output_is_unchanged(built, name):
    assert built["oneshot"][name] == _load()["oneshot"][name]


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit("usage: test_shell_golden.py --regenerate")
    with tempfile.TemporaryDirectory() as scratch:
        document = build(scratch)
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1, ensure_ascii=False)
        handle.write("\n")
    print(f"wrote {GOLDEN}")
