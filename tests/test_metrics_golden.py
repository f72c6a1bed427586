"""Golden outputs of the metrics surfaces.

A fixed script calls every ``ServiceMetrics.observe_*`` method (several
labels each), records traces into a ``TraceStore`` and samples a
``MetricsHistory`` with an SLO on a fake clock.  Four renderings of the
resulting state are pinned byte for byte against
``tests/golden/metrics.json``:

* the full ``render_prometheus`` text (series order, HELP and TYPE
  placement included);
* ``snapshot()`` (after a JSON round trip, as ``/metrics.json`` serves it);
* one ``history.sample()`` tick;
* the shell's ``render_metrics`` text.

The expected file changes only when a series is added or removed on
purpose.  Regenerate it with::

    PYTHONPATH=src python tests/test_metrics_golden.py --regenerate
"""

from __future__ import annotations

import json
import os
import sys
from typing import Any, Dict

from repro.api.spec import FamilyKey
from repro.obs.export import render_prometheus
from repro.obs.history import SLO, MetricsHistory
from repro.obs.trace import TraceStore
from repro.service.metrics import ServiceMetrics
from repro.service.shell import render_metrics

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "metrics.json")


class FakeClock:
    def __init__(self, start: float = 5000.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now


def _drive(metrics: ServiceMetrics) -> None:
    """Call every observe_* method at least once, with several labels."""
    email = FamilyKey("email", 5, "localsearch-p", 2.0)
    wiki = FamilyKey("wiki", 10, "localsearch", 2.0)
    odd = FamilyKey('we"ird\\graph', 3, "localsearch-p", 1.5)
    queries = [
        ("localsearch-p", 4.0, "cold", "array", email,
         {"peel": 3.0, "enumerate": 0.5}),
        ("localsearch-p", 0.25, "cache", "array", email, None),
        ("localsearch-p", 1.5, "extended", "array", email,
         {"peel": 3.5, "enumerate": 0.75}),
        ("localsearch-p", 0.5, "coalesced", "array", email, None),
        ("localsearch", 12.0, "cold", "python", wiki, {"peel": 10.0}),
        ("localsearch", 0.125, "cache", "python", wiki, None),
        ("localsearch-p", 7.0, "cold", None, odd, None),
        ("backward", 30.0, "cold", None, None, None),
    ]
    for algo, ms, source, kernel, family, phases in queries:
        metrics.observe_query(
            algo, ms, source, kernel=kernel, family=family, phases=phases
        )
    metrics.observe_error()
    metrics.observe_error("QueryParameterError")
    metrics.observe_error("QueryParameterError")
    metrics.observe_error("UnknownGraphError")
    metrics.session_opened()
    metrics.session_opened()
    metrics.session_opened()
    metrics.session_closed()
    metrics.session_closed(expired=True)
    metrics.connection_opened()
    metrics.connection_opened()
    metrics.connection_closed()
    metrics.observe_batch(1)
    metrics.observe_batch(4)
    metrics.observe_batch(2)
    metrics.observe_queue_depth(6)
    metrics.observe_queue_depth(2)
    metrics.observe_replica_idle_dispatch()
    metrics.observe_replica_idle_dispatch()
    metrics.observe_mutation("email", 2, invalidated=3, preserved=5)
    metrics.observe_mutation("email", 3, invalidated=1, preserved=7)
    metrics.observe_mutation("wiki", 4, compaction=True)


def _traces() -> TraceStore:
    store = TraceStore(slow_ms=10.0)
    for index, (duration, spans) in enumerate([(2.0, 3), (25.0, 5), (4.0, 1)]):
        store.add(
            {
                "trace_id": f"t{index}",
                "name": "query",
                "start_ms": 100.0 * index,
                "duration_ms": duration,
                "spans": [{"name": "span"}] * spans,
            }
        )
    return store


def build() -> Dict[str, Any]:
    """Run the fixed script and return the four pinned renderings."""
    metrics = ServiceMetrics(max_samples=64, max_families=8)
    store = _traces()
    clock = FakeClock()
    history = MetricsHistory(
        metrics,
        trace_store=store,
        slo=SLO(p95_ms=20.0, err_rate=0.25, window_s=60.0),
        gauges=lambda: {"pending_families": {"email|gamma=5": 2}},
        clock=clock,
    )
    history.sample()
    _drive(metrics)
    clock.now += 1.5
    tick = history.sample()
    snapshot = metrics.snapshot()
    return {
        "prometheus": render_prometheus(snapshot, store, history),
        "snapshot": json.loads(json.dumps(snapshot, sort_keys=True)),
        "tick": json.loads(json.dumps(tick, sort_keys=True)),
        "shell": render_metrics(snapshot),
    }


def _load() -> Dict[str, Any]:
    with open(GOLDEN, "r", encoding="utf-8") as handle:
        return json.load(handle)


def test_prometheus_text_is_unchanged():
    assert build()["prometheus"] == _load()["prometheus"]


def test_snapshot_is_unchanged():
    assert build()["snapshot"] == _load()["snapshot"]


def test_history_tick_is_unchanged():
    assert build()["tick"] == _load()["tick"]


def test_shell_metrics_text_is_unchanged():
    assert build()["shell"] == _load()["shell"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit("usage: test_metrics_golden.py --regenerate")
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        json.dump(build(), handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {GOLDEN}")
