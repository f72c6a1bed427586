"""MetricsHistory: tick rings, derived rates, SLOs, breach transitions.

The collector stores cumulative counters per tick and derives rates at
read time from consecutive-pair deltas over real dt — these tests pin
the properties that design buys: exact rates across ring wrap, across a
collector stop/start, and across scrape gaps, plus the SLO state
machine's ok -> breach -> recovered transitions.
"""

from __future__ import annotations

import time

import pytest

from repro.obs.history import SLO, MetricsHistory, parse_slo
from repro.service.metrics import ServiceMetrics


class FakeClock:
    """A manually-advanced timestamp source."""

    def __init__(self, start: float = 1000.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class StubMetrics:
    """A snapshot()-shaped stub with directly settable counters."""

    def __init__(self) -> None:
        self.queries = 0
        self.errors = 0
        self.sources = {"cold": 0, "cache": 0}
        self.families = {}
        self.latency = {}

    def snapshot(self):
        return {
            "queries_served": self.queries,
            "errors": self.errors,
            "by_source": dict(self.sources),
            "server": {"batches": 0, "batched_queries": 0, "queue_depth": 0},
            "by_family": dict(self.families),
            "latency_overall_ms": dict(self.latency),
        }


def make_history(clock, metrics=None, **kwargs):
    return MetricsHistory(
        metrics if metrics is not None else StubMetrics(),
        clock=clock,
        **kwargs,
    )


class TestDerivedRates:
    def test_rates_come_from_pair_deltas_over_real_dt(self):
        clock, metrics = FakeClock(), StubMetrics()
        history = make_history(clock, metrics)
        history.sample()
        metrics.queries += 10
        metrics.sources["cold"] += 6
        metrics.sources["cache"] += 4
        clock.advance(2.0)
        history.sample()
        [point] = history.series()
        assert point["qps"] == pytest.approx(5.0)
        assert point["hit_rate"] == pytest.approx(0.4)
        assert point["error_rate"] == 0.0
        assert point["dt"] == pytest.approx(2.0)

    def test_scrape_gap_widens_dt_instead_of_spiking_rate(self):
        clock, metrics = FakeClock(), StubMetrics()
        history = make_history(clock, metrics)
        history.sample()
        metrics.queries += 10
        clock.advance(10.0)  # a delayed sample
        history.sample()
        [point] = history.series()
        assert point["qps"] == pytest.approx(1.0)

    def test_error_rate_denominator_is_requests(self):
        # Errored requests never reach queries_served: 5 served + 5
        # errored = 10 requests, half of which failed.
        clock, metrics = FakeClock(), StubMetrics()
        history = make_history(clock, metrics)
        history.sample()
        metrics.queries += 5
        metrics.errors += 5
        clock.advance(1.0)
        history.sample()
        [point] = history.series()
        assert point["error_rate"] == pytest.approx(0.5)
        assert point["eps"] == pytest.approx(5.0)

    def test_latest_is_newest_pair(self):
        clock, metrics = FakeClock(), StubMetrics()
        history = make_history(clock, metrics)
        assert history.latest() is None
        history.sample()
        assert history.latest() is None  # one tick: no pair yet
        for step in (3, 7):
            metrics.queries += step
            clock.advance(1.0)
            history.sample()
        assert history.latest()["qps"] == pytest.approx(7.0)


class TestRingWrap:
    def test_rates_stay_exact_across_wrap(self):
        clock, metrics = FakeClock(), StubMetrics()
        history = make_history(clock, metrics, capacity=4)
        for i in range(20):
            metrics.queries += i  # a distinct rate every interval
            clock.advance(1.0)
            history.sample()
        ticks = history.ticks()
        assert len(ticks) == 4  # ring wrapped many times over
        points = history.series()
        assert len(points) == 3
        # Every surviving pair still derives its own exact delta (the
        # i-th sample added i queries over 1s): recompute expectations
        # straight from the retained ticks' absolute counters.
        assert [p["qps"] for p in points] == [
            pytest.approx(17.0),
            pytest.approx(18.0),
            pytest.approx(19.0),
        ]
        for prev, cur, point in zip(ticks, ticks[1:], points):
            expected = (cur["queries_served"] - prev["queries_served"]) / (
                cur["t"] - prev["t"]
            )
            assert point["qps"] == pytest.approx(expected)

    def test_window_includes_anchor_tick_before_edge(self):
        clock, metrics = FakeClock(), StubMetrics()
        history = make_history(clock, metrics)
        for _ in range(10):
            metrics.queries += 2
            clock.advance(1.0)
            history.sample()
        # A 3s window ending at the newest tick covers 4 ticks (both
        # endpoints inclusive); the anchor tick before the edge gives
        # each of them a predecessor -> 4 points, not 3.
        assert len(history.series(3.0)) == 4
        # The whole ring: 10 ticks -> 9 pairs (no anchor before t0).
        assert len(history.series()) == 9


class TestCollectorLifecycle:
    def test_restart_resumes_against_same_counters(self):
        clock, metrics = FakeClock(), StubMetrics()
        history = make_history(clock, metrics)
        history.sample()
        metrics.queries += 4
        clock.advance(2.0)
        history.sample()
        # "Stop" (no thread involved — manual sampling), then resume
        # much later: the first new tick pairs with the last old one and
        # the rate averages over the real 8s gap.
        metrics.queries += 8
        clock.advance(8.0)
        history.sample()
        points = history.series()
        assert [p["qps"] for p in points] == [
            pytest.approx(2.0),
            pytest.approx(1.0),
        ]

    def test_thread_start_stop_restart(self):
        metrics = StubMetrics()
        history = MetricsHistory(metrics, interval_s=0.05)
        history.start()
        assert history.running
        deadline = time.time() + 5.0
        while len(history.ticks()) < 3 and time.time() < deadline:
            time.sleep(0.02)
        assert len(history.ticks()) >= 3
        history.stop()
        assert not history.running
        retained = len(history.ticks())
        assert retained >= 3  # the ring survives a stop
        history.start()  # restartable
        assert history.running
        history.stop()
        assert len(history.ticks()) >= retained + 1  # immediate first tick

    def test_fresh_metrics_sink_cannot_go_negative(self):
        clock = FakeClock()
        metrics = StubMetrics()
        history = make_history(clock, metrics)
        metrics.queries = 100
        history.sample()
        metrics.queries = 0  # counters swapped/reset under us
        clock.advance(1.0)
        history.sample()
        [point] = history.series()
        assert point["qps"] == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            MetricsHistory(StubMetrics(), interval_s=0)
        with pytest.raises(ValueError):
            MetricsHistory(StubMetrics(), capacity=1)
        with pytest.raises(ValueError):
            MetricsHistory(StubMetrics(), max_families=0)

    def test_family_rows_bounded_to_busiest(self):
        clock, metrics = FakeClock(), StubMetrics()
        history = make_history(clock, metrics, max_families=2)
        metrics.families = {
            f"fam{i}": {"queries": i, "hit_rate": 0.0} for i in range(6)
        }
        tick = history.sample()
        assert set(tick["families"]) == {"fam5", "fam4"}

    def test_gauges_callable_rides_along_and_never_kills_tick(self):
        clock = FakeClock()
        calls = {"n": 0}

        def gauges():
            calls["n"] += 1
            if calls["n"] == 2:
                raise RuntimeError("probe blew up")
            return {"pending_families": {"email|gamma=5": 3}}

        history = make_history(clock, gauges=gauges)
        tick = history.sample()
        assert tick["gauges"]["pending_families"] == {"email|gamma=5": 3}
        clock.advance(1.0)
        tick = history.sample()  # the raising probe drops the key only
        assert "gauges" not in tick
        assert history.sample_errors == 1


class TestSLO:
    def test_parse_slo(self):
        slo = parse_slo("p95_ms=50,err_rate=0.01,window_s=30")
        assert slo.p95_ms == 50.0
        assert slo.err_rate == 0.01
        assert slo.window_s == 30.0
        assert parse_slo("err_rate=0.1").window_s == 60.0

    @pytest.mark.parametrize(
        "spec",
        ["", "window_s=10", "p95=50", "p95_ms=abc", "p95_ms=50,bogus=1"],
    )
    def test_parse_slo_rejects(self, spec):
        with pytest.raises(ValueError):
            parse_slo(spec)

    def test_slo_validation(self):
        with pytest.raises(ValueError):
            SLO(p95_ms=-1)
        with pytest.raises(ValueError):
            SLO(err_rate=1.5)
        with pytest.raises(ValueError):
            SLO(p95_ms=10, window_s=0)

    def test_no_data_holds(self):
        status = SLO(p95_ms=10, err_rate=0.01).evaluate([])
        assert status["ok"]
        assert status["objectives"]["p95_ms"]["value"] is None
        assert status["objectives"]["err_rate"]["value"] is None

    def test_breach_and_recovery_transitions(self):
        clock, metrics = FakeClock(), StubMetrics()
        history = make_history(
            clock, metrics, slo=SLO(err_rate=0.4, window_s=2.0)
        )
        history.sample()  # baseline, ok
        metrics.errors += 10  # all requests fail -> breach
        clock.advance(1.0)
        history.sample()
        status = history.slo_status()
        assert not status["ok"]
        assert history.breach_count == 1
        assert [e["event"] for e in history.breaches()] == ["breach"]
        # Window slides past the failures; good traffic recovers it.
        for _ in range(4):
            metrics.queries += 10
            clock.advance(1.0)
            history.sample()
        status = history.slo_status()
        assert status["ok"]
        assert history.breach_count == 1  # counts transitions, not ticks
        events = [e["event"] for e in history.breaches()]
        assert events == ["breach", "recovered"]

    def test_p95_objective_reads_latest_gauge(self):
        clock, metrics = FakeClock(), StubMetrics()
        history = make_history(clock, metrics, slo=SLO(p95_ms=10.0))
        metrics.latency = {"p50": 3.0, "p95": 25.0, "p99": 40.0}
        history.sample()
        status = history.slo_status()
        assert not status["ok"]
        assert status["objectives"]["p95_ms"]["value"] == 25.0
        metrics.latency = {"p50": 2.0, "p95": 4.0, "p99": 9.0}
        clock.advance(1.0)
        history.sample()
        assert history.slo_status()["ok"]

    def test_document_payload_shape(self):
        clock, metrics = FakeClock(), StubMetrics()
        history = make_history(clock, metrics, slo=SLO(err_rate=0.5))
        history.sample()
        clock.advance(1.0)
        history.sample()
        doc = history.document(60.0)
        assert doc["window_s"] == 60.0
        assert len(doc["points"]) == 1
        assert doc["breach_count"] == 0
        assert doc["slo"] == {"window_s": 60.0, "err_rate": 0.5}
        assert doc["slo_status"]["ok"]


class TestAgainstRealMetrics:
    def test_samples_real_service_metrics(self):
        clock = FakeClock()
        metrics = ServiceMetrics()
        history = MetricsHistory(metrics, clock=clock)
        history.sample()
        for _ in range(8):
            metrics.observe_query("localsearch-p", 2.0, "cold")
        for _ in range(2):
            metrics.observe_query("localsearch-p", 0.1, "cache")
        metrics.observe_error(kind="ValueError")
        clock.advance(2.0)
        tick = history.sample()
        assert tick["queries_served"] == 10
        assert tick["latency_overall_ms"]["p95"] is not None
        [point] = history.series()
        assert point["qps"] == pytest.approx(5.0)
        assert point["hit_rate"] == pytest.approx(0.2)
        assert point["error_rate"] == pytest.approx(1 / 11)


class TestFamilyPhasesPropagation:
    def test_phases_ride_along_and_derived_points_are_copies(self):
        clock, metrics = FakeClock(), StubMetrics()
        history = make_history(clock, metrics)
        metrics.families = {
            "email|gamma=5": {
                "queries": 1,
                "p95_ms": 2.0,
                "phases_ms": {"peel": 1.0, "enumerate": 0.5},
            }
        }
        history.sample()
        clock.advance(1.0)
        metrics.queries = 1
        history.sample()
        [point] = history.series()
        row = point["families"]["email|gamma=5"]
        assert row["phases_ms"] == {"peel": 1.0, "enumerate": 0.5}
        # Scribbling on the derived point never reaches the tick ring.
        row["phases_ms"]["poisoned"] = 1
        tick_row = history.ticks()[-1]["families"]["email|gamma=5"]
        assert "poisoned" not in tick_row["phases_ms"]
