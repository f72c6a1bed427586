"""The server-rendered dashboard and the on-demand profiler.

The dashboard contract: pure stdlib output, deterministic for a given
input, zero external fetches (no script/link/img tags, no absolute
URLs) — it must render inside an airgapped deployment.  The profiler
contract: one capture at a time, profiled calls counted, unarmed calls
untouched.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.obs.dashboard import render_dashboard
from repro.obs.profiling import OnDemandProfiler, ProfileBusyError
from repro.service.metrics import ServiceMetrics


def populated_snapshot():
    metrics = ServiceMetrics()
    for i in range(8):
        metrics.observe_query(
            "localsearch-p", 2.0 + i, "cold" if i % 2 else "cache"
        )
    metrics.observe_batch(4)
    metrics.observe_queue_depth(3)
    return metrics.snapshot()


def sample_points():
    points = []
    for i in range(6):
        points.append(
            {
                "t": 1000.0 + i,
                "dt": 1.0,
                "qps": 2.0 + i,
                "eps": 0.0,
                "error_rate": 0.0,
                "hit_rate": 0.5,
                "coalesce_rate": 0.25,
                "queue_depth": i,
                "families": {
                    "email|gamma=5": {
                        "queries": 4, "hit_rate": 0.5, "p95_ms": 3.0 + i,
                        "phases_ms": {
                            "peel": 1.25 + i, "enumerate": 0.5,
                            "gamma_core": 0.1,
                        },
                    },
                    "wiki|gamma=10": {
                        "queries": 2, "hit_rate": 0.0, "p95_ms": 8.0
                    },
                },
                "latency_overall_ms": {"p50": 2.0, "p95": 6.0, "p99": 9.0},
            }
        )
    return points


def render_full():
    return render_dashboard(
        populated_snapshot(),
        points=sample_points(),
        slo_status={
            "ok": False,
            "window_s": 60.0,
            "objectives": {
                "p95_ms": {"target": 5.0, "value": 6.0, "ok": False},
                "err_rate": {"target": 0.01, "value": 0.0, "ok": True},
            },
        },
        breaches=[
            {
                "t": 1004.0,
                "objective": "p95_ms",
                "event": "breach",
                "value": 6.0,
                "target": 5.0,
            }
        ],
        slow_traces=[
            {
                "trace_id": "t123abc",
                "name": "query",
                "start_ms": 1.0,
                "duration_ms": 120.5,
                "spans": 4,
                "slow": True,
            }
        ],
        readiness={"ready": False, "reasons": ["slo breach: p95_ms"]},
        window_s=300.0,
    )


class TestDashboardRendering:
    def test_golden_substrings(self):
        html = render_dashboard(populated_snapshot())
        for needle in (
            "<!DOCTYPE html>",
            "<title>repro dashboard</title>",
            '<meta http-equiv="refresh"',
            'id="queues"',
        ):
            assert needle in html

    def test_full_page_sections(self):
        html = render_full()
        for spark in ("spark-qps", "spark-hit-rate", "spark-coalesce"):
            assert f'id="{spark}"' in html
        assert 'id="heatmap"' in html
        # The breakdown column: latest tick's peel/enumerate phases for
        # the family that has them, an em-dash for the one that doesn't.
        assert "peel 6.25 · enum 0.50" in html
        assert "kernel phases (ms)" in html
        assert 'id="slow-traces"' in html
        assert '<a href="/traces/t123abc">' in html
        assert 'id="slo"' in html
        assert 'id="breaches"' in html
        assert "not ready" in html
        # The queue bar reads the latest tick's scheduler depth.
        assert '<td class="fam">scheduler</td><td>5</td>' in html

    def test_no_external_fetches_or_scripts(self):
        for html in (render_dashboard(populated_snapshot()), render_full()):
            lowered = html.lower()
            assert "<script" not in lowered
            assert "<link" not in lowered
            assert "<img" not in lowered
            assert "http://" not in lowered
            assert "https://" not in lowered
            assert "@import" not in lowered

    def test_deterministic_output(self):
        assert render_full() == render_full()
        snap = populated_snapshot()
        points = sample_points()
        assert render_dashboard(snap, points=points) == render_dashboard(
            snap, points=points
        )

    def test_empty_state_renders(self):
        html = render_dashboard(ServiceMetrics().snapshot())
        assert "no data yet" in html
        assert "<title>repro dashboard</title>" in html

    def test_markup_is_escaped(self):
        html = render_dashboard(
            populated_snapshot(),
            slow_traces=[
                {
                    "trace_id": "<svg onload=x>",
                    "name": "<b>evil</b>",
                    "start_ms": 0.0,
                    "duration_ms": 1.0,
                    "spans": 1,
                    "slow": False,
                }
            ],
        )
        assert "<svg onload=x>" not in html
        assert "<b>evil</b>" not in html


class TestOnDemandProfiler:
    def test_unarmed_calls_pass_straight_through(self):
        profiler = OnDemandProfiler()
        assert not profiler.armed
        assert profiler.profile_call(lambda x: x * 2, 21) == 42

    def test_capture_counts_profiled_calls(self):
        profiler = OnDemandProfiler()
        stop = threading.Event()
        calls = {"n": 0}

        def pump():
            while not stop.is_set():
                profiler.profile_call(sum, range(200))
                calls["n"] += 1
                time.sleep(0.005)

        thread = threading.Thread(target=pump, daemon=True)
        thread.start()
        try:
            report = profiler.capture(0.3, top=5)
        finally:
            stop.set()
            thread.join(timeout=5.0)
        assert not profiler.armed
        assert report.startswith("profile: 0.3s window")
        assert "engine call" in report
        # The pstats table is present (calls happened during the window).
        assert "cumulative" in report
        assert calls["n"] > 0

    def test_empty_window_reports_hint(self):
        profiler = OnDemandProfiler()
        report = profiler.capture(0.05)
        assert "0 engine calls profiled" in report
        assert "no queries arrived" in report

    def test_concurrent_capture_raises_busy(self):
        profiler = OnDemandProfiler()
        results = {}
        started = threading.Event()

        def first():
            started.set()
            results["first"] = profiler.capture(0.4)

        thread = threading.Thread(target=first, daemon=True)
        thread.start()
        started.wait(5.0)
        time.sleep(0.05)  # let the capture actually take the slot
        with pytest.raises(ProfileBusyError):
            profiler.capture(0.1)
        thread.join(timeout=5.0)
        assert "profile:" in results["first"]
        # The slot frees once the first capture completes.
        assert "profile:" in profiler.capture(0.05)

    def test_bad_window_rejected_and_cap_applied(self, monkeypatch):
        profiler = OnDemandProfiler()
        with pytest.raises(ValueError):
            profiler.capture(0)
        with pytest.raises(ValueError):
            profiler.capture(-3)
        monkeypatch.setattr(OnDemandProfiler, "MAX_SECONDS", 0.1)
        report = profiler.capture(9999)  # clamped, returns promptly
        assert report.startswith("profile: 0.1s window")

    def test_profiled_exception_propagates_and_disarms_slot(self):
        profiler = OnDemandProfiler()
        try:
            profiler._profile = __import__("cProfile").Profile()
            with pytest.raises(RuntimeError):
                profiler.profile_call(_raise)
            # The call slot is released; the next call still works.
            assert profiler.profile_call(lambda: "ok") == "ok"
        finally:
            profiler._profile = None


def _raise():
    raise RuntimeError("boom")
