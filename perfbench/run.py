"""The served-path benchmark: one command, three workloads.

    python3 perfbench/run.py --workload warm-zipf --seed 1 --seconds 10 --trace 0

Starts ``repro serve --tcp`` as a child process, drives it from this
process over two pipelined connections, verifies every response, and
prints one JSON object as the last line of stdout.  With ``--trace 0``
it reports the end-to-end metrics of an untraced server; with
``--trace 1`` it starts the server through ``traced_serve.py`` and
reports the per-layer metrics.  See ``NOTES.md`` for why each workload
and metric exists.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import signal
import statistics
import sys
import time
from bisect import bisect_right
from collections import Counter, defaultdict
from pathlib import Path

import layers
import loadgen
import server as proc

ROOT = Path(__file__).resolve().parent.parent
WARMUP_S = 1.0
#: The timed window is cut into sub-windows of this length.  Each
#: end-to-end figure is its value at the fast quartile of the run's
#: sub-windows (upper quartile of throughput, lower quartile of times):
#: sub-windows slowed by host contention (steal, a busy sibling
#: hyperthread) fall into the slow half and cannot move it, while a
#: slower program is slower in every sub-window.
SUB_WINDOW_S = 1.0
#: Set-up is repeated this many times per run and its median reported.
SETUP_REPEATS = 3
#: A run whose client uses more CPU than this is flagged client-bound.
CLIENT_BOUND_SHARE = 0.9
#: CPU time of one ``calibrate.py`` chunk on a host running at the
#: reference speed.  Timed end-to-end figures are scaled to that speed
#: (see ``speed``); the constant only sets the scale, and is the same
#: for every commit.
REFERENCE_CHUNK_MS = 1.25


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__main__.py").is_file():
        log(f"error: no repro sources under {ROOT / 'src'}")
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        log(f"error: unknown workload {args.workload!r}")
        return 2
    oracle = workloads.Oracle()
    workload = workloads.build(args.workload, args.seed, oracle)
    print(f"workload {workload.name} seed {args.seed} "
          f"request stream sha256 {workload.stream_hash()}", flush=True)
    bench = Bench(workload, oracle)
    try:
        result = bench.run(args.seconds, traced=bool(args.trace))
    except PurposeError as exc:
        log(f"error: workload {workload.name} drifted from its purpose: {exc}")
        return 1
    finally:
        bench.stop()
    print(json.dumps(result), flush=True)
    return 0


class PurposeError(RuntimeError):
    pass


class Bench:
    def __init__(self, workload, oracle) -> None:
        import workloads

        self.w = workloads
        self.workload = workload
        self.oracle = oracle
        self.live = workload.name == "live-churn"
        self.expected = {}
        if not self.live:
            keys = {r.query for s in workload.streams for r in s} | {
                r.query for r in workload.priming
            }
            self.expected = {key: oracle.expected(*key) for key in keys}
        #: live-churn: (graph, ops, new_version, invalidated, preserved).
        self.mutations = []
        #: live-churn: (graph, gamma, k, version, digest) per read.
        self.reads = []
        self.setup_failed = 0
        self.servers = []
        self.calibrators = []
        self.server_cpus, client_cpus = proc.split_cpus()
        if client_cpus is not None:
            os.sched_setaffinity(0, client_cpus)

    # -- verification --------------------------------------------------
    def check(self, request, payload: bytes) -> bool:
        if request.query is None:
            return self._check_mutation(request, payload)
        body = self.w.communities_slice(payload)
        if body is None:
            return False
        if not self.live:
            return body == self.expected[request.query]
        match = _VERSION.search(payload, max(0, len(payload) - 400))
        if match is None:
            return False
        self.reads.append((*request.query, int(match.group(1)), self.w.digest(body)))
        return True

    def _check_mutation(self, request, payload: bytes) -> bool:
        match = _MUTATED.match(payload)
        if match is None:
            return False
        self.mutations.append((
            request.graph,
            request.ops,
            int(match.group(1)),
            int(match.group(2)),
            int(match.group(3)),
        ))
        return True

    def verify_live(self, control):
        """Check live-churn reads against the model replayed to each
        checkpoint; returns ``(extra reads sent, failed reads)``."""
        w = self.w
        # A final sweep pins every family at the last state.
        failed = swept = 0
        for graph in w.GRAPHS:
            for gamma in w.GAMMA_SWEEP:
                key = (graph, gamma, w.K_MAX)
                request = w.Request(w.query_line(*key), key)
                swept += 1
                failed += not self.check(request, control.request(request.line))
        for graph in w.GRAPHS:
            mutations = [m for m in self.mutations if m[0] == graph]
            versions = [m[2] for m in mutations]
            by_state = defaultdict(list)
            for g, gamma, k, version, dig in self.reads:
                if g == graph:
                    by_state[bisect_right(versions, version)].append((gamma, k, dig))
            final = len(mutations)
            middle = [s for s in by_state if 0 < s < final]
            checkpoints = {0, final}
            if middle:
                checkpoints.add(max(middle, key=lambda s: len(by_state[s])))
            model = w.GraphModel(self.oracle.graphs[graph])
            for state, rows in by_state.items():
                if state not in checkpoints:
                    # Between checkpoints: equal queries must agree.
                    groups = defaultdict(Counter)
                    for gamma, k, dig in rows:
                        groups[(gamma, k)][dig] += 1
                    for counts in groups.values():
                        failed += sum(counts.values()) - max(counts.values())
                    continue
                gammas = sorted({gamma for gamma, _, _ in rows})
                if state == 0:
                    tops = {g: self.oracle.top(graph, g) for g in gammas}
                else:
                    ops = [m[1] for m in mutations[:state]]
                    tops = model.answers_after(ops, gammas)
                for gamma, k, dig in rows:
                    want = w.digest(w.communities_bytes(tops[gamma][:k]))
                    failed += dig != want
        return swept, failed

    # -- server lifecycle ----------------------------------------------
    def launch(self, traced: bool):
        srv = proc.Server(ROOT, self.workload.server_args, self.server_cpus, traced)
        self.servers.append(srv)
        for request in self.workload.priming:
            if not self.check(request, srv.control.request(request.line)):
                self.setup_failed += 1
        return srv, (srv.launched, time.perf_counter())

    def stop(self) -> None:
        for process in self.servers + self.calibrators:
            process.kill()

    # -- the run -------------------------------------------------------
    def run(self, seconds: float, traced: bool) -> dict:
        calibrator = proc.Calibrator(ROOT, self.server_cpus)
        self.calibrators.append(calibrator)
        if traced:
            srv, _ = self.launch(traced=True)
        else:
            setups = []
            for attempt in range(SETUP_REPEATS):
                srv, interval = self.launch(traced=False)
                setups.append(interval)
                if attempt < SETUP_REPEATS - 1:
                    srv.shutdown()
        before = srv.metrics()
        connections = [
            loadgen.Connection(srv.address, stream, self.w.DEPTH)
            for stream in self.workload.streams
        ]
        count = max(4, round(seconds / SUB_WINDOW_S))
        start = time.perf_counter() + WARMUP_S
        marks = [start + i * seconds / count for i in range(count + 1)]
        half = count // 2
        samples = []

        def on_mark(index: int) -> None:
            if traced and index == half:
                os.kill(srv.pid, signal.SIGUSR1)
            samples.append(proc.sample(srv.pid))

        windows, attempted, failed = loadgen.run(
            connections, marks, self.check, on_mark
        )
        chunks = calibrator.stop()
        rss = proc.rss_mib(srv.pid)
        after = srv.metrics()
        for conn in connections:
            conn.close()
        if self.live:
            swept, wrong = self.verify_live(srv.control)
            attempted += swept
            failed += wrong
        output = srv.shutdown()
        moved = proc.diff_metrics(before, after)
        attempted += len(self.workload.priming) * len(self.servers)
        failed += self.setup_failed
        self.check_purpose(moved)
        # Untraced sub-windows: all of them, or the first half of a
        # traced run (recording starts at the half-way mark).
        plain = half if traced else count
        figures = self.figures(windows[:plain], samples[: plain + 1], chunks)
        share = proc.shares(samples[0], samples[plain])
        log(
            f"samples {sum(len(w.latencies_ms) for w in windows)}; "
            + "; ".join(f"{k} {v:.3f}" for k, v in share.items())
            + f"; served by source {moved['sources']}"
        )
        if share["client.cpu_share"] > min(
            CLIENT_BOUND_SHARE, share["server.busy_share"]
        ):
            log("warning: client-bound run: the client, not the server, "
                "is the saturated process")
        if traced:
            metrics = self.layer_metrics(
                output, windows, samples, chunks, half, figures, share, moved
            )
            units = LAYER_UNITS
        else:
            metrics = dict(figures)
            scaled = [
                (end - start) * speed(chunks, start, end) for start, end in setups
            ]
            log(f"setup_s per launch, as measured: "
                f"{[round(end - start, 4) for start, end in setups]}")
            metrics["setup_s"] = statistics.median(scaled)
            metrics["server_rss_mb"] = rss
            units = E2E_UNITS
        return {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                name: {"value": value, "unit": units[name]}
                for name, value in metrics.items()
            },
        }

    def figures(self, windows, samples, chunks) -> dict:
        """Each timed end-to-end figure at reference host speed, at the
        fast quartile of the sub-windows.

        A host at half speed doubles both the server's CPU per query and
        the calibration chunks' CPU time, so dividing throughput by the
        sub-window's ``speed`` and multiplying times by it leaves the
        program's own cost.
        """
        rows, notes = [], []
        for window, first, last in zip(windows, samples, samples[1:]):
            host = speed(chunks, window.start, window.end)
            latencies = window.latencies_ms
            cut = statistics.quantiles(latencies, n=10, method="inclusive")
            throughput = window.completed / (last["wall"] - first["wall"])
            cpu_ms = 1000.0 * (last["server_cpu"] - first["server_cpu"]) / window.completed
            rows.append({
                "throughput_qps": throughput / host,
                "latency_p50_ms": statistics.median(latencies) * host,
                "latency_p90_ms": cut[8] * host,
                "cpu_ms_per_query": cpu_ms * host,
            })
            notes.append(
                f"{throughput:.0f} q/s {cpu_ms:.3f} ms cpu speed {host:.3f} "
                f"steal {proc.shares(first, last)['host.steal_share']:.3f}"
            )
        log("sub-windows (as measured): " + "; ".join(notes))
        out = {}
        for name in rows[0]:
            low, _, high = statistics.quantiles([row[name] for row in rows], n=4)
            out[name] = high if name == "throughput_qps" else low
        return out

    def check_purpose(self, moved: dict) -> None:
        served, sources = moved["served"], moved["sources"]
        if served == 0:
            raise PurposeError("no query was served")
        name = self.workload.name
        if name == "cold-sweep" and sources["cold"] != served:
            raise PurposeError(f"only {sources['cold']}/{served} queries were cold")
        if name == "warm-zipf" and sources["cold"] + sources["extended"]:
            raise PurposeError(
                f"{sources['cold']} cold and {sources['extended']} extended "
                "queries in a primed workload"
            )
        if self.live:
            ratio = self.preserved_ratio()
            if not 0.0 < ratio < 1.0:
                raise PurposeError(f"preserved ratio {ratio} outside (0, 1)")
            if moved["compactions"] < 1:
                raise PurposeError("no compaction ran")

    def preserved_ratio(self) -> float:
        invalidated = sum(m[3] for m in self.mutations)
        preserved = sum(m[4] for m in self.mutations)
        return preserved / max(invalidated + preserved, 1)

    def layer_metrics(
        self, output, windows, samples, chunks, half, figures, share, moved
    ):
        line = next(
            (l for l in output.splitlines() if l.startswith(b"PERFBENCH-SPANS ")),
            None,
        )
        if line is None:
            raise RuntimeError("traced server wrote no spans")
        spans = json.loads(line[len(b"PERFBENCH-SPANS "):])
        traced = windows[half:]
        latencies = [ms for w in traced for ms in w.latencies_ms]
        out = layers.layer_metrics(
            spans, (traced[0].start, traced[-1].end), statistics.fmean(latencies)
        )
        served = max(moved["served"], 1)
        sources = moved["sources"]
        out["cache.hit_ratio"] = sources["cache"] / served
        out["cache.extended_ratio"] = sources["extended"] / served
        out["cache.cold_ratio"] = sources["cold"] / served
        out["cache.preserved_ratio"] = self.preserved_ratio()
        out["scheduler.batch_width"] = moved["batched_queries"] / max(moved["batches"], 1)
        out["registry.compactions"] = moved["compactions"]
        out.update(share)
        traced_figures = self.figures(traced, samples[half:], chunks)
        out["trace.overhead_ratio"] = (
            traced_figures["cpu_ms_per_query"] / figures["cpu_ms_per_query"] - 1.0
        )
        return {name: out[name] for name in LAYER_UNITS}


def speed(chunks, start: float, end: float) -> float:
    """The host's speed between ``start`` and ``end``, relative to the
    reference: ``REFERENCE_CHUNK_MS`` over the median CPU time of the
    calibration chunks started in that interval."""
    chunk_ms = 1000.0 * statistics.median(
        cpu for started, cpu in chunks if start <= started < end
    )
    return REFERENCE_CHUNK_MS / chunk_ms


_VERSION = re.compile(rb'"graph_version": (\d+)')
_MUTATED = re.compile(
    rb"mutated '[^']*' v\d+ -> v(\d+): .* invalidated=(\d+) preserved=(\d+)"
)

E2E_UNITS = {
    "throughput_qps": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "cpu_ms_per_query": "ms",
    "setup_s": "s",
    "server_rss_mb": "MiB",
}

LAYER_UNITS = {
    "transport.self_ms": "ms",
    "transport.queue_ms": "ms",
    "shell.parse_ms": "ms",
    "shell.render_ms": "ms",
    "scheduler.wait_ms": "ms",
    "scheduler.batch_width": "count",
    "pool.handoff_ms": "ms",
    "engine.self_ms": "ms",
    "cache.get_ms": "ms",
    "cache.serve_ms": "ms",
    "cache.hit_ratio": "ratio",
    "cache.extended_ratio": "ratio",
    "cache.cold_ratio": "ratio",
    "cache.migrate_ms": "ms",
    "cache.preserved_ratio": "ratio",
    "kernel.take_ms": "ms",
    "kernel.gamma_core_ms": "ms",
    "kernel.peel_ms": "ms",
    "kernel.enumerate_ms": "ms",
    "kernel.csr_build_ms": "ms",
    "kernel.cursor_resume_ms": "ms",
    "kernel.accessed_fraction": "ratio",
    "registry.apply_ms": "ms",
    "registry.compact_ms": "ms",
    "registry.compactions": "count",
    "registry.build_s": "s",
    "server.busy_share": "ratio",
    "client.cpu_share": "ratio",
    "host.steal_share": "ratio",
    "trace.overhead_ratio": "ratio",
}


if __name__ == "__main__":
    sys.exit(main())
