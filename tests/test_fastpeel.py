"""Differential and reuse tests for the flat-array peel kernel.

The python kernel (:func:`repro.core.count.peel_cvs`) is the oracle;
the ``array`` kernel, named ``array`` or by its old name ``numpy``,
must produce byte-identical :class:`CVSRecord` outputs for every graph,
γ, prefix, ``stop_rank`` and non-containment setting — cold and across
warm (scratch-carrying) progressive rounds — and the progressive
community streams must match element for element.
"""

import random
import sys

import pytest

from repro.core import fastpeel
from repro.core.count import construct_cvs
from repro.core.fastpeel import (
    PeelScratch,
    fast_construct_cvs,
    resolve_kernel,
)
from repro.core.progressive import LocalSearchP
from repro.graph.subgraph import PrefixAdjacency, PrefixView
from repro.workloads.generators import (
    barabasi_albert,
    build_weighted_graph,
    erdos_renyi,
    planted_partition,
)

#: Every name that selects the array kernel: ``numpy`` is the old name
#: of a retired vectorised kernel and must still reach it everywhere.
FAST_KERNELS = ("array", "numpy")


def record_fingerprint(record):
    """Everything a CVSRecord promises, with nbrs materialised."""
    return (
        record.keys,
        record.cvs,
        record.starts,
        record.p,
        record.gamma,
        record.stop_rank,
        record.noncontainment,
        [list(record.nbrs[v]) for v in range(record.p)],
    )


def random_graph(seed: int):
    rng = random.Random(seed)
    style = seed % 3
    if style == 0:
        n, edges = erdos_renyi(
            rng.randrange(4, 50), rng.randrange(0, 120), seed=seed
        )
    elif style == 1:
        n, edges = barabasi_albert(
            rng.randrange(6, 60), rng.randrange(1, 4), seed=seed
        )
    else:
        n, edges = planted_partition(
            rng.randrange(2, 5), rng.randrange(3, 8), 0.8, 4, seed=seed
        )
    weights = rng.choice(["random", "degree", "identity"])
    return build_weighted_graph(n, edges, weights=weights, seed=seed)


class TestColdDifferential:
    #: >= 200 seeded random graphs overall (120 cold + 90 progressive).
    SEEDS = range(120)

    @pytest.mark.parametrize("kernel", FAST_KERNELS)
    def test_matches_python_oracle(self, kernel):
        for seed in self.SEEDS:
            rng = random.Random(10_000 + seed)
            graph = random_graph(seed)
            n = graph.num_vertices
            gamma = rng.randrange(1, 6)
            p = rng.randrange(0, n + 1)
            stop = rng.randrange(0, p + 1) if p else 0
            track = bool(rng.getrandbits(1))
            oracle = construct_cvs(
                PrefixView(graph, p),
                gamma,
                stop_rank=stop,
                track_noncontainment=track,
                kernel="python",
            )
            fast = construct_cvs(
                PrefixView(graph, p),
                gamma,
                stop_rank=stop,
                track_noncontainment=track,
                kernel=kernel,
            )
            assert record_fingerprint(fast) == record_fingerprint(oracle), (
                f"seed={seed} gamma={gamma} p={p} stop={stop} track={track}"
            )


class TestProgressiveDifferential:
    SEEDS = range(45)

    @pytest.mark.parametrize("kernel", FAST_KERNELS)
    def test_warm_rounds_match_oracle(self, kernel):
        """Growing prefixes over one scratch: every round byte-identical."""
        for seed in self.SEEDS:
            rng = random.Random(20_000 + seed)
            graph = random_graph(seed)
            n = graph.num_vertices
            gamma = rng.randrange(1, 6)
            track = bool(rng.getrandbits(1))
            scratch = PeelScratch()
            rounds = sorted(rng.sample(range(1, n + 1), min(n, 5)))
            p_prev = 0
            for p in rounds:
                oracle = construct_cvs(
                    PrefixView(graph, p),
                    gamma,
                    stop_rank=p_prev,
                    track_noncontainment=track,
                    kernel="python",
                )
                fast = construct_cvs(
                    PrefixView(graph, p),
                    gamma,
                    stop_rank=p_prev,
                    track_noncontainment=track,
                    kernel=kernel,
                    scratch=scratch,
                )
                assert record_fingerprint(fast) == record_fingerprint(
                    oracle
                ), f"seed={seed} gamma={gamma} rounds={rounds} p={p}"
                p_prev = p

    @pytest.mark.parametrize("kernel", FAST_KERNELS)
    @pytest.mark.parametrize("delta", [1.5, 2.0, 3.0])
    def test_streams_identical(self, kernel, delta):
        """LocalSearch-P yields the identical community sequence."""
        for seed in (1, 7, 23):
            graph = random_graph(seed)
            gamma = 2 + seed % 3
            def stream(k):
                searcher = LocalSearchP(
                    graph, gamma=gamma, delta=delta, kernel=k
                )
                return [
                    (c.keynode, c.influence, sorted(c.vertex_ranks))
                    for c in searcher.stream()
                ]
            assert stream(kernel) == stream("python")

    @pytest.mark.parametrize("kernel", FAST_KERNELS)
    def test_noncontainment_streams_identical(self, kernel):
        for seed in (3, 11):
            graph = random_graph(seed)
            def stream(k):
                searcher = LocalSearchP(
                    graph, gamma=2, noncontainment=True, kernel=k
                )
                return [
                    (c.keynode, sorted(c.vertex_ranks))
                    for c in searcher.stream()
                ]
            assert stream(kernel) == stream("python")


class TestScratchReuse:
    def test_buffers_persist_across_rounds(self):
        graph = random_graph(5)
        n = graph.num_vertices
        scratch = PeelScratch()
        construct_cvs(
            PrefixView(graph, n // 2), 2, kernel="array", scratch=scratch
        )
        deg_buffer = scratch.deg
        stack_buffer = scratch.stack
        construct_cvs(
            PrefixView(graph, n),
            2,
            stop_rank=n // 2,
            kernel="array",
            scratch=scratch,
        )
        # Identity, not equality: the same buffers were grown in place.
        assert scratch.deg is deg_buffer
        assert scratch.stack is stack_buffer
        assert len(scratch.deg) >= n

    def test_round_state_never_leaks(self):
        """A peel after unrelated rounds equals a peel from nothing."""
        graph = random_graph(9)
        n = graph.num_vertices
        scratch = PeelScratch()
        for p in range(1, n + 1):
            construct_cvs(
                PrefixView(graph, p), 3, kernel="array", scratch=scratch
            )
        warm = construct_cvs(
            PrefixView(graph, n), 3, kernel="array", scratch=scratch
        )
        cold = construct_cvs(PrefixView(graph, n), 3, kernel="array")
        assert record_fingerprint(warm) == record_fingerprint(cold)

    def test_scratch_survives_graph_switch(self):
        """Reusing one scratch across graphs degrades cold, not wrong."""
        a, b = random_graph(12), random_graph(13)
        scratch = PeelScratch()
        construct_cvs(
            PrefixView(a, a.num_vertices), 2, kernel="array", scratch=scratch
        )
        got = construct_cvs(
            PrefixView(b, b.num_vertices), 2, kernel="array", scratch=scratch
        )
        want = construct_cvs(PrefixView(b, b.num_vertices), 2, kernel="python")
        assert record_fingerprint(got) == record_fingerprint(want)

    def test_gamma_switch_is_correct(self):
        graph = random_graph(17)
        n = graph.num_vertices
        scratch = PeelScratch()
        construct_cvs(PrefixView(graph, n), 2, kernel="array", scratch=scratch)
        got = construct_cvs(
            PrefixView(graph, n), 4, kernel="array", scratch=scratch
        )
        want = construct_cvs(PrefixView(graph, n), 4, kernel="python")
        assert record_fingerprint(got) == record_fingerprint(want)


class TestKernelResolution:
    def test_explicit_wins_over_env(self, monkeypatch):
        monkeypatch.setenv(fastpeel.KERNEL_ENV_VAR, "python")
        assert resolve_kernel("array") == "array"

    def test_env_var(self, monkeypatch):
        monkeypatch.setenv(fastpeel.KERNEL_ENV_VAR, "python")
        assert resolve_kernel() == "python"
        monkeypatch.setenv(fastpeel.KERNEL_ENV_VAR, "array")
        assert resolve_kernel() == "array"

    def test_auto_default(self, monkeypatch):
        monkeypatch.delenv(fastpeel.KERNEL_ENV_VAR, raising=False)
        assert resolve_kernel() == "array"
        assert resolve_kernel("auto") == "array"
        assert resolve_kernel("numpy") == "array"

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ValueError):
            resolve_kernel("cuda")

    def test_numpy_degrades_to_array_when_missing(self, monkeypatch):
        """The old ``numpy`` name needs no numpy: with the module
        unimportable it still resolves to, and runs, the array kernel."""
        graph = random_graph(2)  # the generators themselves use numpy
        monkeypatch.setitem(sys.modules, "numpy", None)
        monkeypatch.delenv(fastpeel.KERNEL_ENV_VAR, raising=False)
        with pytest.raises(ImportError):
            import numpy  # noqa: F401
        assert resolve_kernel("numpy") == "array"
        assert resolve_kernel() == "array"
        got = construct_cvs(
            PrefixView(graph, graph.num_vertices), 2, kernel="numpy"
        )
        assert isinstance(got.nbrs, PrefixAdjacency)  # the array path ran
        want = construct_cvs(
            PrefixView(graph, graph.num_vertices), 2, kernel="python"
        )
        assert record_fingerprint(got) == record_fingerprint(want)

    def test_gamma_validation(self):
        graph = random_graph(1)
        with pytest.raises(ValueError):
            fast_construct_cvs(PrefixView(graph, 3), 0)

    def test_stats_report_kernel(self):
        graph = random_graph(4)
        searcher = LocalSearchP(graph, gamma=2, kernel="array")
        list(searcher.stream())
        assert searcher.stats.kernel == "array"


class TestPrefixAdjacency:
    def test_prefix_adjacency_matches_neighbor_lists(self):
        graph = random_graph(23)
        n = graph.num_vertices
        for p in (0, n // 2, n):
            view = PrefixView(graph, p)
            record = construct_cvs(view, 1, kernel="array")
            assert isinstance(record.nbrs, PrefixAdjacency)
            assert len(record.nbrs) == p
            expected = PrefixView(graph, p).neighbor_lists()
            assert [list(record.nbrs[v]) for v in range(p)] == expected
        with pytest.raises(IndexError):
            _ = record.nbrs[n]


class TestPrefixViewExtend:
    def test_extend_seeds_down_cuts(self):
        graph = random_graph(31)
        n = graph.num_vertices
        small = PrefixView(graph, n // 3)
        for u in range(small.p):
            small.down_cut(u)
        large = small.extend(n)
        fresh = PrefixView(graph, n)
        for u in range(n):
            assert large.down_cut(u) == fresh.down_cut(u)
            assert large.degree(u) == fresh.degree(u)

    def test_extend_rejects_shrink(self):
        graph = random_graph(31)
        with pytest.raises(ValueError):
            PrefixView(graph, 3).extend(2)

    def test_extend_chain(self):
        graph = random_graph(33)
        n = graph.num_vertices
        view = PrefixView(graph, 1)
        for p in range(2, n + 1):
            view = view.extend(p)
            fresh = PrefixView(graph, p)
            assert [view.down_cut(u) for u in range(p)] == [
                fresh.down_cut(u) for u in range(p)
            ]
