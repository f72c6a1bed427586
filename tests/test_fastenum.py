"""Differential and reuse tests for the flat-array EnumIC kernel.

The python kernel (:mod:`repro.core.enumerate` over the dict-based
:class:`KeyedDisjointSet`) is the oracle; the ``array`` kernel, named
``array`` or by its old name ``numpy``, must produce byte-identical
community forests — keynode, influence, own vertices, and children, in
the identical order — for every graph, γ, prefix and ``k``, cold and
across warm (scratch- and state-carrying) progressive rounds, for
vertex, non-containment and truss enumeration.
"""

import random
import sys

import pytest

from repro.core import fastpeel
from repro.core.count import construct_cvs
from repro.core.enumerate import (
    EnumerationState,
    enumerate_progressive,
    enumerate_top_k,
)
from repro.core.fastenum import EnumScratch
from repro.core.fastpeel import PeelScratch
from repro.core.noncontainment import top_k_noncontainment_communities
from repro.core.progressive import LocalSearchP
from repro.core.truss_search import (
    construct_cvs_truss,
    enumerate_truss_top_k,
    top_k_truss_communities,
)
from repro.graph.disjoint_set import KeyedDisjointSet
from repro.graph.subgraph import PrefixView
from repro.workloads.generators import (
    barabasi_albert,
    build_weighted_graph,
    erdos_renyi,
    planted_partition,
)

#: Every name that selects the array kernel: ``numpy`` is the old name
#: of a retired vectorised kernel and must still reach it everywhere.
FAST_KERNELS = ("array", "numpy")


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


def forest_fingerprint(communities):
    """Everything a Community forest promises, in reported order."""
    return [
        (
            c.keynode,
            c.influence,
            list(c.own_vertices),
            [child.keynode for child in c.children],
        )
        for c in communities
    ]


def truss_fingerprint(communities):
    return [
        (
            c.keynode,
            c.influence,
            list(c.own_edges),
            [child.keynode for child in c.children],
        )
        for c in communities
    ]


# ----------------------------------------------------------------------
# cold differential sweep
# ----------------------------------------------------------------------
class TestColdDifferential:
    #: >= 200 seeded enumerations overall (120 cold + progressive below).
    SEEDS = range(120)

    @pytest.mark.parametrize("kernel", FAST_KERNELS)
    def test_matches_python_oracle(self, kernel):
        for seed in self.SEEDS:
            rng = random.Random(30_000 + seed)
            graph = random_graph(seed)
            n = graph.num_vertices
            gamma = rng.randrange(1, 6)
            p = rng.randrange(0, n + 1)
            k = rng.choice([None, 1, 2, rng.randrange(1, n + 2)])
            oracle_record = construct_cvs(
                PrefixView(graph, p), gamma, kernel="python"
            )
            fast_record = construct_cvs(
                PrefixView(graph, p), gamma, kernel=kernel
            )
            oracle = enumerate_top_k(
                graph, oracle_record, k, kernel="python"
            )
            fast = enumerate_top_k(graph, fast_record, k, kernel=kernel)
            assert forest_fingerprint(fast) == forest_fingerprint(oracle), (
                f"seed={seed} gamma={gamma} p={p} k={k}"
            )

    def test_array_kernel_on_python_record(self):
        """The generic (list-of-lists adjacency) scan path of the array
        kernel: flat enumeration over a python-peeled record."""
        for seed in range(0, 60, 3):
            graph = random_graph(seed)
            record = construct_cvs(
                PrefixView(graph, graph.num_vertices), 2, kernel="python"
            )
            oracle = enumerate_top_k(graph, record, kernel="python")
            fast = enumerate_top_k(graph, record, kernel="array")
            assert forest_fingerprint(fast) == forest_fingerprint(oracle), (
                f"seed={seed}"
            )


# ----------------------------------------------------------------------
# progressive (EnumIC-P) differential sweep
# ----------------------------------------------------------------------
class TestProgressiveDifferential:
    SEEDS = range(45)

    @pytest.mark.parametrize("kernel", FAST_KERNELS)
    def test_warm_rounds_match_oracle(self, kernel):
        """Growing prefixes over one shared state/scratch pair: every
        round's incremental yield is byte-identical."""
        for seed in self.SEEDS:
            rng = random.Random(40_000 + seed)
            graph = random_graph(seed)
            n = graph.num_vertices
            gamma = rng.randrange(1, 6)
            state = EnumerationState()
            peel_scratch = PeelScratch()
            enum_scratch = EnumScratch()
            rounds = sorted(rng.sample(range(1, n + 1), min(n, 5)))
            p_prev = 0
            for p in rounds:
                oracle_record = construct_cvs(
                    PrefixView(graph, p), gamma, stop_rank=p_prev,
                    kernel="python",
                )
                fast_record = construct_cvs(
                    PrefixView(graph, p), gamma, stop_rank=p_prev,
                    kernel=kernel, scratch=peel_scratch,
                )
                oracle = list(
                    enumerate_progressive(graph, oracle_record, state)
                )
                fast = list(
                    enumerate_progressive(
                        graph, fast_record, kernel=kernel,
                        scratch=enum_scratch,
                    )
                )
                assert forest_fingerprint(fast) == forest_fingerprint(
                    oracle
                ), f"seed={seed} gamma={gamma} rounds={rounds} p={p}"
                p_prev = p

    @pytest.mark.parametrize("kernel", FAST_KERNELS)
    def test_streams_identical(self, kernel):
        """LocalSearch-P end to end: identical community sequences."""
        for seed in (2, 8, 19):
            graph = random_graph(seed)
            gamma = 2 + seed % 3

            def stream(k):
                searcher = LocalSearchP(graph, gamma=gamma, kernel=k)
                return forest_fingerprint(searcher.stream())

            assert stream(kernel) == stream("python")


# ----------------------------------------------------------------------
# non-containment and truss cohesion
# ----------------------------------------------------------------------
class TestOtherCohesions:
    @pytest.mark.parametrize("kernel", FAST_KERNELS)
    def test_noncontainment_matches(self, kernel):
        for seed in (3, 11, 25):
            graph = random_graph(seed)
            oracle = top_k_noncontainment_communities(
                graph, 8, 2, kernel="python"
            )
            fast = top_k_noncontainment_communities(
                graph, 8, 2, kernel=kernel
            )
            assert forest_fingerprint(fast.communities) == (
                forest_fingerprint(oracle.communities)
            )

    def test_truss_enumeration_matches(self):
        """EnumICC over the flat union-find — the path that exercises
        the dangling-anchor takeover branch organically."""
        for seed in (1, 5, 9, 14, 22):
            graph = random_graph(seed)
            view = PrefixView(graph, graph.num_vertices)
            record = construct_cvs_truss(view, 3)
            oracle = enumerate_truss_top_k(graph, record, kernel="python")
            fast = enumerate_truss_top_k(graph, record, kernel="array")
            assert truss_fingerprint(fast) == truss_fingerprint(oracle), (
                f"seed={seed}"
            )

    def test_truss_end_to_end_matches(self):
        for seed in (4, 16):
            graph = random_graph(seed)
            oracle = top_k_truss_communities(graph, 6, 3, kernel="python")
            fast = top_k_truss_communities(graph, 6, 3, kernel="array")
            assert truss_fingerprint(fast.communities) == (
                truss_fingerprint(oracle.communities)
            )


# ----------------------------------------------------------------------
# scratch lifecycle
# ----------------------------------------------------------------------
class TestScratchReuse:
    def test_buffers_persist_and_no_steady_state_allocation(self):
        """Repeated enumeration over one scratch reuses the stores in
        place: same objects, same capacity — allocation-free."""
        graph = random_graph(6)
        record = construct_cvs(
            PrefixView(graph, graph.num_vertices), 2, kernel="array"
        )
        scratch = EnumScratch()
        first = enumerate_top_k(
            graph, record, kernel="array", scratch=scratch
        )
        parent = scratch.parent
        size = scratch.size
        key = scratch.key
        anchor = scratch.anchor
        cap = len(parent)
        for _ in range(3):
            again = enumerate_top_k(
                graph, record, kernel="array", scratch=scratch
            )
            assert forest_fingerprint(again) == forest_fingerprint(first)
            # Identity, not equality: the same stores, never reallocated.
            assert scratch.parent is parent
            assert scratch.size is size
            assert scratch.key is key
            assert scratch.anchor is anchor
            assert len(scratch.parent) == cap

    def test_round_state_never_leaks(self):
        """An enumeration after unrelated ones equals a cold one."""
        graph = random_graph(10)
        n = graph.num_vertices
        scratch = EnumScratch()
        for p in range(1, n + 1, max(1, n // 6)):
            record = construct_cvs(PrefixView(graph, p), 3, kernel="array")
            enumerate_top_k(graph, record, kernel="array", scratch=scratch)
        record = construct_cvs(PrefixView(graph, n), 3, kernel="array")
        warm = enumerate_top_k(
            graph, record, kernel="array", scratch=scratch
        )
        cold = enumerate_top_k(graph, record, kernel="python")
        assert forest_fingerprint(warm) == forest_fingerprint(cold)

    def test_scratch_survives_graph_switch(self):
        """Reusing one scratch across graphs degrades cold, not wrong."""
        a, b = random_graph(12), random_graph(13)
        scratch = EnumScratch()
        record_a = construct_cvs(
            PrefixView(a, a.num_vertices), 2, kernel="array"
        )
        enumerate_top_k(a, record_a, kernel="array", scratch=scratch)
        record_b = construct_cvs(
            PrefixView(b, b.num_vertices), 2, kernel="array"
        )
        got = enumerate_top_k(b, record_b, kernel="array", scratch=scratch)
        want = enumerate_top_k(b, record_b, kernel="python")
        assert forest_fingerprint(got) == forest_fingerprint(want)

    def test_mode_switch_resets_and_stays_correct(self):
        """Switching kernel names on one scratch resets it between cold
        enumerations, stays correct, and never swaps its stores."""
        graph = random_graph(15)
        record = construct_cvs(
            PrefixView(graph, graph.num_vertices), 2, kernel="numpy"
        )
        scratch = EnumScratch()
        want = forest_fingerprint(
            enumerate_top_k(graph, record, kernel="python")
        )
        parent = None
        for kernel in ("array", "numpy", "array"):
            got = enumerate_top_k(
                graph, record, kernel=kernel, scratch=scratch
            )
            assert forest_fingerprint(got) == want, kernel
            parent = parent if parent is not None else scratch.parent
            assert scratch.parent is parent

    def test_reset_restores_virgin_state(self):
        graph = random_graph(18)
        record = construct_cvs(
            PrefixView(graph, graph.num_vertices), 2, kernel="array"
        )
        scratch = EnumScratch()
        enumerate_top_k(graph, record, kernel="array", scratch=scratch)
        scratch.reset()
        assert all(p == -1 for p in scratch.parent)
        assert all(a == -1 for a in scratch.anchor)
        assert not scratch.touched
        assert not scratch.anchored
        assert not scratch.communities


# ----------------------------------------------------------------------
# dispatch
# ----------------------------------------------------------------------
class TestDispatch:
    def test_env_python_selects_oracle(self, monkeypatch):
        """REPRO_KERNEL=python routes around the scratch entirely."""
        monkeypatch.setenv(fastpeel.KERNEL_ENV_VAR, "python")
        graph = random_graph(7)
        record = construct_cvs(
            PrefixView(graph, graph.num_vertices), 2, kernel="python"
        )
        scratch = EnumScratch()
        enumerate_top_k(graph, record, scratch=scratch)
        assert scratch.graph is None  # never bound: oracle path taken

    def test_explicit_state_forces_oracle(self):
        graph = random_graph(7)
        record = construct_cvs(
            PrefixView(graph, graph.num_vertices), 2, kernel="array"
        )
        scratch = EnumScratch()
        got = enumerate_top_k(
            graph, record, state=EnumerationState(), kernel="array",
            scratch=scratch,
        )
        want = enumerate_top_k(graph, record, kernel="python")
        assert forest_fingerprint(got) == forest_fingerprint(want)
        assert scratch.graph is None

    def test_numpy_degrades_to_array_when_missing(self, monkeypatch):
        """The old ``numpy`` name needs no numpy: with the module
        unimportable it still runs the array enumeration."""
        graph = random_graph(8)  # the generators themselves use numpy
        monkeypatch.setitem(sys.modules, "numpy", None)
        monkeypatch.delenv(fastpeel.KERNEL_ENV_VAR, raising=False)
        with pytest.raises(ImportError):
            import numpy  # noqa: F401
        record = construct_cvs(
            PrefixView(graph, graph.num_vertices), 2, kernel="array"
        )
        scratch = EnumScratch()
        got = enumerate_top_k(graph, record, kernel="numpy", scratch=scratch)
        assert scratch.graph is graph  # bound: the array path ran
        want = enumerate_top_k(graph, record, kernel="python")
        assert forest_fingerprint(got) == forest_fingerprint(want)

    def test_enumerate_phase_recorded(self):
        graph = random_graph(4)
        searcher = LocalSearchP(graph, gamma=2, kernel="array")
        list(searcher.stream())
        assert "enumerate" in searcher.stats.phases


# ----------------------------------------------------------------------
# model-based lockstep against the dict oracle
# ----------------------------------------------------------------------
class TestModelLockstep:
    def test_random_op_sequences_match_oracle(self):
        """Random assign/union_into sequences — including the
        dangling-anchor takeover — drive the oracle and the flat scratch
        in lockstep; every vertex's key must agree after every op."""
        N, K = 24, 8
        for seed in range(40):
            rng = random.Random(seed)
            oracle = KeyedDisjointSet()
            scratch = EnumScratch()
            scratch.ensure(max(N, K))
            tracked = []
            for _ in range(70):
                key = rng.randrange(K)
                if tracked and rng.random() < 0.4:
                    v = rng.choice(tracked)
                    oracle.union_into(v, key)
                    scratch.union_into(v, key)
                else:
                    v = rng.randrange(N)
                    oracle.assign(v, key)
                    scratch.assign(v, key)
                    if v not in tracked:
                        tracked.append(v)
                for w in range(N):
                    want = oracle.key_of(w)
                    assert scratch.key_of(w) == (
                        -1 if want is None else want
                    ), f"seed={seed} vertex={w}"
            scratch.reset()
            assert all(scratch.key_of(w) == -1 for w in range(N))
