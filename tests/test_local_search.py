"""LocalSearch (Algorithm 1) tests: correctness, growth, parameters."""

from __future__ import annotations

import pytest

from repro import LocalSearch, top_k_influential_communities
from repro.core.general import GeneralLocalSearch, MinDegreeMeasure
from repro.core.noncontainment import top_k_noncontainment_communities
from repro.core.progressive import LocalSearchP
from repro.core.truss_search import LocalSearchTruss
from repro.core.reference import reference_top_k
from repro.errors import QueryParameterError
from tests.conftest import random_graph


def as_pairs(graph, result):
    return [
        (c.influence, frozenset(c.vertex_ranks)) for c in result.communities
    ]


class TestParameterValidation:
    def test_bad_gamma(self, fig3):
        with pytest.raises(QueryParameterError):
            LocalSearch(fig3, gamma=0)

    def test_bad_delta(self, fig3):
        with pytest.raises(QueryParameterError):
            LocalSearch(fig3, gamma=2, delta=1.0)

    def test_bad_growth(self, fig3):
        with pytest.raises(QueryParameterError):
            LocalSearch(fig3, gamma=2, growth="sideways")

    def test_bad_counting(self, fig3):
        with pytest.raises(QueryParameterError):
            LocalSearch(fig3, gamma=2, counting="magic")

    def test_bad_k(self, fig3):
        with pytest.raises(QueryParameterError):
            LocalSearch(fig3, gamma=2).search(0)


class TestCorrectness:
    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("gamma", [1, 2, 3])
    @pytest.mark.parametrize("k", [1, 3, 7])
    def test_matches_reference(self, seed, gamma, k):
        g = random_graph(18, 0.3, seed, weights="shuffled")
        result = top_k_influential_communities(g, k=k, gamma=gamma)
        expected = reference_top_k(g, k, gamma)
        assert as_pairs(g, result) == expected

    def test_fewer_than_k_available(self, two_cliques):
        result = top_k_influential_communities(two_cliques, k=10, gamma=3)
        assert len(result.communities) == 2

    def test_no_communities_at_all(self, two_cliques):
        result = top_k_influential_communities(two_cliques, k=3, gamma=4)
        assert result.communities == []

    def test_result_iterable_and_sized(self, fig3):
        result = top_k_influential_communities(fig3, k=2, gamma=3)
        assert len(result) == 2
        assert [c.influence for c in result] == result.influences


class TestGrowthBehaviour:
    @pytest.mark.parametrize("delta", [1.5, 2.0, 3.0, 8.0, 64.0])
    def test_delta_does_not_change_answer(self, fig3, delta):
        baseline = top_k_influential_communities(fig3, k=4, gamma=3)
        result = LocalSearch(fig3, gamma=3, delta=delta).search(4)
        assert as_pairs(fig3, result) == as_pairs(fig3, baseline)

    def test_linear_growth_same_answer_more_rounds(self):
        g = random_graph(40, 0.15, 3, weights="shuffled")
        exponential = LocalSearch(g, gamma=2).search(5)
        linear = LocalSearch(
            g, gamma=2, growth="linear", linear_increment=4
        ).search(5)
        assert as_pairs(g, linear) == as_pairs(g, exponential)
        assert linear.stats.rounds >= exponential.stats.rounds

    def test_prefix_sizes_grow_geometrically(self):
        g = random_graph(60, 0.08, 4, weights="shuffled")
        result = LocalSearch(g, gamma=2, delta=2.0).search(12)
        sizes = result.stats.prefix_sizes
        for smaller, larger in zip(sizes, sizes[1:-1]):
            # Every intermediate round at least doubles (the last round
            # may be clipped by the whole graph).
            assert larger >= 2 * smaller

    def test_stops_as_soon_as_k_found(self, fig3):
        """Every round except the last must have been insufficient."""
        result = LocalSearch(fig3, gamma=3).search(1)
        assert all(c < 1 for c in result.stats.counts[:-1])
        assert result.stats.counts[-1] >= 1


class TestOnlineAllCounting:
    """The LocalSearch-OA variant of Eval-III."""

    @pytest.mark.parametrize("seed", range(4))
    def test_same_answers_as_countic(self, seed):
        g = random_graph(20, 0.3, seed, weights="shuffled")
        fast = LocalSearch(g, gamma=2).search(4)
        slow = LocalSearch(g, gamma=2, counting="onlineall").search(4)
        assert as_pairs(g, slow) == as_pairs(g, fast)


class TestStats:
    def test_accessed_fraction(self, email_graph):
        result = LocalSearch(email_graph, gamma=10).search(10)
        frac = result.stats.accessed_fraction
        assert 0 < frac <= 1
        # Locality: the accessed subgraph is a small part of the graph.
        assert frac < 0.5

    def test_total_work_at_least_accessed(self, fig3):
        result = LocalSearch(fig3, gamma=3).search(4)
        assert result.stats.total_work >= result.stats.accessed_size

    def test_elapsed_recorded(self, fig3):
        result = LocalSearch(fig3, gamma=3).search(4)
        assert result.stats.elapsed_seconds > 0

    def test_instance_optimality_witness(self):
        """The final prefix is within 2*delta of the smallest sufficient
        prefix size (Lemma 3.8), measured empirically."""
        g = random_graph(60, 0.12, 9, weights="shuffled")
        k, gamma, delta = 6, 2, 2.0
        result = LocalSearch(g, gamma=gamma, delta=delta).search(k)
        # Find tau* = smallest prefix with >= k communities.
        from repro.core.count import count_communities
        from repro.graph.subgraph import PrefixView

        p_star = None
        for p in range(1, g.num_vertices + 1):
            if count_communities(PrefixView(g, p), gamma) >= k:
                p_star = p
                break
        if p_star is None:
            pytest.skip("graph has fewer than k communities")
        size_star = g.prefix_size(p_star)
        assert result.stats.accessed_size <= 2 * delta * size_star + 1


_SEARCHERS = {
    "localsearch": lambda g, delta: LocalSearch(g, gamma=2, delta=delta).search(3),
    "localsearch-p": lambda g, delta: LocalSearchP(g, gamma=2, delta=delta).run(k=3),
    "noncontainment": lambda g, delta: top_k_noncontainment_communities(
        g, 3, 2, delta=delta
    ),
    "truss": lambda g, delta: LocalSearchTruss(g, gamma=3, delta=delta).search(3),
    "general": lambda g, delta: GeneralLocalSearch(
        g, 2, MinDegreeMeasure(), delta=delta
    ).search(3),
}


@pytest.mark.parametrize("delta", [float("nan"), float("inf"), float("-inf"), 1.0])
@pytest.mark.parametrize("searcher", sorted(_SEARCHERS))
def test_every_searcher_rejects_a_bad_delta_with_a_typed_error(
    fig3, searcher, delta
):
    with pytest.raises(QueryParameterError, match="delta"):
        _SEARCHERS[searcher](fig3, delta)
