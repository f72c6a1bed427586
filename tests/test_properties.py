"""Property-based tests (hypothesis) on core invariants.

Random small graphs with random distinct weights; every optimised
algorithm is checked against the definition-level oracle and against the
paper's structural lemmas (nesting, monotonicity, keynode uniqueness).
"""

from __future__ import annotations

from typing import List, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    LocalSearchP,
    top_k_influential_communities,
    top_k_noncontainment_communities,
    top_k_truss_communities,
)
from repro.baselines import forward, online_all
from repro.core.count import construct_cvs, count_communities
from repro.core.reference import (
    is_influential_community,
    reference_communities,
    reference_noncontainment_communities,
    reference_truss_communities,
)
from repro.graph.builder import graph_from_arrays
from repro.graph.subgraph import PrefixView


@st.composite
def weighted_graphs(draw, max_n=14):
    """A random simple graph with a random weight permutation."""
    n = draw(st.integers(2, max_n))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(
        st.lists(st.sampled_from(possible), unique=True, max_size=len(possible))
    )
    perm = draw(st.permutations(range(1, n + 1)))
    return graph_from_arrays(n, edges, weights=[float(w) for w in perm])


@st.composite
def graph_and_gamma(draw):
    g = draw(weighted_graphs())
    gamma = draw(st.integers(1, 4))
    return g, gamma


COMMON = dict(max_examples=60, deadline=None)


@given(graph_and_gamma())
@settings(**COMMON)
def test_local_search_matches_oracle(case):
    graph, gamma = case
    expected = reference_communities(graph, gamma)
    k = len(expected) if expected else 1
    result = top_k_influential_communities(graph, k=k, gamma=gamma)
    got = [
        (c.influence, frozenset(c.vertex_ranks)) for c in result.communities
    ]
    assert got == expected


@given(graph_and_gamma())
@settings(**COMMON)
def test_progressive_stream_matches_oracle(case):
    graph, gamma = case
    got = [
        (c.influence, frozenset(c.vertex_ranks))
        for c in LocalSearchP(graph, gamma=gamma).stream()
    ]
    assert got == reference_communities(graph, gamma)


@given(graph_and_gamma())
@settings(**COMMON)
def test_count_equals_enumeration_length(case):
    graph, gamma = case
    view = PrefixView.whole(graph)
    assert count_communities(view, gamma) == len(
        reference_communities(graph, gamma)
    )


@given(graph_and_gamma())
@settings(**COMMON)
def test_every_reported_community_satisfies_definition(case):
    graph, gamma = case
    for community in LocalSearchP(graph, gamma=gamma).stream():
        assert is_influential_community(
            graph, set(community.vertex_ranks), gamma
        )
        assert community.min_degree() >= gamma


@given(graph_and_gamma())
@settings(**COMMON)
def test_communities_nested_or_disjoint(case):
    """Influential communities form a laminar family (Lemma 3.3 ff.)."""
    graph, gamma = case
    sets = [set(m) for _, m in reference_communities(graph, gamma)]
    for i in range(len(sets)):
        for j in range(i + 1, len(sets)):
            a, b = sets[i], sets[j]
            assert a <= b or b <= a or a.isdisjoint(b)


@given(graph_and_gamma())
@settings(**COMMON)
def test_influence_values_unique(case):
    """Lemma 3.3: at most one community per influence value."""
    graph, gamma = case
    influences = [inf for inf, _ in reference_communities(graph, gamma)]
    assert len(set(influences)) == len(influences)


@given(graph_and_gamma())
@settings(**COMMON)
def test_keynode_group_partition(case):
    """cvs groups partition the peeled gamma-core vertex set."""
    graph, gamma = case
    record = construct_cvs(PrefixView.whole(graph), gamma)
    seen = set()
    for i in range(len(record.keys)):
        group = record.group(i)
        assert group[0] == record.keys[i]
        for v in group:
            assert v not in seen
            seen.add(v)


@given(graph_and_gamma(), st.integers(1, 5))
@settings(**COMMON)
def test_global_algorithms_agree(case, k):
    graph, gamma = case
    a = top_k_influential_communities(graph, k=k, gamma=gamma)
    b = forward(graph, k, gamma)
    c = online_all(graph, k, gamma)
    pa = [(x.influence, frozenset(x.vertex_ranks)) for x in a.communities]
    pb = [(x.influence, frozenset(x.vertex_ranks)) for x in b.communities]
    pc = [(x.influence, frozenset(x.vertex_ranks)) for x in c.communities]
    assert pa == pb == pc


@given(graph_and_gamma())
@settings(**COMMON)
def test_noncontainment_matches_oracle(case):
    graph, gamma = case
    expected = reference_noncontainment_communities(graph, gamma)
    k = len(expected) if expected else 1
    result = top_k_noncontainment_communities(graph, k=k, gamma=gamma)
    got = [
        (c.influence, frozenset(c.vertex_ranks)) for c in result.communities
    ]
    assert got == expected


@given(weighted_graphs(max_n=10), st.integers(3, 4))
@settings(max_examples=40, deadline=None)
def test_truss_matches_oracle(graph, gamma):
    expected = reference_truss_communities(graph, gamma)
    k = len(expected) if expected else 1
    result = top_k_truss_communities(graph, k=k, gamma=gamma)
    got = [
        (c.influence, frozenset(c.iter_edges())) for c in result.communities
    ]
    assert got == expected


@given(weighted_graphs(), st.integers(1, 3),
       st.sampled_from([1.5, 2.0, 4.0, 32.0]))
@settings(max_examples=40, deadline=None)
def test_delta_never_changes_answers(graph, gamma, delta):
    from repro.core.local_search import LocalSearch

    base = top_k_influential_communities(graph, k=3, gamma=gamma)
    other = LocalSearch(graph, gamma=gamma, delta=delta).search(3)
    assert [
        (c.influence, frozenset(c.vertex_ranks)) for c in base.communities
    ] == [
        (c.influence, frozenset(c.vertex_ranks)) for c in other.communities
    ]


@given(
    weighted_graphs(max_n=30),
    st.integers(1, 3),
    st.integers(1, 4),
    st.sampled_from([1.5, 2.0, 3.0]),
)
@settings(**COMMON)
def test_local_search_access_within_lemma_38(graph, gamma, k, delta):
    """Lemma 3.8: a LocalSearch that reaches ``k`` accesses at most
    ``2δ · size(G>=tau*)``, where ``tau*`` is the influence of the k-th
    community, plus the one vertex step that ``grow_prefix`` overshoots
    its target by."""
    from repro.core.local_search import LocalSearch

    expected = reference_communities(graph, gamma)
    k = min(k, len(expected))
    if not k:
        return
    stats = LocalSearch(graph, gamma=gamma, delta=delta).search(k).stats
    assert stats.counts[-1] >= k
    tau_star = expected[k - 1][0]
    size_star = graph.prefix_size(graph.prefix_for_threshold(tau_star))
    p = stats.prefixes[-1]
    step = graph.prefix_size(p) - graph.prefix_size(p - 1)
    assert stats.accessed_size <= 2 * delta * size_star + step


@given(weighted_graphs(), st.integers(1, 3), st.integers(2, 12))
@settings(max_examples=40, deadline=None)
def test_suffix_property(graph, gamma, p_small):
    """keys/cvs of a prefix is a suffix of any larger prefix's (Section 4)."""
    n = graph.num_vertices
    p_small = min(p_small, n)
    small = construct_cvs(PrefixView(graph, p_small), gamma)
    large = construct_cvs(PrefixView(graph, n), gamma)
    delta = construct_cvs(PrefixView(graph, n), gamma, stop_rank=p_small)
    assert delta.keys + small.keys == large.keys
    assert delta.cvs + small.cvs == large.cvs


@given(graph_and_gamma())
@settings(**COMMON)
def test_monotone_counts_lemma31(case):
    """Lemma 3.1: community count is non-decreasing as the prefix grows."""
    graph, gamma = case
    previous = 0
    for p in range(graph.num_vertices + 1):
        count = count_communities(PrefixView(graph, p), gamma)
        assert count >= previous
        previous = count
