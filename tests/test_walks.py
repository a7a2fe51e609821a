"""Walk engine tests: bias rule against hand-derived values, alias table
reconstruction, rejection-sampler fidelity, and corpus determinism."""

from __future__ import annotations

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bimvec.config import TrainConfig, WalkConfig
from bimvec.errors import BimvecError
from bimvec.graph import PropertyGraph
from bimvec.sgns import train
from bimvec.walks import (
    AliasTable,
    WalkSampler,
    generate_walks,
    transition_distribution,
)

from conftest import P_Q_GRID, SMALL_GRAPHS, graph_from_edges, make_path, make_triangle


# ---------------------------------------------------------------------------
# transition_distribution
# ---------------------------------------------------------------------------

def test_unbiased_walk_is_uniform_on_unit_weights():
    graph = PropertyGraph()
    for name in "xabc":
        graph.add_node(name, "N")
    for other in "abc":
        graph.add_edge("x", other, "E")
    graph.add_edge("a", "b", "E")
    for prev in (None, "a"):
        dist = transition_distribution(graph, prev, "x", 1.0, 1.0)
        assert [node for node, _ in dist] == ["a", "b", "c"]
        for _, probability in dist:
            assert probability == pytest.approx(1 / 3, abs=1e-12)


def test_triangle_bias_hand_values():
    dist = transition_distribution(make_triangle(), "a", "b", 0.5, 2.0)
    assert dist[0][0] == "a" and dist[1][0] == "c"
    assert dist[0][1] == pytest.approx(2 / 3, abs=1e-12)
    assert dist[1][1] == pytest.approx(1 / 3, abs=1e-12)


def test_path_bias_hand_values():
    dist = transition_distribution(make_path(3), "a", "b", 4.0, 0.25)
    assert dist[0][1] == pytest.approx(1 / 17, abs=1e-12)
    assert dist[1][1] == pytest.approx(16 / 17, abs=1e-12)


def test_probabilities_sum_to_one():
    graph = make_triangle()
    for prev in (None, "a", "c"):
        dist = transition_distribution(graph, prev, "b", 0.3, 7.0)
        assert sum(p for _, p in dist) == pytest.approx(1.0, abs=1e-12)


def test_isolated_node_raises():
    graph = PropertyGraph()
    graph.add_node("lonely", "N")
    with pytest.raises(BimvecError, match="^node 'lonely' has no neighbors$"):
        transition_distribution(graph, None, "lonely", 1.0, 1.0)


def test_unit_p_q_reduces_to_first_order():
    graph = PropertyGraph()
    for name in "abcd":
        graph.add_node(name, "N")
    graph.add_edge("a", "b", "E", 2.0)
    graph.add_edge("b", "c", "E", 0.5)
    graph.add_edge("b", "d", "E", 3.0)
    graph.add_edge("a", "c", "E", 1.0)
    for curr in "abcd":
        weights = graph.neighbor_weights(curr)
        first_order = {x: w / sum(weights.values()) for x, w in weights.items()}
        for prev in [None] + sorted(weights):
            for node, probability in transition_distribution(graph, prev, curr, 1.0, 1.0):
                assert probability == pytest.approx(first_order[node], abs=1e-12)


def test_add_edge_rejects_non_finite_weight():
    graph = PropertyGraph()
    graph.add_node("a", "N")
    graph.add_node("b", "N")
    for bad in (float("inf"), float("nan"), 0.0, -1.0):
        with pytest.raises(ValueError):
            graph.add_edge("a", "b", "E", bad)
    assert graph.edge_count == 0


def test_parallel_edges_sum_weights():
    graph = PropertyGraph()
    for name in "ab":
        graph.add_node(name, "N")
    graph.add_edge("a", "b", "E", 1.0)
    graph.add_edge("a", "b", "F", 2.0)
    assert graph.neighbor_weights("a") == {"b": 3.0}


# ---------------------------------------------------------------------------
# alias tables
# ---------------------------------------------------------------------------

def outcome_probabilities(table: AliasTable) -> list[float]:
    """The distribution ``table`` encodes: slot i keeps itself with
    probability prob[i] / k and gives the rest to alias[i]."""
    k = len(table)
    out = [0.0] * k
    for i in range(k):
        out[i] += table.prob[i] / k
        out[table.alias[i]] += (1.0 - table.prob[i]) / k
    return out


def test_alias_reconstructs_quarter_three_quarters():
    table = AliasTable.build([0.25, 0.75])
    assert outcome_probabilities(table) == pytest.approx([0.25, 0.75], abs=1e-15)


def test_alias_uniform_has_unit_probs():
    table = AliasTable.build([0.25] * 4)
    assert table.prob == (1.0, 1.0, 1.0, 1.0)


def test_alias_single_outcome():
    table = AliasTable.build([1.0])
    assert len(table) == 1
    rng = random.Random(0)
    assert all(table.draw(rng) == 0 for _ in range(10))


@settings(max_examples=80, deadline=None)
@given(st.lists(st.floats(min_value=1e-6, max_value=1e6), min_size=1, max_size=16))
def test_alias_reconstruction_property(weights):
    table = AliasTable.build(weights)
    total = sum(weights)
    expected = [w / total for w in weights]
    reconstructed = outcome_probabilities(table)
    for want, got in zip(expected, reconstructed):
        assert got == pytest.approx(want, abs=1e-12)


def test_alias_rejects_non_finite_and_negative():
    for bad in ([1.0, float("inf"), 2.0], [1.0, float("nan")], [1.0, -0.5, 2.0],
                [1e308, 1e308]):
        with pytest.raises(ValueError):
            AliasTable.build(bad)


# ---------------------------------------------------------------------------
# WalkSampler
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name,nodes,edge_list", SMALL_GRAPHS)
def test_alias_sampling_close_to_exact_on_all_pairs(name, nodes, edge_list):
    """Sampler draws for every first step and every (prev, curr) pair, at
    every P_Q_GRID pair: empirical vs exact within TV 0.02."""
    graph = graph_from_edges(nodes, edge_list)
    draws = 20_000
    for p, q in P_Q_GRID:
        sampler = WalkSampler(graph, p, q)
        rng = random.Random(13)
        for curr in graph.node_ids():
            for prev in [None] + sorted(graph.neighbor_weights(curr)):
                if prev is None:
                    counts = Counter(sampler.first_step(curr, rng) for _ in range(draws))
                else:
                    counts = Counter(sampler.step(prev, curr, rng) for _ in range(draws))
                exact = dict(transition_distribution(graph, prev, curr, p, q))
                assert set(counts) <= set(exact), (name, p, q, prev, curr)
                tv = 0.5 * sum(abs(counts[x] / draws - probability)
                               for x, probability in exact.items())
                assert tv <= 0.02, (name, p, q, prev, curr, tv)


# ---------------------------------------------------------------------------
# generate_walks
# ---------------------------------------------------------------------------

def test_isolated_start_yields_length_one_walks():
    graph = PropertyGraph()
    graph.add_node("solo", "N")
    corpus = generate_walks(graph, WalkConfig(walk_length=10, walks_per_node=2))
    assert corpus.walks == [["solo"], ["solo"]]


def test_two_node_walks_alternate():
    graph = PropertyGraph()
    graph.add_node("u", "N")
    graph.add_node("v", "N")
    graph.add_edge("u", "v", "E")
    corpus = generate_walks(graph, WalkConfig(walk_length=3, walks_per_node=4))
    for walk in corpus.walks:
        assert walk in (["u", "v", "u"], ["v", "u", "v"])


def test_empirical_step_frequency_matches_oracle():
    sampler = WalkSampler(make_triangle(), 0.5, 2.0)
    rng = random.Random(7)
    draws = Counter(sampler.step("a", "b", rng) for _ in range(100000))
    assert draws["a"] / 100000 == pytest.approx(2 / 3, abs=0.01)
    assert draws["c"] / 100000 == pytest.approx(1 / 3, abs=0.01)


def test_corpus_bytes_identical_across_runs_and_workers(barbell_graph):
    cfg = WalkConfig(p=0.5, q=2.0, walk_length=12, walks_per_node=3, seed=99)
    first = generate_walks(barbell_graph, cfg, workers=1)
    second = generate_walks(barbell_graph, cfg, workers=1)
    threaded = generate_walks(barbell_graph, cfg, workers=4)
    assert first.to_text() == second.to_text() == threaded.to_text()


def test_generate_walks_rejects_non_positive_workers(barbell_graph):
    with pytest.raises(ValueError, match="workers"):
        generate_walks(barbell_graph, WalkConfig(), workers=0)


def test_walk_nodes_exist_and_lengths_bounded(two_space_graph):
    cfg = WalkConfig(walk_length=10, walks_per_node=2, seed=5)
    corpus = generate_walks(two_space_graph, cfg)
    node_ids = set(two_space_graph.node_ids())
    assert len(corpus.walks) == 2 * len(two_space_graph)
    for walk in corpus.walks:
        assert 1 <= len(walk) <= cfg.walk_length
        assert set(walk) <= node_ids


def test_vocabulary_covers_walked_nodes_only():
    graph = PropertyGraph()
    graph.add_node("u", "N")
    graph.add_node("v", "N")
    graph.add_edge("u", "v", "E")
    corpus = generate_walks(graph, WalkConfig(walk_length=2, walks_per_node=1))
    assert train(corpus, TrainConfig(dimension=2, epochs=1)).ids == ["u", "v"]
    assert sorted(nid for walk in corpus.walks for nid in walk) == ["u", "u", "v", "v"]


def test_corpus_text_round_trip(barbell_graph):
    corpus = generate_walks(barbell_graph, WalkConfig(walk_length=5, walks_per_node=1))
    text = corpus.to_text()
    assert text == "".join(" ".join(walk) + "\n" for walk in corpus.walks)
    assert [line.split() for line in text.splitlines()] == corpus.walks


def test_config_validation():
    with pytest.raises(ValueError):
        WalkConfig(p=0.0)
    with pytest.raises(ValueError):
        WalkConfig(walk_length=0)


def test_p_q_range():
    for p, q in ((0.05, 1.0), (1.0, 20.0)):
        with pytest.raises(ValueError, match=r"\[0\.1, 10\.0\]"):
            WalkConfig(p=p, q=q)
        with pytest.raises(ValueError, match=r"\[0\.1, 10\.0\]"):
            WalkSampler(make_triangle(), p, q)
    assert WalkConfig(p=0.1, q=10.0).q == 10.0
    assert WalkConfig(p=10.0, q=0.1).p == 10.0
