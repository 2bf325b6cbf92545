"""Parity of ``repro.qec.blossom`` with networkx's ``max_weight_matching``.

networkx's matcher is the reference here, the way ``tests/serial_engine.py``
is for the batch simulator: the port must return the matching networkx
returns, ties included, for a graph built in the same insertion order.  A
difference is a finding, not a tolerance to widen.
"""

import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.qec.blossom import max_weight_matching

#: Edge-weight families: ties, the integer path that runs ``verifyOptimum``,
#: and the float paths (integral, exact halves, arbitrary).
WEIGHTS = {
    "tied": lambda rng: rng.choice((1, 2, 3)),
    "int": lambda rng: rng.randint(-4, 30),
    "integral float": lambda rng: float(rng.randint(0, 30)),
    "half-integer": lambda rng: rng.randint(0, 60) / 2,
    "float": lambda rng: rng.uniform(0, 30),
}


def random_graph(rng: random.Random, max_nodes: int) -> list[tuple]:
    """Weighted edges ``(u, v, w)`` in insertion order: shuffled node labels,
    shuffled edge order and orientation, an occasional self-loop."""
    n = rng.randint(0, max_nodes)
    labels = list(range(n))
    rng.shuffle(labels)
    weight = WEIGHTS[rng.choice(sorted(WEIGHTS))]
    density = rng.choice((0.15, 0.3, 0.6, 1.0))
    pairs = [
        (labels[a], labels[b])
        for a in range(n)
        for b in range(a, n)
        if (a == b and rng.random() < 0.05) or (a != b and rng.random() < density)
    ]
    rng.shuffle(pairs)
    return [
        (v, u, weight(rng)) if rng.random() < 0.5 else (u, v, weight(rng))
        for u, v in pairs
    ]


def assert_same_matching(edges) -> None:
    graph = nx.Graph()
    adj: dict = {}
    for u, v, w in edges:
        graph.add_edge(u, v, weight=w)
        adj.setdefault(u, {})[v] = w
        adj.setdefault(v, {})[u] = w
    mate = max_weight_matching(adj)
    assert all(mate[mate[v]] == v for v in mate)
    expected = nx.max_weight_matching(graph, maxcardinality=True)
    assert {frozenset(e) for e in mate.items()} == {frozenset(e) for e in expected}


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_matches_networkx_on_random_graphs(seed):
    assert_same_matching(random_graph(random.Random(seed), max_nodes=24))


#: Graphs from ``random_graph(random.Random(seed), 24)`` that reach the
#: rarest branches of T-blossom expansion: a sub-blossom already relabelled
#: S, and a reachable vertex found among a sub-blossom's leaves.  About one
#: graph in 300 reaches them; 3135 has integer weights, so it also runs
#: ``verifyOptimum``.
RARE_EXPANSION_SEEDS = (3135, 3510, 5918)


@pytest.mark.parametrize("seed", RARE_EXPANSION_SEEDS)
def test_matches_networkx_on_rare_expansions(seed):
    assert_same_matching(random_graph(random.Random(seed), max_nodes=24))


def test_empty_graph_has_empty_matching():
    assert max_weight_matching({}) == {}
