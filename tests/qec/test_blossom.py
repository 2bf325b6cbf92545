"""Parity of ``repro.qec.blossom`` with networkx's ``max_weight_matching``.

networkx's matcher is the reference here, the way ``tests/serial_engine.py``
is for the batch simulator: the port must return the matching networkx
returns, ties included, for a graph built in the same insertion order.  A
difference is a finding, not a tolerance to widen.
"""

import random

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.qec.blossom import max_weight_matching
from repro.qec.codes.repetition import RepetitionCode
from repro.qec.codes.surface import SurfaceCode
from repro.qec.matching import MWPMDecoder
from repro.qec.syndrome import sample_memory
from tests.qec.reference_memory import mwpm_distances

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


def networkx_match(decoder: MWPMDecoder, events):
    """The decoder's matching step as it was built on networkx: the
    reference the port-backed ``MWPMDecoder._match`` must reproduce."""
    event_distance, boundary_distance = mwpm_distances(decoder)
    k = len(events)
    graph = nx.Graph()
    big = 10_000.0
    for i in range(k):
        for j in range(i + 1, k):
            dist = event_distance(events[i], events[j])
            if np.isfinite(dist):
                graph.add_edge(i, j, weight=big - dist)
            graph.add_edge(k + i, k + j, weight=big - 0.0)
        bdist = boundary_distance(events[i])
        if np.isfinite(bdist):
            graph.add_edge(i, k + i, weight=big - bdist)
    matched = {}
    for a, b in nx.max_weight_matching(graph, maxcardinality=True):
        matched[a] = b
        matched[b] = a
    pairs, seen = [], set()
    for i in range(k):
        if i in seen:
            continue
        j = matched[i]
        seen.add(i)
        if j < k:
            seen.add(j)
            pairs.append((events[i], events[j]))
        else:
            pairs.append((events[i], None))
    return pairs


@pytest.mark.parametrize(
    "code, error_type, shots",
    [
        (SurfaceCode(3), "x", 40),
        (SurfaceCode(3), "z", 40),
        (SurfaceCode(5), "x", 12),
        (SurfaceCode(5), "z", 12),
        (RepetitionCode(5), "x", 40),
    ],
    ids=[
        "surface-3-x", "surface-3-z", "surface-5-x", "surface-5-z",
        "repetition-5-x",
    ],
)
@pytest.mark.parametrize("p", [0.08, 0.15])
def test_decoder_pairs_match_networkx(code, error_type, shots, p):
    decoder = MWPMDecoder(code, error_type)
    rng = np.random.default_rng([code.distance, int(p * 100)])
    decoded = 0
    for _ in range(shots):
        history = sample_memory(code, code.distance, p, p, rng, error_type)
        events = history.detection_events
        if events:
            assert decoder._match(events) == networkx_match(decoder, events)
            decoded += 1
    assert decoded > shots // 2
