"""Parity of ``repro.utils.graphs`` with networkx 3.6.1.

networkx is the reference here, as it is for the matcher in
``tests/qec/test_blossom.py``: on a graph built in the same insertion order,
each port must return what networkx returns, in networkx's order, ties
included.  The graphs are seeded and random, with shuffled node labels and
edges added in shuffled order and orientation, so neighbour orders are not
sorted and a copy's neighbour order differs from the original's.  A
difference is a finding, not a tolerance to widen.
"""

import random

import networkx as nx
import pytest

from repro.utils.graphs import add_edge, bfs, copied, edges, shortest_path

SEEDS = range(60)


def random_graph(seed: int) -> tuple[nx.Graph, dict]:
    """The same graph twice, as ``nx.Graph`` and as an adjacency dict: a
    few isolated nodes first, then edges in shuffled order, each edge's
    data a distinct int."""
    rng = random.Random(seed)
    n = rng.randint(1, 16)
    labels = list(range(n))
    rng.shuffle(labels)
    density = rng.choice((0.1, 0.2, 0.35, 0.6))
    pairs = [
        (labels[a], labels[b])
        for a in range(n)
        for b in range(a + 1, n)
        if rng.random() < density
    ]
    rng.shuffle(pairs)
    graph = nx.Graph()
    adj: dict = {}
    for node in rng.sample(labels, rng.randint(0, min(3, n))):
        graph.add_node(node)
        adj.setdefault(node, {})
    for index, (u, v) in enumerate(pairs):
        if rng.random() < 0.5:
            u, v = v, u
        graph.add_edge(u, v, data=index)
        add_edge(adj, u, v, index)
    return graph, adj


def order(graph: nx.Graph) -> list:
    """Nodes and each node's neighbours with their data, in iteration
    order."""
    return [
        (u, [(v, d["data"]) for v, d in graph.adj[u].items()]) for u in graph
    ]


def order_of(adj: dict) -> list:
    return [(u, list(nbrs.items())) for u, nbrs in adj.items()]


@pytest.mark.parametrize("seed", SEEDS)
class TestParity:
    def test_add_edge_matches_insertion_order(self, seed):
        graph, adj = random_graph(seed)
        assert order_of(adj) == order(graph)

    def test_copied_matches_graph_copy(self, seed):
        graph, adj = random_graph(seed)
        assert order_of(copied(adj)) == order(graph.copy())

    def test_edges_match_edge_view(self, seed):
        graph, adj = random_graph(seed)
        assert list(edges(adj)) == [
            (u, v, d["data"]) for u, v, d in graph.edges(data=True)
        ]

    def test_bfs_matches_lengths_and_bfs_edges(self, seed):
        graph, adj = random_graph(seed)
        for g, a in ((graph, adj), (graph.copy(), copied(adj))):
            for source in g:
                lengths = bfs(a, source)
                assert list(lengths.items()) == list(
                    nx.single_source_shortest_path_length(g, source).items()
                )
                assert list(lengths) == [source] + [
                    v for _, v in nx.bfs_edges(g, source)
                ]

    def test_shortest_path_matches_every_pair(self, seed):
        graph, adj = random_graph(seed)
        for g, a in ((graph, adj), (graph.copy(), copied(adj))):
            for source in g:
                for target in g:
                    try:
                        expected = nx.shortest_path(g, source, target)
                    except nx.NetworkXNoPath:
                        expected = None
                    assert shortest_path(a, source, target) == expected


def test_copies_reorder_neighbours():
    """The trap the ports exist for: a copy re-adds edges node by node, and
    node 2 comes before node 0, so the copy lists node 1's neighbours as
    [2, 0] where the original has [0, 2], and a BFS from 1 follows."""
    adj: dict = {}
    for u, v in [(2, 3), (0, 1), (1, 2)]:
        add_edge(adj, u, v)
    assert list(adj) == [2, 3, 0, 1]
    assert list(adj[1]) == [0, 2]
    assert list(copied(adj)[1]) == [2, 0]
    assert list(bfs(adj, 1)) == [1, 0, 2, 3]
    assert list(bfs(copied(adj), 1)) == [1, 2, 0, 3]


def test_shortest_path_grows_the_smaller_fringe():
    """Two shortest 0-3 paths.  Both fringes hold one node, so the forward
    one grows first, to [2, 1]; then the reverse fringe is smaller, grows,
    and meets the forward search at 3's first-listed neighbour, 1."""
    adj: dict = {}
    for u, v in [(0, 2), (0, 1), (1, 3), (2, 3)]:
        add_edge(adj, u, v)
    assert shortest_path(adj, 0, 3) == [0, 1, 3]
    assert shortest_path(adj, 3, 0) == [3, 2, 0]
    assert shortest_path(adj, 0, 0) == [0]
    add_edge(adj, 4, 5)
    assert shortest_path(adj, 0, 5) is None
