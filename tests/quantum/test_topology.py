"""CouplingMap: qubit-id checks, and parity of its graph walks with networkx.

``CouplingMap`` keeps its own adjacency dict, and layout and routing break
ties by its insertion order, so networkx is the reference here: a map built
from an edge list must route, place and embed grids as an ``nx.Graph``
built from the same list did.
"""

import random

import networkx as nx
import numpy as np
import pytest
from networkx.algorithms.isomorphism import GraphMatcher

from repro.errors import TranspilerError
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.topology import CouplingMap
from repro.quantum.transpiler import dense_layout

LINEAR = CouplingMap.linear(3)


@pytest.mark.parametrize(
    "call, qubit",
    [
        (lambda: LINEAR.distance(0, 7), 7),
        (lambda: LINEAR.distance(7, 0), 7),
        (lambda: LINEAR.shortest_path(0, 7), 7),
        (lambda: LINEAR.neighbors(7), 7),
        (lambda: LINEAR.degree(7), 7),
        (lambda: LINEAR.degree(-1), -1),
        (lambda: LINEAR.shortest_path(0, 1.0), 1.0),
        (lambda: CouplingMap([(0, 1.7)]), 1.7),
        (lambda: CouplingMap([("0", 1)]), "0"),
    ],
    ids=[
        "distance", "distance-source", "shortest_path", "neighbors", "degree",
        "negative", "float-path", "float-edge", "str-edge",
    ],
)
def test_off_map_or_non_integer_qubit_raises_transpiler_error(call, qubit):
    with pytest.raises(TranspilerError, match=f"qubit .*{qubit!r}"):
        call()


def test_integer_qubit_ids_of_any_type_are_accepted():
    cmap = CouplingMap([(np.int64(0), np.int32(1)), (1, np.uint8(2))])
    assert cmap.edges == [(0, 1), (1, 2)]
    assert all(type(q) is int for q, _ in cmap.adjacency)
    assert cmap.distance(np.int64(0), np.int64(2)) == 2
    assert cmap.shortest_path(np.int16(2), 0) == [2, 1, 0]
    assert cmap.neighbors(np.int64(1)) == [0, 2]
    assert cmap.degree(np.int64(1)) == 2
    assert cmap.are_coupled(np.int64(0), 1)


def test_are_coupled_is_false_off_the_map():
    assert not LINEAR.are_coupled(0, 7)
    assert not LINEAR.are_coupled(7, 8)
    assert LINEAR.are_coupled(1, 2)


class _Recording(CouplingMap):
    """A coupling map that keeps the edge list it was built from."""

    def __init__(self, edges, name="custom"):
        self.edge_list = list(edges)
        super().__init__(self.edge_list, name)


def reference_graph(cmap: _Recording) -> nx.Graph:
    graph = nx.Graph()
    for a, b in cmap.edge_list:
        graph.add_edge(int(a), int(b))
    return graph


def shuffled(cmap: CouplingMap, seed: int) -> _Recording:
    """The same edges, in shuffled order and orientation."""
    rng = random.Random(seed)
    edges = [(b, a) if rng.random() < 0.5 else (a, b) for a, b in cmap.edges]
    rng.shuffle(edges)
    return _Recording(edges)


MAPS = [
    _Recording.brisbane(),
    _Recording.grid(4, 5),
    _Recording.heavy_hex(3, 7),
    _Recording.ring(9),
    shuffled(CouplingMap.brisbane(), 1),
    shuffled(CouplingMap.grid(3, 3), 2),
    shuffled(CouplingMap.full(6), 3),
]
MAP_IDS = ["brisbane", "grid-4x5", "heavy-hex-3x7", "ring-9", "brisbane-shuffled",
           "grid-3x3-shuffled", "full-6-shuffled"]


@pytest.mark.parametrize("cmap", MAPS, ids=MAP_IDS)
def test_dense_layout_walks_the_copy_as_networkx_did(cmap):
    """Layout runs a BFS over ``cmap.graph``, a copy, from its first
    highest-degree qubit, and networkx's copy lists neighbours in another
    order than the original on 24 of Brisbane's qubits."""
    graph = reference_graph(cmap).copy()
    start = max(graph.degree, key=lambda kv: kv[1])[0]
    order = [start] + [v for _, v in nx.bfs_edges(graph, start)]
    layout = dense_layout(QuantumCircuit(cmap.num_qubits), cmap)
    assert [layout.physical(q) for q in range(cmap.num_qubits)] == order
    assert [list(cmap.graph[q]) for q in graph] == [list(graph.adj[q]) for q in graph]


def test_brisbane_copy_reorders_neighbours():
    brisbane = CouplingMap.brisbane()
    original = dict(brisbane.adjacency)
    copy = brisbane.graph
    assert sum(tuple(copy[q]) != original[q] for q in copy) == 24


@pytest.mark.parametrize("cmap", MAPS, ids=MAP_IDS)
def test_shortest_paths_match_networkx_on_the_original(cmap):
    graph = reference_graph(cmap)
    n = cmap.num_qubits
    for a in range(0, n, max(1, n // 16)):
        for b in range(n):
            assert cmap.shortest_path(a, b) == nx.shortest_path(graph, a, b)
            assert cmap.distance(a, b) == len(nx.shortest_path(graph, a, b)) - 1


GRID_HOSTS = [
    CouplingMap.linear(9),
    CouplingMap.ring(4),
    CouplingMap.ring(8),
    CouplingMap.grid(3, 4),
    CouplingMap.grid(3, 5),
    CouplingMap.full(7),
    CouplingMap.heavy_hex(2, 5),
    CouplingMap.heavy_hex(3, 7),
    CouplingMap.brisbane(),
    CouplingMap(CouplingMap.grid(4, 4).edges[::-1]),
]


@pytest.mark.parametrize("cmap", GRID_HOSTS, ids=lambda cmap: repr(cmap))
def test_subgraph_has_grid_matches_graph_matcher(cmap):
    """Any exact search gives GraphMatcher's answer.  A rows x cols grid is
    isomorphic to its transpose, so one reference answers both."""
    host = nx.Graph(cmap.edges)
    for rows in range(1, 8):
        for cols in range(rows, 8):
            if rows * cols > cmap.num_qubits:
                expected = False
            else:
                grid = nx.grid_2d_graph(rows, cols)
                expected = GraphMatcher(host, grid).subgraph_is_monomorphic()
            assert cmap.subgraph_has_grid(rows, cols) is expected, (rows, cols)
            assert cmap.subgraph_has_grid(cols, rows) is expected, (cols, rows)
