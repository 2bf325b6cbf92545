"""Union-find decoder (Delfosse & Nickerson, simplified).

An almost-linear-time alternative to MWPM with slightly worse accuracy —
exactly the trade-off the paper's "topology-agnostic decoder" future-work
discussion cares about.  The implementation follows the standard two phases:

1. **Cluster growth** — clusters seeded at space-time detection events grow by
   half-edges on the space-time decoding graph until every cluster has even
   defect parity or touches the spatial boundary.
2. **Peeling** — within each cluster's spanning forest, leaves are peeled off;
   a leaf edge joins the correction iff it is needed to pair up defects.

Corrections only collect *space* edges (data-qubit faults); time edges
represent measurement errors and need no data correction.
"""

from __future__ import annotations

from dataclasses import dataclass

import networkx as nx
import numpy as np

from repro.errors import DecodingError
from repro.qec.codes.base import BOUNDARY, CSSCode
from repro.qec.syndrome import SyndromeHistory, check_decodable, check_raw_events

#: The space-time graph's boundary node.  Every other node is a ``(round,
#: check)`` pair of ints, and so is this one: int tuples hash the same under
#: every ``PYTHONHASHSEED``, so the decoder's sets iterate in one order and
#: its corrections do not depend on the interpreter's hash seed.
BOUNDARY_NODE = (-1, -1)


@dataclass
class UnionFindResult:
    correction: np.ndarray
    num_growth_rounds: int
    cluster_count: int


class _DisjointSet:
    """Union-find with parity and boundary tracking per root."""

    def __init__(self) -> None:
        self.parent: dict = {}
        self.rank: dict = {}
        self.parity: dict = {}
        self.touches_boundary: dict = {}

    def add(self, node, defect: bool, boundary: bool) -> None:
        if node in self.parent:
            return
        self.parent[node] = node
        self.rank[node] = 0
        self.parity[node] = 1 if defect else 0
        self.touches_boundary[node] = boundary

    def find(self, node):
        root = node
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[node] != root:
            self.parent[node], node = root, self.parent[node]
        return root

    def union(self, a, b) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        if self.rank[ra] < self.rank[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        if self.rank[ra] == self.rank[rb]:
            self.rank[ra] += 1
        self.parity[ra] = (self.parity[ra] + self.parity[rb]) % 2
        self.touches_boundary[ra] = (
            self.touches_boundary[ra] or self.touches_boundary[rb]
        )

    def is_odd(self, node) -> bool:
        root = self.find(node)
        return self.parity[root] == 1 and not self.touches_boundary[root]


class UnionFindDecoder:
    """Union-find decoding of multi-round syndrome histories."""

    #: Bumped whenever a decode's output may change.  A memory experiment's
    #: cache key hashes it (:meth:`MemoryExperimentSpec.fingerprint`), so
    #: results an older version cached are not served.
    VERSION = 1

    def __init__(self, code: CSSCode, error_type: str = "x") -> None:
        self.code = code
        self.error_type = error_type
        self._space_graph = code.matching_graph(error_type)
        self._graphs: dict[int, nx.Graph] = {}

    # -- space-time graph -----------------------------------------------------

    def _build_graph(self, rounds: int) -> nx.Graph:
        """Replicate the spatial graph across rounds; add time edges.

        Built once per ``rounds`` and kept: decoding only reads the graph
        (peeling copies edge attributes), so every decode sees the same
        nodes and neighbour order.
        """
        graph = self._graphs.get(rounds)
        if graph is not None:
            return graph
        graph = nx.Graph()
        graph.add_node(BOUNDARY_NODE)
        checks = [n for n in self._space_graph.nodes if n != BOUNDARY]
        for t in range(rounds + 1):
            for c in checks:
                graph.add_node((t, c))
            for a, b, data in self._space_graph.edges(data=True):
                fault = data["fault"]
                if a == BOUNDARY:
                    graph.add_edge((t, b), BOUNDARY_NODE, fault=fault, kind="space")
                elif b == BOUNDARY:
                    graph.add_edge((t, a), BOUNDARY_NODE, fault=fault, kind="space")
                else:
                    graph.add_edge((t, a), (t, b), fault=fault, kind="space")
            if t > 0:
                for c in checks:
                    graph.add_edge((t - 1, c), (t, c), fault=None, kind="time")
        self._graphs[rounds] = graph
        return graph

    # -- decoding -----------------------------------------------------------------

    def decode(self, history_or_events, rounds: int | None = None) -> UnionFindResult:
        """Decode detection events; ``rounds`` required for raw event lists."""
        if isinstance(history_or_events, SyndromeHistory):
            check_decodable(history_or_events, self.code, self.error_type)
            events = history_or_events.detection_events
            rounds = history_or_events.rounds
        else:
            events = list(history_or_events)
            check_raw_events(self.code, events)
            if rounds is None:
                rounds = max((t for t, _ in events), default=0)
        n = self.code.num_data_qubits
        if not events:
            return UnionFindResult(np.zeros(n, dtype=bool), 0, 0)

        graph = self._build_graph(rounds)
        defects: set = {(t, c) for t, c in events}
        for node in defects:
            if node not in graph:
                raise DecodingError(f"detection event {node} outside the graph")

        dsu = _DisjointSet()
        dsu.add(BOUNDARY_NODE, defect=False, boundary=True)
        for node in defects:
            dsu.add(node, defect=True, boundary=False)

        growth: dict[tuple, int] = {}  # edge key -> half-edges grown (0..2)
        in_cluster: set = set(defects)
        grown_edges: set = set()
        max_rounds = 2 * (graph.number_of_nodes() + 1)
        rounds_used = 0
        while any(dsu.is_odd(node) for node in list(in_cluster)):
            rounds_used += 1
            if rounds_used > max_rounds:
                raise DecodingError("union-find growth failed to converge")
            # Grow all boundary edges of odd clusters by one half-step.
            frontier = []
            for node in list(in_cluster):
                if not dsu.is_odd(node):
                    continue
                for nbr in graph.neighbors(node):
                    key = _edge_key(node, nbr)
                    if growth.get(key, 0) < 2:
                        frontier.append((node, nbr, key))
            for node, nbr, key in frontier:
                growth[key] = growth.get(key, 0) + 1
                if growth[key] >= 2 and key not in grown_edges:
                    grown_edges.add(key)
                    if nbr not in dsu.parent:
                        dsu.add(nbr, defect=False, boundary=nbr == BOUNDARY_NODE)
                    in_cluster.add(nbr)
                    dsu.union(node, nbr)

        correction = self._peel(graph, grown_edges, defects, dsu)
        clusters = {dsu.find(n) for n in in_cluster}
        return UnionFindResult(correction, rounds_used, len(clusters))

    # -- peeling ---------------------------------------------------------------------

    def _peel(
        self,
        graph: nx.Graph,
        grown_edges: set,
        defects: set,
        dsu: _DisjointSet,
    ) -> np.ndarray:
        n = self.code.num_data_qubits
        correction = np.zeros(n, dtype=bool)
        erasure = nx.Graph()
        for key in grown_edges:
            a, b = key
            erasure.add_edge(a, b, **graph.edges[a, b])
        # Spanning forest of the erasure; peel leaves, flipping defect marks.
        marked = {node: (node in defects) for node in erasure.nodes}
        for component in list(nx.connected_components(erasure)):
            tree = nx.minimum_spanning_tree(erasure.subgraph(component))
            # Peel from the leaves inward; treat the boundary node as the
            # root so it is peeled last and absorbs any leftover defect.
            # The spanning tree is a fresh graph, so peeling edits it in place.
            while tree.number_of_nodes() > 1:
                leaves = [
                    v
                    for v in tree.nodes
                    if tree.degree(v) == 1 and v != BOUNDARY_NODE
                ]
                if not leaves:
                    break
                for leaf in leaves:
                    if tree.number_of_nodes() <= 1 or leaf not in tree:
                        continue
                    (parent,) = list(tree.neighbors(leaf))
                    if marked.get(leaf, False):
                        edge = tree.edges[leaf, parent]
                        if edge.get("kind") == "space" and edge.get("fault") is not None:
                            correction[edge["fault"]] ^= True
                        marked[parent] = not marked.get(parent, False)
                        marked[leaf] = False
                    tree.remove_node(leaf)
        return correction


def _edge_key(a, b) -> tuple:
    return (a, b) if repr(a) <= repr(b) else (b, a)
