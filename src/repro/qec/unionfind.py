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

Graphs are ``{node: {neighbour: fault}}`` adjacency dicts
(:mod:`repro.utils.graphs`), a time edge's fault being ``None``.  Which
spanning tree peels a cluster decides the correction, so
:func:`_spanning_trees` builds the trees networkx 3.6.1 builds for
``minimum_spanning_tree(G.subgraph(c))`` over ``connected_components(G)``,
in the same node and neighbour order.

The spanning-tree port follows networkx, which is distributed under the
3-clause BSD license (the full notice is in :mod:`repro.utils.graphs`)::

   Copyright (c) 2004-2025, NetworkX Developers
   All rights reserved.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import DecodingError
from repro.qec.codes.base import BOUNDARY, CSSCode
from repro.qec.syndrome import SyndromeHistory, check_decodable, check_raw_events
from repro.utils.graphs import add_edge, edges

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
        self._graphs: dict[int, dict] = {}

    # -- space-time graph -----------------------------------------------------

    def _build_graph(self, rounds: int) -> dict:
        """Replicate the spatial graph across rounds; add time edges.

        Built once per ``rounds`` and kept: decoding only reads the graph,
        so every decode sees the same nodes and neighbour order.
        """
        graph = self._graphs.get(rounds)
        if graph is not None:
            return graph
        graph = {BOUNDARY_NODE: {}}
        checks = [n for n in self._space_graph if n != BOUNDARY]
        space_edges = list(edges(self._space_graph))
        for t in range(rounds + 1):
            for c in checks:
                graph.setdefault((t, c), {})
            for a, b, fault in space_edges:
                if a == BOUNDARY:
                    add_edge(graph, (t, b), BOUNDARY_NODE, fault)
                elif b == BOUNDARY:
                    add_edge(graph, (t, a), BOUNDARY_NODE, fault)
                else:
                    add_edge(graph, (t, a), (t, b), fault)
            if t > 0:
                for c in checks:
                    add_edge(graph, (t - 1, c), (t, c), None)
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
        max_rounds = 2 * (len(graph) + 1)
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
                for nbr in graph[node]:
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
        graph: dict,
        grown_edges: set,
        defects: set,
        dsu: _DisjointSet,
    ) -> np.ndarray:
        n = self.code.num_data_qubits
        correction = np.zeros(n, dtype=bool)
        erasure: dict = {}
        for key in grown_edges:
            a, b = key
            add_edge(erasure, a, b, graph[a][b])
        # Spanning forest of the erasure; peel leaves, flipping defect marks.
        marked = {node: (node in defects) for node in erasure}
        for tree in _spanning_trees(erasure):
            # Peel from the leaves inward; treat the boundary node as the
            # root so it is peeled last and absorbs any leftover defect.
            # The spanning tree is a fresh graph, so peeling edits it in place.
            while len(tree) > 1:
                leaves = [
                    v
                    for v, nbrs in tree.items()
                    if len(nbrs) == 1 and v != BOUNDARY_NODE
                ]
                if not leaves:
                    break
                for leaf in leaves:
                    if len(tree) <= 1 or leaf not in tree:
                        continue
                    (parent,) = tree[leaf]
                    if marked.get(leaf, False):
                        fault = tree[leaf][parent]
                        if fault is not None:  # a space edge
                            correction[fault] ^= True
                        marked[parent] = not marked.get(parent, False)
                        marked[leaf] = False
                    del tree[parent][leaf]
                    del tree[leaf]
        return correction


def _spanning_trees(erasure: dict) -> list[dict]:
    """networkx's ``minimum_spanning_tree(erasure.subgraph(c))`` for each
    ``c`` in ``connected_components(erasure)``, as adjacency dicts.

    * A component is the set ``_plain_bfs`` builds: the source, then each
      node in the order breadth-first search reaches it.
    * ``subgraph`` keeps a new set of the component's nodes, added in the
      component's iteration order.  The view iterates that set when it
      holds fewer than half the erasure's nodes, and the erasure's node
      order otherwise (``FilterAtlas.__iter__``).  Its neighbour order is
      the erasure's.
    * Every edge has unit weight, so Kruskal keeps, in the view's edge
      order, each edge that joins two trees of the forest so far.  A tree
      has the view's node order, and each node's neighbours are in the
      order its edges were kept.
    """
    trees = []
    seen: set = set()
    for source in erasure:
        if source in seen:
            continue
        component = {source}
        frontier = [source]
        while frontier:
            this_level, frontier = frontier, []
            for v in this_level:
                for w in erasure[v]:
                    if w not in component:
                        component.add(w)
                        frontier.append(w)
        seen.update(component)
        # Added one at a time, as networkx adds them: set(component) would
        # copy the component's table, and iterate in its order instead.
        nodes = set(iter(component))
        if 2 * len(nodes) < len(erasure):
            order = list(nodes)
        else:
            order = [v for v in erasure if v in nodes]
        tree: dict = {v: {} for v in order}
        root = {v: v for v in order}
        visited: set = set()
        for u in order:
            for v, fault in erasure[u].items():
                if v in visited:
                    continue
                ru, rv = _root(root, u), _root(root, v)
                if ru != rv:
                    root[ru] = rv
                    tree[u][v] = tree[v][u] = fault
            visited.add(u)
        trees.append(tree)
    return trees


def _root(parent: dict, node):
    while parent[node] != node:
        parent[node] = node = parent[parent[node]]
    return node


def _edge_key(a, b) -> tuple:
    return (a, b) if repr(a) <= repr(b) else (b, a)
