"""Union-find decoder (Delfosse & Nickerson, simplified).

An almost-linear-time alternative to MWPM with slightly worse accuracy —
exactly the trade-off the paper's "topology-agnostic decoder" future-work
discussion cares about.  The implementation follows the standard two phases:

1. **Cluster growth** — clusters seeded at space-time detection events grow by
   half-edges on the space-time decoding graph until every cluster has even
   defect parity or touches the spatial boundary.
2. **Peeling** — the grown edges' breadth-first spanning forest is peeled
   from the leaves inward; an edge joins the correction iff it is needed to
   pair up defects.

Corrections only collect *space* edges (data-qubit faults); time edges
represent measurement errors and need no data correction.

Graphs are ``{node: {neighbour: fault}}`` adjacency dicts
(:mod:`repro.utils.graphs`), a time edge's fault being ``None``.  Which
spanning forest peels a cluster decides the correction, so every container
whose order reaches it is a list or a dict in an order the decoder fixes:
the sorted defects, then nodes and edges in the order they grow.
"""

from __future__ import annotations

import itertools
import numbers
from dataclasses import dataclass

import numpy as np

from repro.errors import DecodingError
from repro.qec.codes.base import BOUNDARY, CSSCode
from repro.qec.syndrome import SyndromeHistory, check_decodable, check_raw_events
from repro.utils.graphs import add_edge, edges

#: The space-time graph's boundary node.  Every other node is a ``(round,
#: check)`` pair of ints, and so is this one, so nodes compare and sort
#: directly.
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
    VERSION = 2

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
        """Decode detection events; a raw event list's ``rounds`` defaults to
        its last event's round, and a history's ``rounds`` is its own."""
        if rounds is not None and (
            isinstance(rounds, bool) or not isinstance(rounds, numbers.Integral)
            or rounds < 0
        ):
            raise DecodingError(f"rounds must be a whole number >= 0, not {rounds!r}")
        if isinstance(history_or_events, SyndromeHistory):
            check_decodable(history_or_events, self.code, self.error_type)
            if rounds is not None and rounds != history_or_events.rounds:
                raise DecodingError(
                    f"rounds={rounds} does not match the history's "
                    f"{history_or_events.rounds} rounds"
                )
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
        defects = sorted((t, c) for t, c in events)
        dsu = _DisjointSet()
        for node in defects:
            if node not in graph:
                raise DecodingError(f"detection event {node} outside the graph")
            dsu.add(node, defect=True, boundary=False)

        # The frontier is fixed before any edge grows, so which edges grow
        # does not depend on the order they are visited in; the peel does.
        growth: dict[tuple, int] = {}  # edge key -> half-edges grown (0..2)
        cluster = list(defects)  # every clustered node, in the order it grew
        erasure: dict = {}  # every grown edge, in the order it grew
        max_rounds = 2 * (len(graph) + 1)
        rounds_used = 0
        while any(dsu.is_odd(node) for node in cluster):
            rounds_used += 1
            if rounds_used > max_rounds:
                raise DecodingError("union-find growth failed to converge")
            # Grow all boundary edges of odd clusters by one half-step.
            frontier = []
            for node in cluster:
                if not dsu.is_odd(node):
                    continue
                for nbr in graph[node]:
                    key = _edge_key(node, nbr)
                    if growth.get(key, 0) < 2:
                        frontier.append((node, nbr, key))
            for node, nbr, key in frontier:
                growth[key] = growth.get(key, 0) + 1
                if growth[key] == 2:
                    add_edge(erasure, *key, graph[node][nbr])
                    if nbr not in dsu.parent:
                        dsu.add(nbr, defect=False, boundary=nbr == BOUNDARY_NODE)
                        cluster.append(nbr)
                    dsu.union(node, nbr)

        correction = self._peel(erasure, defects)
        clusters = {dsu.find(node) for node in cluster}
        return UnionFindResult(correction, rounds_used, len(clusters))

    # -- peeling ---------------------------------------------------------------------

    def _peel(self, erasure: dict, defects: list) -> np.ndarray:
        """Peel the erasure's forest from the leaves inward, in one pass:
        walked in reverse, each node comes after its subtree, and a marked
        one flips its parent edge and hands its mark to the parent."""
        correction = np.zeros(self.code.num_data_qubits, dtype=bool)
        marked = dict.fromkeys(defects, True)
        for node, edge in reversed(_peeling_forest(erasure).items()):
            if edge is not None and marked.get(node, False):
                parent, fault = edge
                if fault is not None:  # a space edge
                    correction[fault] ^= True
                marked[parent] = not marked.get(parent, False)
        return correction


def _peeling_forest(erasure: dict) -> dict:
    """The erasure's breadth-first spanning forest, ``{node: (parent, fault)}``
    (``None`` for a root) in the order the search reaches the nodes.  It
    starts at the boundary node when the erasure holds it, so the boundary
    roots its tree, then at each node not yet reached, in erasure order."""
    forest: dict = {}
    roots = [BOUNDARY_NODE] if BOUNDARY_NODE in erasure else []
    for root in itertools.chain(roots, erasure):
        if root in forest:
            continue
        forest[root] = None
        tree = [root]
        for node in tree:  # the list grows as the search reaches nodes
            for nbr, fault in erasure[node].items():
                if nbr not in forest:
                    forest[nbr] = (node, fault)
                    tree.append(nbr)
    return forest


def _edge_key(a, b) -> tuple:
    return (a, b) if a <= b else (b, a)
