"""Minimum-weight perfect matching (MWPM) decoder.

The workhorse surface-code decoder (paper Fig. 2c: "we pass multiple faulty
syndromes into the decoder to get the required set of corrections").
Detection events from a multi-round syndrome history are matched pairwise —
or to the spatial boundary — with cost equal to their space-time separation;
the corrections are the data qubits along the spatial part of each matched
path.

Matching runs on a complete graph over events plus one *boundary twin* per
event (twins interconnect at zero cost), reduced to a maximum-weight
maximum-cardinality matching with negated costs; this is the standard exact
reduction of boundary matching to perfect matching.  The matcher,
:mod:`repro.qec.blossom`, is a port of networkx 3.6.1's blossom algorithm
over plain dicts that picks the same matching among ties.
"""

from __future__ import annotations

from dataclasses import dataclass

import networkx as nx
import numpy as np

from repro.errors import DecodingError
from repro.qec.blossom import max_weight_matching
from repro.qec.codes.base import BOUNDARY, CSSCode
from repro.qec.syndrome import (
    DetectionEvent,
    SyndromeHistory,
    check_decodable,
    check_raw_events,
)


@dataclass
class MatchingResult:
    """Decoder output.

    Attributes:
        correction: bool vector over data qubits (which to flip back).
        matched_pairs: list of (event, event-or-None) — None means matched
            to the boundary.
        weight: total matching cost (space + time edges).
    """

    correction: np.ndarray
    matched_pairs: list[tuple[DetectionEvent, DetectionEvent | None]]
    weight: float


class MWPMDecoder:
    """MWPM over the space-time decoding graph of one error type."""

    def __init__(
        self, code: CSSCode, error_type: str = "x", time_weight: float = 1.0
    ) -> None:
        self.code = code
        self.error_type = error_type
        self.time_weight = float(time_weight)
        # A negative weight rewards matching across time; nan and inf drop
        # time edges (and inf * 0 drops same-round pairs too).
        if not 0.0 <= self.time_weight < float("inf"):
            raise DecodingError(
                f"time_weight must be finite and >= 0, got {time_weight}"
            )
        self._graph = code.matching_graph(error_type)
        self._spatial = self._graph.copy()
        self._spatial.remove_node(BOUNDARY)
        # All-pairs spatial distances among checks, and each check's distance
        # to the boundary, precomputed once per code.
        self._dist = dict(nx.all_pairs_shortest_path_length(self._spatial))
        boundary_lengths = nx.single_source_shortest_path_length(
            self._graph, BOUNDARY
        )
        # The same distances as arrays over check indices, inf where no
        # path leads: _match reads every event distance from them at once.
        num_checks = self._spatial.number_of_nodes()
        self._dist_table = np.full((num_checks, num_checks), np.inf)
        for c1, lengths in self._dist.items():
            self._dist_table[c1, list(lengths)] = list(lengths.values())
        self._boundary_table = np.full(num_checks, np.inf)
        for node, length in boundary_lengths.items():
            if node != BOUNDARY:
                self._boundary_table[node] = length
        self._paths: dict[tuple, tuple[list[int], float]] = {}

    # -- decoding -------------------------------------------------------------------

    def decode(self, history_or_events) -> MatchingResult:
        """Decode a :class:`SyndromeHistory` or a raw event list."""
        if isinstance(history_or_events, SyndromeHistory):
            check_decodable(history_or_events, self.code, self.error_type)
            events = history_or_events.detection_events
        else:
            events = list(history_or_events)
            for event in events:
                if event[1] not in self._dist:
                    raise DecodingError(
                        f"{self.code.name}: detection event {event} outside "
                        "the code"
                    )
            check_raw_events(self.code, events)
        n = self.code.num_data_qubits
        if not events:
            return MatchingResult(np.zeros(n, dtype=bool), [], 0.0)

        pairs = self._match(events)
        correction = np.zeros(n, dtype=bool)
        total = 0.0
        for event, partner in pairs:
            if partner is None:
                path_faults, cost = self._path_to_boundary(event[1])
            else:
                path_faults, cost = self._path_between(event[1], partner[1])
                cost += self.time_weight * abs(event[0] - partner[0])
            for fault in path_faults:
                correction[fault] ^= True
            total += cost
        return MatchingResult(correction, pairs, total)

    def _adjacency(
        self, events: list[DetectionEvent]
    ) -> dict[int, dict[int, float]]:
        """The matching graph over events and their boundary twins.

        Event nodes are 0..k-1 and boundary twins k..2k-1; an edge's weight
        is ``10_000`` minus its cost.  The matcher breaks ties by node and
        neighbour order, so nodes and neighbours are inserted in the order
        ``nx.Graph.add_edge(u, v)`` inserts them, edge by edge: for each
        ``i``, the event edge ``(i, j)`` (if finite) and the twin edge
        ``(k+i, k+j)`` for each ``j > i``, then the boundary edge
        ``(i, k+i)`` (if finite).
        """
        k = len(events)
        rounds = np.array([t for t, _ in events])
        checks = np.array([c for _, c in events], dtype=np.intp)
        big = 10_000.0
        # D[c_i, c_j] + time_weight * |t_i - t_j|: the same IEEE doubles as
        # the spatial path length plus the time term added pair by pair.
        spatial = self._dist_table[np.ix_(checks, checks)]
        elapsed = np.abs(rounds[:, None] - rounds[None, :])
        dist = spatial + self.time_weight * elapsed
        dist_rows = dist.tolist()
        weight_rows = (big - dist).tolist()
        boundary = self._boundary_table[checks]
        boundary_dists = boundary.tolist()
        boundary_weights = (big - boundary).tolist()
        inf = float("inf")
        twin_weight = big  # twin-twin edges cost nothing
        adj: dict[int, dict[int, float]] = {}
        node = adj.setdefault
        # Edge (u, v) inserts v under u, then u under v, as add_edge does.
        for i in range(k):
            dist_row, weight_row = dist_rows[i], weight_rows[i]
            twin = k + i
            for j in range(i + 1, k):
                if dist_row[j] < inf:
                    weight = weight_row[j]
                    node(i, {})[j] = weight
                    node(j, {})[i] = weight
                node(twin, {})[k + j] = twin_weight
                node(k + j, {})[twin] = twin_weight
            if boundary_dists[i] < inf:
                weight = boundary_weights[i]
                node(i, {})[twin] = weight
                node(twin, {})[i] = weight
        return adj

    def _match(
        self, events: list[DetectionEvent]
    ) -> list[tuple[DetectionEvent, DetectionEvent | None]]:
        k = len(events)
        matched = max_weight_matching(self._adjacency(events))
        if any(i not in matched for i in range(k)):
            raise DecodingError(
                f"{self.code.name}: matching left a detection event unpaired"
            )
        pairs: list[tuple[DetectionEvent, DetectionEvent | None]] = []
        seen: set[int] = set()
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

    # -- correction paths ---------------------------------------------------------

    def _path_between(self, c1: int, c2: int) -> tuple[list[int], float]:
        if c1 == c2:
            return [], 0.0
        return self._shortest_path(self._spatial, c1, c2)

    def _path_to_boundary(self, check: int) -> tuple[list[int], float]:
        return self._shortest_path(self._graph, check, BOUNDARY)

    def _shortest_path(self, graph: nx.Graph, a, b) -> tuple[list[int], float]:
        """Faults and length of ``nx.shortest_path(graph, a, b)``, found on
        first use per pair (``b`` is a check in the spatial graph, or the
        boundary in the full one)."""
        path = self._paths.get((a, b))
        if path is None:
            nodes = nx.shortest_path(graph, a, b)
            path = self._paths[a, b] = (
                self._faults_on(nodes),
                float(len(nodes) - 1),
            )
        return path

    def _faults_on(self, path: list) -> list[int]:
        faults = []
        for a, b in zip(path, path[1:]):
            faults.append(self._graph.edges[a, b]["fault"])
        return faults
