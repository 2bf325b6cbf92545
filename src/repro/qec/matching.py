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
from repro.qec.syndrome import DetectionEvent, SyndromeHistory, check_decodable


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
        self._boundary_dist = {
            node: length
            for node, length in boundary_lengths.items()
            if node != BOUNDARY
        }

    # -- distances ---------------------------------------------------------------

    def _event_distance(self, a: DetectionEvent, b: DetectionEvent) -> float:
        (t1, c1), (t2, c2) = a, b
        spatial = self._dist.get(c1, {}).get(c2)
        if spatial is None:
            return float("inf")
        return spatial + self.time_weight * abs(t1 - t2)

    def _boundary_distance(self, event: DetectionEvent) -> float:
        dist = self._boundary_dist.get(event[1])
        return float("inf") if dist is None else float(dist)

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

    def _match(
        self, events: list[DetectionEvent]
    ) -> list[tuple[DetectionEvent, DetectionEvent | None]]:
        k = len(events)
        # Event nodes 0..k-1; boundary twins k..2k-1.  The matcher breaks
        # ties by node and neighbour order, so nodes and neighbours are
        # inserted in the order nx.Graph.add_edge(u, v) inserts them.
        adj: dict[int, dict[int, float]] = {}

        def add_edge(u: int, v: int, weight: float) -> None:
            adj.setdefault(u, {})[v] = weight
            adj.setdefault(v, {})[u] = weight

        big = 10_000.0
        for i in range(k):
            for j in range(i + 1, k):
                dist = self._event_distance(events[i], events[j])
                if np.isfinite(dist):
                    add_edge(i, j, big - dist)
                dist_b = 0.0  # twin-twin edges are free
                add_edge(k + i, k + j, big - dist_b)
            bdist = self._boundary_distance(events[i])
            if np.isfinite(bdist):
                add_edge(i, k + i, big - bdist)
        matched = max_weight_matching(adj)
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
        path = nx.shortest_path(self._spatial, c1, c2)
        return self._faults_on(path), float(len(path) - 1)

    def _path_to_boundary(self, check: int) -> tuple[list[int], float]:
        path = nx.shortest_path(self._graph, check, BOUNDARY)
        return self._faults_on(path), float(len(path) - 1)

    def _faults_on(self, path: list) -> list[int]:
        faults = []
        for a, b in zip(path, path[1:]):
            faults.append(self._graph.edges[a, b]["fault"])
        return faults
