"""Minimum-weight perfect matching (MWPM) decoder.

The workhorse surface-code decoder (paper Fig. 2c: "we pass multiple faulty
syndromes into the decoder to get the required set of corrections").
Detection events from a multi-round syndrome history are matched pairwise —
or to the spatial boundary — with cost equal to their space-time separation;
the corrections are the data qubits along the spatial part of each matched
path.

Matching runs on a compact complete graph over the k events.  Events ``i``
and ``j`` are joined at cost ``min(d_ij, b_i + b_j)``: their space-time
distance, or the cost of sending both to the boundary.  One boundary node,
at cost ``b_i`` from event ``i``, is added only when k is odd.  The number
of events sent to the boundary always has k's parity, so this graph has the
same optimum cost as the textbook reduction (one boundary twin per event,
the twins joined at zero cost) with half the nodes.  A matched pair whose
boundary route is strictly cheaper decodes as two boundary matches; on a
tie the pair is matched directly.  The matcher, :mod:`repro.qec.blossom`,
is a port of networkx 3.6.1's blossom algorithm that takes this graph as a
plain dict, runs over int-indexed lists, and picks the same matching among
ties.
"""

from __future__ import annotations

from dataclasses import dataclass

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
from repro.utils.graphs import bfs, copied, shortest_path


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

    #: Bumped whenever a decode's output may change.  A memory experiment's
    #: cache key hashes it (:meth:`MemoryExperimentSpec.fingerprint`), so
    #: results an older version cached are not served.
    VERSION = 1

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
        # The checks alone, in a copy's neighbour order: correction paths
        # between checks are found here, paths to the boundary on _graph.
        self._spatial = copied(self._graph)
        for check in self._spatial.pop(BOUNDARY):
            del self._spatial[check][BOUNDARY]
        # All-pairs spatial distances among checks, and each check's distance
        # to the boundary, precomputed once per code.
        self._dist = {check: bfs(self._spatial, check) for check in self._spatial}
        boundary_lengths = bfs(self._graph, BOUNDARY)
        # The same distances as arrays over check indices, inf where no
        # path leads: _match reads every event distance from them at once.
        num_checks = len(self._spatial)
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
            check_raw_events(self.code, events)
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

    def _adjacency(
        self, events: list[DetectionEvent]
    ) -> tuple[dict[int, dict[int, float]], np.ndarray]:
        """The compact matching graph over the events, and its boundary mask.

        Event nodes are 0..k-1, and node k is the boundary when k is odd,
        at cost ``b_i`` from event ``i``.  Events ``i`` and ``j`` are joined
        at cost ``min(d_ij, b_i + b_j)``, where ``d_ij`` is their spatial
        distance plus ``time_weight`` per round between them; a pair with
        neither route finite gets no edge.  An edge's weight is ``10_000``
        minus its cost.  ``via_boundary[i, j]`` is true where the boundary
        route is strictly cheaper, so a tie matches the pair directly.
        """
        k = len(events)
        rounds = np.array([t for t, _ in events])
        checks = np.array([c for _, c in events], dtype=np.intp)
        big = 10_000.0
        # D[c_i, c_j] + time_weight * |t_i - t_j|: the same IEEE doubles as
        # the spatial path length plus the time term decode() adds per pair.
        spatial = self._dist_table[np.ix_(checks, checks)]
        elapsed = np.abs(rounds[:, None] - rounds[None, :])
        direct = spatial + self.time_weight * elapsed
        boundary = self._boundary_table[checks]
        both_out = boundary[:, None] + boundary[None, :]
        via_boundary = both_out < direct
        cost = np.minimum(direct, both_out)
        np.fill_diagonal(cost, np.inf)
        weight_rows = (big - cost).tolist()
        finite_rows = np.isfinite(cost).tolist()
        adj: dict[int, dict[int, float]] = {}
        for i in range(k):
            weights, finite = weight_rows[i], finite_rows[i]
            adj[i] = {j: weights[j] for j in range(k) if finite[j]}
        if k % 2:
            adj[k] = {}
            boundary_weights = (big - boundary).tolist()
            for i, reachable in enumerate(np.isfinite(boundary).tolist()):
                if reachable:
                    adj[i][k] = adj[k][i] = boundary_weights[i]
        return adj, via_boundary

    def _match(
        self, events: list[DetectionEvent]
    ) -> list[tuple[DetectionEvent, DetectionEvent | None]]:
        k = len(events)
        adj, via_boundary = self._adjacency(events)
        matched = max_weight_matching(adj)
        if any(i not in matched for i in range(k)):
            raise DecodingError(
                f"{self.code.name}: matching left a detection event unpaired"
            )
        pairs: list[tuple[DetectionEvent, DetectionEvent | None]] = []
        paired: set[int] = set()
        for i in range(k):
            if i in paired:
                continue
            j = matched[i]
            if j == k or via_boundary[i, j]:
                pairs.append((events[i], None))
            else:
                paired.add(j)
                pairs.append((events[i], events[j]))
        return pairs

    # -- correction paths ---------------------------------------------------------

    def _path_between(self, c1: int, c2: int) -> tuple[list[int], float]:
        if c1 == c2:
            return [], 0.0
        return self._shortest_path(self._spatial, c1, c2)

    def _path_to_boundary(self, check: int) -> tuple[list[int], float]:
        return self._shortest_path(self._graph, check, BOUNDARY)

    def _shortest_path(self, graph: dict, a, b) -> tuple[list[int], float]:
        """Faults and length of ``shortest_path(graph, a, b)``, found on
        first use per pair (``b`` is a check in the spatial graph, or the
        boundary in the full one)."""
        path = self._paths.get((a, b))
        if path is None:
            nodes = shortest_path(graph, a, b)
            path = self._paths[a, b] = (
                self._faults_on(nodes),
                float(len(nodes) - 1),
            )
        return path

    def _faults_on(self, path: list) -> list[int]:
        return [self._graph[a][b] for a, b in zip(path, path[1:])]
