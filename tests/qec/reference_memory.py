"""The per-shot memory-experiment loop, frozen as the parity reference.

``repro.qec.syndrome.sample_memory_block`` samples and
``repro.qec.experiments._score_shots`` scores memory-experiment shots as
arrays.  This is the loop they replaced, kept verbatim: ``sample_memory``
draws each round's data flips and readout lies with two ``random`` calls
and builds the history one round at a time, and ``score_shots`` samples,
decodes and scores one shot at a time, decoding every history, empty or
not.  The live sampler and scorer were built to match those two bit for
bit, and the parity tests hold them to it.

``mwpm_adjacency`` is the twin graph ``MWPMDecoder`` once matched on: the k
events, one boundary twin per event, and the twins joined at zero cost,
built pair by pair from distances looked up per pair.  The decoder now
matches a compact graph with the same optimum cost that may break ties
differently, so the tests compare each decode's cost with networkx's
optimum on this graph, not its pairs.  ``decoder_graph`` builds the
decoder graph with networkx from the code's check matrix, so the reference
reads nothing of the decoder but its code, error type and time weight.  Do
not edit these functions to follow the live code: a difference between the
two is a finding.
"""

from __future__ import annotations

import networkx as nx
import numpy as np

from repro.errors import QECError
from repro.qec.codes.base import BOUNDARY, CSSCode
from repro.qec.syndrome import DetectionEvent, SyndromeHistory, memory_shot_rng


def sample_memory(
    code: CSSCode,
    rounds: int,
    p_data: float,
    p_meas: float,
    rng: np.random.Generator,
    error_type: str = "x",
) -> SyndromeHistory:
    """Sample one phenomenological memory-experiment shot.

    Each of ``rounds`` noisy rounds: i.i.d. data errors then a noisy readout
    of every check.  A final perfect readout round is appended so all
    detection events are matchable (the usual memory-experiment convention).
    """
    if rounds < 1:
        raise QECError(f"memory experiment needs >= 1 round, got {rounds}")
    if not (0 <= p_data <= 1 and 0 <= p_meas <= 1):
        raise QECError("error probabilities must be in [0, 1]")
    if error_type not in ("x", "z"):
        raise QECError(f"error_type must be 'x' or 'z', got '{error_type}'")
    checks = code.hz if error_type == "x" else code.hx
    num_checks, n = checks.shape
    error = np.zeros(n, dtype=bool)
    measured = np.zeros((rounds + 1, num_checks), dtype=bool)
    injected: list[list[int]] = []
    meas_flips: list[list[int]] = []
    for t in range(rounds):
        flips = rng.random(n) < p_data
        error ^= flips
        injected.append(np.flatnonzero(flips).tolist())
        true_syndrome = (checks.astype(int) @ error.astype(int)) % 2 == 1
        lies = rng.random(num_checks) < p_meas
        meas_flips.append(np.flatnonzero(lies).tolist())
        measured[t] = true_syndrome ^ lies
    # Perfect final round.
    measured[rounds] = (checks.astype(int) @ error.astype(int)) % 2 == 1
    events: list[DetectionEvent] = []
    previous = np.zeros(num_checks, dtype=bool)
    for t in range(rounds + 1):
        changed = measured[t] ^ previous
        events.extend((t, int(c)) for c in np.flatnonzero(changed))
        previous = measured[t]
    return SyndromeHistory(
        code=code,
        error_type=error_type,
        rounds=rounds,
        syndromes=measured,
        detection_events=events,
        true_error=error,
        injected=injected,
        measurement_flips=meas_flips,
    )


def score_shots(
    code: CSSCode,
    decoder,
    rounds: int,
    p_data: float,
    p_meas: float,
    error_type: str,
    shots: int,
    seed: int | None,
) -> list[bool]:
    """Sample, decode and score each memory-experiment shot, in shot order.

    ``True`` marks a logical failure.  Shot ``i`` draws from
    :func:`memory_shot_rng` of ``seed``, the experiment's knobs and ``i``,
    so no shot's outcome depends on another's; ``seed=None`` shares one
    fresh-entropy generator across the shots.
    """
    entropy = np.random.default_rng() if seed is None else None
    failed: list[bool] = []
    for shot in range(shots):
        if entropy is not None:
            rng = entropy
        else:
            rng = memory_shot_rng(seed, code, rounds, p_data, p_meas, shot)
        history = sample_memory(code, rounds, p_data, p_meas, rng, error_type)
        residual = history.true_error ^ decoder.decode(history).correction
        failed.append(code.logical_flipped(residual, error_type))
    return failed


def decoder_graph(code: CSSCode, error_type: str) -> nx.Graph:
    """The decoder graph of one error type, built with networkx from the
    check matrix: the boundary, then each check, then one edge per data
    qubit (attribute ``fault``), between the two checks that see it or
    from its one check to the boundary."""
    checks = code.hz if error_type == "x" else code.hx
    graph = nx.Graph()
    graph.add_node(BOUNDARY)
    graph.add_nodes_from(range(checks.shape[0]))
    for qubit in range(checks.shape[1]):
        touching = [int(c) for c in np.flatnonzero(checks[:, qubit])]
        if len(touching) == 1:
            graph.add_edge(touching[0], BOUNDARY, fault=qubit)
        elif len(touching) == 2:
            graph.add_edge(*touching, fault=qubit)
    return graph


def mwpm_distances(decoder):
    """``(event_distance, boundary_distance)`` as the decoder computed them
    per pair: shortest-path lengths on :func:`decoder_graph` of its code
    and error type."""
    graph = decoder_graph(decoder.code, decoder.error_type)
    spatial = graph.copy()
    spatial.remove_node(BOUNDARY)
    dist = dict(nx.all_pairs_shortest_path_length(spatial))
    boundary_lengths = nx.single_source_shortest_path_length(graph, BOUNDARY)
    boundary_dist = {
        node: length
        for node, length in boundary_lengths.items()
        if node != BOUNDARY
    }

    def event_distance(a: DetectionEvent, b: DetectionEvent) -> float:
        (t1, c1), (t2, c2) = a, b
        spatial = dist.get(c1, {}).get(c2)
        if spatial is None:
            return float("inf")
        return spatial + decoder.time_weight * abs(t1 - t2)

    def boundary_distance(event: DetectionEvent) -> float:
        length = boundary_dist.get(event[1])
        return float("inf") if length is None else float(length)

    return event_distance, boundary_distance


def mwpm_adjacency(decoder, events: list[DetectionEvent]) -> dict:
    """The twin matching graph, built pair by pair."""
    event_distance, boundary_distance = mwpm_distances(decoder)
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
            dist = event_distance(events[i], events[j])
            if np.isfinite(dist):
                add_edge(i, j, big - dist)
            dist_b = 0.0  # twin-twin edges are free
            add_edge(k + i, k + j, big - dist_b)
        bdist = boundary_distance(events[i])
        if np.isfinite(bdist):
            add_edge(i, k + i, big - bdist)
    return adj
