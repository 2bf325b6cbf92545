"""Decoder contracts: MWPM, union-find, lookup.

The central invariant for every decoder: *the correction clears the
syndrome*.  The quality metric (no logical flip) is tested statistically and
exhaustively for small weights.
"""

import itertools
import random

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DecodingError
from repro.qec.codes.base import BOUNDARY, CSSCode
from repro.qec.codes.repetition import RepetitionCode
from repro.qec.codes.steane import SteaneCode
from repro.qec.codes.surface import SurfaceCode
from repro.qec.lookup import LookupDecoder
from repro.qec.matching import MWPMDecoder
from repro.qec.syndrome import sample_memory
from repro.qec.unionfind import BOUNDARY_NODE, UnionFindDecoder, _peeling_forest
from repro.utils.graphs import add_edge, edges
from tests.qec.reference_memory import (
    decoder_graph,
    mwpm_adjacency,
    mwpm_distances,
)


def events_for(code, error_bits, error_type="x"):
    syndrome = code.syndrome(error_bits, error_type)
    return [(0, int(c)) for c in np.flatnonzero(syndrome)]


class TestMWPM:
    @pytest.mark.parametrize("d", [3, 5])
    def test_corrects_every_single_error(self, d):
        code = SurfaceCode(d)
        decoder = MWPMDecoder(code, "x")
        for q in range(code.num_data_qubits):
            error = np.zeros(code.num_data_qubits, dtype=bool)
            error[q] = True
            result = decoder.decode(events_for(code, error))
            residual = error ^ result.correction
            assert not code.syndrome(residual, "x").any()
            assert not code.logical_flipped(residual, "x"), q

    def test_corrects_every_weight2_error_d5(self):
        code = SurfaceCode(5)
        decoder = MWPMDecoder(code, "x")
        rng = np.random.default_rng(0)
        pairs = list(itertools.combinations(range(code.num_data_qubits), 2))
        for pair in rng.permutation(len(pairs))[:80]:
            error = np.zeros(code.num_data_qubits, dtype=bool)
            error[list(pairs[pair])] = True
            result = decoder.decode(events_for(code, error))
            residual = error ^ result.correction
            assert not code.syndrome(residual, "x").any()
            assert not code.logical_flipped(residual, "x"), pairs[pair]

    def test_empty_events_no_correction(self):
        code = SurfaceCode(3)
        result = MWPMDecoder(code, "x").decode([])
        assert not result.correction.any()
        assert result.weight == 0

    def test_z_error_decoding(self):
        code = SurfaceCode(3)
        decoder = MWPMDecoder(code, "z")
        error = np.zeros(9, dtype=bool)
        error[4] = True
        syndrome = code.syndrome(error, "z")
        result = decoder.decode([(0, int(c)) for c in np.flatnonzero(syndrome)])
        residual = error ^ result.correction
        assert not code.syndrome(residual, "z").any()

    def test_decode_accepts_history(self, rng):
        code = SurfaceCode(3)
        decoder = MWPMDecoder(code, "x")
        history = sample_memory(code, 3, 0.05, 0.05, rng)
        result = decoder.decode(history)
        residual = history.true_error ^ result.correction
        assert not code.syndrome(residual, "x").any()

    @given(seed=st.integers(min_value=0, max_value=5000))
    @settings(max_examples=40, deadline=None)
    def test_property_correction_clears_syndrome(self, seed):
        code = SurfaceCode(3)
        decoder = MWPMDecoder(code, "x")
        rng = np.random.default_rng(seed)
        history = sample_memory(code, 3, 0.06, 0.06, rng)
        result = decoder.decode(history)
        residual = history.true_error ^ result.correction
        assert not code.syndrome(residual, "x").any()

    def test_time_separated_events_matched(self):
        """Pure measurement error: one check fires in rounds t and t+1 diff.

        A measurement lie at round t creates detection events at (t, c) and
        (t+1, c); matching them together needs no data correction.
        """
        code = SurfaceCode(3)
        decoder = MWPMDecoder(code, "x")
        result = decoder.decode([(1, 0), (2, 0)])
        assert not result.correction.any()

    def test_repetition_code_majority_vote(self):
        code = RepetitionCode(5)
        decoder = MWPMDecoder(code, "x")
        error = np.array([True, True, False, False, False])
        result = decoder.decode(events_for(code, error))
        residual = error ^ result.correction
        assert not code.logical_flipped(residual, "x")

    @pytest.mark.parametrize("time_weight", [-1.0, float("nan"), float("inf")])
    def test_time_weight_must_be_finite_and_non_negative(self, time_weight):
        # -1.0 used to reward matching across time; nan and inf dropped the
        # time edges (inf * 0 the same-round pairs too).
        with pytest.raises(DecodingError, match="time_weight"):
            MWPMDecoder(SurfaceCode(5), "x", time_weight=time_weight)

    def test_zero_time_weight_makes_time_edges_free(self):
        decoder = MWPMDecoder(SurfaceCode(3), "x", time_weight=0.0)
        result = decoder.decode([(0, 0), (4, 0)])
        assert result.weight == 0.0
        assert not result.correction.any()

    def test_event_outside_the_code_rejected(self):
        decoder = MWPMDecoder(SurfaceCode(3), "x")
        with pytest.raises(DecodingError, match=r"event \(0, 99\) outside the code"):
            decoder.decode([(0, 0), (0, 99)])


class TestUnionFind:
    @pytest.mark.parametrize("d", [3, 5])
    def test_corrects_every_single_error(self, d):
        code = SurfaceCode(d)
        decoder = UnionFindDecoder(code, "x")
        for q in range(code.num_data_qubits):
            error = np.zeros(code.num_data_qubits, dtype=bool)
            error[q] = True
            result = decoder.decode(events_for(code, error), rounds=0)
            residual = error ^ result.correction
            assert not code.syndrome(residual, "x").any(), q
            assert not code.logical_flipped(residual, "x"), q

    @given(seed=st.integers(min_value=0, max_value=5000))
    @settings(max_examples=25, deadline=None)
    def test_property_correction_clears_syndrome(self, seed):
        code = SurfaceCode(3)
        decoder = UnionFindDecoder(code, "x")
        rng = np.random.default_rng(seed)
        history = sample_memory(code, 3, 0.05, 0.05, rng)
        result = decoder.decode(history)
        residual = history.true_error ^ result.correction
        assert not code.syndrome(residual, "x").any()

    def test_empty_events(self):
        code = SurfaceCode(3)
        result = UnionFindDecoder(code, "x").decode([], rounds=0)
        assert not result.correction.any()
        assert result.cluster_count == 0

    def test_pure_measurement_error_needs_no_data_correction(self):
        code = SurfaceCode(3)
        decoder = UnionFindDecoder(code, "x")
        result = decoder.decode([(1, 2), (2, 2)], rounds=3)
        assert not result.correction.any()

    @pytest.mark.parametrize("events", [[], [(0, 1), (1, 1)]])
    @pytest.mark.parametrize("rounds", [2.0, "2", True, -1])
    def test_rounds_other_than_a_whole_number_rejected(self, rounds, events):
        decoder = UnionFindDecoder(SurfaceCode(3), "x")
        with pytest.raises(DecodingError, match="rounds must be a whole number"):
            decoder.decode(events, rounds=rounds)
        assert decoder._graphs == {}  # refused before the graph is built

    @pytest.mark.parametrize("rounds", [0, 2, 3, 99])
    def test_history_rounds_must_match(self, rounds):
        """A history carries its own round count: ``rounds`` may restate it,
        and any other value is refused, not silently overridden."""
        code = SurfaceCode(3)
        decoder = UnionFindDecoder(code, "x")
        history = sample_memory(code, 3, 0.1, 0.1, np.random.default_rng(4))
        assert history.rounds == 3 and history.detection_events
        if rounds != history.rounds:
            with pytest.raises(DecodingError, match=f"rounds={rounds} .* 3 rounds"):
                decoder.decode(history, rounds=rounds)
            return
        restated = decoder.decode(history, rounds=rounds)
        default = decoder.decode(history)
        assert np.array_equal(restated.correction, default.correction)
        assert restated.cluster_count == default.cluster_count
        assert restated.num_growth_rounds == default.num_growth_rounds


def permuted(code: CSSCode, seed: int) -> CSSCode:
    """``code`` with its data qubits relabelled at random: the decoder graph
    gains its edges in another order, so neighbour orders are not sorted
    and a copy's can differ from the original's."""
    perm = np.random.default_rng(seed).permutation(code.num_data_qubits)
    return CSSCode(
        f"{code.name}-permuted", code.hx[:, perm], code.hz[:, perm],
        code.logical_x[perm], code.logical_z[perm], code.distance,
    )


class TestMWPMPaths:
    """Correction paths are networkx's shortest paths on the decoder graph
    networkx builds from the check matrix: between checks on a copy with
    the boundary removed, and to the boundary on the graph itself."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("error_type", ["x", "z"])
    def test_paths_match_networkx(self, error_type, seed):
        code = permuted(SurfaceCode(5), seed)
        graph = decoder_graph(code, error_type)
        spatial = graph.copy()
        spatial.remove_node(BOUNDARY)
        decoder = MWPMDecoder(code, error_type)

        def faults(path):
            return [graph.edges[u, v]["fault"] for u, v in zip(path, path[1:])]

        for a in spatial:
            path = nx.shortest_path(graph, a, BOUNDARY)
            assert decoder._path_to_boundary(a) == (faults(path), len(path) - 1)
            for b in spatial:
                if a != b:
                    path = nx.shortest_path(spatial, a, b)
                    assert decoder._path_between(a, b) == (
                        faults(path), len(path) - 1
                    )


class TestUnionFindOrder:
    """A decode depends on the events, not on the order they are listed in,
    and the one-pass peel gives the correction that stripping the same
    forest's leaves a layer at a time gives."""

    @pytest.mark.parametrize("distance", [5, 7])
    @pytest.mark.parametrize("error_type", ["x", "z"])
    def test_shuffled_events_decode_alike(self, distance, error_type):
        code = SurfaceCode(distance)
        decoder = UnionFindDecoder(code, error_type)
        checks = code.num_z_checks if error_type == "x" else code.num_x_checks
        candidates = [(t, c) for t in range(4) for c in range(checks)]
        rng = random.Random(distance)
        for _ in range(20):
            events = rng.sample(candidates, rng.randint(2, 30))
            results = set()
            for _ in range(4):
                rng.shuffle(events)
                result = decoder.decode(events, rounds=3)
                results.add((
                    tuple(result.correction.nonzero()[0].tolist()),
                    result.num_growth_rounds,
                    result.cluster_count,
                ))
            assert len(results) == 1, events

    def test_one_pass_peel_matches_leaf_stripping(self):
        # Each erasure is a random edge subset of a surface-5 space-time
        # graph, added in shuffled order and orientation, with random marks:
        # nearly all hold several trees, and most one rooted at the boundary.
        decoder = UnionFindDecoder(SurfaceCode(5), "x")
        graph = decoder._build_graph(3)
        space_time_edges = list(edges(graph))
        rng = random.Random(11)
        with_boundary = 0
        for _ in range(300):
            erasure: dict = {}
            for u, v, fault in rng.sample(space_time_edges, rng.randint(1, 40)):
                if rng.random() < 0.5:
                    u, v = v, u
                add_edge(erasure, u, v, fault)
            defects = rng.sample(list(erasure), rng.randint(0, len(erasure)))
            forest = _peeling_forest(erasure)
            with_boundary += BOUNDARY_NODE in forest  # then a root
            expected = strip_leaves(forest, defects, decoder.code.num_data_qubits)
            assert np.array_equal(decoder._peel(erasure, defects), expected)
        assert with_boundary > 100


def strip_leaves(forest: dict, defects: list, num_qubits: int) -> np.ndarray:
    """The peel union-find used before the one-pass walk: on each tree of
    ``forest``, strip every leaf but the root, a layer at a time; a marked
    leaf flips its edge and hands its mark to its neighbour."""
    correction = np.zeros(num_qubits, dtype=bool)
    trees: dict = {}  # root -> the tree's adjacency dict
    root_of: dict = {}
    for node, edge in forest.items():
        if edge is None:
            root_of[node] = node
            trees[node] = {node: {}}
        else:
            parent, fault = edge
            root_of[node] = root_of[parent]
            add_edge(trees[root_of[node]], parent, node, fault)
    marked = {node: (node in defects) for node in forest}
    for root, tree in trees.items():
        while len(tree) > 1:
            leaves = [
                v for v, nbrs in tree.items() if len(nbrs) == 1 and v != root
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


def _mirrored(code):
    """A code with ``code``'s check shapes but its checks in reverse order."""
    return CSSCode(
        f"{code.name}-mirrored", code.hx[::-1], code.hz[::-1],
        code.logical_x, code.logical_z, code.distance,
    )


@pytest.mark.parametrize("decoder_cls", [MWPMDecoder, UnionFindDecoder])
class TestForeignHistories:
    """A decoder refuses a history it would silently decode wrong."""

    def test_other_error_type_rejected(self, decoder_cls):
        code = SurfaceCode(5)
        history = sample_memory(code, 5, 0.03, 0.03, np.random.default_rng(3), "x")
        assert history.detection_events
        with pytest.raises(DecodingError, match="history of 'x' errors"):
            decoder_cls(code, "z").decode(history)

    def test_code_with_other_checks_rejected(self, decoder_cls):
        code = SurfaceCode(3)
        other = _mirrored(code)
        history = sample_memory(other, 3, 0.05, 0.05, np.random.default_rng(4), "x")
        with pytest.raises(DecodingError, match="surface-3-mirrored"):
            decoder_cls(code, "x").decode(history)

    def test_equal_codes_decode_each_others_histories(self, decoder_cls):
        ours, theirs = SurfaceCode(3), SurfaceCode(3)
        assert ours is not theirs
        history = sample_memory(theirs, 3, 0.05, 0.05, np.random.default_rng(5), "x")
        assert history.detection_events
        result = decoder_cls(ours, "x").decode(history)
        residual = history.true_error ^ result.correction
        assert not ours.syndrome(residual, "x").any()


@pytest.mark.parametrize("decoder_cls", [MWPMDecoder, UnionFindDecoder])
class TestRawEventLists:
    """Raw event lists no SyndromeHistory holds are refused by both decoders."""

    def decode(self, decoder_cls, events):
        decoder = decoder_cls(SurfaceCode(3), "x")
        if decoder_cls is UnionFindDecoder:
            return decoder.decode(events, rounds=2)
        return decoder.decode(events)

    @pytest.mark.parametrize(
        "events", [[(0, 1), (0, 1)], [(0, 1), (1, 2), (0, 1), (2, 2)]]
    )
    def test_repeated_event_rejected(self, decoder_cls, events):
        with pytest.raises(DecodingError, match=r"\(0, 1\) is listed twice"):
            self.decode(decoder_cls, events)

    @pytest.mark.parametrize("events", [[(-3, 0), (2, 1)], [(0, 1), (-1, 1)]])
    def test_negative_round_rejected(self, decoder_cls, events):
        with pytest.raises(DecodingError, match="negative round"):
            self.decode(decoder_cls, events)

    def test_distinct_events_still_decode(self, decoder_cls):
        result = self.decode(decoder_cls, [(0, 1), (1, 1)])
        assert not result.correction.any()

    @pytest.mark.parametrize(
        "events, what",
        [
            ([(0.5, 0), (1, 0)], "round"),
            ([(True, 0), (2, 1)], "round"),
            ([(float("nan"), 0), (1, 0)], "round"),
            ([(0, 1.0), (1, 1)], "check"),
            ([(0, 1), (1, False)], "check"),
        ],
        ids=["half-round", "bool-round", "nan-round", "float-check", "bool-check"],
    )
    def test_non_integer_event_rejected(self, decoder_cls, events, what):
        with pytest.raises(DecodingError, match=f"has a {what} that is not an integer"):
            self.decode(decoder_cls, events)

    @pytest.mark.parametrize("events", [[(0, 0, 0)], [(0, 1), (1,)], [7]])
    def test_event_that_is_not_a_pair_rejected(self, decoder_cls, events):
        with pytest.raises(DecodingError, match=r"is not a \(round, check\) pair"):
            self.decode(decoder_cls, events)

    def test_outside_event_is_checked_after_its_type(self, decoder_cls):
        # (0.5, 99) is outside the code too; the type is what is wrong.
        with pytest.raises(DecodingError, match="round that is not an integer"):
            self.decode(decoder_cls, [(0.5, 99), (1, 0)])

    def test_numpy_integer_events_decode_like_ints(self, decoder_cls):
        events = [(0, 1), (1, 1), (1, 3), (2, 2)]
        numpy_events = [(np.int64(t), np.int32(c)) for t, c in events]
        expected = self.decode(decoder_cls, events)
        result = self.decode(decoder_cls, numpy_events)
        assert np.array_equal(result.correction, expected.correction)


#: Edge weights are this minus the edge's cost, in both matching graphs.
BIG = 10_000.0


def networkx_optimum(decoder: MWPMDecoder, events) -> float:
    """The minimum matching cost networkx finds on the frozen twin graph
    (one boundary twin per event, the twins joined at zero cost)."""
    graph = nx.Graph()
    for u, neighbours in mwpm_adjacency(decoder, events).items():
        for v, weight in neighbours.items():
            graph.add_edge(u, v, weight=weight)
    matching = nx.max_weight_matching(graph, maxcardinality=True)
    assert len(matching) == len(events), "twin graph has no perfect matching"
    return sum(BIG - graph.edges[u, v]["weight"] for u, v in matching)


DECODE_CASES = pytest.mark.parametrize(
    "code, error_type, shots",
    [
        (SurfaceCode(3), "x", 60),
        (SurfaceCode(3), "z", 60),
        (SurfaceCode(5), "x", 25),
        (SurfaceCode(5), "z", 25),
        (RepetitionCode(5), "x", 60),
    ],
    ids=[
        "surface-3-x", "surface-3-z", "surface-5-x", "surface-5-z",
        "repetition-5-x",
    ],
)
TIME_WEIGHTS = pytest.mark.parametrize("time_weight", [0.0, 0.5, 1.0, 2.0])


class TestMWPMOptimum:
    """MWPM is checked by optimum cost, not pair by pair.

    Among matchings of equal cost the compact graph and the twin graph may
    pick different ones, so the reference is networkx's optimum cost on the
    frozen twin graph, and each decode must pair every event and clear the
    syndrome.
    """

    @TIME_WEIGHTS
    @DECODE_CASES
    def test_every_decode_reaches_the_optimum(
        self, code, error_type, shots, time_weight
    ):
        decoder = MWPMDecoder(code, error_type, time_weight=time_weight)
        rng = np.random.default_rng(
            [code.distance, int(10 * time_weight), error_type == "z"]
        )
        decoded = 0
        for _ in range(shots):
            history = sample_memory(code, code.distance, 0.1, 0.1, rng, error_type)
            events = history.detection_events
            if not events:
                continue
            result = decoder.decode(history)
            paired = [
                e for pair in result.matched_pairs for e in pair if e is not None
            ]
            assert sorted(paired) == sorted(events)
            assert result.weight == pytest.approx(
                networkx_optimum(decoder, events), abs=1e-9
            )
            residual = history.true_error ^ result.correction
            assert not code.syndrome(residual, error_type).any()
            decoded += 1
        assert decoded > shots // 2


def ring_beside_repetition() -> CSSCode:
    """Checks 0-2 close a ring, which never reaches the boundary; checks 3-4
    are a repetition code's, which do.  No path joins the two parts."""
    ring = np.array([[1, 1, 0], [0, 1, 1], [1, 0, 1]], dtype=bool)
    rep = RepetitionCode(3).hz
    return CSSCode(
        "ring-and-rep",
        np.zeros((0, 6), dtype=bool),
        np.block([[ring, np.zeros((3, 3), dtype=bool)],
                  [np.zeros((2, 3), dtype=bool), rep]]),
        np.r_[np.ones(3, dtype=bool), np.zeros(3, dtype=bool)],
        np.r_[True, np.zeros(5, dtype=bool)],
        2,
    )


class TestMWPMAdjacency:
    """The compact matching graph: k event nodes plus a boundary node only
    when k is odd, each pair at the cheaper of its two routes."""

    @TIME_WEIGHTS
    @pytest.mark.parametrize(
        "code, error_type",
        [(SurfaceCode(5), "z"), (RepetitionCode(5), "x"),
         (ring_beside_repetition(), "x")],
        ids=["surface-5-z", "repetition-5-x", "ring-and-rep-x"],
    )
    def test_nodes_and_costs(self, code, error_type, time_weight):
        decoder = MWPMDecoder(code, error_type, time_weight=time_weight)
        event_distance, boundary_distance = mwpm_distances(decoder)
        num_checks = code.num_z_checks if error_type == "x" else code.num_x_checks
        candidates = [(t, c) for t in range(4) for c in range(num_checks)]
        rng = random.Random(code.distance)
        for k in range(1, 10):
            events = sorted(rng.sample(candidates, k))
            adj, via_boundary = decoder._adjacency(events)
            assert list(adj) == list(range(k + k % 2))
            for i, a in enumerate(events):
                expected = {}
                for j, b in enumerate(events):
                    direct = event_distance(a, b)
                    both_out = boundary_distance(a) + boundary_distance(b)
                    if j != i and min(direct, both_out) < float("inf"):
                        expected[j] = BIG - min(direct, both_out)
                    assert via_boundary[i, j] == (both_out < direct)
                if k % 2 and boundary_distance(a) < float("inf"):
                    expected[k] = BIG - boundary_distance(a)
                    assert adj[k][i] == expected[k]
                assert adj[i] == expected
                assert all(type(w) is float for w in adj[i].values())
            if k % 2:
                assert list(adj[k]) == [
                    i for i, a in enumerate(events)
                    if boundary_distance(a) < float("inf")
                ]

    def test_no_edge_where_neither_route_is_finite(self):
        decoder = MWPMDecoder(ring_beside_repetition(), "x")
        # Nodes 0, 2, 4 sit on the ring, nodes 1 and 3 on the repetition code.
        events = [(0, 0), (0, 3), (1, 1), (2, 4), (2, 2)]
        adj, _ = decoder._adjacency(events)
        assert sorted(adj[0]) == [2, 4]
        assert sorted(adj[1]) == [3, 5]
        assert sorted(adj[5]) == [1, 3]
        with pytest.raises(DecodingError, match="unpaired"):
            decoder.decode(events)
        pairs = decoder.decode(events[:2] + events[3:]).matched_pairs
        # The repetition events are 1 + 1 from the boundary, and 1 + 2
        # apart in space and time.
        assert pairs == [((0, 0), (2, 2)), ((0, 3), None), ((2, 4), None)]

    def test_a_tie_matches_the_pair_directly(self):
        # Check 0 of a repetition code is one edge from the boundary.  Two
        # events there, one round apart, cost 2 matched directly at
        # time_weight 2 and 1 + 1 sent to the boundary: a tie.  At 2.5 the
        # boundary route is strictly cheaper.
        events = [(0, 0), (1, 0)]
        tied = MWPMDecoder(RepetitionCode(5), "x", time_weight=2.0).decode(events)
        assert tied.matched_pairs == [((0, 0), (1, 0))]
        assert tied.weight == 2.0
        apart = MWPMDecoder(RepetitionCode(5), "x", time_weight=2.5).decode(events)
        assert apart.matched_pairs == [((0, 0), None), ((1, 0), None)]
        assert apart.weight == 2.0
        assert not tied.correction.any() and not apart.correction.any()

    def test_correction_paths_are_found_once(self):
        code = SurfaceCode(5)
        decoder = MWPMDecoder(code, "x")
        first = decoder._path_between(0, 7)
        assert decoder._path_between(0, 7) is first
        boundary = decoder._path_to_boundary(3)
        assert decoder._path_to_boundary(3) is boundary
        assert decoder._path_between(4, 4) == ([], 0.0)


class TestLookup:
    def test_steane_corrects_all_single_errors(self):
        code = SteaneCode()
        decoder = LookupDecoder(code, "x")
        for q in range(7):
            error = np.zeros(7, dtype=bool)
            error[q] = True
            correction = decoder.decode(code.syndrome(error, "x"))
            assert (correction == error).all()

    def test_repetition_majority(self):
        code = RepetitionCode(5)
        decoder = LookupDecoder(code, "x")
        error = np.array([True, False, True, False, False])
        correction = decoder.decode(code.syndrome(error, "x"))
        residual = error ^ correction
        assert not code.syndrome(residual, "x").any()
        assert not code.logical_flipped(residual, "x")

    def test_strict_raises_outside_radius(self):
        code = RepetitionCode(3)
        decoder = LookupDecoder(code, "x", max_weight=0)
        with pytest.raises(DecodingError):
            decoder.decode(np.array([True, False]))

    def test_lenient_returns_zero(self):
        code = RepetitionCode(3)
        decoder = LookupDecoder(code, "x", max_weight=0, strict=False)
        assert not decoder.decode(np.array([True, False])).any()

    def test_no_checks_rejected(self):
        with pytest.raises(DecodingError):
            LookupDecoder(RepetitionCode(3), "z")

    def test_table_size_reasonable(self):
        decoder = LookupDecoder(SteaneCode(), "x")
        assert decoder.table_size == 8  # trivial + 7 single errors


class TestDecoderAgreement:
    def test_mwpm_and_unionfind_agree_on_logical_rate_regime(self):
        """Both decoders keep the logical error rate far below physical."""
        from repro.qec.experiments import logical_error_rate

        code = SurfaceCode(3)
        p = 0.01
        mwpm = logical_error_rate(
            code, MWPMDecoder(code, "x"), rounds=3, p_data=p, shots=150, seed=5
        )
        uf = logical_error_rate(
            code, UnionFindDecoder(code, "x"), rounds=3, p_data=p, shots=150, seed=5
        )
        assert mwpm.logical_error_rate < 0.1
        assert uf.logical_error_rate < 0.15
