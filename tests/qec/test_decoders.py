"""Decoder contracts: MWPM, union-find, lookup.

The central invariant for every decoder: *the correction clears the
syndrome*.  The quality metric (no logical flip) is tested statistically and
exhaustively for small weights.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DecodingError
from repro.qec.codes.base import CSSCode
from repro.qec.codes.repetition import RepetitionCode
from repro.qec.codes.steane import SteaneCode
from repro.qec.codes.surface import SurfaceCode
from repro.qec.lookup import LookupDecoder
from repro.qec.matching import MWPMDecoder
from repro.qec.syndrome import sample_memory
from repro.qec.unionfind import UnionFindDecoder
from tests.qec.reference_memory import mwpm_adjacency


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


class TestMWPMAdjacency:
    """The table-built matching graph equals the pair-by-pair builder."""

    @pytest.mark.parametrize("time_weight", [0.0, 0.5, 1.0, 2.0])
    @pytest.mark.parametrize(
        "code, error_type",
        [
            (SurfaceCode(3), "x"),
            (SurfaceCode(5), "z"),
            (RepetitionCode(5), "x"),
        ],
        ids=["surface-3-x", "surface-5-z", "repetition-5-x"],
    )
    def test_same_graph_in_the_same_order(self, code, error_type, time_weight):
        decoder = MWPMDecoder(code, error_type, time_weight=time_weight)
        rng = np.random.default_rng([code.distance, int(10 * time_weight)])
        built = 0
        for _ in range(40):
            history = sample_memory(code, code.distance, 0.08, 0.08, rng, error_type)
            events = history.detection_events
            if not events:
                continue
            live = decoder._adjacency(events)
            frozen = mwpm_adjacency(decoder, events)
            assert list(live) == list(frozen)
            for node, neighbours in frozen.items():
                assert list(live[node].items()) == list(neighbours.items())
                assert all(type(w) is float for w in live[node].values())
            built += 1
        assert built > 20

    def test_disconnected_checks_get_no_event_edge(self):
        # Two separate repetition codes side by side: checks of one never
        # reach the other, so their events share no edge.
        rep = RepetitionCode(3)
        zero = np.zeros_like(rep.hz)
        code = CSSCode(
            "two-reps",
            np.zeros((0, 6), dtype=bool),
            np.block([[rep.hz, zero], [zero, rep.hz]]),
            np.r_[rep.logical_x, np.zeros(3, dtype=bool)],
            np.r_[rep.logical_z, np.zeros(3, dtype=bool)],
            3,
        )
        decoder = MWPMDecoder(code, "x", time_weight=0.5)
        events = [(0, 0), (1, 2), (0, 3), (2, 1)]
        live = decoder._adjacency(events)
        frozen = mwpm_adjacency(decoder, events)
        assert list(live) == list(frozen)
        for node, neighbours in frozen.items():
            assert list(live[node].items()) == list(neighbours.items())
        assert list(live[0]) == [3, 4]  # check 1's event and the twin

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
