"""Memory-experiment shots as arrays: the block sampler and block scoring.

The frozen per-shot loop in ``tests/qec/reference_memory.py`` is the
reference: the block sampler must reproduce its histories field by field,
and ``_score_shots`` its failure list shot by shot.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DecodingError
from repro.experiments import ablations, figure2
from repro.qec import experiments, syndrome
from repro.qec.codes.repetition import RepetitionCode
from repro.qec.codes.surface import SurfaceCode
from repro.qec.experiments import _score_shots, logical_error_rate
from repro.qec.lookup import LookupDecoder
from repro.qec.matching import MWPMDecoder
from repro.qec.syndrome import memory_blocks, sample_memory, sample_memory_block
from repro.qec.unionfind import UnionFindDecoder
from repro.quantum.execution import ExecutionService
from repro.utils.graphs import edges
from repro.utils.rng import derive_rng
from tests.qec import reference_memory

CODES = {
    "surface-3": SurfaceCode(3),
    "surface-5": SurfaceCode(5),
    "repetition-5": RepetitionCode(5),
}


def assert_same_history(live, frozen):
    assert live.detection_events == frozen.detection_events
    assert all(type(x) is int for event in live.detection_events for x in event)
    for name in ("syndromes", "true_error"):
        a, b = getattr(live, name), getattr(frozen, name)
        assert a.dtype == b.dtype and a.shape == b.shape
        assert np.array_equal(a, b), name
    assert (live.code, live.error_type, live.rounds) == (
        frozen.code, frozen.error_type, frozen.rounds,
    )


memory_cases = st.tuples(
    st.sampled_from(sorted(CODES)),
    st.sampled_from(["x", "z"]),
    st.integers(min_value=1, max_value=5),
    st.floats(min_value=0.0, max_value=0.15),
    st.floats(min_value=0.0, max_value=0.15),
    st.integers(min_value=0, max_value=2**32 - 1),
)


class TestBlockSampler:
    @given(case=memory_cases)
    @settings(max_examples=150, deadline=None)
    def test_one_shot_view_matches_frozen_loop(self, case):
        name, error_type, rounds, p_data, p_meas, seed = case
        code = CODES[name]
        args = (code, rounds, p_data, p_meas)
        live = sample_memory(*args, np.random.default_rng(seed), error_type)
        frozen = reference_memory.sample_memory(
            *args, np.random.default_rng(seed), error_type
        )
        assert_same_history(live, frozen)
        assert live.injected == frozen.injected
        assert live.measurement_flips == frozen.measurement_flips

    @given(case=memory_cases, shots=st.integers(min_value=1, max_value=12))
    @settings(max_examples=60, deadline=None)
    def test_block_matches_frozen_loop_shot_by_shot(self, case, shots):
        name, error_type, rounds, p_data, p_meas, seed = case
        code = CODES[name]
        args = (code, rounds, p_data, p_meas)
        block = sample_memory_block(
            *args,
            [np.random.default_rng([seed, shot]) for shot in range(shots)],
            error_type,
        )
        assert len(block) == shots
        for shot in range(shots):
            frozen = reference_memory.sample_memory(
                *args, np.random.default_rng([seed, shot]), error_type
            )
            assert_same_history(block.history(shot), frozen)
            injected = [np.flatnonzero(r).tolist() for r in block.flips[shot]]
            lies = [np.flatnonzero(r).tolist() for r in block.lies[shot]]
            assert injected == frozen.injected
            assert lies == frozen.measurement_flips
        eventful = [s for s in range(shots) if block.history(s).detection_events]
        assert block.eventful() == eventful

    def test_shared_generator_serves_shots_in_turn(self):
        code = SurfaceCode(3)
        shared = np.random.default_rng(4)
        block = sample_memory_block(code, 3, 0.1, 0.1, [shared] * 5, "x")
        again = np.random.default_rng(4)
        for shot in range(5):
            frozen = reference_memory.sample_memory(code, 3, 0.1, 0.1, again, "x")
            assert_same_history(block.history(shot), frozen)

    def test_scored_histories_carry_no_answer_key(self):
        block = sample_memory_block(
            SurfaceCode(3), 2, 0.2, 0.2, [np.random.default_rng(1)], "x"
        )
        history = block.history(0)
        assert history.injected == [] and history.measurement_flips == []

    def test_blocks_respect_the_byte_cap(self, monkeypatch):
        code = SurfaceCode(3)
        per_shot = 8 * 2 * (code.num_data_qubits + code.num_z_checks)
        monkeypatch.setattr(syndrome, "BLOCK_BYTES", 3 * per_shot + 1)
        made = []

        def rngs():
            for shot in range(10):
                made.append(shot)
                yield np.random.default_rng(shot)

        blocks = memory_blocks(code, 2, 0.05, 0.05, rngs(), "x")
        first = next(blocks)
        assert len(first) == 3 and len(made) == 3  # consumed block by block
        assert [len(block) for block in blocks] == [3, 3, 1]

    def test_zero_shots_make_no_block(self):
        assert list(memory_blocks(SurfaceCode(3), 2, 0.1, 0.1, [], "x")) == []


def _decoders(code, error_type):
    return [
        MWPMDecoder(code, error_type),
        MWPMDecoder(code, error_type, time_weight=0.5),
        UnionFindDecoder(code, error_type),
    ]


class TestScoreShots:
    @pytest.mark.parametrize("name", sorted(CODES))
    @pytest.mark.parametrize("error_type", ["x", "z"])
    @pytest.mark.parametrize("rounds, p", [(1, 0.08), (3, 0.02), (3, 0.15)])
    def test_matches_frozen_loop(self, name, error_type, rounds, p):
        code = CODES[name]
        for decoder in _decoders(code, error_type):
            args = (code, decoder, rounds, p, p, error_type, 40, 11)
            assert _score_shots(*args) == reference_memory.score_shots(*args)

    def test_unseeded_run_matches_frozen_loop(self, monkeypatch):
        real = np.random.default_rng

        def seeded(*args):
            return real(*args) if args else real(2024)

        monkeypatch.setattr(np.random, "default_rng", seeded)
        code = SurfaceCode(3)
        for decoder in _decoders(code, "x"):
            args = (code, decoder, 3, 0.06, 0.06, "x", 60, None)
            live = _score_shots(*args)
            assert live == reference_memory.score_shots(*args)
            assert any(live)

    def test_shots_spanning_several_blocks_match(self, monkeypatch):
        code = SurfaceCode(3)
        per_shot = 8 * 3 * (code.num_data_qubits + code.num_z_checks)
        monkeypatch.setattr(syndrome, "BLOCK_BYTES", 7 * per_shot)
        sizes = []

        def counting(*args):
            for block in memory_blocks(*args):
                sizes.append(len(block))
                yield block

        monkeypatch.setattr(experiments, "memory_blocks", counting)
        for decoder in (MWPMDecoder(code, "x"), UnionFindDecoder(code, "x")):
            sizes.clear()
            args = (code, decoder, 3, 0.08, 0.08, "x", 45, 5)
            assert _score_shots(*args) == reference_memory.score_shots(*args)
            assert sizes == [7] * 6 + [3]

    @pytest.mark.parametrize("kind", [MWPMDecoder, UnionFindDecoder])
    def test_mismatched_decoder_refused_with_no_events(self, kind):
        # At p = 0 every history is empty and no decode runs, yet the
        # decoder of another code must still be refused.
        with pytest.raises(DecodingError, match="checks differ"):
            logical_error_rate(
                SurfaceCode(3), kind(RepetitionCode(3), "x"), 2, 0.0,
                shots=20, seed=1,
            )
        code = SurfaceCode(3)
        with pytest.raises(DecodingError, match="history of 'x' errors"):
            logical_error_rate(
                code, kind(code, "z"), 2, 0.0, shots=20, seed=1, error_type="x"
            )

    def test_custom_decoder_gets_every_shot(self):
        code = SurfaceCode(3)

        class Counting:
            def __init__(self):
                self.inner = MWPMDecoder(code, "x")
                self.calls = 0

            def decode(self, history):
                self.calls += 1
                return self.inner.decode(history)

        decoder = Counting()
        result = logical_error_rate(code, decoder, 2, 0.01, shots=50, seed=3)
        assert decoder.calls == 50
        reference = reference_memory.score_shots(
            code, MWPMDecoder(code, "x"), 2, 0.01, 0.01, "x", 50, 3
        )
        assert result.logical_failures == sum(reference)

    @pytest.mark.parametrize("kind", [MWPMDecoder, UnionFindDecoder])
    def test_routed_stock_decoder_skips_empty_histories(self, kind, monkeypatch):
        code = SurfaceCode(3)
        calls = []
        real_decode = kind.decode

        def counting(self, history, *args, **kwargs):
            assert history.detection_events
            calls.append(history)
            return real_decode(self, history, *args, **kwargs)

        monkeypatch.setattr(kind, "decode", counting)
        shots, seed = 80, 4
        logical_error_rate(
            code, kind(code, "x"), 2, 0.02, shots=shots, seed=seed,
            service=ExecutionService(),
        )
        eventful = sum(
            bool(
                reference_memory.sample_memory(
                    code, 2, 0.02, 0.02,
                    syndrome.memory_shot_rng(seed, code, 2, 0.02, 0.02, shot),
                ).detection_events
            )
            for shot in range(shots)
        )
        assert 0 < len(calls) == eventful < shots


class TestUnionFindGraph:
    def test_graph_is_built_once_per_rounds_and_left_unchanged(self):
        code = SurfaceCode(3)
        decoder = UnionFindDecoder(code, "x")
        history = reference_memory.sample_memory(
            code, 3, 0.1, 0.1, np.random.default_rng(8)
        )
        assert len(history.detection_events) > 2
        first = decoder.decode(history)
        graph = decoder._build_graph(3)
        num_edges, nodes = len(list(edges(graph))), list(graph)
        neighbours = {node: list(nbrs.items()) for node, nbrs in graph.items()}
        second = decoder.decode(history)
        assert decoder._build_graph(3) is graph
        assert len(list(edges(graph))) == num_edges and list(graph) == nodes
        assert {n: list(nbrs.items()) for n, nbrs in graph.items()} == neighbours
        assert np.array_equal(first.correction, second.correction)
        assert (first.num_growth_rounds, first.cluster_count) == (
            second.num_growth_rounds, second.cluster_count,
        )
        fresh = UnionFindDecoder(code, "x").decode(history)
        assert np.array_equal(fresh.correction, first.correction)
        assert decoder._build_graph(2) is not graph


def test_figure2_statistics_match_frozen_loop():
    distance, rounds, p, seed = 3, 4, 0.04, 11
    code = SurfaceCode(distance)
    decoder = MWPMDecoder(code, "x")
    cleared = preserved = 0
    for shot in range(40):
        rng = derive_rng(seed, "figure2", "stats", shot)
        h = reference_memory.sample_memory(code, rounds, p, p, rng, "x")
        residual = h.true_error ^ decoder.decode(h).correction
        cleared += not code.syndrome(residual, "x").any()
        preserved += not code.logical_flipped(residual, "x")
    live = figure2._stats_shot_batch(distance, rounds, p, p, seed, 0, 40)
    assert live == (cleared, preserved)


def test_decoder_ablation_lookup_row_matches_frozen_loop():
    p, shots, seed = 0.3, 60, 5
    rep = RepetitionCode(5)
    lookup = LookupDecoder(rep, "x", strict=False)
    failures = 0
    for shot in range(shots):
        rng = derive_rng(seed, "lookup", shot)
        h = reference_memory.sample_memory(rep, 1, p, 0.0, rng, "x")
        correction = lookup.decode(h.syndromes[-1])
        failures += rep.logical_flipped(h.true_error ^ correction, "x")
    assert failures > 0
    rows = ablations.decoder_ablation(p_data=p, shots=shots, seed=seed).rows
    assert rows[-1].name == "repetition-5 lookup (perfect meas.)"
    assert rows[-1].measured_value == 100.0 * failures / shots


def test_decode_block_corrects_eventful_shots_only():
    code = SurfaceCode(3)
    decoder = MWPMDecoder(code, "x")
    rngs = [np.random.default_rng(shot) for shot in range(20)]
    (block,) = memory_blocks(code, 2, 0.05, 0.05, rngs, "x")
    residual = experiments.decode_block(block, decoder)
    assert residual.shape == (20, code.num_data_qubits)
    eventful = block.eventful()
    assert 0 < len(eventful) < 20
    for shot in range(20):
        history = block.history(shot)
        expected = history.true_error ^ decoder.decode(history).correction
        assert np.array_equal(residual[shot], expected)
        if shot not in eventful:
            assert np.array_equal(residual[shot], block.true_error[shot])
