"""Syndrome extraction (phenomenological + circuit-level) and experiments."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DecodingError, QECError, TopologyError
from repro.qec.codes.repetition import RepetitionCode
from repro.qec.codes.surface import SurfaceCode
from repro.qec.decoder_gen import GeneratedDecoder, generate_decoder
from repro.qec.experiments import (
    MEMORY_BACKEND,
    MemoryExperimentCircuit,
    MemoryExperimentSpec,
    average_qubit_lifetime_gain,
    logical_error_rate,
    qec_suppression_factor,
    threshold_sweep,
)
from repro.qec.matching import MWPMDecoder
from repro.qec.syndrome import (
    extraction_circuit,
    run_extraction_on_tableau,
    sample_memory,
)
from repro.quantum.topology import CouplingMap


class TestPhenomenologicalSampling:
    def test_noiseless_run_has_no_events(self, rng):
        code = SurfaceCode(3)
        history = sample_memory(code, 4, 0.0, 0.0, rng)
        assert history.detection_events == []
        assert not history.true_error.any()

    def test_final_round_is_perfect(self, rng):
        code = SurfaceCode(3)
        history = sample_memory(code, 3, 0.1, 0.3, rng)
        expected = code.syndrome(history.true_error, "x")
        assert (history.syndromes[-1] == expected).all()

    def test_detection_events_are_syndrome_diffs(self, rng):
        code = SurfaceCode(3)
        history = sample_memory(code, 3, 0.08, 0.08, rng)
        rebuilt = set()
        prev = np.zeros(code.num_z_checks, dtype=bool)
        for t in range(history.rounds + 1):
            for c in np.flatnonzero(history.syndromes[t] ^ prev):
                rebuilt.add((t, int(c)))
            prev = history.syndromes[t]
        assert rebuilt == set(history.detection_events)

    def test_parameter_validation(self, rng):
        code = SurfaceCode(3)
        with pytest.raises(QECError):
            sample_memory(code, 0, 0.1, 0.1, rng)
        with pytest.raises(QECError):
            sample_memory(code, 1, 1.5, 0.1, rng)
        with pytest.raises(QECError, match="error_type"):
            sample_memory(code, 1, 0.1, 0.1, rng, error_type="y")

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_event_parity_is_even_or_boundary_matched(self, seed):
        """Within one shot, detection events of the bulk pair up modulo the
        boundary — i.e. decoding never encounters an unmatchable instance."""
        code = SurfaceCode(3)
        rng = np.random.default_rng(seed)
        history = sample_memory(code, 3, 0.05, 0.05, rng)
        decoder = MWPMDecoder(code, "x")
        result = decoder.decode(history)  # raises DecodingError if unmatched
        assert result is not None


class TestCircuitLevelExtraction:
    @pytest.mark.parametrize("error_type", ["x", "z"])
    def test_matches_algebraic_syndrome(self, error_type):
        code = SurfaceCode(3)
        rng = np.random.default_rng(3)
        for trial in range(8):
            errors = list(np.flatnonzero(rng.random(9) < 0.3))
            measured = run_extraction_on_tableau(
                code, errors, error_type, rng=np.random.default_rng(trial)
            )
            bits = np.zeros(9, dtype=bool)
            bits[errors] = True
            assert (measured == code.syndrome(bits, error_type)).all()

    def test_extraction_circuit_shape(self):
        code = SurfaceCode(3)
        qc = extraction_circuit(code, "x")
        assert qc.num_qubits == 9 + 4
        assert qc.count_ops()["measure"] == 4
        assert qc.count_ops()["reset"] == 4

    def test_bad_data_qubit_rejected(self):
        with pytest.raises(QECError):
            run_extraction_on_tableau(SurfaceCode(3), [100], "x")


class TestExperiments:
    def test_logical_error_rate_zero_noise(self):
        code = SurfaceCode(3)
        result = logical_error_rate(
            code, MWPMDecoder(code, "x"), rounds=2, p_data=0.0, shots=20, seed=0
        )
        assert result.logical_error_rate == 0.0

    def test_high_noise_fails_often(self):
        code = SurfaceCode(3)
        result = logical_error_rate(
            code, MWPMDecoder(code, "x"), rounds=3, p_data=0.3, shots=60, seed=0
        )
        assert result.logical_error_rate > 0.2

    def test_determinism(self):
        code = SurfaceCode(3)
        a = logical_error_rate(
            code, MWPMDecoder(code, "x"), rounds=2, p_data=0.05, shots=40, seed=9
        )
        b = logical_error_rate(
            code, MWPMDecoder(code, "x"), rounds=2, p_data=0.05, shots=40, seed=9
        )
        assert a.logical_failures == b.logical_failures

    def test_per_round_rate_inversion(self):
        code = SurfaceCode(3)
        result = logical_error_rate(
            code, MWPMDecoder(code, "x"), rounds=4, p_data=0.05, shots=100, seed=1
        )
        per_round = result.logical_error_per_round
        assert 0 <= per_round <= result.logical_error_rate + 1e-9

    def test_suppression_factor_below_threshold(self):
        code = SurfaceCode(3)
        factor = qec_suppression_factor(
            code, MWPMDecoder(code, "x"), p_data=0.02, shots=300, seed=2
        )
        assert 0 < factor < 1.0

    def test_suppression_factor_bounded_with_no_failures(self):
        """Zero observed failures must give a Wilson-bounded, nonzero factor."""
        code = SurfaceCode(3)
        factor = qec_suppression_factor(
            code, MWPMDecoder(code, "x"), p_data=0.001, shots=30, seed=2
        )
        assert 0 < factor <= 1.0

    @pytest.mark.parametrize("p_data", [0.0, -0.01])
    def test_suppression_needs_a_positive_physical_rate(self, p_data):
        # p_data=0 used to divide by zero after running the experiment; a
        # negative rate meets the same check, before any simulation.
        from repro.quantum.execution import ExecutionService

        code = SurfaceCode(3)
        service = ExecutionService()
        for measure in (qec_suppression_factor, average_qubit_lifetime_gain):
            with pytest.raises(QECError, match="p_data must be positive"):
                measure(
                    code, MWPMDecoder(code, "x"), p_data=p_data, shots=20,
                    service=service,
                )
        assert service.stats()["simulations"] == 0

    def test_lifetime_gain_inverse_of_suppression(self):
        code = SurfaceCode(3)
        factor = qec_suppression_factor(
            code, MWPMDecoder(code, "x"), p_data=0.02, shots=300, seed=2
        )
        gain = average_qubit_lifetime_gain(
            code, MWPMDecoder(code, "x"), p_data=0.02, shots=300, seed=2
        )
        assert gain == pytest.approx(1.0 / factor)

    def test_threshold_sweep_shape(self):
        sweep = threshold_sweep(
            SurfaceCode, [3], [0.01, 0.1], shots=30, seed=3
        )
        assert set(sweep) == {3}
        rates = [p_l for _, p_l in sweep[3]]
        assert rates[1] >= rates[0]  # more noise, more failures

    def test_shot_validation(self):
        code = RepetitionCode(3)
        with pytest.raises(QECError):
            logical_error_rate(code, MWPMDecoder(code, "x"), 1, 0.1, shots=0)

    @pytest.mark.parametrize("shots", [2.5, 3.0, True, "4", None])
    def test_shots_must_be_a_whole_number(self, shots):
        code = SurfaceCode(3)
        with pytest.raises(QECError, match="whole number of shots"):
            logical_error_rate(code, MWPMDecoder(code, "x"), 2, 0.1, shots=shots)

    @pytest.mark.parametrize("rounds", [2.0, 1.5, True])
    @pytest.mark.parametrize("routed", [True, False])
    def test_rounds_must_be_a_whole_number(self, rounds, routed):
        code = SurfaceCode(3)
        decoder = MWPMDecoder(code, "x")
        if not routed:
            decoder = _OpaqueDecoder(decoder)
        with pytest.raises(QECError, match="whole number of rounds"):
            logical_error_rate(code, decoder, rounds, 0.1, shots=5)
        with pytest.raises(QECError, match="whole number of rounds"):
            sample_memory(code, rounds, 0.1, 0.1, np.random.default_rng(0))

    def test_numpy_integers_are_whole_numbers(self):
        code = SurfaceCode(3)
        history = sample_memory(code, np.int64(2), 0.1, 0.1, np.random.default_rng(0))
        assert history.syndromes.shape == (3, code.num_z_checks)


class _OpaqueDecoder:
    """A decoder the ExecutionService cannot reconstruct in a worker."""

    def __init__(self, inner):
        self.inner = inner

    def decode(self, history):
        return self.inner.decode(history)


class TestExecutionServiceRouting:
    """QEC memory experiments run through the shared ExecutionService."""

    def _service(self):
        from repro.quantum.execution import ExecutionService

        return ExecutionService()

    def test_routed_matches_inline_loop(self):
        """The service path must be bit-identical to the legacy shot loop."""
        code = SurfaceCode(3)
        decoder = MWPMDecoder(code, "x")
        service = self._service()
        routed = logical_error_rate(
            code, decoder, 3, 0.06, shots=50, seed=13, service=service
        )
        inline = logical_error_rate(
            code, _OpaqueDecoder(decoder), 3, 0.06, shots=50, seed=13
        )
        assert routed.logical_failures == inline.logical_failures
        assert service.stats()["simulations"] == 1

    def test_inline_decoder_of_other_error_type_raises(self):
        # A Z-error decoder cannot be routed for an X-error experiment, and
        # the inline loop used to score its uncleared syndromes as failures.
        code = SurfaceCode(5)
        with pytest.raises(DecodingError, match="history of 'x' errors"):
            logical_error_rate(
                code, MWPMDecoder(code, "z"), 5, 0.03, shots=20, error_type="x"
            )

    def test_repeat_invocation_hits_cache_and_shows_in_stats(self):
        code = SurfaceCode(3)
        decoder = MWPMDecoder(code, "x")
        service = self._service()
        first = logical_error_rate(
            code, decoder, 2, 0.05, shots=40, seed=9, service=service
        )
        again = logical_error_rate(
            code, decoder, 2, 0.05, shots=40, seed=9, service=service
        )
        stats = service.stats()
        assert again.logical_failures == first.logical_failures
        assert stats["simulations"] == 1
        assert stats["cache_hits"] == 1
        assert stats["jobs_submitted"] == 2

    def test_default_service_surfaces_qec_executions(self):
        """Acceptance criterion: logical_error_rate shows up in
        default_service().stats() with cache hits on repeat invocation."""
        from repro.quantum.execution import ExecutionService, set_default_service

        service = ExecutionService()
        set_default_service(service)
        try:
            code = SurfaceCode(3)
            decoder = MWPMDecoder(code, "x")
            logical_error_rate(code, decoder, 2, 0.04, shots=30, seed=21)
            assert service.stats()["simulations"] == 1
            logical_error_rate(code, decoder, 2, 0.04, shots=30, seed=21)
            assert service.stats()["simulations"] == 1
            assert service.stats()["cache_hits"] == 1
        finally:
            set_default_service(None)

    def test_threshold_sweep_issues_zero_duplicate_simulations(self):
        service = self._service()
        kwargs = dict(shots=25, seed=3, service=service)
        first = threshold_sweep(SurfaceCode, [3], [0.01, 0.05], **kwargs)
        sims = service.stats()["simulations"]
        assert sims == 2  # one per rate
        second = threshold_sweep(SurfaceCode, [3], [0.01, 0.05], **kwargs)
        assert second == first
        assert service.stats()["simulations"] == sims  # all cache hits

    def test_sweep_point_cache_coherent_with_direct_call(self):
        """A sweep point and a direct logical_error_rate at the sweep's
        derived seed share one cache entry."""
        from repro.utils.rng import derive_seed

        service = self._service()
        sweep = threshold_sweep(
            SurfaceCode, [3], [0.04], shots=30, seed=6, service=service
        )
        code = SurfaceCode(3)
        direct = logical_error_rate(
            code,
            MWPMDecoder(code, "x"),
            3,
            0.04,
            shots=30,
            seed=derive_seed(6, "threshold", 3),
            service=service,
        )
        assert sweep[3][0][1] == direct.logical_error_rate
        # Distinct SurfaceCode(3) objects hash to one spec fingerprint,
        # so the direct call is a cache hit, not a second simulation.
        assert service.stats()["simulations"] == 1
        assert service.stats()["cache_hits"] == 1

    def test_threshold_sweep_threads_p_meas_and_error_type(self):
        from repro.utils.rng import derive_seed

        service = self._service()
        threshold_sweep(
            SurfaceCode, [3], [0.04], shots=40, seed=5, service=service
        )
        perfect_meas = threshold_sweep(
            SurfaceCode,
            [3],
            [0.04],
            shots=40,
            seed=5,
            p_meas=0.0,
            service=service,
        )
        # Perfect measurement is a different experiment: a distinct cache
        # key (a second simulation), not a silently-pinned default...
        assert service.stats()["simulations"] == 2
        # ...and exactly the experiment a direct call with p_meas=0 runs.
        code = SurfaceCode(3)
        direct = logical_error_rate(
            code,
            MWPMDecoder(code, "x"),
            3,
            0.04,
            p_meas=0.0,
            shots=40,
            seed=derive_seed(5, "threshold", 3),
            service=service,
        )
        assert perfect_meas[3][0][1] == direct.logical_error_rate
        assert service.stats()["simulations"] == 2  # served from cache
        z_sweep = threshold_sweep(
            SurfaceCode,
            [3],
            [0.04],
            shots=40,
            seed=5,
            error_type="z",
            service=service,
        )
        assert 0.0 <= z_sweep[3][0][1] <= 1.0
        assert service.stats()["simulations"] == 3

    def test_per_distance_seed_scoping(self):
        """Adding a distance must not perturb another distance's series."""
        service = self._service()
        solo = threshold_sweep(
            SurfaceCode, [3], [0.03], shots=30, seed=2, service=service
        )
        paired = threshold_sweep(
            SurfaceCode, [3, 5], [0.03], shots=30, seed=2, service=service
        )
        assert paired[3] == solo[3]

    def test_suppression_factor_routes_through_service(self):
        service = self._service()
        code = SurfaceCode(3)
        factor = qec_suppression_factor(
            code,
            MWPMDecoder(code, "x"),
            p_data=0.02,
            shots=200,
            seed=2,
            service=service,
        )
        assert 0 < factor <= 1.0
        assert service.stats()["simulations"] == 1

    def test_spec_validation(self):
        code = SurfaceCode(3)
        with pytest.raises(QECError, match="round"):
            MemoryExperimentSpec(code, 0, 0.1, 0.1, "x", "mwpm")
        with pytest.raises(QECError, match="probabilities"):
            MemoryExperimentSpec(code, 1, 1.5, 0.1, "x", "mwpm")
        with pytest.raises(QECError, match="error_type"):
            MemoryExperimentSpec(code, 1, 0.1, 0.1, "y", "mwpm")
        with pytest.raises(QECError, match="decoder kind"):
            MemoryExperimentSpec(code, 1, 0.1, 0.1, "x", "magic")

    def test_spec_fingerprint_discriminates(self):
        code = SurfaceCode(3)
        base = MemoryExperimentSpec(code, 2, 0.05, 0.05, "x", "mwpm")
        assert base.fingerprint() == MemoryExperimentSpec(
            code, 2, 0.05, 0.05, "x", "mwpm"
        ).fingerprint()
        for other in (
            MemoryExperimentSpec(code, 3, 0.05, 0.05, "x", "mwpm"),
            MemoryExperimentSpec(code, 2, 0.06, 0.05, "x", "mwpm"),
            MemoryExperimentSpec(code, 2, 0.05, 0.0, "x", "mwpm"),
            MemoryExperimentSpec(code, 2, 0.05, 0.05, "z", "mwpm"),
            MemoryExperimentSpec(code, 2, 0.05, 0.05, "x", "unionfind"),
            MemoryExperimentSpec(SurfaceCode(5), 2, 0.05, 0.05, "x", "mwpm"),
        ):
            assert base.fingerprint() != other.fingerprint()

    def test_memory_backend_rejects_plain_circuits(self):
        from repro.quantum.circuit import QuantumCircuit
        from repro.quantum.execution import ExecutionService

        service = ExecutionService()
        qc = QuantumCircuit(1, 1)
        qc.measure(0, 0)
        with pytest.raises(QECError, match="MemoryExperimentCircuit"):
            service.run(qc, backend=MEMORY_BACKEND, shots=10, seed=1).result()

    def test_unionfind_decoder_routes(self):
        from repro.qec.unionfind import UnionFindDecoder

        code = SurfaceCode(3)
        decoder = UnionFindDecoder(code, "x")
        service = self._service()
        routed = logical_error_rate(
            code, decoder, 2, 0.05, shots=40, seed=4, service=service
        )
        inline = logical_error_rate(
            code, _OpaqueDecoder(decoder), 2, 0.05, shots=40, seed=4
        )
        assert routed.logical_failures == inline.logical_failures
        assert service.stats()["simulations"] == 1

    def test_lookup_decoder_refused_before_any_execution(self):
        # LookupDecoder.decode takes one syndrome, not a history: routing it
        # as a "lookup" spec raised TypeError from inside the service.
        from repro.qec.lookup import LookupDecoder

        code = RepetitionCode(5)
        service = self._service()
        with pytest.raises(QECError, match=r"decode\(history\.syndromes\[-1\]\)"):
            logical_error_rate(
                code, LookupDecoder(code, "x", strict=False), 1, 0.02,
                p_meas=0.0, shots=20, seed=1, service=service,
            )
        assert service.stats()["simulations"] == 0
        with pytest.raises(QECError, match="decoder kind 'lookup'"):
            MemoryExperimentSpec(code, 1, 0.02, 0.0, "x", "lookup")

    def test_memory_flag_returns_per_shot_outcomes(self):
        from repro.quantum.execution import ExecutionService

        code = SurfaceCode(3)
        spec = MemoryExperimentSpec(code, 2, 0.08, 0.08, "x", "mwpm")
        service = ExecutionService()
        result = service.run(
            MemoryExperimentCircuit(spec),
            backend=MEMORY_BACKEND,
            shots=30,
            seed=7,
            memory=True,
        ).result()
        bits = result.get_memory()
        assert len(bits) == 30
        assert set(bits) <= {"0", "1"}
        assert bits.count("1") == result.get_counts().get("1", 0)


class TestDecoderGeneration:
    def test_grid_device_succeeds_with_layout(self):
        generated = generate_decoder(CouplingMap.grid(5, 5), distance=3)
        assert isinstance(generated, GeneratedDecoder)
        assert len(generated.data_layout) == 9
        assert len(generated.ancilla_layout) == 8
        assert not generated.simulated_lattice
        # layout targets are distinct physical qubits
        placed = list(generated.data_layout.values()) + list(
            generated.ancilla_layout.values()
        )
        assert len(set(placed)) == len(placed)

    def test_grid_without_ancillas_needs_smaller_grid(self):
        generated = generate_decoder(
            CouplingMap.grid(3, 3), distance=3, include_ancillas=False
        )
        assert len(generated.data_layout) == 9

    def test_small_grid_rejected(self):
        with pytest.raises(TopologyError, match="smaller"):
            generate_decoder(CouplingMap.grid(3, 3), distance=3)

    def test_heavy_hex_rejected_with_diagnosis(self):
        with pytest.raises(TopologyError, match="topology-specific"):
            generate_decoder(CouplingMap.brisbane(), distance=3)

    def test_simulated_lattice_fallback(self):
        generated = generate_decoder(
            CouplingMap.brisbane(), distance=3, allow_simulated_lattice=True
        )
        assert generated.simulated_lattice
        assert generated.data_layout == {}

    def test_unknown_decoder_rejected(self):
        with pytest.raises(TopologyError, match="unknown decoder"):
            generate_decoder(CouplingMap.grid(5, 5), decoder="magic")

    def test_unionfind_decoder_option(self):
        from repro.qec.unionfind import UnionFindDecoder

        generated = generate_decoder(
            CouplingMap.grid(5, 5), distance=3, decoder="unionfind"
        )
        assert isinstance(generated.decoder_x, UnionFindDecoder)

    def test_compatible_with_models_topology_specificity(self):
        generated = generate_decoder(CouplingMap.grid(5, 5), distance=3)
        assert generated.compatible_with(CouplingMap.grid(5, 5))
        assert not generated.compatible_with(CouplingMap.grid(7, 7))
