"""Statevector semantics: evolution, probabilities, comparisons."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import unitary_group

from repro.errors import SimulationError
from repro.quantum.backend import LocalSimulator
from repro.quantum.batchsim import engine as batch_engine
from repro.quantum.batchsim import state as batch_state
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.gates import GATE_SPECS
from repro.quantum.statevector import Statevector
from tests import serial_engine
from tests.serial_engine import apply_matrix, collapse, measure_probabilities


class TestConstruction:
    def test_zero_state(self):
        sv = Statevector.zero_state(3)
        assert sv.probabilities_dict() == {"000": 1.0}

    def test_from_label_basis(self):
        assert Statevector.from_label("10").probabilities_dict() == {"10": 1.0}

    def test_from_label_plus(self):
        probs = Statevector.from_label("+").probabilities_dict()
        assert probs["0"] == pytest.approx(0.5)
        assert probs["1"] == pytest.approx(0.5)

    def test_from_label_imaginary(self):
        sv = Statevector.from_label("r")
        assert sv.data[1] == pytest.approx(1j / math.sqrt(2))

    def test_bad_label(self):
        with pytest.raises(SimulationError):
            Statevector.from_label("02")

    def test_normalisation(self):
        sv = Statevector([2.0, 0.0])
        assert np.linalg.norm(sv.data) == pytest.approx(1.0)

    def test_zero_vector_rejected(self):
        with pytest.raises(SimulationError):
            Statevector([0.0, 0.0])

    def test_non_power_of_two_rejected(self):
        with pytest.raises(SimulationError):
            Statevector([1.0, 0.0, 0.0])

    def test_empty_vector_rejected(self):
        # It raised ValueError (math domain error) from log2(0).
        with pytest.raises(SimulationError, match="length 0"):
            Statevector([])


class TestEvolution:
    def test_bell(self):
        qc = QuantumCircuit(2)
        qc.h(0)
        qc.cx(0, 1)
        sv = Statevector.from_circuit(qc)
        assert sv.probabilities_dict() == pytest.approx({"00": 0.5, "11": 0.5})

    def test_x_flips_correct_bit(self):
        qc = QuantumCircuit(3)
        qc.x(1)
        sv = Statevector.from_circuit(qc)
        assert sv.probabilities_dict() == {"010": 1.0}

    def test_from_circuit_ignores_trailing_measurement(self):
        qc = QuantumCircuit(1, 1)
        qc.h(0)
        qc.measure(0, 0)
        sv = Statevector.from_circuit(qc)
        assert len(sv.probabilities_dict()) == 2

    def test_from_circuit_rejects_midcircuit_measure(self):
        qc = QuantumCircuit(1, 1)
        qc.measure(0, 0)
        qc.h(0)
        with pytest.raises(SimulationError, match="mid-circuit"):
            Statevector.from_circuit(qc)

    def test_evolve_rejects_measure_with_the_flat_engine_text(self):
        qc = QuantumCircuit(1, 1)
        qc.h(0)
        qc.measure(0, 0)
        with pytest.raises(
            SimulationError,
            match=r"^evolve\(\) only handles unitary gates, found 'measure'$",
        ):
            Statevector.zero_state(1).evolve(qc)

    def test_classically_conditioned_gate_rejected(self):
        # A backend reads clbit 0 as 0 here, so the x never fires; applying
        # it anyway gave {'10': 0.5, '11': 0.5} against shots of 00 and 01.
        qc = QuantumCircuit(2, 2)
        qc.append("x", [1], condition=(0, 1))
        qc.h(0)
        qc.measure(0, 0)
        with pytest.raises(
            SimulationError, match=r"conditioned 'x' \(clbit 0 == 1\)"
        ):
            Statevector.from_circuit(qc)
        with pytest.raises(SimulationError, match="conditioned 'x'"):
            Statevector.zero_state(2).evolve(qc.remove_final_measurements())
        counts = LocalSimulator().execute_circuit(qc, 200, 1)[0]
        assert set(counts) == {"00", "01"}

    def test_evolve_size_mismatch(self):
        qc = QuantumCircuit(3)
        with pytest.raises(SimulationError):
            Statevector.zero_state(2).evolve(qc)

    def test_global_phase_equiv(self):
        qc1 = QuantumCircuit(1)
        qc1.z(0)
        qc1.x(0)
        qc2 = QuantumCircuit(1)
        qc2.x(0)
        qc2.z(0)  # differs by global phase -1 relative to qc1 on |0>? no:
        a = Statevector.from_circuit(qc1)
        b = Statevector.from_circuit(qc2)
        assert a.equiv(b)


class TestApplyMatrix:
    @given(data=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_single_qubit_matches_kron(self, data):
        rng = np.random.default_rng(data)
        n = 3
        target = int(rng.integers(n))
        u = unitary_group.rvs(2, random_state=rng)
        state = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        state /= np.linalg.norm(state)
        got = apply_matrix(state, u, [target], n)
        ops = [np.eye(2)] * n
        ops[target] = u
        full = ops[n - 1]
        for k in range(n - 2, -1, -1):
            full = np.kron(full, ops[k])
        assert np.allclose(got, full @ state, atol=1e-9)

    def test_two_qubit_ordering(self):
        # CX with control qubit 0, target qubit 2 of a 3-qubit register.
        from repro.quantum.gates import CX_MATRIX

        state = np.zeros(8, dtype=complex)
        state[1] = 1.0  # |001> : qubit 0 set
        got = apply_matrix(state, CX_MATRIX, [0, 2], 3)
        expected = np.zeros(8, dtype=complex)
        expected[5] = 1.0  # qubit 2 flips -> |101>
        assert np.allclose(got, expected)

    def test_shape_mismatch(self):
        with pytest.raises(SimulationError):
            apply_matrix(np.ones(4) / 2, np.eye(2), [0, 1], 2)


class TestMeasurementHelpers:
    """The frozen serial engine's flat-state measurement kernels, the
    reference ``batch_measure`` is checked against row for row."""

    def test_measure_probabilities(self):
        sv = Statevector.from_label("+0")
        state = sv.data
        assert measure_probabilities(state, 0, 2) == pytest.approx(0.0)
        assert measure_probabilities(state, 1, 2) == pytest.approx(0.5)

    def test_collapse(self):
        state = Statevector.from_label("+").data
        collapsed = collapse(state, 0, 1, 1)
        assert abs(collapsed[1]) == pytest.approx(1.0)

    def test_collapse_zero_probability(self):
        state = Statevector.from_label("0").data
        with pytest.raises(SimulationError):
            collapse(state, 0, 1, 1)


def reference_marginal(state: Statevector, qargs) -> np.ndarray:
    """The marginal in its ``np.add.at`` formulation, kept verbatim.

    ``Statevector.probabilities`` sums with ``np.bincount``; the frozen
    serial engine samples through it too, so the parity suites cannot see
    a drift there.  This is the byte reference.
    """
    probs = np.abs(state._data) ** 2
    n = state.num_qubits
    out = np.zeros(2 ** len(qargs))
    indices = np.arange(2**n)
    sub = np.zeros_like(indices)
    for pos, q in enumerate(qargs):
        sub |= ((indices >> q) & 1) << pos
    np.add.at(out, sub, probs)
    return out


class TestMarginalMatchesAddAt:
    def test_random_states_byte_for_byte(self):
        rng = np.random.default_rng(2200)
        for _ in range(400):
            n = int(rng.integers(1, 11))
            data = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
            state = Statevector(data)
            width = int(rng.integers(0, n + 1))
            qargs = [int(q) for q in rng.permutation(n)[:width]]
            got = state.probabilities(qargs)
            want = reference_marginal(state, qargs)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes(), (n, qargs)

    def test_all_qubits_in_order_byte_for_byte(self):
        # Every qubit in index order is the measure_all marginal, which
        # returns the probabilities without binning them.
        rng = np.random.default_rng(2201)
        states = [Statevector.from_label("01+0"), Statevector.from_label("1")]
        for n in range(1, 11):
            states.append(Statevector(rng.normal(size=2**n) + 1j * rng.normal(size=2**n)))
        for state in states:
            qargs = list(range(state.num_qubits))
            got = state.probabilities(qargs)
            want = reference_marginal(state, qargs)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes(), qargs


class TestStatistics:
    def test_marginal_probabilities(self):
        qc = QuantumCircuit(2)
        qc.h(0)
        qc.x(1)
        sv = Statevector.from_circuit(qc)
        marginal = sv.probabilities([1])
        assert marginal == pytest.approx([0.0, 1.0])

    def test_sample_counts_deterministic(self, rng):
        sv = Statevector.from_label("+")
        counts = sv.sample_counts(1000, np.random.default_rng(5))
        again = sv.sample_counts(1000, np.random.default_rng(5))
        assert counts == again
        assert 400 < counts["0"] < 600

    def test_expectation_values_bell(self):
        qc = QuantumCircuit(2)
        qc.h(0)
        qc.cx(0, 1)
        sv = Statevector.from_circuit(qc)
        assert sv.expectation_value("ZZ") == pytest.approx(1.0)
        assert sv.expectation_value("XX") == pytest.approx(1.0)
        assert sv.expectation_value("YY") == pytest.approx(-1.0)
        assert sv.expectation_value("ZI") == pytest.approx(0.0)

    def test_expectation_wrong_length(self):
        sv = Statevector.zero_state(2)
        with pytest.raises(SimulationError):
            sv.expectation_value("Z")

    def test_expectation_unknown_pauli(self):
        with pytest.raises(SimulationError, match="unknown Pauli character 'Q'"):
            Statevector.zero_state(2).expectation_value("QZ")

    @pytest.mark.parametrize("qargs", [[5], [-1], [0, 2], [0, 0], [1, 0, 1]])
    def test_qargs_must_name_distinct_qubits_of_the_state(self, qargs):
        # probabilities([5]) returned [1, 0] and [0, 0] a 4-entry marginal.
        sv = Statevector.from_label("01")
        match = "must be distinct qubits of a 2-qubit state"
        with pytest.raises(SimulationError, match=match):
            sv.probabilities(qargs)
        with pytest.raises(SimulationError, match=match):
            sv.probabilities_dict(qargs)
        with pytest.raises(SimulationError, match=match):
            sv.sample_counts(10, np.random.default_rng(0), qargs)

    def test_fidelity_and_inner(self):
        a = Statevector.from_label("0")
        b = Statevector.from_label("+")
        assert a.fidelity(b) == pytest.approx(0.5)
        assert a.inner(a) == pytest.approx(1.0)

    def test_global_phase_aligned(self):
        sv = Statevector(np.array([1j, 0.0]))
        aligned = sv.global_phase_aligned()
        assert aligned.data[0] == pytest.approx(1.0)


def random_gate_circuit(rng: np.random.Generator, num_qubits: int) -> QuantumCircuit:
    """Random gates of every spec with random angles, plus barriers and, on
    half the circuits, trailing measurements."""
    specs = sorted(GATE_SPECS.items())
    qc = QuantumCircuit(num_qubits, num_qubits)
    for _ in range(int(rng.integers(0, 24))):
        if rng.random() < 0.1:
            qc.barrier()
            continue
        name, spec = specs[int(rng.integers(len(specs)))]
        if spec.num_qubits > num_qubits:
            continue
        qubits = rng.choice(num_qubits, size=spec.num_qubits, replace=False)
        angles = rng.uniform(-2 * math.pi, 2 * math.pi, size=spec.num_params)
        qc.append(name, [int(q) for q in qubits], params=[float(a) for a in angles])
    if rng.random() < 0.5:
        qc.measure_all()
    return qc


def random_state(rng: np.random.Generator, num_qubits: int) -> Statevector:
    return Statevector(
        rng.normal(size=2**num_qubits) + 1j * rng.normal(size=2**num_qubits)
    )


class TestOneEvolutionLoop:
    """``Statevector`` runs batchsim's loop and kernel, byte-equal to the
    flat engine it ran before (frozen in ``tests/serial_engine.py``)."""

    def test_from_circuit_matches_the_flat_engine_byte_for_byte(self):
        rng = np.random.default_rng(2301)
        for _ in range(200):
            qc = random_gate_circuit(rng, int(rng.integers(1, 7)))
            got = Statevector.from_circuit(qc).data
            want = serial_engine.from_circuit(qc).data
            assert got.tobytes() == want.tobytes(), qc

    def test_evolve_from_random_states_matches_the_flat_engine(self):
        rng = np.random.default_rng(2302)
        for _ in range(200):
            num_qubits = int(rng.integers(1, 7))
            qc = random_gate_circuit(rng, num_qubits).remove_all_measurements()
            start = random_state(rng, num_qubits)
            got = start.evolve(qc).data
            want = serial_engine.evolve(start.data, qc).data
            assert got.tobytes() == want.tobytes(), qc

    def test_expectation_value_matches_the_flat_formula(self):
        rng = np.random.default_rng(2303)
        for _ in range(200):
            num_qubits = int(rng.integers(1, 7))
            state = random_state(rng, num_qubits)
            pauli = "".join(rng.choice(list("IXYZixyz"), size=num_qubits))
            got = state.expectation_value(pauli)
            want = serial_engine.expectation_value(state, pauli)
            assert np.float64(got).tobytes() == np.float64(want).tobytes()

    def test_statevector_and_ideal_groups_run_one_loop(self, monkeypatch):
        loop = batch_engine.evolve_rows
        rows = []

        def counted(circuits, initial=None):
            rows.append(len(circuits))
            return loop(circuits, initial)

        monkeypatch.setattr(batch_engine, "evolve_rows", counted)
        qc = QuantumCircuit(2, 2)
        qc.h(0)
        qc.cx(0, 1)
        qc.measure_all()
        state = Statevector.from_circuit(qc)
        state.expectation_value("ZZ")
        LocalSimulator().execute_circuit(qc, 100, 1)
        assert rows == [1, 1, 1]

    def test_the_reference_does_not_run_the_live_loop(self, monkeypatch):
        # The ideal parity compares batchsim with the frozen flat engine;
        # if the reference evolved through Statevector it would compare
        # batchsim with itself.
        def refuse(*args, **kwargs):
            raise AssertionError("the reference ran the live evolution")

        monkeypatch.setattr(Statevector, "evolve", refuse)
        monkeypatch.setattr(batch_engine, "evolve_rows", refuse)
        monkeypatch.setattr(batch_state, "batch_apply_matrix", refuse)
        qc = QuantumCircuit(3, 3)
        qc.h(0)
        qc.cx(0, 1)
        qc.rx(0.4, 2)
        qc.measure_all()
        counts, _ = serial_engine.simulate_counts(qc, 200, np.random.default_rng(5))
        assert sum(counts.values()) == 200
