"""Statevector semantics: evolution, probabilities, comparisons."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import unitary_group

from repro.errors import SimulationError
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.statevector import Statevector, apply_matrix
from tests.serial_engine import collapse, measure_probabilities


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

    def test_fidelity_and_inner(self):
        a = Statevector.from_label("0")
        b = Statevector.from_label("+")
        assert a.fidelity(b) == pytest.approx(0.5)
        assert a.inner(a) == pytest.approx(1.0)

    def test_global_phase_aligned(self):
        sv = Statevector(np.array([1j, 0.0]))
        aligned = sv.global_phase_aligned()
        assert aligned.data[0] == pytest.approx(1.0)
