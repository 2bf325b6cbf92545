"""Backend API: run/job/result, validation, fake devices."""

import pytest

from repro.errors import BackendError
from repro.quantum.backend import (
    FakeBrisbane,
    FakeFalcon,
    LocalSimulator,
    NoisySimulator,
)
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.library import bell_pair, ghz_state
from repro.quantum.noise import NoiseModel
from repro.quantum.topology import CouplingMap
from repro.quantum.transpiler import transpile


class TestRunAPI:
    def test_job_result_counts(self, simulator):
        job = simulator.run(bell_pair(measure=True), shots=100, seed=1)
        counts = job.result().get_counts()
        assert sum(counts.values()) == 100

    def test_multiple_circuits(self, simulator):
        qcs = [bell_pair(measure=True), ghz_state(3, measure=True)]
        result = simulator.run(qcs, shots=50, seed=2).result()
        assert sum(result.get_counts(0).values()) == 50
        assert set(result.get_counts(1)) <= {"000", "111"}

    def test_counts_index_out_of_range(self, simulator):
        result = simulator.run(bell_pair(measure=True), shots=10, seed=3).result()
        with pytest.raises(BackendError):
            result.get_counts(1)

    def test_memory_requires_flag(self, simulator):
        result = simulator.run(bell_pair(measure=True), shots=10, seed=4).result()
        with pytest.raises(BackendError, match="memory=True"):
            result.get_memory()

    def test_memory_index_out_of_range(self, simulator):
        result = simulator.run(
            bell_pair(measure=True), shots=10, seed=4, memory=True
        ).result()
        with pytest.raises(BackendError, match="out of range"):
            result.get_memory(1)

    def test_memory_returned(self, simulator):
        result = simulator.run(
            bell_pair(measure=True), shots=10, seed=4, memory=True
        ).result()
        assert len(result.get_memory()) == 10

    def test_probabilities(self, simulator):
        result = simulator.run(bell_pair(measure=True), shots=1000, seed=5).result()
        probs = result.get_probabilities()
        assert sum(probs.values()) == pytest.approx(1.0)

    def test_determinism(self, simulator):
        a = simulator.run(bell_pair(measure=True), shots=100, seed=6).result()
        b = simulator.run(bell_pair(measure=True), shots=100, seed=6).result()
        assert a.get_counts() == b.get_counts()

    def test_empty_circuit_list_rejected(self, simulator):
        with pytest.raises(BackendError):
            simulator.run([])

    def test_non_circuit_rejected(self, simulator):
        with pytest.raises(BackendError, match="QuantumCircuit"):
            simulator.run("not a circuit")

    def test_bad_shots(self, simulator):
        with pytest.raises(BackendError):
            simulator.run(bell_pair(measure=True), shots=0)


class TestValidation:
    def test_coupling_violation_tells_user_to_transpile(self):
        backend = FakeFalcon()
        qc = QuantumCircuit(3, 3)
        qc.cx(0, 2)  # 0-2 not coupled on the T topology
        qc.measure([0, 1, 2], [0, 1, 2])
        with pytest.raises(BackendError, match="transpile"):
            backend.run(qc)

    def test_basis_violation_tells_user_to_transpile(self):
        backend = FakeFalcon()
        qc = QuantumCircuit(1, 1)
        qc.h(0)  # h is not in the device basis
        qc.measure(0, 0)
        with pytest.raises(BackendError, match="transpile"):
            backend.run(qc)

    def test_qubit_index_beyond_device(self):
        backend = FakeFalcon()
        qc = QuantumCircuit(8, 1)
        qc.x(7)
        qc.measure(7, 0)
        with pytest.raises(BackendError, match="has 5 qubits"):
            backend.run(qc)

    def test_empty_circuit_wider_than_device_accepted(self):
        # An empty circuit touches no qubits, so its declared width must not
        # be validated against the device (regression: the old fallback
        # compared num_qubits - 1 against the backend width).
        backend = FakeFalcon()
        counts = backend.run(QuantumCircuit(8, 1), shots=5, seed=1).result().get_counts()
        assert sum(counts.values()) == 5

    def test_transpiled_circuit_accepted(self):
        backend = FakeFalcon()
        tqc = transpile(ghz_state(3, measure=True), backend=backend)
        counts = backend.run(tqc, shots=500, seed=7).result().get_counts()
        top_two = sorted(counts.items(), key=lambda kv: -kv[1])[:2]
        assert {k for k, _ in top_two} == {"000", "111"}


class TestFakeDevices:
    def test_brisbane_shape(self):
        backend = FakeBrisbane()
        assert backend.num_qubits == 127
        assert backend.coupling_map is not None
        assert backend.coupling_map.is_connected()
        assert backend.noise_model is not None

    def test_brisbane_runs_noisily(self):
        backend = FakeBrisbane()
        tqc = transpile(bell_pair(measure=True), backend=backend)
        counts = backend.run(tqc, shots=2000, seed=8).result().get_counts()
        # Noise spreads mass beyond the two Bell outcomes.
        assert counts.get("00", 0) + counts.get("11", 0) < 2000

    def test_falcon_topology(self):
        backend = FakeFalcon()
        assert backend.coupling_map.edges == [(0, 1), (1, 2), (1, 3), (3, 4)]

    def test_noisy_simulator_default_width(self):
        model = NoiseModel.uniform_depolarizing(1e-3, 1e-2)
        backend = NoisySimulator(model, CouplingMap.grid(2, 3))
        assert backend.num_qubits == 6

    def test_local_simulator_accepts_wide_sparse(self):
        qc = QuantumCircuit(127, 1)
        qc.x(100)
        qc.measure(100, 0)
        counts = LocalSimulator().run(qc, shots=10, seed=9).result().get_counts()
        assert counts == {"1": 10}
