"""The simulation engine: fast path, trajectories, noise, compaction.

Every test runs the live engine, :func:`repro.quantum.batchsim.run_circuit`
(what ``Backend.execute_circuit`` calls), and its route choice.
"""

import pytest

from repro.errors import SimulationError
from repro.quantum import batchsim
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.noise import NoiseModel, PauliNoise, ReadoutError


def _run(qc, shots=1024, seed=0, noise=None, memory=False):
    return batchsim.run_circuit(qc, shots, seed, noise, memory)


def _is_fast_path(qc, noise):
    unit = batchsim.make_unit(0, qc, None, 0, 1)
    return batchsim.route(unit, noise) == batchsim.IDEAL


class TestFastPath:
    def test_final_measurement_uses_fast_path(self):
        qc = QuantumCircuit(2, 2)
        qc.h(0)
        qc.measure([0, 1], [0, 1])
        assert _is_fast_path(qc, None)

    def test_midcircuit_measure_disables(self):
        qc = QuantumCircuit(1, 1)
        qc.measure(0, 0)
        qc.x(0)
        assert not _is_fast_path(qc, None)

    def test_reset_disables(self):
        qc = QuantumCircuit(1, 1)
        qc.reset(0)
        assert not _is_fast_path(qc, None)

    def test_condition_disables(self):
        qc = QuantumCircuit(1, 1)
        qc.append("x", [0], condition=(0, 1))
        assert not _is_fast_path(qc, None)

    def test_noise_disables(self):
        qc = QuantumCircuit(1, 1)
        qc.measure(0, 0)
        noise = NoiseModel.uniform_depolarizing(0.01, 0.01)
        assert not _is_fast_path(qc, noise)


class TestSemantics:
    def test_deterministic_circuit(self):
        qc = QuantumCircuit(2, 2)
        qc.x(0)
        qc.measure([0, 1], [0, 1])
        counts, _ = _run(qc)
        assert counts == {"01": 1024}

    def test_unmeasured_clbits_read_zero(self):
        qc = QuantumCircuit(2, 3)
        qc.x(0)
        qc.measure(0, 2)
        counts, _ = _run(qc, shots=10)
        assert counts == {"100": 10}

    def test_fast_and_trajectory_paths_agree(self):
        qc = QuantumCircuit(3, 3)
        qc.h(0)
        qc.cx(0, 1)
        qc.ry(0.7, 2)
        qc.measure([0, 1, 2], [0, 1, 2])
        fast, _ = _run(qc, shots=6000, seed=1)
        # Force the trajectory path with a trailing no-op condition.
        qc2 = qc.copy()
        qc2.append("id", [2], condition=(2, 0))
        slow, _ = _run(qc2, shots=6000, seed=1)
        keys = set(fast) | set(slow)
        tvd = 0.5 * sum(
            abs(fast.get(k, 0) - slow.get(k, 0)) / 6000 for k in keys
        )
        assert tvd < 0.05

    def test_midcircuit_measure_then_flip(self):
        qc = QuantumCircuit(1, 2)
        qc.h(0)
        qc.measure(0, 0)
        qc.x(0)
        qc.measure(0, 1)
        counts, _ = _run(qc, shots=400, seed=2)
        # Second bit must always be the complement of the first.
        for key in counts:
            assert key[0] != key[1]

    def test_reset_gives_zero(self):
        qc = QuantumCircuit(1, 1)
        qc.h(0)
        qc.reset(0)
        qc.measure(0, 0)
        counts, _ = _run(qc, shots=300, seed=3)
        assert counts == {"0": 300}

    def test_conditional_execution(self):
        qc = QuantumCircuit(2, 2)
        qc.x(0)
        qc.measure(0, 0)
        qc.append("x", [1], condition=(0, 1))
        qc.measure(1, 1)
        counts, _ = _run(qc, shots=100, seed=4)
        assert counts == {"11": 100}

    def test_conditional_not_taken(self):
        qc = QuantumCircuit(2, 2)
        qc.measure(0, 0)
        qc.append("x", [1], condition=(0, 1))
        qc.measure(1, 1)
        counts, _ = _run(qc, shots=100, seed=5)
        assert counts == {"00": 100}

    def test_memory_matches_counts(self):
        qc = QuantumCircuit(1, 1)
        qc.h(0)
        qc.measure(0, 0)
        counts, memory = _run(qc, shots=50, seed=6, memory=True)
        assert memory is not None and len(memory) == 50
        assert counts["0"] == memory.count("0")

    def test_seed_determinism(self):
        qc = QuantumCircuit(2, 2)
        qc.h(0)
        qc.h(1)
        qc.measure([0, 1], [0, 1])
        a, _ = _run(qc, seed=42)
        b, _ = _run(qc, seed=42)
        assert a == b

    def test_zero_shots_rejected(self):
        qc = QuantumCircuit(1, 1)
        qc.measure(0, 0)
        with pytest.raises(SimulationError):
            _run(qc, shots=0)


class TestNoise:
    def test_bitflip_rate_measured(self):
        noise = NoiseModel()
        noise.add_all_qubit_error(PauliNoise.bit_flip(0.2), "x")
        qc = QuantumCircuit(1, 1)
        qc.x(0)
        qc.measure(0, 0)
        counts, _ = _run(qc, shots=4000, seed=7, noise=noise)
        # 20% of shots flip back to |0>.
        assert 0.15 < counts.get("0", 0) / 4000 < 0.25

    def test_phase_flip_invisible_in_z_basis(self):
        noise = NoiseModel()
        noise.add_all_qubit_error(PauliNoise.phase_flip(0.5), "x")
        qc = QuantumCircuit(1, 1)
        qc.x(0)
        qc.measure(0, 0)
        counts, _ = _run(qc, shots=500, seed=8, noise=noise)
        assert counts == {"1": 500}

    def test_readout_error(self):
        noise = NoiseModel()
        noise.add_readout_error(ReadoutError(p1_given_0=0.3, p0_given_1=0.0))
        qc = QuantumCircuit(1, 1)
        qc.measure(0, 0)
        counts, _ = _run(qc, shots=4000, seed=9, noise=noise)
        assert 0.25 < counts.get("1", 0) / 4000 < 0.35

    def test_local_readout_overrides_global(self):
        noise = NoiseModel()
        noise.add_readout_error(ReadoutError.symmetric(0.5))
        noise.add_readout_error(ReadoutError(0.0, 0.0), qubit=0)
        qc = QuantumCircuit(1, 1)
        qc.measure(0, 0)
        counts, _ = _run(qc, shots=200, seed=10, noise=noise)
        assert counts == {"0": 200}

    def test_local_gate_error(self):
        noise = NoiseModel()
        noise.add_local_error(PauliNoise.bit_flip(1.0), "x", [0])
        qc = QuantumCircuit(1, 1)
        qc.x(0)
        qc.measure(0, 0)
        counts, _ = _run(qc, shots=100, seed=11, noise=noise)
        assert counts == {"0": 100}  # always flipped back

    def test_two_qubit_gate_noise_hits_both(self):
        noise = NoiseModel()
        noise.add_all_qubit_error(PauliNoise.bit_flip(1.0), "cx")
        qc = QuantumCircuit(2, 2)
        qc.cx(0, 1)
        qc.measure([0, 1], [0, 1])
        counts, _ = _run(qc, shots=100, seed=12, noise=noise)
        assert counts == {"11": 100}


class TestCompaction:
    def test_wide_sparse_circuit_is_compacted(self):
        qc = QuantumCircuit(127, 2)
        qc.h(100)
        qc.cx(100, 101)
        qc.measure(100, 0)
        qc.measure(101, 1)
        counts, _ = _run(qc, shots=2000, seed=13)
        assert set(counts) == {"00", "11"}

    def test_too_many_touched_qubits_rejected(self):
        qc = QuantumCircuit(25, 0)
        for q in range(25):
            qc.h(q)
        with pytest.raises(SimulationError, match="capped"):
            _run(qc, shots=1)
