"""Property tests for the vectorised batch engine: batch == serial, always.

The contract under test is *bit-identity*: for every ``(seed, circuit, shots,
noise)`` and every grouping the planner may choose, the service and
``Backend.execute_circuit`` produce exactly the counts (and memory) the
frozen serial engine (``tests/serial_engine.py``) produces.  The fuzz tests
therefore compare whole randomised workloads run through the service
against that reference called with the same per-index seeds, on every
route (ideal fast path, shot-batched trajectories, and circuits whose
conditionals draw, run shot by shot), including mixed-structure batches
that must split into several groups.
"""

import itertools
import re
import threading

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.quantum import batchsim, gates, library
from repro.quantum.backend import Backend, LocalSimulator
from repro.quantum.batchsim import engine as batch_engine
from repro.quantum.circuit import Instruction, QuantumCircuit
from repro.quantum.execution import ExecutionService
from repro.quantum.noise import NoiseModel, PauliNoise, ReadoutError
from repro.quantum.simulator import (
    MAX_DENSE_QUBITS,
    digit_rows,
    sample_group,
    tally_counts,
    trajectory_draw_plan,
)
from repro.quantum.statevector import Statevector
from tests.serial_engine import (
    _is_fast_path,
    _run_trajectory,
    apply_matrix,
    collapse,
    measure_probabilities,
    sample_from_state,
    simulate_counts,
)

# Gate pool for random structure generation: (method, arity, n_params).
_ONE_Q = [("h", 0), ("x", 0), ("s", 0), ("t", 0), ("rx", 1), ("ry", 1), ("rz", 1)]
_TWO_Q = [("cx", 0), ("cz", 0), ("crx", 1), ("swap", 0)]


def random_circuit(
    rng: np.random.Generator,
    num_qubits: int,
    depth: int,
    measure: str = "all",
) -> QuantumCircuit:
    """A random circuit; ``measure`` is ``"all"`` (final) or ``"mid"``."""
    qc = QuantumCircuit(num_qubits, num_qubits)
    for _ in range(depth):
        if num_qubits > 1 and rng.random() < 0.3:
            name, n_params = _TWO_Q[rng.integers(len(_TWO_Q))]
            a, b = rng.choice(num_qubits, size=2, replace=False)
            args = [int(a), int(b)]
        else:
            name, n_params = _ONE_Q[rng.integers(len(_ONE_Q))]
            args = [int(rng.integers(num_qubits))]
        params = [float(rng.uniform(0, 2 * np.pi)) for _ in range(n_params)]
        getattr(qc, name)(*params, *args)  # rotations take theta first
    if measure == "mid":
        qc.measure(0, 0)
        qc.x(0)
    qc.measure_all()
    return qc


def reparameterize(qc: QuantumCircuit, rng: np.random.Generator) -> QuantumCircuit:
    """Same structure, fresh angles — the planner must group these together."""
    out = QuantumCircuit(qc.num_qubits, qc.num_clbits)
    for inst in qc:
        params = tuple(
            float(rng.uniform(0, 2 * np.pi)) for _ in inst.params
        )
        out.append(
            inst.name, list(inst.qubits), list(inst.clbits), list(params),
            condition=inst.condition,
        )
    return out


def conditional_measure_circuit() -> QuantumCircuit:
    """Feed-forward whose conditional draws (a measurement), so it stays
    on the SERIAL route on every backend."""
    qc = QuantumCircuit(2, 2)
    qc.h(0)
    qc.measure(0, 0)
    qc.h(1)
    qc.append("measure", [1], [1], condition=(0, 1))
    return qc


#: Gates a feed-forward correction may apply (teleportation's are x and z).
_CORRECTIONS = ("x", "y", "z", "h", "s")


def feed_forward_circuit(
    rng: np.random.Generator, num_qubits: int, depth: int
) -> QuantumCircuit:
    """A random circuit with mid-circuit measurements feeding ``c_if`` gates.

    It opens by measuring ``|+>`` on qubit 0, so every circuit has a random
    bit to condition on.  Every condition reads a clbit some earlier
    measurement wrote, tests for 0 or 1, and targets a random qubit, so
    shots of one circuit fire different corrections.  Ends with
    ``measure_all``.
    """
    qc = QuantumCircuit(num_qubits, num_qubits)
    qc.h(0)
    qc.measure(0, 0)
    written = [0]
    for _ in range(depth):
        roll = rng.random()
        if roll < 0.2:
            qubit = int(rng.integers(num_qubits))
            qc.measure(qubit, qubit)
            written.append(qubit)
        elif roll < 0.5:
            bit = written[int(rng.integers(len(written)))]
            gate = _CORRECTIONS[int(rng.integers(len(_CORRECTIONS)))]
            qc.append(
                gate, [int(rng.integers(num_qubits))],
                condition=(bit, int(rng.integers(2))),
            )
        elif roll < 0.55:
            qc.reset(int(rng.integers(num_qubits)))
        elif num_qubits > 1 and roll < 0.75:
            a, b = rng.choice(num_qubits, size=2, replace=False)
            qc.cx(int(a), int(b))
        else:
            qc.ry(float(rng.uniform(0, 2 * np.pi)), int(rng.integers(num_qubits)))
            qc.h(int(rng.integers(num_qubits)))
    qc.measure_all()
    return qc


def drawing_conditional_circuit(
    rng: np.random.Generator, num_qubits: int, depth: int
) -> QuantumCircuit:
    """A random circuit whose conditionals draw, so no draw plan admits it.

    It measures ``|+>`` on qubit 0, then applies a conditional measurement
    or reset, so every circuit has a conditional that draws on every
    backend.  The random body mixes conditional measurements, conditional
    resets and conditional gates (which draw wherever a noise channel
    applies) with unconditional gates, measurements and resets.  Ends with a
    measurement of every qubit.
    """
    qc = QuantumCircuit(num_qubits, num_qubits)
    qc.h(0)
    qc.measure(0, 0)
    written = [0]
    target = int(rng.integers(num_qubits))
    if rng.random() < 0.5:
        qc.append("measure", [target], [target], condition=(0, 1))
        written.append(target)
    else:
        qc.append("reset", [target], condition=(0, int(rng.integers(2))))
    for _ in range(depth):
        qubit = int(rng.integers(num_qubits))
        condition = None
        if rng.random() < 0.5:
            condition = (written[int(rng.integers(len(written)))],
                         int(rng.integers(2)))
        roll = rng.random()
        if roll < 0.2:
            qc.append("measure", [qubit], [qubit], condition=condition)
            written.append(qubit)
        elif roll < 0.35:
            qc.append("reset", [qubit], condition=condition)
        elif roll < 0.6:
            gate = _CORRECTIONS[int(rng.integers(len(_CORRECTIONS)))]
            qc.append(gate, [qubit], condition=condition)
        elif num_qubits > 1 and roll < 0.8:
            a, b = rng.choice(num_qubits, size=2, replace=False)
            qc.append("cx", [int(a), int(b)], condition=condition)
        else:
            qc.ry(float(rng.uniform(0, 2 * np.pi)), qubit)
    qc.measure(list(range(num_qubits)), list(range(num_qubits)))
    return qc


def per_qubit_readout_backend() -> Backend:
    """Readout error only, set per qubit on top of a global default."""
    noise = NoiseModel()
    noise.add_readout_error(ReadoutError(0.05, 0.1))
    noise.add_readout_error(ReadoutError(0.2, 0.0), qubit=1)
    noise.add_readout_error(ReadoutError(0.0, 0.3), qubit=2)
    return Backend(name="batchsim-readout", num_qubits=8, noise_model=noise)


def noisy_backend(p: float = 0.02, readout: float = 0.01) -> Backend:
    return Backend(
        name="batchsim-noisy",
        num_qubits=8,
        noise_model=NoiseModel.uniform_depolarizing(p, 2 * p, readout),
    )


def corrections_noiseless_backend() -> Backend:
    """Gate noise and readout error everywhere except on the correction gates,
    so feed-forward circuits keep a state-independent draw schedule."""
    return Backend(
        name="batchsim-noisy-ff",
        num_qubits=8,
        noise_model=NoiseModel.uniform_depolarizing(
            0.03, 0.06, 0.02,
            one_qubit_gates=("ry", "rx", "rz", "t"),
            two_qubit_gates=("cx", "cz"),
        ),
    )


@pytest.fixture
def run_pair(serial_reference):
    """Run one workload on a service and on the frozen serial engine."""

    def run(backend, circuits, shots, seed, memory=False):
        svc = ExecutionService()
        got = svc.run(
            circuits, backend=backend, shots=shots, seed=seed, memory=memory
        ).result()
        want = serial_reference(backend, circuits, shots, seed, memory)
        return got, want, svc

    return run


def frozen_run(
    backend: Backend, qc: QuantumCircuit, shots: int, seed, memory: bool
):
    """The frozen serial engine's ``(counts, memory)`` for one circuit."""
    return simulate_counts(
        qc, shots, np.random.default_rng(seed), backend.noise_model, memory
    )


def assert_results_identical(got, want, memory=False):
    """``got`` is a Result; ``want`` is a list of ``(counts, memory)``."""
    for i, (counts, mem) in enumerate(want):
        assert got.get_counts(i) == counts, f"circuit {i} diverged"
        if memory:
            assert got.get_memory(i) == mem


# ---------------------------------------------------------------------------
# Kernel: batch_apply_matrix row-for-row vs the serial apply_matrix
# ---------------------------------------------------------------------------


class TestBatchKernel:
    def test_rows_bit_identical_to_serial_kernel(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            num_qubits = int(rng.integers(1, 6))
            batch = int(rng.integers(1, 9))
            k = int(rng.integers(1, min(num_qubits, 2) + 1))
            targets = [int(t) for t in rng.choice(num_qubits, size=k, replace=False)]
            raw = rng.normal(size=(2**k, 2**k)) + 1j * rng.normal(size=(2**k, 2**k))
            matrix, _ = np.linalg.qr(raw)
            states = rng.normal(size=(batch, 2**num_qubits)) + 1j * rng.normal(
                size=(batch, 2**num_qubits)
            )
            states /= np.linalg.norm(states, axis=1, keepdims=True)
            got = batchsim.batch_apply_matrix(states, matrix, targets, num_qubits)
            for row in range(batch):
                want = apply_matrix(states[row], matrix, targets, num_qubits)
                assert np.array_equal(got[row], want), (
                    f"row {row} deviates for targets {targets}"
                )

    def test_stacked_matrices_match_per_row_calls(self):
        # One (batch, 2**k, 2**k) stack in one matmul: row i times slice i is
        # the GEMM a one-matrix call on row i alone issues, byte for byte.
        rng = np.random.default_rng(2100)
        for _ in range(120):
            num_qubits = int(rng.integers(1, 7))
            batch = int(rng.integers(1, 9))
            k = int(rng.integers(1, min(num_qubits, 3) + 1))
            targets = [int(t) for t in rng.choice(num_qubits, size=k, replace=False)]
            stack = np.stack([random_unitary(rng, k) for _ in range(batch)])
            states = random_states(rng, batch, num_qubits)
            got = batchsim.batch_apply_matrix(states, stack, targets, num_qubits)
            for row in range(batch):
                alone = batchsim.batch_apply_matrix(
                    states[row:row + 1], stack[row], targets, num_qubits
                )
                want = apply_matrix(states[row], stack[row], targets, num_qubits)
                assert got[row].tobytes() == alone[0].tobytes() == want.tobytes()

    def test_parametric_gate_matrices_stack_without_relayout(self):
        # The engine stacks the per-row matrices of a parametric gate; a
        # builder returning another dtype or layout would change the GEMM.
        for name, spec in gates.GATE_SPECS.items():
            if spec.num_params:
                matrix = spec.matrix((0.3,) * spec.num_params)
                assert matrix.dtype == np.complex128, name
                assert matrix.flags["C_CONTIGUOUS"], name

    def test_matrix_shape_mismatch_raises(self):
        states = np.zeros((2, 4), dtype=np.complex128)
        states[:, 0] = 1.0
        with pytest.raises(SimulationError, match="does not match"):
            batchsim.batch_apply_matrix(states, np.eye(4), [0], 2)
        with pytest.raises(SimulationError, match="2 row"):
            batchsim.batch_apply_matrix(states, np.stack([np.eye(2)] * 3), [0], 2)

    @pytest.mark.parametrize("targets", [[5], [-1], [2], [0, 0]])
    @pytest.mark.parametrize(
        "entry", ["batch_apply_matrix", "apply", "apply_rows", "flat"]
    )
    def test_bad_targets_raise_simulation_error(self, entry, targets):
        """A target outside the state, or a repeated one, is refused with the
        targets and the width named, through every entry to the kernel and
        by the flat reference, which shares the kernel's axis orders."""
        matrix = np.eye(2 ** len(targets), dtype=np.complex128)
        states = np.zeros((2, 4), dtype=np.complex128)
        states[:, 0] = 1.0
        sv = batchsim.BatchStatevector(states)
        call = {
            "batch_apply_matrix": lambda: batchsim.batch_apply_matrix(
                states, matrix, targets, 2
            ),
            "apply": lambda: sv.apply(matrix, targets),
            "apply_rows": lambda: batch_engine._apply_rows(
                states, np.array([1]), matrix, targets, 2
            ),
            "flat": lambda: apply_matrix(states[0], matrix, targets, 2),
        }[entry]
        message = f"targets {targets} are not distinct qubits of a 2-qubit"
        with pytest.raises(SimulationError, match=re.escape(message)):
            call()
        with pytest.raises(SimulationError):
            call()  # the orders cache keeps no error: it raises again

    def test_batch_statevector_validates_shape(self):
        with pytest.raises(SimulationError, match="2-D"):
            batchsim.BatchStatevector(np.zeros(4, dtype=np.complex128))
        with pytest.raises(SimulationError, match="power of two"):
            batchsim.BatchStatevector(np.zeros((2, 3), dtype=np.complex128))

    def test_apply_rows_touches_only_selected_rows(self):
        # The trajectory tile's subset kernel: gather, evolve, scatter.
        sv = batchsim.BatchStatevector.zero_states(3, 1)
        states = np.array([sv.row(i) for i in range(3)])
        states = batch_engine._apply_rows(
            states, np.array([1]),
            np.array([[0, 1], [1, 0]], dtype=np.complex128), [0], 1,
        )
        assert states[0][0] == 1.0 and states[1][1] == 1.0 and states[2][0] == 1.0
        before = states.copy()
        states = batch_engine._apply_rows(
            states, np.array([], dtype=np.intp), np.eye(2, dtype=np.complex128),
            [0], 1,
        )  # no-op
        assert np.array_equal(states, before)
        assert sv.num_qubits == 1
        assert "batch=3" in repr(sv)


# ---------------------------------------------------------------------------
# Kernel: both kernels vs a frozen np.moveaxis formulation
# ---------------------------------------------------------------------------


def reference_apply_matrix(state, matrix, targets, num_qubits):
    """The serial kernel in its ``np.moveaxis`` formulation, kept verbatim.

    The row-parity tests above compare the batch kernel with the serial one,
    and both share the cached axis orders, so an order wrong in both passes
    them.  This frozen formulation is the independent reference.
    """
    k = len(targets)
    if matrix.shape != (2**k, 2**k):
        raise SimulationError(
            f"matrix shape {matrix.shape} does not match {k} target qubit(s)"
        )
    tensor = state.reshape([2] * num_qubits)
    # Axis j of the tensor corresponds to qubit (num_qubits - 1 - j).  The
    # combined row index after reshape(2**k, -1) treats axis 0 as its MSB, and
    # our matrices treat targets[0] as the LSB, so move the *reversed* target
    # axes to the front.
    src_axes = [num_qubits - 1 - t for t in reversed(targets)]
    tensor = np.moveaxis(tensor, src_axes, range(k))
    rest_shape = tensor.shape[k:]
    mat_view = tensor.reshape(2**k, -1)
    mat_view = matrix @ mat_view
    tensor = mat_view.reshape((2,) * k + rest_shape)
    tensor = np.moveaxis(tensor, range(k), src_axes)
    return tensor.reshape(-1)


def reference_batch_apply_matrix(states, matrix, targets, num_qubits):
    """The batch kernel in its ``np.moveaxis`` formulation, kept verbatim."""
    k = len(targets)
    if matrix.shape != (2**k, 2**k):
        raise SimulationError(
            f"matrix shape {matrix.shape} does not match {k} target qubit(s)"
        )
    batch = states.shape[0]
    tensor = states.reshape([batch] + [2] * num_qubits)
    # Same axis arithmetic as the serial kernel, shifted right by the batch
    # axis: tensor axis 1+j is qubit (num_qubits - 1 - j) of each row.
    src_axes = [1 + num_qubits - 1 - t for t in reversed(targets)]
    tensor = np.moveaxis(tensor, src_axes, range(1, 1 + k))
    stacked = np.ascontiguousarray(tensor).reshape(batch, 2**k, -1)
    stacked = np.matmul(matrix, stacked)
    tensor = stacked.reshape([batch] + [2] * num_qubits)
    tensor = np.moveaxis(tensor, range(1, 1 + k), src_axes)
    return tensor.reshape(batch, 2**num_qubits)


def kernel_targets(num_qubits: int) -> list[tuple[int, ...]]:
    """Every ordered 1- and 2-target tuple plus a seeded sample of 3-target ones."""
    qubits = range(num_qubits)
    cases = list(itertools.permutations(qubits, 1))
    cases += itertools.permutations(qubits, 2)
    triples = list(itertools.permutations(qubits, 3))
    if triples:
        rng = np.random.default_rng(600 + num_qubits)
        picks = rng.choice(len(triples), size=min(8, len(triples)), replace=False)
        cases += [triples[i] for i in sorted(picks)]
    return cases


def random_unitary(rng, k: int) -> np.ndarray:
    raw = rng.normal(size=(2**k, 2**k)) + 1j * rng.normal(size=(2**k, 2**k))
    return np.linalg.qr(raw)[0]


class TestKernelMatchesFrozenReference:
    @pytest.mark.parametrize("num_qubits", range(1, 9))
    def test_serial_and_batch_kernels_match_bit_for_bit(self, num_qubits):
        rng = np.random.default_rng(700 + num_qubits)
        states = random_states(rng, 3, num_qubits)
        for targets in kernel_targets(num_qubits):
            matrix = random_unitary(rng, len(targets))
            want = reference_batch_apply_matrix(
                states, matrix, targets, num_qubits
            )
            got = batchsim.batch_apply_matrix(states, matrix, targets, num_qubits)
            assert np.array_equal(bits_of(got), bits_of(want)), targets
            for row in range(len(states)):
                serial = apply_matrix(states[row], matrix, targets, num_qubits)
                frozen = reference_apply_matrix(
                    states[row], matrix, targets, num_qubits
                )
                assert np.array_equal(bits_of(serial), bits_of(frozen)), targets
                assert np.array_equal(bits_of(serial), bits_of(want[row]))

    @pytest.mark.parametrize("num_qubits", [1, 3, 6])
    def test_apply_rows_on_gathered_rows_matches_reference(self, num_qubits):
        rng = np.random.default_rng(800 + num_qubits)
        states = random_states(rng, 6, num_qubits)
        rows = [4, 0, 3]
        for targets in kernel_targets(num_qubits):
            matrix = random_unitary(rng, len(targets))
            # The subset kernel evolves the rows it gathers in place.
            got = batch_engine._apply_rows(
                states.copy(), np.array(rows), matrix, targets, num_qubits
            )
            want = states.copy()
            want[rows] = reference_batch_apply_matrix(
                states[rows], matrix, targets, num_qubits
            )
            for row in range(len(states)):
                assert np.array_equal(bits_of(got[row]), bits_of(want[row]))


# ---------------------------------------------------------------------------
# Measurement: batch_p1 + batch_collapse row-for-row vs the serial pair
# ---------------------------------------------------------------------------


def random_states(rng, batch, num_qubits):
    states = rng.normal(size=(batch, 2**num_qubits)) + 1j * rng.normal(
        size=(batch, 2**num_qubits)
    )
    return states / np.linalg.norm(states, axis=1, keepdims=True)


def bits_of(array: np.ndarray) -> np.ndarray:
    """The raw IEEE-754 bit patterns, so -0.0 and +0.0 count as different."""
    return np.ascontiguousarray(array).view(np.uint64)


class TestPairwiseRowSums:
    """The P(1) kernel: every row's 1-D ``.sum()``, from whole-column adds."""

    @pytest.mark.parametrize("exponent", range(14))
    def test_equals_per_row_sum_bit_for_bit(self, exponent):
        width = 2**exponent
        rng = np.random.default_rng(1300 + exponent)
        # Row magnitudes spread over ten decades, entries varied within rows.
        scale = 10.0 ** rng.uniform(-10.0, 0.0, size=(24, 1))
        block = rng.random((24, width)) * scale
        want = np.array([row.sum() for row in block])
        # The kernel's order must not depend on the block's memory layout;
        # batch_p1 hands it the column-major block a gather returns.
        for layout in (block, np.asfortranarray(block)):
            got = batchsim.state._pairwise_row_sums(layout)
            assert np.array_equal(bits_of(got), bits_of(want))
        if width >= 8:
            # The check has teeth: a column-after-column running sum, the
            # order sum(axis=1) takes on that block, differs on some row.
            running = block[:, 0].copy()
            for column in block.T[1:]:
                running += column
            assert not np.array_equal(bits_of(running), bits_of(want))

    def test_eval_shaped_tile_matches_serial_measure_and_collapse(self):
        # A 4096-shot, 3-qubit trajectory is one tile: the shape eval runs.
        rng = np.random.default_rng(1315)
        states = random_states(rng, 4096, 3)
        for qubit in range(3):
            draws = rng.random(4096)
            p1s = batchsim.batch_p1(states, qubit, 3)
            outcomes = draws < p1s
            got = batchsim.batch_collapse(states, qubit, 3, outcomes)
            for row in range(4096):
                p1 = measure_probabilities(states[row], qubit, 3)
                assert p1s[row] == p1
                outcome = 1 if draws[row] < p1 else 0
                assert outcomes[row] == outcome
                want = collapse(states[row], qubit, outcome, 3)
                assert np.array_equal(bits_of(got[row]), bits_of(want))


class TestBatchMeasure:
    @pytest.mark.parametrize("num_qubits", range(1, 15))
    def test_rows_bit_identical_to_serial_collapse(self, num_qubits):
        rng = np.random.default_rng(900 + num_qubits)
        for trial in range(3):
            states = random_states(rng, 16, num_qubits)
            for qubit in range(num_qubits):
                p1 = np.array([
                    measure_probabilities(row, qubit, num_qubits)
                    for row in states
                ])
                # Uniform draws, then draws on either side of each row's
                # serial P(1), where an ulp of drift would flip the outcome.
                draws = (rng.random(16), p1, np.nextafter(p1, 0.0))[trial]
                outcomes = draws < batchsim.batch_p1(states, qubit, num_qubits)
                got = batchsim.batch_collapse(states, qubit, num_qubits, outcomes)
                for row in range(16):
                    outcome = 1 if draws[row] < p1[row] else 0
                    want = collapse(states[row], qubit, outcome, num_qubits)
                    assert outcomes[row] == outcome
                    assert np.array_equal(bits_of(got[row]), bits_of(want)), (
                        f"row {row} deviates measuring qubit {qubit}"
                    )

    def test_reset_rows_bit_identical_to_serial_reset(self):
        rng = np.random.default_rng(911)
        for num_qubits in (1, 3, 6):
            states = random_states(rng, 12, num_qubits)
            for qubit in range(num_qubits):
                draws = rng.random(12)
                outcomes = draws < batchsim.batch_p1(states, qubit, num_qubits)
                got = batch_engine._apply_rows(
                    batchsim.batch_collapse(states, qubit, num_qubits, outcomes),
                    outcomes.nonzero()[0], gates.X_MATRIX, [qubit], num_qubits,
                )
                for row in range(12):
                    p1 = measure_probabilities(states[row], qubit, num_qubits)
                    outcome = 1 if draws[row] < p1 else 0
                    want = collapse(states[row], qubit, outcome, num_qubits)
                    if outcome:
                        want = apply_matrix(
                            want, gates.X_MATRIX, [qubit], num_qubits
                        )
                    assert np.array_equal(bits_of(got[row]), bits_of(want))

    def test_readout_flips_match_serial_apply(self):
        rng = np.random.default_rng(921)
        readout = ReadoutError(0.3, 0.6)
        bits = rng.integers(2, size=500)
        uniforms = np.random.default_rng(922).random(500)
        serial_rng = np.random.default_rng(922)  # same stream, drawn per bit
        want = [readout.apply(int(bit), serial_rng) for bit in bits]
        got = readout.apply_rows(bits, uniforms)
        assert got.tolist() == want
        assert got.tolist() != bits.tolist()  # some bits really flipped

    @pytest.mark.parametrize("qubit", [2, 5, -1])
    def test_qubit_outside_the_state_refused(self, qubit):
        # |11> on two rows: a qubit the state lacks must not read as
        # P(1) = 0 with the rows left as they were.
        states = np.zeros((2, 4), dtype=np.complex128)
        states[:, 3] = 1.0
        before = states.copy()
        with pytest.raises(SimulationError, match=f"qubit {qubit} .*2-qubit"):
            batchsim.batch_p1(states, qubit, 2)
        with pytest.raises(SimulationError, match="2-qubit"):
            batchsim.batch_collapse(states, qubit, 2, np.array([1, 1]))
        assert np.array_equal(states, before)

    @pytest.mark.parametrize(
        "outcomes",
        [np.array([1]), np.array([0, 1, 0, 1]), np.full((3, 1), 1)],
    )
    def test_outcomes_not_one_per_row_refused(self, outcomes):
        # A single outcome must not be broadcast to every row.
        states = random_states(np.random.default_rng(931), 3, 2)
        with pytest.raises(SimulationError, match="one outcome per row"):
            batchsim.batch_collapse(states, 0, 2, outcomes)
        with pytest.raises(SimulationError, match=r"for 3 row\(s\)"):
            batchsim.batch_collapse(states, 1, 2, outcomes)

    def test_zero_probability_branch_raises_the_serial_error(self):
        # P(1) = 1e-22 is positive, so draw 0.0 selects outcome 1, whose
        # branch norm (1e-11) is below the collapse tolerance.
        state = np.array([[np.sqrt(1 - 1e-22), 1e-11]], dtype=np.complex128)
        draws = np.array([0.0])
        assert draws[0] < measure_probabilities(state[0], 0, 1)
        outcomes = draws < batchsim.batch_p1(state, 0, 1)
        with pytest.raises(SimulationError) as serial:
            collapse(state[0], 0, 1, 1)
        with pytest.raises(SimulationError) as batched:
            batchsim.batch_collapse(state, 0, 1, outcomes)
        assert str(batched.value) == str(serial.value)
        assert "zero probability" in str(serial.value)


# ---------------------------------------------------------------------------
# Planner: groupings are exactly the provably-safe ones
# ---------------------------------------------------------------------------


class TestPlanner:
    def _units(self, circuits, shots=64, seed=5):
        return [
            batchsim.make_unit(i, qc, object(), seed + i, shots)
            for i, qc in enumerate(circuits)
        ]

    def test_same_structure_groups_even_with_different_params(self):
        rng = np.random.default_rng(0)
        base = random_circuit(rng, 3, 6)
        sweep = [base] + [reparameterize(base, rng) for _ in range(3)]
        groups = batchsim.plan(LocalSimulator(), self._units(sweep))
        assert len(groups) == 1
        assert groups[0].kind == batchsim.IDEAL
        assert len(groups[0].units) == 4

    def test_mixed_structures_split_into_groups(self):
        rng = np.random.default_rng(1)
        a = random_circuit(rng, 3, 5)
        b = random_circuit(rng, 3, 7)
        groups = batchsim.plan(
            LocalSimulator(), self._units([a, reparameterize(a, rng), b])
        )
        assert [len(g.units) for g in groups] == [2, 1]
        assert all(g.kind == batchsim.IDEAL for g in groups)

    def test_conditional_circuit_falls_back_to_serial(self):
        qc = QuantumCircuit(2, 2)
        qc.h(0)
        qc.measure(0, 0)
        qc.append("x", [1], condition=(0, 1))
        qc.measure(1, 1)
        groups = batchsim.plan(noisy_backend(), self._units([qc]))
        assert [g.kind for g in groups] == [batchsim.SERIAL]

    def test_noisy_unit_becomes_singleton_shots_group(self):
        rng = np.random.default_rng(2)
        circuits = [random_circuit(rng, 2, 4) for _ in range(3)]
        groups = batchsim.plan(noisy_backend(), self._units(circuits))
        assert [g.kind for g in groups] == [batchsim.SHOTS] * 3
        assert all(len(g.units) == 1 for g in groups)

    def test_overridden_backend_is_never_batched(self):
        class Custom(Backend):
            def __init__(self):
                super().__init__(name="custom", num_qubits=4)

            def execute_circuit(self, circuit, shots, seed=None, memory=False):
                return {"00": shots}, None

        assert not batchsim.batchable_backend(Custom())
        assert batchsim.batchable_backend(LocalSimulator())
        rng = np.random.default_rng(3)
        groups = batchsim.plan(
            Custom(), self._units([random_circuit(rng, 2, 3)])
        )
        assert [g.kind for g in groups] == [batchsim.SERIAL]

    def test_serial_group_comes_last_and_plan_of_nothing_is_empty(self):
        rng = np.random.default_rng(4)
        ideal = random_circuit(rng, 2, 3)
        cond = conditional_measure_circuit()
        groups = batchsim.plan(
            LocalSimulator(), self._units([cond, ideal])
        )
        assert [g.kind for g in groups] == [batchsim.IDEAL, batchsim.SERIAL]
        assert batchsim.plan(LocalSimulator(), []) == []

    def test_over_wide_circuit_falls_back_to_serial(self):
        wide = QuantumCircuit(MAX_DENSE_QUBITS + 1, 1)
        for q in range(MAX_DENSE_QUBITS + 1):
            wide.h(q)
        wide.measure(0, 0)
        backend = Backend(name="wide", num_qubits=MAX_DENSE_QUBITS + 2)
        groups = batchsim.plan(backend, self._units([wide]))
        assert [g.kind for g in groups] == [batchsim.SERIAL]

    def test_feed_forward_units_shot_batch_with_their_draw_plan(self):
        rng = np.random.default_rng(6)
        circuits = [feed_forward_circuit(rng, 3, 10) for _ in range(3)]
        circuits.append(library.teleportation())
        for backend in (LocalSimulator(), corrections_noiseless_backend()):
            units = self._units(circuits)
            groups = batchsim.plan(backend, units)
            assert [g.kind for g in groups] == [batchsim.SHOTS] * len(units)
            for unit in units:
                assert unit.draw_plan == trajectory_draw_plan(
                    unit.compacted, backend.noise_model
                )

    def test_conditionals_that_draw_stay_serial(self):
        reset = QuantumCircuit(2, 2)
        reset.h(0)
        reset.measure(0, 0)
        reset.append("reset", [1], condition=(0, 1))
        reset.measure(1, 1)
        on_channel = library.teleportation()  # its c_if x and z on qubit 2
        all_qubit = NoiseModel()
        all_qubit.add_all_qubit_error(PauliNoise.bit_flip(0.1), "z")
        cases = [
            (LocalSimulator(), conditional_measure_circuit()),
            (LocalSimulator(), reset),
            (Backend(name="all-qubit", num_qubits=4, noise_model=all_qubit),
             on_channel),
        ]
        # A local channel applies to the *compacted* qubits, which is what
        # the engines look up: qubit 5 of this circuit is qubit 1.
        sparse = QuantumCircuit(6, 2)
        sparse.h(3)
        sparse.measure(3, 0)
        sparse.append("x", [5], condition=(0, 1))
        sparse.measure(5, 1)
        local = NoiseModel()
        local.add_local_error(PauliNoise.bit_flip(0.1), "x", [1])
        cases.append(
            (Backend(name="local", num_qubits=6, noise_model=local), sparse)
        )
        for backend, qc in cases:
            groups = batchsim.plan(backend, self._units([qc]))
            assert [g.kind for g in groups] == [batchsim.SERIAL], qc
        # Keyed on the uncompacted index, the same channel never fires, so
        # the engines draw nothing there and the unit shot-batches.
        uncompacted = NoiseModel()
        uncompacted.add_local_error(PauliNoise.bit_flip(0.1), "x", [5])
        backend = Backend(name="local-5", num_qubits=6, noise_model=uncompacted)
        (group,) = batchsim.plan(backend, self._units([sparse]))
        assert group.kind == batchsim.SHOTS
        (got,) = batchsim.execute_group(backend.noise_model, group, True)
        unit = group.units[0]
        assert got == frozen_run(backend, sparse, unit.shots, unit.seed, True)

    def test_structure_fingerprint_ignores_params_only(self):
        rng = np.random.default_rng(5)
        base = random_circuit(rng, 3, 6)
        assert batchsim.structure_fingerprint(base) == (
            batchsim.structure_fingerprint(reparameterize(base, rng))
        )
        other = random_circuit(rng, 3, 6)
        assert batchsim.structure_fingerprint(base) != (
            batchsim.structure_fingerprint(other)
        )


# ---------------------------------------------------------------------------
# Engine: execute_group output vs the frozen serial engine, per unit
# ---------------------------------------------------------------------------


class TestEngineBitIdentity:
    def test_ideal_group_matches_serial_per_unit(self):
        rng = np.random.default_rng(11)
        backend = LocalSimulator()
        base = random_circuit(rng, 3, 8)
        circuits = [base] + [reparameterize(base, rng) for _ in range(5)]
        units = [
            batchsim.make_unit(i, qc, None, 100 + i, 257)
            for i, qc in enumerate(circuits)
        ]
        group = batchsim.plan(backend, units)[0]
        got = batchsim.execute_group(backend.noise_model, group, True)
        for unit, (counts, mem) in zip(group.units, got):
            want_counts, want_mem = frozen_run(
                backend, unit.circuit, unit.shots, unit.seed, True
            )
            assert counts == want_counts
            assert mem == want_mem

    def test_shared_seed_and_params_still_distinct_rows_when_needed(self):
        # Two units with identical params but different seeds share one
        # evolution row yet sample independently.
        backend = LocalSimulator()
        qc = QuantumCircuit(2, 2)
        qc.h(0)
        qc.cx(0, 1)
        qc.measure_all()
        units = [
            batchsim.make_unit(0, qc, None, 1, 400),
            batchsim.make_unit(1, qc, None, 2, 400),
        ]
        group = batchsim.plan(backend, units)[0]
        got = batchsim.execute_group(backend.noise_model, group, False)
        for unit, (counts, _) in zip(units, got):
            want, _ = frozen_run(backend, qc, 400, unit.seed, False)
            assert counts == want
        assert got[0][0] != got[1][0] or True  # distinct streams, same dist

    def test_trajectory_unit_matches_serial(self):
        rng = np.random.default_rng(12)
        backend = noisy_backend()
        for trial in range(6):
            qc = random_circuit(rng, 2, 5, measure="mid" if trial % 2 else "all")
            unit = batchsim.make_unit(0, qc, None, 900 + trial, 128)
            groups = batchsim.plan(backend, [unit])
            assert groups[0].kind == batchsim.SHOTS
            (counts, mem), = batchsim.execute_group(
                backend.noise_model, groups[0], True
            )
            want_counts, want_mem = frozen_run(backend, qc, 128, unit.seed, True)
            assert counts == want_counts
            assert mem == want_mem

    def test_reset_matches_serial_under_noise(self):
        backend = noisy_backend(p=0.05, readout=0.03)
        qc = QuantumCircuit(2, 2)
        qc.h(0)
        qc.cx(0, 1)
        qc.reset(0)
        qc.h(1)
        qc.measure_all()
        unit = batchsim.make_unit(0, qc, None, 77, 300)
        group = batchsim.plan(backend, [unit])[0]
        (counts, mem), = batchsim.execute_group(backend.noise_model, group, True)
        want_counts, want_mem = frozen_run(backend, qc, 300, 77, True)
        assert counts == want_counts and mem == want_mem

    def test_barriers_are_skipped_on_both_paths(self):
        qc = QuantumCircuit(2, 2)
        qc.h(0)
        qc.barrier()
        qc.cx(0, 1)
        qc.measure_all()
        for backend in (LocalSimulator(), noisy_backend()):
            unit = batchsim.make_unit(0, qc, None, 9, 120)
            group = batchsim.plan(backend, [unit])[0]
            (counts, _), = batchsim.execute_group(
                backend.noise_model, group, False
            )
            want, _ = frozen_run(backend, qc, 120, 9, False)
            assert counts == want

    @pytest.mark.parametrize(
        "widen, defect, shots",
        [
            (False, True, 8),
            (True, False, 8),
            (False, False, 0),
            (True, False, 0),
            (True, True, 0),
        ],
        ids=["defective", "over_wide", "zero_shots", "wide_zero_shots", "all"],
    )
    def test_refusals_match_the_frozen_engine(self, widen, defect, shots):
        """``execute_circuit`` raises the frozen engine's error, checking
        defects, then width, then shots."""
        qc = QuantumCircuit(MAX_DENSE_QUBITS + 1, 1)
        for qubit in range(MAX_DENSE_QUBITS + 1 if widen else 1):
            qc.h(qubit)
        qc.measure(0, 0)
        if defect:
            qc._instructions.append(Instruction("measure", (0,), (7,)))
        with pytest.raises(SimulationError) as frozen:
            simulate_counts(qc, shots, np.random.default_rng(1))
        with pytest.raises(SimulationError) as live:
            LocalSimulator().execute_circuit(qc, shots, 1)
        assert str(live.value) == str(frozen.value)

    def test_non_unitary_instruction_in_evolve_raises_serial_error(self):
        # The planner never routes such circuits to the ideal path, but
        # Statevector.evolve runs this loop too, and the error text must
        # stay the flat engine's.
        qc = QuantumCircuit(1, 1)
        qc.h(0)
        qc.reset(0)
        with pytest.raises(SimulationError, match="only handles unitary"):
            batch_engine.evolve_rows([qc])

    def test_serial_group_is_not_executable_by_the_engine(self):
        qc = QuantumCircuit(1, 1)
        qc.measure_all()
        unit = batchsim.make_unit(0, qc, None, 1, 10)
        with pytest.raises(SimulationError, match="not executable"):
            batchsim.execute_group(
                None, batchsim.PlannedGroup(batchsim.SERIAL, [unit]), False
            )

    def test_unplanned_shots_unit_is_refused(self):
        unit = batchsim.make_unit(0, library.teleportation(), None, 1, 10)
        with pytest.raises(SimulationError, match="no draw plan"):
            batchsim.execute_group(
                None, batchsim.PlannedGroup(batchsim.SHOTS, [unit]), False
            )

    def test_tiling_cannot_affect_results(self, monkeypatch):
        rng = np.random.default_rng(13)
        backend = noisy_backend()
        base = random_circuit(rng, 3, 6)
        want_ideal = batchsim.execute_group(
            None,
            batchsim.plan(
                LocalSimulator(),
                [
                    batchsim.make_unit(i, reparameterize(base, rng), None, i, 64)
                    for i in range(5)
                ],
            )[0],
            False,
        )
        noisy_unit = batchsim.make_unit(0, base, None, 3, 96)
        want_noisy = batchsim.execute_group(
            backend.noise_model, batchsim.plan(backend, [noisy_unit])[0], False
        )
        # Force one-row/one-shot tiles: results must not move.
        monkeypatch.setattr(batch_engine, "MAX_BATCH_AMPLITUDES", 1)
        rng = np.random.default_rng(13)
        base = random_circuit(rng, 3, 6)
        got_ideal = batchsim.execute_group(
            None,
            batchsim.plan(
                LocalSimulator(),
                [
                    batchsim.make_unit(i, reparameterize(base, rng), None, i, 64)
                    for i in range(5)
                ],
            )[0],
            False,
        )
        noisy_unit = batchsim.make_unit(0, base, None, 3, 96)
        got_noisy = batchsim.execute_group(
            backend.noise_model, batchsim.plan(backend, [noisy_unit])[0], False
        )
        assert got_ideal == want_ideal
        assert got_noisy == want_noisy


# ---------------------------------------------------------------------------
# Distinct rows: a tile evolves each history once, not each shot
# ---------------------------------------------------------------------------


def layered_feed_forward(reset: bool = False) -> QuantumCircuit:
    """Six layers of ``h`` on four qubits, a ``cx`` chain, a mid-circuit
    measurement and a ``c_if x`` on it, then a measurement of every qubit;
    with ``reset``, each mid-circuit measured qubit is reset at once."""
    qc = QuantumCircuit(4, 4)
    for layer in range(6):
        for qubit in range(4):
            qc.h(qubit)
        for qubit in range(3):
            qc.cx(qubit, qubit + 1)
        measured = layer % 4
        qc.measure(measured, measured)
        if reset:
            qc.reset(measured)
        qc.append("x", [(measured + 1) % 4], condition=(measured, 1))
    qc.measure(list(range(4)), list(range(4)))
    return qc


def layered_backend(p: float) -> Backend:
    """Depolarizing ``p`` on ``h`` and ``cx`` plus readout error; the
    conditional ``x`` has no channel, so the circuit shot-batches."""
    return Backend(
        name=f"layered-{p}",
        num_qubits=4,
        noise_model=NoiseModel.uniform_depolarizing(
            p, p, 0.02, one_qubit_gates=("h",), two_qubit_gates=("cx",)
        ),
    )


class TestDistinctRows:
    @pytest.mark.parametrize(
        "p, reset, tiled",
        [
            (0.001, False, False),
            (0.05, False, False),
            (0.3, False, False),  # nearly every shot distinct
            (0.05, True, False),
            (0.05, False, True),
        ],
        ids=["p0.001", "p0.05", "p0.3", "p0.05-reset", "p0.05-tiled"],
    )
    def test_branching_matches_the_frozen_engine(
        self, p, reset, tiled, monkeypatch
    ):
        """Measurement, reset, Pauli and condition branches split rows the
        way separate shots would have gone, in one tile or across tiles."""
        shots = 256
        if tiled:
            monkeypatch.setattr(batch_engine, "MAX_BATCH_AMPLITUDES", 2**10)
            assert len(list(batch_engine._tiles(shots, 4))) >= 3
        qc = layered_feed_forward(reset)
        backend = layered_backend(p)
        unit = batchsim.make_unit(0, qc, None, 31, shots)
        assert batchsim.route(unit, backend.noise_model) == batchsim.SHOTS
        got = batchsim.run_circuit(qc, shots, 31, backend.noise_model, True)
        assert got == frozen_run(backend, qc, shots, 31, True)

    def test_noise_free_teleport_evolves_at_most_eight_rows(self, monkeypatch):
        """Three measurements leave at most eight histories, so no gate of a
        4096-shot teleport runs on more rows than that."""
        kernel = batch_engine.batch_apply_matrix
        rows: list[int] = []

        def recording(states, matrix, targets, num_qubits):
            rows.append(len(states))
            return kernel(states, matrix, targets, num_qubits)

        monkeypatch.setattr(batch_engine, "batch_apply_matrix", recording)
        qc = library.teleportation(0.7, 0.2)
        counts, memory = batchsim.run_circuit(qc, 4096, 5, None, True)
        assert sum(counts.values()) == len(memory) == 4096
        assert rows and max(rows) <= 8


# ---------------------------------------------------------------------------
# Draw plan: the schedule the shot-batcher replays
# ---------------------------------------------------------------------------


class TestDrawPlan:
    def test_widths_per_instruction(self):
        noise = NoiseModel.uniform_depolarizing(0.01, 0.02, 0.01)
        qc = QuantumCircuit(2, 2)
        qc.h(0)        # 1 draw (noisy 1q gate)
        qc.cx(0, 1)    # 2 draws (noisy 2q gate)
        qc.barrier()   # 0
        qc.reset(0)    # 1
        qc.measure(0, 0)  # 1 + 1 readout
        qc.measure(1, 1)  # 1 + 1 readout
        assert trajectory_draw_plan(qc, noise) == [1, 2, 0, 1, 2, 2]

    def test_no_noise_gate_draws_nothing(self):
        noise = NoiseModel()
        qc = QuantumCircuit(1, 1)
        qc.h(0)
        qc.measure(0, 0)
        assert trajectory_draw_plan(qc, noise) == [0, 1]

    def test_only_conditionals_that_draw_have_no_static_plan(self):
        qc = QuantumCircuit(2, 2)
        qc.measure(0, 0)
        qc.append("x", [1], condition=(0, 1))
        # A conditional gate with no channel draws nothing whether or not it
        # fires, so the schedule stays state-independent.
        assert trajectory_draw_plan(qc, NoiseModel()) == [1, 0]
        noisy = NoiseModel.uniform_depolarizing(0.01, 0.02)
        assert trajectory_draw_plan(qc, noisy) is None
        assert trajectory_draw_plan(conditional_measure_circuit(), None) is None


# ---------------------------------------------------------------------------
# Norm validation (satellite 1): corrupted states raise, never renormalise
# ---------------------------------------------------------------------------


def sample_one(state, measures, num_clbits, shots, rng, memory):
    """One unit on one row through the group sampler."""
    return sample_group([state], measures, num_clbits, [(0, rng, shots)], memory)[0]


class TestNormValidation:
    def _denormalized_state(self, scale: complex) -> Statevector:
        # Bypass the constructor (which renormalises) to model a state
        # corrupted upstream, e.g. by a non-unitary custom gate matrix.
        state = Statevector.__new__(Statevector)
        data = np.zeros(4, dtype=np.complex128)
        data[0] = scale
        state._data = data
        state._num_qubits = 2
        return state

    def test_lost_normalisation_raises_not_renormalises(self):
        state = self._denormalized_state(0.9)
        rng = np.random.default_rng(0)
        with pytest.raises(SimulationError, match="lost normalisation"):
            sample_one(state, [(0, 0), (1, 1)], 2, 10, rng, False)

    @pytest.mark.parametrize(
        "scale", [0.9, complex("nan"), complex("nan+1j"), complex("inf")]
    )
    def test_any_bad_row_of_a_group_raises(self, scale):
        # NaN mass passes an ``abs(total - 1) > atol`` test; the sampler
        # refuses it itself instead of leaving it to numpy's ValueError.
        good = Statevector.zero_state(2)
        bad = self._denormalized_state(scale)
        draws = [(0, np.random.default_rng(1), 10), (1, np.random.default_rng(2), 10)]
        with pytest.raises(SimulationError, match="lost normalisation"):
            sample_group([good, bad], [(0, 0), (1, 1)], 2, draws, False)

    def test_rounding_dust_within_tolerance_is_fine(self):
        state = self._denormalized_state(1.0 + 1e-8)
        rng = np.random.default_rng(0)
        got = sample_one(state, [(0, 0), (1, 1)], 2, 10, rng, True)
        assert got == ({"00": 10}, ["00"] * 10)

    def test_unmeasured_circuit_samples_zeros(self):
        state = Statevector.zero_state(2)
        got = sample_one(state, [], 2, 3, np.random.default_rng(0), True)
        assert got == ({"00": 3}, ["00"] * 3)
        got = sample_one(state, [], 0, 2, np.random.default_rng(0), False)
        assert got == ({"": 2}, None)


# ---------------------------------------------------------------------------
# Counting: tally_counts vs the per-shot string tally; clbit semantics
# ---------------------------------------------------------------------------


def reference_tally(outcomes: list[str], memory: bool):
    """The per-shot string-dict tally, kept as the reference for tally_counts."""
    counts: dict[str, int] = {}
    for bits in outcomes:
        counts[bits] = counts.get(bits, 0) + 1
    return dict(sorted(counts.items())), (outcomes if memory else None)


def row_strings(rows: np.ndarray) -> list[str]:
    """Decode each digit row into its bitstring, one per shot."""
    return [row.tobytes().decode("ascii") for row in rows]


def random_digit_rows(rng, shots: int, width: int) -> np.ndarray:
    """Skewed random clbit values, so some outcomes repeat and some do not."""
    clbits = (rng.random((shots, width)) < rng.random(width)).astype(np.uint8)
    return digit_rows(clbits)


def trajectory_strings(qc: QuantumCircuit, shots: int, seed: int) -> list[str]:
    """Per-shot bitstrings from the frozen serial trajectory loop, the
    semantics every sampler must reproduce."""
    rng = np.random.default_rng(seed)
    return [
        "".join(str(b) for b in reversed(_run_trajectory(qc, None, rng)))
        for _ in range(shots)
    ]


def both_engines(backend: Backend, qc: QuantumCircuit, shots: int, seed: int):
    """``(serial, batched, batch group kind)``, each result ``(counts, memory)``;
    ``serial`` is the frozen serial engine's."""
    serial = frozen_run(backend, qc, shots, seed, True)
    (group,) = batchsim.plan(
        backend, [batchsim.make_unit(0, qc, None, seed, shots)]
    )
    (batched,) = batchsim.execute_group(backend.noise_model, group, True)
    return serial, batched, group.kind


class TestTallyCounts:
    @pytest.mark.parametrize("width", [1, 2, 4, 7, 8, 9, 16, 70])
    def test_matches_the_string_tally(self, width):
        rng = np.random.default_rng(1000 + width)
        for shots in (1, 5, 1024):
            rows = random_digit_rows(rng, shots, width)
            for memory in (False, True):
                got = tally_counts(rows, memory)
                assert got == reference_tally(row_strings(rows), memory)
                counts, _ = got
                assert list(counts) == sorted(counts)
                assert all(type(count) is int for count in counts.values())

    def test_zero_width_rows(self):
        rows = np.zeros((4, 0), dtype=np.uint8)
        assert tally_counts(rows, False) == ({"": 4}, None)
        assert tally_counts(rows, True) == ({"": 4}, [""] * 4)

    def test_zero_clbits_on_both_routes_in_both_engines(self):
        fast = QuantumCircuit(2, 0)
        fast.h(0)
        fast.cx(0, 1)
        reset = QuantumCircuit(1, 0)
        reset.h(0)
        reset.reset(0)
        cases = [
            (LocalSimulator(), fast, batchsim.IDEAL),
            (noisy_backend(), fast, batchsim.SHOTS),
            (LocalSimulator(), reset, batchsim.SHOTS),
        ]
        for backend, qc, kind in cases:
            assert _is_fast_path(qc, backend.noise_model) == (kind == batchsim.IDEAL)
            serial, batched, got_kind = both_engines(backend, qc, 33, 4)
            assert got_kind == kind
            assert serial == batched == ({"": 33}, [""] * 33)
            assert backend.execute_circuit(qc, 33, 4, False) == ({"": 33}, None)

    def test_wide_register_with_high_clbits(self):
        qc = QuantumCircuit(3, 70)
        qc.h(0)
        qc.cx(0, 1)
        qc.h(2)
        qc.measure(0, 69)
        qc.measure(1, 64)
        qc.measure(2, 40)
        for backend, kind in (
            (LocalSimulator(), batchsim.IDEAL),
            (noisy_backend(), batchsim.SHOTS),
        ):
            serial, batched, got_kind = both_engines(backend, qc, 300, 12)
            assert got_kind == kind
            assert serial == batched
            counts, per_shot = serial
            assert (counts, per_shot) == reference_tally(per_shot, True)
            assert all(len(key) == 70 for key in counts)
            untouched = set(range(70)) - {69, 64, 40}
            assert all(key[69 - c] == "0" for key in counts for c in untouched)
            if kind == batchsim.IDEAL:  # the Bell pair agrees on every shot
                assert all(key[0] == key[5] for key in counts)
                assert len(counts) == 4


def random_measures(rng, num_qubits: int, num_clbits: int):
    """Random ``(qubit, clbit)`` measures: clbits overwritten, qubits read
    into several clbits, and qubits whose every clbit is overwritten."""
    return [
        (int(rng.integers(num_qubits)), int(rng.integers(num_clbits)))
        for _ in range(int(rng.integers(1, 2 * num_qubits + 2)))
    ]


#: Shots per unit in the group-sampler cases.
SHOT_COUNTS = (1, 3, 64, 1024, 5000)


class TestSampleGroup:
    """``sample_group`` tallies outcome indices; the frozen digit-row
    sampler plus ``tally_counts``, which draws with ``rng.choice``, is its
    reference, so a numpy whose ``choice`` draws differently fails here."""

    @staticmethod
    def assert_same_as_reference(state, measures, num_clbits, shots, seed):
        for memory in (False, True):
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got = sample_one(state, measures, num_clbits, shots, rng, memory)
            want = tally_counts(
                sample_from_state(state, measures, num_clbits, shots, ref_rng),
                memory,
            )
            assert got == want
            assert list(got[0]) == list(want[0])  # same key order
            assert all(type(count) is int for count in got[0].values())
            # The draw is unchanged: both consumed the same generator stream.
            assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_random_states_and_measures(self):
        rng = np.random.default_rng(2300)
        for _ in range(150):
            num_qubits = int(rng.integers(1, 6))
            num_clbits = int(rng.integers(1, 7))
            state = Statevector(random_states(rng, 1, num_qubits)[0])
            measures = random_measures(rng, num_qubits, num_clbits)
            shots = int(rng.choice([1, 7, 256, 1024]))
            self.assert_same_as_reference(
                state, measures, num_clbits, shots, int(rng.integers(1 << 30))
            )

    def test_overwritten_and_unread_qubits_merge(self):
        # Qubit 1's clbit is overwritten by qubit 2, and qubit 0 feeds two
        # clbits: indices differing in qubit 1 share a key.
        state = Statevector(np.full(8, 1 / np.sqrt(8), dtype=np.complex128))
        measures = [(0, 0), (1, 1), (2, 1), (0, 2)]
        self.assert_same_as_reference(state, measures, 4, 512, 9)
        counts, _ = sample_one(
            state, measures, 4, 512, np.random.default_rng(9), False
        )
        assert set(counts) == {"0000", "0010", "0101", "0111"}

    def test_no_measures_and_zero_clbits(self):
        state = Statevector(random_states(np.random.default_rng(1), 1, 2)[0])
        for num_clbits in (0, 3):
            self.assert_same_as_reference(state, [], num_clbits, 5, 3)

    def test_a_uniform_on_a_cdf_step_draws_the_next_outcome_with_mass(self):
        # CDF [0.5, 0.5, 1, 1]: a uniform equal to a step value belongs to
        # the outcome above it (searchsorted side="right", as in
        # Generator.choice), so an outcome of probability 0 is never drawn.
        # Seeded generators hit an exact step with probability 2**-53, so
        # the uniforms are given.
        class Uniforms:
            def random(self, shots):
                assert shots == 4
                return np.array([0.0, 0.25, 0.5, 0.75])

        state = Statevector(np.array([1, 0, 1, 0], dtype=np.complex128))
        got = sample_one(state, [(0, 0), (1, 1)], 2, 4, Uniforms(), True)
        assert got == ({"00": 2, "10": 2}, ["00", "00", "10", "10"])

    @staticmethod
    def group_case(rng, case: int):
        """Rows of one structure and the measures of a group: a shuffled
        subset of 1-8 qubits into shuffled clbits plus spare clbits nothing
        measures into, and by turns a qubit read into two clbits, a clbit
        written twice, or no measurement at all."""
        num_qubits = int(rng.integers(1, 9))
        states = [
            Statevector(row)
            for row in random_states(rng, int(rng.integers(1, 4)), num_qubits)
        ]
        measured = rng.permutation(num_qubits)[: int(rng.integers(1, num_qubits + 1))]
        num_clbits = len(measured) + int(rng.integers(0, 3))
        clbits = rng.permutation(num_clbits)
        measures = [(int(q), int(c)) for q, c in zip(measured, clbits)]
        if case % 4 == 1:
            measures.append((measures[0][0], int(rng.integers(num_clbits))))
        elif case % 4 == 2:
            measures.append((int(rng.integers(num_qubits)), measures[0][1]))
        elif case % 8 == 7:
            measures = []
        return states, measures, num_clbits

    def test_every_unit_of_a_group_draws_what_it_draws_alone(self):
        rng = np.random.default_rng(3200)
        for case in range(48):
            states, measures, num_clbits = self.group_case(rng, case)
            units = [
                (row, int(rng.integers(1 << 30)), int(rng.choice(SHOT_COUNTS)))
                for row in range(len(states))
                for _ in range(int(rng.integers(1, 5)))
            ]
            units = [units[i] for i in rng.permutation(len(units))]  # interleaved
            for memory in (False, True):
                draws = [(row, np.random.default_rng(seed), shots)
                         for row, seed, shots in units]
                got = sample_group(states, measures, num_clbits, draws, memory)
                assert len(got) == len(units)
                for (row, seed, shots), (_, rng_used, _), result in zip(
                    units, draws, got
                ):
                    ref_rng = np.random.default_rng(seed)
                    want = tally_counts(
                        sample_from_state(
                            states[row], measures, num_clbits, shots, ref_rng
                        ),
                        memory,
                    )
                    assert result == want, (case, measures, row, shots)
                    assert list(result[0]) == list(want[0])  # same key order
                    assert all(type(count) is int for count in result[0].values())
                    assert rng_used.bit_generator.state == ref_rng.bit_generator.state


class TestClbitAssignment:
    """Final-measurement sampling keeps per-shot semantics when measurements
    share a qubit or a clbit: each clbit ends with the outcome of the qubit
    measured into it last."""

    @staticmethod
    def one_qubit_into_two_clbits() -> QuantumCircuit:
        qc = QuantumCircuit(1, 2)
        qc.h(0)
        qc.measure(0, 0)
        qc.measure(0, 1)
        return qc

    @staticmethod
    def two_qubits_into_one_clbit() -> QuantumCircuit:
        qc = QuantumCircuit(2, 1)
        qc.x(0)
        qc.measure(0, 0)
        qc.measure(1, 0)
        qc.measure(0, 0)
        return qc

    @pytest.mark.parametrize(
        "make, outcomes",
        [
            (one_qubit_into_two_clbits, {"00", "11"}),
            (two_qubits_into_one_clbit, {"1"}),
        ],
    )
    def test_both_engines_follow_the_trajectory(self, make, outcomes):
        qc = make()
        backend = LocalSimulator()
        assert _is_fast_path(qc, None)
        serial, batched, kind = both_engines(backend, qc, 200, 1)
        assert kind == batchsim.IDEAL
        assert serial == batched
        assert set(trajectory_strings(qc, 200, 1)) == outcomes
        assert set(serial[0]) == outcomes
        assert sum(serial[0].values()) == 200

    def test_basis_states_match_the_trajectory_for_any_measure_order(self):
        rng = np.random.default_rng(1200)
        backend = LocalSimulator()
        for _ in range(40):
            num_qubits = int(rng.integers(1, 5))
            num_clbits = int(rng.integers(1, 5))
            qc = QuantumCircuit(num_qubits, num_clbits)
            for qubit in range(num_qubits):
                if rng.random() < 0.5:
                    qc.x(qubit)
            for _ in range(int(rng.integers(1, 8))):
                qc.measure(
                    int(rng.integers(num_qubits)), int(rng.integers(num_clbits))
                )
            (want,) = set(trajectory_strings(qc, 1, 0))
            serial, batched, kind = both_engines(backend, qc, 16, 3)
            assert kind == batchsim.IDEAL
            assert serial == batched == ({want: 16}, [want] * 16), qc

    def test_one_clbit_per_qubit_keeps_the_sampled_stream(self):
        # Without shared qubits or clbits the rule changes nothing: the
        # stream is the one a qubit -> clbit mapping samples.
        rng = np.random.default_rng(1300)
        for _ in range(10):
            qc = random_circuit(rng, 3, 6)
            clbits = rng.permutation(3)
            measures = [(q, int(clbits[q])) for q in rng.permutation(3)]
            state = Statevector.from_circuit(qc.remove_all_measurements())
            rows = sample_from_state(state, measures, 3, 64, np.random.default_rng(5))
            draw = np.random.default_rng(5)
            probs = state.probabilities([q for q, _ in measures])
            index = draw.choice(len(probs), size=64, p=probs / float(probs.sum()))
            want = np.full((64, 3), ord("0"), dtype=np.uint8)
            for pos, (qubit, clbit) in enumerate(measures):
                want[:, 2 - clbit] += ((index >> pos) & 1).astype(np.uint8)
            assert np.array_equal(rows, want)


# ---------------------------------------------------------------------------
# Service-level fuzz: any grouping, either calling thread, bit-identical
# ---------------------------------------------------------------------------


class TestServiceFuzz:
    @pytest.mark.parametrize("seed", [21, 22, 23])
    def test_ideal_mixed_structure_workload(self, seed, run_pair):
        rng = np.random.default_rng(seed)
        structures = [random_circuit(rng, 3, int(rng.integers(3, 9)))
                      for _ in range(3)]
        workload = []
        for _ in range(8):
            base = structures[rng.integers(len(structures))]
            workload.append(reparameterize(base, rng))
        got, want, _ = run_pair(LocalSimulator(), workload, 193, seed)
        assert_results_identical(got, want)

    @pytest.mark.parametrize("seed", [31, 32])
    def test_noisy_workload_with_memory(self, seed, run_pair):
        rng = np.random.default_rng(seed)
        workload = [
            random_circuit(rng, 2, int(rng.integers(3, 7)),
                           measure="mid" if i % 3 == 0 else "all")
            for i in range(4)
        ]
        got, want, _ = run_pair(
            noisy_backend(), workload, 97, seed, memory=True
        )
        assert_results_identical(got, want, memory=True)

    def test_conditional_units_ride_the_serial_fallback(self, run_pair):
        rng = np.random.default_rng(41)
        cond = conditional_measure_circuit()
        workload = [random_circuit(rng, 2, 4), cond, random_circuit(rng, 2, 4)]
        got, want, svc = run_pair(LocalSimulator(), workload, 128, 41)
        assert_results_identical(got, want)
        stats = svc.stats()
        # The conditional unit simulated serially; the rest batched.
        assert stats["simulations_batched"] == 2
        assert stats["simulations"] == 3

    @pytest.mark.parametrize("entry", ["run", "thread"])
    @pytest.mark.parametrize(
        "backend",
        [
            LocalSimulator(),
            noisy_backend(p=0.03, readout=0.02),
            per_qubit_readout_backend(),
        ],
        ids=["local_simulator", "depolarizing", "per_qubit_readout"],
    )
    def test_conditionals_that_draw_match_the_frozen_engine(
        self, backend, entry, run_via, serial_reference
    ):
        """Shot-by-shot circuits: ``Backend.execute_circuit`` and the
        service's SERIAL route both replay the frozen serial stream."""
        rng = np.random.default_rng(47)
        workload = [
            drawing_conditional_circuit(
                rng, int(rng.integers(1, 5)), int(rng.integers(3, 12))
            )
            for _ in range(8)
        ]
        shots, seed = 37, 47
        want = serial_reference(backend, workload, shots, seed, memory=True)
        for index, qc in enumerate(workload):
            eff_seed = ExecutionService._effective_seed(seed, index)
            assert backend.execute_circuit(qc, shots, eff_seed, True) == (
                want[index]
            ), f"circuit {index} diverged"
        units = [
            batchsim.make_unit(i, qc, None, i, shots)
            for i, qc in enumerate(workload)
        ]
        assert [g.kind for g in batchsim.plan(backend, units)] == [
            batchsim.SERIAL
        ]
        svc = ExecutionService()
        got = run_via(
            entry, svc, workload, backend=backend, shots=shots, seed=seed,
            memory=True,
        ).result()
        stats = svc.stats()
        assert_results_identical(got, want, memory=True)
        assert stats["simulations"] == len(workload)
        assert stats["simulations_batched"] == 0

    @pytest.mark.parametrize("tile", ["default", "one-row"])
    @pytest.mark.parametrize("entry", ["run", "thread"])
    @pytest.mark.parametrize(
        "backend",
        [LocalSimulator(), corrections_noiseless_backend()],
        ids=["local_simulator", "noisy"],
    )
    def test_feed_forward_workload_with_memory(
        self, backend, entry, tile, run_via, serial_reference, monkeypatch
    ):
        if tile == "one-row":
            monkeypatch.setattr(batch_engine, "MAX_BATCH_AMPLITUDES", 1)
        rng = np.random.default_rng(45)
        workload = [
            feed_forward_circuit(rng, int(rng.integers(1, 5)),
                                 int(rng.integers(4, 14)))
            for _ in range(5)
        ]
        workload.append(library.teleportation(0.7, 0.2))
        want = serial_reference(backend, workload, 73, 45, memory=True)
        svc = ExecutionService()
        got = run_via(
            entry, svc, workload, backend=backend, shots=73, seed=45,
            memory=True,
        ).result()
        stats = svc.stats()
        assert_results_identical(got, want, memory=True)
        assert stats["simulations"] == len(workload)
        assert stats["simulations_batched"] == len(workload)

    @pytest.mark.parametrize("entry", ["run", "thread"])
    def test_single_structure_batch_matches_serial_engine(
        self, entry, run_via, serial_reference
    ):
        rng = np.random.default_rng(51)
        base = random_circuit(rng, 3, 6)
        workload = [reparameterize(base, rng) for _ in range(6)]
        svc = ExecutionService()
        got = run_via(
            entry, svc, workload, backend="local_simulator", shots=150, seed=51
        ).result()
        want = serial_reference("local_simulator", workload, 150, 51)
        assert_results_identical(got, want)

    def test_uncacheable_seedless_batch_still_works(self):
        qc = QuantumCircuit(1, 1)
        qc.h(0)
        qc.measure_all()
        svc = ExecutionService()
        result = svc.run([qc, qc], shots=50).result()
        assert sum(result.get_counts(0).values()) == 50
        assert svc.stats()["simulations_batched"] == 2


# ---------------------------------------------------------------------------
# Cache composition: hits, single-flight, and contested keys
# ---------------------------------------------------------------------------


class TestCacheComposition:
    def test_warm_rerun_simulates_nothing(self):
        rng = np.random.default_rng(61)
        workload = [random_circuit(rng, 2, 4) for _ in range(4)]
        svc = ExecutionService()
        first = svc.run(workload, shots=80, seed=61).result()
        warm = svc.run(workload, shots=80, seed=61).result()
        for i in range(len(workload)):
            assert warm.get_counts(i) == first.get_counts(i)
        stats = svc.stats()
        assert stats["simulations"] == stats["simulations_batched"] == 4
        assert stats["cache_hits"] == 4
        assert stats["cache_misses"] == (
            stats["simulations"] + stats["simulations_deduped"]
        )

    def test_duplicate_circuits_in_one_batch_dedup(self):
        qc = QuantumCircuit(2, 2)
        qc.h(0)
        qc.cx(0, 1)
        qc.measure_all()
        svc = ExecutionService()
        # Index 0 and the rest derive different seeds, so only exact
        # duplicates (same derived seed) could collide; run four batches
        # with overlapping keys from concurrent callers instead.
        results: list = [None] * 4

        def call(slot: int) -> None:
            results[slot] = svc.run([qc], shots=64, seed=7).result()

        threads = [threading.Thread(target=call, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
        assert not any(thread.is_alive() for thread in threads)
        for r in results[1:]:
            assert r.get_counts(0) == results[0].get_counts(0)
        stats = svc.stats()
        assert stats["simulations"] + stats["simulations_deduped"] + (
            stats["cache_hits"]
        ) == 4
        assert stats["cache_misses"] == (
            stats["simulations"] + stats["simulations_deduped"]
        )

    def test_contested_key_defers_to_foreign_leader(self):
        """A unit whose key a foreign thread leads waits, then dedups."""
        qc = QuantumCircuit(1, 1)
        qc.h(0)
        qc.measure_all()
        svc = ExecutionService()
        from repro.quantum.execution.cache import (
            circuit_fingerprint,
            noise_fingerprint,
        )
        from repro.quantum.execution.cache import CacheKey

        backend = LocalSimulator()
        key = CacheKey(
            circuit=circuit_fingerprint(qc),
            backend=backend.name,
            shots=64,
            seed=7,
            noise=noise_fingerprint(backend.noise_model),
            memory=False,
            engine=batchsim.ENGINE_VERSION,
        )
        assert svc._try_lead(key)  # the test is the foreign leader
        done = threading.Event()
        out = {}

        def runner():
            out["result"] = svc.run(
                qc, backend=backend, shots=64, seed=7
            ).result()
            done.set()

        thread = threading.Thread(target=runner)
        thread.start()
        # The batch group must not simulate the contested unit; it blocks
        # on our flight.  Fill the cache as the leader would, release.
        assert not done.wait(0.3)
        fake = {"1": 64}
        svc.cache.put(key, fake, None)
        svc._release_flight(key)
        assert done.wait(10)
        thread.join()
        assert out["result"].get_counts(0) == fake
        stats = svc.stats()
        assert stats["simulations"] == 0
        assert stats["simulations_deduped"] == 1
        assert stats["simulations_batched"] == 0


# ---------------------------------------------------------------------------
# Counters and attribution
# ---------------------------------------------------------------------------


class TestCounters:
    def test_batched_counters_in_stats_and_scope(self):
        rng = np.random.default_rng(71)
        base = random_circuit(rng, 3, 5)
        workload = [reparameterize(base, rng) for _ in range(6)]
        svc = ExecutionService()
        with svc.stats_scope("fuzz") as scope:
            svc.run(workload, shots=64, seed=71).result()
        stats = svc.stats()
        assert stats["simulations_batched"] == 6
        assert stats["batch_groups"] == 1
        attributed = scope.as_dict()
        assert attributed["simulations_batched"] == 6
        assert attributed["batch_groups"] == 1
        assert attributed["simulations"] == 6

    def test_noisy_units_count_one_group_each(self):
        rng = np.random.default_rng(81)
        workload = [random_circuit(rng, 2, 4) for _ in range(3)]
        svc = ExecutionService()
        svc.run(
            workload, backend=noisy_backend(), shots=32, seed=81
        ).result()
        stats = svc.stats()
        assert stats["simulations_batched"] == 3
        assert stats["batch_groups"] == 3  # SHOTS groups are singletons
