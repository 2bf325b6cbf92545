"""The serial simulation engine, frozen as the parity reference.

``repro.quantum.batchsim`` is the one simulator the program runs.  This is
the engine it replaced, kept verbatim: ``simulate_counts`` evolves one
statevector per circuit on the ideal fast path and one flat-state
trajectory per shot otherwise, measuring with the flat-state
``measure_probabilities`` and ``collapse``.  The batch engine was built to
match it bit for bit, so the parity suites (through
``conftest.serial_reference``) and the benchmarks compare the live engine
against it.  Do not edit these functions to follow the live engine: a
difference between the two is a finding.

What it shares with the live engine is what both are checked against
separately: the cached kernel axis orders ``_axis_orders`` (both kernels are
pinned to frozen ``np.moveaxis`` formulations), compaction,
``Statevector.probabilities`` and the digit-row tally.  The evolution is
not shared: ``Statevector`` runs batchsim's loop and kernel, while the flat
gate kernel ``apply_matrix`` and the flat ``evolve`` / ``from_circuit`` /
``expectation_value`` below are the ones it ran before, and the ideal path
here evolves with them.  The final-state sampler is not shared either: the
live engine tallies outcome indices with ``simulator.sample_counts``, and
``sample_from_state`` below, which writes one digit row per shot for
``tally_counts``, is the reference it is checked against.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.errors import SimulationError
from repro.quantum import gates as _gates
from repro.quantum.analysis import circuit_facts, structural_errors
from repro.quantum.batchsim.state import _axis_orders
from repro.quantum.circuit import Instruction, QuantumCircuit
from repro.quantum.noise import NoiseModel
from repro.quantum.simulator import (
    _PAULI_MATRICES,
    MAX_DENSE_QUBITS,
    NORM_ATOL,
    _compact,
    _measure_pairs,
    digit_rows,
    tally_counts,
)
from repro.quantum.statevector import _ATOL, Statevector


def apply_matrix(
    state: np.ndarray,
    matrix: np.ndarray,
    targets: Sequence[int],
    num_qubits: int,
) -> np.ndarray:
    """Apply a ``2^k x 2^k`` unitary to ``targets`` of an ``n``-qubit state.

    The matrix convention is little-endian in instruction order: the *first*
    qubit in ``targets`` is the least-significant bit of the matrix index.
    Returns a new flat state vector.
    """
    k = len(targets)
    if matrix.shape != (2**k, 2**k):
        raise SimulationError(
            f"matrix shape {matrix.shape} does not match {k} target qubit(s)"
        )
    forward, inverse = _axis_orders(tuple(targets), num_qubits, 0)
    tensor = state.reshape([2] * num_qubits).transpose(forward)
    mat_view = matrix @ tensor.reshape(2**k, -1)
    return mat_view.reshape([2] * num_qubits).transpose(inverse).reshape(-1)


def evolve(state: np.ndarray, circuit: QuantumCircuit) -> Statevector:
    """``Statevector.evolve`` as the flat engine ran it, from amplitudes ``state``."""
    num_qubits = circuit.num_qubits
    state = state.copy()
    for inst in circuit:
        if inst.name == "barrier":
            continue
        if not inst.is_unitary:
            raise SimulationError(
                f"evolve() only handles unitary gates, found '{inst.name}'"
            )
        state = apply_matrix(state, inst.matrix(), inst.qubits, num_qubits)
    return Statevector(state)


def from_circuit(circuit: QuantumCircuit) -> Statevector:
    """``Statevector.from_circuit`` as the flat engine ran it: the zero
    state, ``apply_matrix`` per instruction (trailing measurements dropped),
    then the ``Statevector`` wrap."""
    state = np.zeros(2**circuit.num_qubits, dtype=np.complex128)
    state[0] = 1.0
    return evolve(state, circuit.remove_final_measurements())


def expectation_value(state: Statevector, pauli: str) -> float:
    """``Statevector.expectation_value`` as the flat engine computed it."""
    mats = {
        "I": _gates.I_MATRIX, "X": _gates.X_MATRIX,
        "Y": _gates.Y_MATRIX, "Z": _gates.Z_MATRIX,
    }
    data = state.data
    applied = data.copy()
    for pos, ch in enumerate(reversed(pauli.upper())):
        if ch != "I":
            applied = apply_matrix(applied, mats[ch], [pos], state.num_qubits)
    return float(np.real(np.vdot(data, applied)))


def sample_from_state(
    state: Statevector,
    measures: Sequence[tuple[int, int]],
    num_clbits: int,
    shots: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Sample ``shots`` classical registers from the measured qubits of a state.

    ``measures`` lists the circuit's ``(qubit, clbit)`` measurements in
    program order.  Returns ``(shots, num_clbits)`` ASCII digit rows (see
    :func:`digit_rows`).  Each clbit holds the outcome of the qubit measured
    into it *last*, as a per-shot run leaves it: one qubit may feed several
    clbits, and a later measurement overwrites a clbit; a clbit nothing
    measures into reads 0.

    The joint distribution is drawn over the measured qubits in the order
    they are first measured (the key order of ``measured_qubit_to_clbit()``)
    with exactly one ``rng.choice`` call, so the sampled stream is a pure
    function of ``(state, measures, shots, rng state)`` — which is what lets
    the batch engine share one evolved state across many per-unit generators
    and still give each unit the counts it would get alone.
    """
    rows = np.full((shots, num_clbits), ord("0"), dtype=np.uint8)
    if not measures:
        return rows
    qubits = list(dict.fromkeys(qubit for qubit, _ in measures))
    probs = state.probabilities(qubits)
    total = float(probs.sum())
    if abs(total - 1.0) > NORM_ATOL:
        raise SimulationError(
            f"measurement distribution sums to {total!r}, not 1; the state "
            "lost normalisation upstream (non-unitary gate matrix?)"
        )
    # Dividing by a validated ~1.0 total only scrubs honest rounding dust;
    # it keeps numpy's own (tighter) sum check in rng.choice satisfied.
    outcome_idx = rng.choice(len(probs), size=shots, p=probs / total)
    position = {qubit: pos for pos, qubit in enumerate(qubits)}
    last_source = {clbit: qubit for qubit, clbit in measures}
    for clbit, qubit in last_source.items():
        rows[:, num_clbits - 1 - clbit] = ord("0") + (
            (outcome_idx >> position[qubit]) & 1
        ).astype(np.uint8)
    return rows


def measure_probabilities(state: np.ndarray, qubit: int, num_qubits: int) -> float:
    """Return P(qubit = 1) for one qubit of a flat state."""
    probs = np.abs(state) ** 2
    mask = 1 << qubit
    indices = np.arange(2**num_qubits)
    return float(probs[(indices & mask) != 0].sum())


def collapse(
    state: np.ndarray, qubit: int, outcome: int, num_qubits: int
) -> np.ndarray:
    """Project a flat state onto ``qubit == outcome`` and renormalise."""
    mask = 1 << qubit
    indices = np.arange(2**num_qubits)
    keep = ((indices & mask) != 0) == bool(outcome)
    new = np.where(keep, state, 0.0)
    norm = np.linalg.norm(new)
    if norm < _ATOL:
        raise SimulationError(
            f"collapse onto qubit {qubit}={outcome} has zero probability"
        )
    return new / norm


def _validate(circuit: QuantumCircuit) -> None:
    if circuit.num_qubits == 0:
        raise SimulationError("cannot simulate a circuit with no qubits")
    if circuit.num_qubits > MAX_DENSE_QUBITS:
        raise SimulationError(
            f"circuit touches {circuit.num_qubits} qubits; dense simulation "
            f"is capped at {MAX_DENSE_QUBITS}"
        )


def _is_fast_path(circuit: QuantumCircuit, noise: NoiseModel | None) -> bool:
    """True when sampling from the final state reproduces per-shot semantics.

    Thin wrapper over :meth:`CircuitFacts.is_fast_path` — the analyzer is the
    single source of truth for this classification; the batchsim planner reads
    the same facts, so serial and batch routing can never disagree.
    """
    return circuit_facts(circuit).is_fast_path(noise)


def _fast_sample(
    circuit: QuantumCircuit, shots: int, rng: np.random.Generator
) -> np.ndarray:
    """Sample shots from the final statevector (ideal, final-measurement case)."""
    state = from_circuit(circuit.remove_all_measurements())
    return sample_from_state(
        state, _measure_pairs(circuit), circuit.num_clbits, shots, rng
    )


def _apply_gate_noise(
    state: np.ndarray,
    inst: Instruction,
    noise: NoiseModel | None,
    num_qubits: int,
    rng: np.random.Generator,
) -> np.ndarray:
    if noise is None:
        return state
    channel = noise.channel_for(inst.name, inst.qubits)
    if channel is None:
        return state
    for q in inst.qubits:
        pauli = channel.sample(rng)
        if pauli is not None:
            state = apply_matrix(state, _PAULI_MATRICES[pauli], [q], num_qubits)
    return state


def _run_trajectory(
    circuit: QuantumCircuit,
    noise: NoiseModel | None,
    rng: np.random.Generator,
) -> list[int]:
    """One noisy shot; returns the classical register (clbit 0 first)."""
    n = circuit.num_qubits
    state = np.zeros(2**n, dtype=np.complex128)
    state[0] = 1.0
    clbits = [0] * circuit.num_clbits
    for inst in circuit:
        if inst.name == "barrier":
            continue
        if inst.condition is not None:
            bit, value = inst.condition
            if clbits[bit] != value:
                continue
        if inst.name == "measure":
            qubit = inst.qubits[0]
            p1 = measure_probabilities(state, qubit, n)
            outcome = 1 if rng.random() < p1 else 0
            state = collapse(state, qubit, outcome, n)
            recorded = outcome
            if noise is not None:
                readout = noise.readout_for(qubit)
                if readout is not None:
                    recorded = readout.apply(outcome, rng)
            clbits[inst.clbits[0]] = recorded
            continue
        if inst.name == "reset":
            qubit = inst.qubits[0]
            p1 = measure_probabilities(state, qubit, n)
            outcome = 1 if rng.random() < p1 else 0
            state = collapse(state, qubit, outcome, n)
            if outcome == 1:
                state = apply_matrix(state, _gates.X_MATRIX, [qubit], n)
            continue
        state = apply_matrix(state, inst.matrix(), inst.qubits, n)
        state = _apply_gate_noise(state, inst, noise, n, rng)
    return clbits


def simulate_counts(
    circuit: QuantumCircuit,
    shots: int,
    rng: np.random.Generator,
    noise: NoiseModel | None = None,
    memory: bool = False,
) -> tuple[dict[str, int], list[str] | None]:
    """Execute a circuit and return ``(counts, memory)``.

    ``counts`` maps classical bitstrings (clbit 0 rightmost) to frequencies;
    ``memory`` is the per-shot list when requested, else ``None``.
    """
    facts = circuit_facts(circuit)
    if facts.structurally_defective:
        first = structural_errors(facts)[0]
        raise SimulationError(
            f"circuit is structurally defective: [{first.code}] {first.message}"
        )
    circuit = _compact(circuit)
    _validate(circuit)
    if shots <= 0:
        raise SimulationError(f"shots must be positive, got {shots}")
    # ``is_fast_path`` only reads relabelling-invariant structure, so facts of
    # the original circuit answer for the compacted one too.
    if facts.is_fast_path(noise):
        rows = _fast_sample(circuit, shots, rng)
    else:
        clbits = np.array(
            [_run_trajectory(circuit, noise, rng) for _ in range(shots)],
            dtype=np.uint8,
        ).reshape(shots, circuit.num_clbits)
        rows = digit_rows(clbits)
    return tally_counts(rows, memory)
