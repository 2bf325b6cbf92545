"""Circuit execution engines: ideal sampling and Monte-Carlo noisy trajectories.

Two paths:

* **fast path** — no gate noise, no reset, no conditionals, measurements only
  at circuit positions that are never followed by gates on the same qubit:
  evolve the statevector once and multinomially sample the joint distribution.
* **trajectory path** — everything else: one statevector trajectory per shot,
  sampling Pauli noise after each gate and readout flips at each measurement.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SimulationError
from repro.quantum import gates as _gates
from repro.quantum.analysis import circuit_facts, structural_errors
from repro.quantum.circuit import Instruction, QuantumCircuit
from repro.quantum.noise import NoiseModel
from repro.quantum.statevector import (
    Statevector,
    apply_matrix,
    collapse,
    measure_probabilities,
)

#: Hard cap for dense simulation; 2**20 complex amplitudes = 16 MiB.
MAX_DENSE_QUBITS = 20

#: Tolerance on the total probability mass of a measurement distribution.
#: Honest rounding drift over a dense evolution is orders of magnitude
#: smaller; mass outside this band means the state was corrupted upstream
#: (a non-unitary "gate" matrix, manual state surgery) and sampling from it
#: would silently launder the corruption into plausible-looking counts.
NORM_ATOL = 1e-6

_PAULI_MATRICES = {
    "x": _gates.X_MATRIX,
    "y": _gates.Y_MATRIX,
    "z": _gates.Z_MATRIX,
}


def _compact(circuit: QuantumCircuit) -> QuantumCircuit:
    """Relabel touched qubits to 0..k-1 so wide-but-sparse circuits stay dense.

    Transpiled circuits live on *physical* qubit indices of a (possibly
    127-qubit) device while touching only a handful of them; simulation only
    needs the touched ones.
    """
    touched = sorted({q for inst in circuit for q in inst.qubits})
    if not touched:
        touched = [0]
    if len(touched) == circuit.num_qubits and touched[-1] == len(touched) - 1:
        return circuit
    remap = {q: i for i, q in enumerate(touched)}
    out = QuantumCircuit(len(touched), max(circuit.num_clbits, 0), name=circuit.name)
    for inst in circuit:
        mapped = Instruction(
            inst.name,
            tuple(remap[q] for q in inst.qubits),
            inst.clbits,
            inst.params,
            inst.condition,
        )
        out._instructions.append(mapped)
    return out


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


def bit_rows_to_strings(rows: np.ndarray) -> list[str]:
    """Decode a ``(shots, width)`` array of ASCII digit codes into bitstrings.

    One decode over the whole block instead of a per-shot ``str.join`` — the
    assembly half of sampling is pure bookkeeping and should cost like it.
    """
    shots, width = rows.shape
    if width == 0:
        return [""] * shots
    buf = np.ascontiguousarray(rows.astype(np.uint8, copy=False)).tobytes()
    text = buf.decode("ascii")
    return [text[i * width : (i + 1) * width] for i in range(shots)]


def sample_from_state(
    state: Statevector,
    mapping: dict[int, int],
    num_clbits: int,
    shots: int,
    rng: np.random.Generator,
) -> list[str]:
    """Sample ``shots`` bitstrings from the measured qubits of a final state.

    ``mapping`` is ``measured_qubit_to_clbit()`` of the original circuit.
    Consumes exactly one ``rng.choice`` call, so the sampled stream is a pure
    function of ``(state, mapping, shots, rng state)`` — which is what lets
    the batch engine share one evolved state across many per-unit generators
    and still match the serial engine bit for bit.
    """
    if not mapping:
        return ["0" * num_clbits] * shots if num_clbits else [""] * shots
    qubits = list(mapping.keys())
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
    chars = np.full((shots, num_clbits), ord("0"), dtype=np.uint8)
    for pos, q in enumerate(qubits):
        clbit = mapping[q]
        chars[:, num_clbits - 1 - clbit] = ord("0") + (
            (outcome_idx >> pos) & 1
        ).astype(np.uint8)
    return bit_rows_to_strings(chars)


def _fast_sample(
    circuit: QuantumCircuit, shots: int, rng: np.random.Generator
) -> list[str]:
    """Sample shots from the final statevector (ideal, final-measurement case)."""
    mapping = circuit.measured_qubit_to_clbit()
    state = Statevector.from_circuit(circuit.remove_all_measurements())
    return sample_from_state(state, mapping, circuit.num_clbits, shots, rng)


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


def trajectory_draw_plan(
    circuit: QuantumCircuit, noise: NoiseModel | None
) -> list[int] | None:
    """Per-instruction uniform-draw counts of one :func:`_run_trajectory` shot.

    The trajectory path consumes ``rng.random()`` in a fixed order: a
    measurement draws its outcome plus one readout flip when the qubit has a
    readout error; a reset draws its outcome; a unitary gate draws one Pauli
    choice per touched qubit when a noise channel applies; barriers draw
    nothing.  When that schedule is state-independent, the batch engine
    pre-draws a ``(shots, total)`` table and replays the serial stream
    exactly; the plan is then the one input that admits a circuit to the
    shot-batched route.

    A conditional instruction skips its draws when its condition fails, so
    it is admitted only when it draws nothing either way: a conditional gate
    with no noise channel (or a conditional barrier).  Returns ``None`` for a
    conditional ``measure`` or ``reset`` and for a conditional gate with a
    noise channel; those shots cannot be batched and the caller falls back
    to the serial loop.
    """
    plan: list[int] = []
    for inst in circuit:
        if inst.name == "barrier":
            draws = 0
        elif inst.name == "measure":
            draws = 1
            if noise is not None and noise.readout_for(inst.qubits[0]) is not None:
                draws += 1
        elif inst.name == "reset":
            draws = 1
        elif noise is not None and noise.channel_for(inst.name, inst.qubits) is not None:
            draws = len(inst.qubits)
        else:
            draws = 0
        if draws and inst.condition is not None:
            return None
        plan.append(draws)
    return plan


def _run_trajectory(
    circuit: QuantumCircuit,
    noise: NoiseModel | None,
    rng: np.random.Generator,
) -> str:
    """One noisy shot; returns the classical bitstring (clbit 0 rightmost)."""
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
    return "".join(str(b) for b in reversed(clbits))


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
        outcomes = _fast_sample(circuit, shots, rng)
    else:
        outcomes = [_run_trajectory(circuit, noise, rng) for _ in range(shots)]
    return tally_counts(outcomes, memory)


def tally_counts(
    outcomes: list[str], memory: bool
) -> tuple[dict[str, int], list[str] | None]:
    """Fold per-shot bitstrings into ``(sorted counts, optional memory)``."""
    counts: dict[str, int] = {}
    for bits in outcomes:
        counts[bits] = counts.get(bits, 0) + 1
    return dict(sorted(counts.items())), (outcomes if memory else None)
