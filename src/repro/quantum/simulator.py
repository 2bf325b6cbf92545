"""Circuit execution engines: ideal sampling and Monte-Carlo noisy trajectories.

Two paths:

* **fast path** — no gate noise, no reset, no conditionals, measurements only
  at circuit positions that are never followed by gates on the same qubit:
  evolve the statevector once and multinomially sample the joint distribution.
* **trajectory path** — everything else: one statevector trajectory per shot,
  sampling Pauli noise after each gate and readout flips at each measurement.

Both paths (and the batch engine's) produce ``(shots, num_clbits)`` digit
rows, which :func:`tally_counts` folds into counts.
"""

from __future__ import annotations

from collections.abc import Sequence

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


def digit_rows(clbits: np.ndarray) -> np.ndarray:
    """Turn ``(shots, num_clbits)`` clbit values into ASCII digit rows.

    Column ``j`` of ``clbits`` is clbit ``j``; the returned ``uint8`` rows
    hold the codes of ``'0'``/``'1'`` with clbit 0 in the *last* column, so
    each row reads like its bitstring.  This is the row layout
    :func:`tally_counts` consumes.
    """
    return (clbits[:, ::-1] + ord("0")).astype(np.uint8, copy=False)


def _measure_pairs(circuit: QuantumCircuit) -> list[tuple[int, int]]:
    """``(qubit, clbit)`` of every ``measure`` instruction, in program order."""
    return [
        (inst.qubits[0], inst.clbits[0]) for inst in circuit if inst.name == "measure"
    ]


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
    and still match the serial engine bit for bit.
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


def _fast_sample(
    circuit: QuantumCircuit, shots: int, rng: np.random.Generator
) -> np.ndarray:
    """Sample shots from the final statevector (ideal, final-measurement case)."""
    state = Statevector.from_circuit(circuit.remove_all_measurements())
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


def tally_counts(
    rows: np.ndarray, memory: bool
) -> tuple[dict[str, int], list[str] | None]:
    """Fold ``(shots, width)`` digit rows into ``(sorted counts, optional memory)``.

    Each row is viewed as one ``width``-byte string, so ``np.unique`` counts
    the distinct outcomes without a Python object per shot; only those
    distinct rows are decoded into bitstring keys.  ``'0'``/``'1'`` bytes
    sort like their characters, so the keys come back sorted.  The per-shot
    list is built only for ``memory=True``: shot order, each entry the
    decoded key of its row.
    """
    shots, width = rows.shape
    if width == 0:
        return {"": shots}, ([""] * shots if memory else None)
    keyed = np.ascontiguousarray(rows, dtype=np.uint8).view(f"S{width}")[:, 0]
    if memory:
        distinct, inverse, counts = np.unique(
            keyed, return_inverse=True, return_counts=True
        )
    else:
        distinct, counts = np.unique(keyed, return_counts=True)
    keys = [row.decode("ascii") for row in distinct.tolist()]
    tallied = dict(zip(keys, counts.tolist()))
    if not memory:
        return tallied, None
    return tallied, [keys[i] for i in inverse.tolist()]
