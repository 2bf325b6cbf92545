"""Simulation primitives: compaction, the trajectory draw schedule, sampling
and the tally.

The engine that uses them is :mod:`repro.quantum.batchsim`, the one
simulator in the program.  It runs each circuit on one of two paths:

* **fast path** — no gate noise, no reset, no conditionals, measurements only
  at circuit positions that are never followed by gates on the same qubit:
  evolve the statevector once, sample the joint distribution of the measured
  qubits and tally the drawn outcome indices (:func:`sample_counts`).
* **trajectory path** — everything else: one statevector trajectory per
  shot, sampling Pauli noise after each gate and readout flips at each
  measurement, with the uniforms each shot draws laid out by
  :func:`draw_widths`.  Its clbits come from collapse, not from one index,
  so it produces ``(shots, num_clbits)`` digit rows, which
  :func:`tally_counts` folds into counts.

Both tallies return the same thing for the same registers: counts sorted by
bitstring key, plus the per-shot keys when memory is requested.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.errors import SimulationError
from repro.quantum import gates as _gates
from repro.quantum.circuit import Instruction, QuantumCircuit
from repro.quantum.noise import NoiseModel
from repro.quantum.statevector import Statevector

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


def sample_counts(
    state: Statevector,
    measures: Sequence[tuple[int, int]],
    num_clbits: int,
    shots: int,
    rng: np.random.Generator,
    memory: bool,
) -> tuple[dict[str, int], list[str] | None]:
    """Sample ``shots`` classical registers from a final state and tally them.

    ``measures`` lists the circuit's ``(qubit, clbit)`` measurements in
    program order.  Each clbit holds the outcome of the qubit measured into
    it *last*, as a per-shot run leaves it: one qubit may feed several
    clbits, and a later measurement overwrites a clbit; a clbit nothing
    measures into reads 0.  Returns what :func:`tally_counts` returns for
    those registers: the counts sorted by key, and the per-shot keys when
    ``memory`` is set.

    The joint distribution is drawn over the measured qubits in the order
    they are first measured (the key order of ``measured_qubit_to_clbit()``)
    with exactly one ``rng.choice`` call, so the sampled stream is a pure
    function of ``(state, measures, shots, rng state)`` — which is what lets
    the batch engine share one evolved state across many per-unit generators
    and still give each unit the counts it would get alone.  The draws are
    tallied as outcome indices with ``np.bincount``, and a key is built only
    for each index drawn.  Indices that differ only in qubits no clbit reads
    (overwritten, or never measured into a kept clbit) share a key, and
    their counts merge.
    """
    if not measures:
        key = "0" * num_clbits
        return {key: shots}, ([key] * shots if memory else None)
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
    bins = np.bincount(outcome_idx)
    drawn = np.flatnonzero(bins)
    position = {qubit: pos for pos, qubit in enumerate(qubits)}
    last_source = {clbit: qubit for qubit, clbit in measures}
    clbits = np.zeros((drawn.size, num_clbits), dtype=np.int64)
    for clbit, qubit in last_source.items():
        clbits[:, clbit] = (drawn >> position[qubit]) & 1
    keyed = digit_rows(clbits).view(f"S{num_clbits}")[:, 0]
    keys = [row.decode("ascii") for row in keyed.tolist()]
    tallied: dict[str, int] = {}
    for key, count in zip(keys, bins[drawn].tolist()):
        tallied[key] = tallied.get(key, 0) + count
    counts = dict(sorted(tallied.items()))
    if not memory:
        return counts, None
    key_of = dict(zip(drawn.tolist(), keys))
    return counts, [key_of[index] for index in outcome_idx.tolist()]


def draw_widths(circuit: QuantumCircuit, noise: NoiseModel | None) -> list[int]:
    """Per-instruction uniform-draw counts of one trajectory shot.

    A trajectory shot consumes uniforms in a fixed order: a measurement
    draws its outcome plus one readout flip when the qubit has a readout
    error; a reset draws its outcome; a unitary gate draws one Pauli choice
    per touched qubit when a noise channel applies; barriers draw nothing.
    An instruction draws only when it runs, so a conditional one whose
    condition fails draws nothing on that shot.
    """
    widths: list[int] = []
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
        widths.append(draws)
    return widths


def trajectory_draw_plan(
    circuit: QuantumCircuit, noise: NoiseModel | None
) -> list[int] | None:
    """The :func:`draw_widths` of a circuit whose draw schedule is fixed.

    When every shot draws the same widths, the batch engine pre-draws a
    ``(shots, total)`` table and replays the per-shot stream exactly; the
    plan is then the one input that admits a circuit to the shot-batched
    route.  A conditional instruction that draws breaks that: whether it
    draws depends on the shot's measured bits.  Returns ``None`` for a
    conditional ``measure`` or ``reset`` and for a conditional gate with a
    noise channel; such a circuit runs one shot at a time.  A conditional
    gate with no noise channel (or a conditional barrier) draws nothing
    either way and is admitted.
    """
    widths = draw_widths(circuit, noise)
    if any(w and inst.condition is not None for inst, w in zip(circuit, widths)):
        return None
    return widths


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
