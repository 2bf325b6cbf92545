"""Simulation primitives: compaction, the trajectory draw schedule, sampling
and the tally.

The engine that uses them is :mod:`repro.quantum.batchsim`, the one
simulator in the program.  It runs each circuit on one of two paths:

* **fast path** — no gate noise, no reset, no conditionals, measurements only
  at circuit positions that are never followed by gates on the same qubit:
  evolve the statevector once, sample the joint distribution of the measured
  qubits and tally the drawn outcome indices (:func:`sample_group`, one call
  per group of circuits that share a structure: each row's CDF once, each
  unit's draws from its own generator).
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

import math
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


def sample_group(
    states: Sequence[Statevector],
    measures: Sequence[tuple[int, int]],
    num_clbits: int,
    draws: Sequence[tuple[int, np.random.Generator, int]],
    memory: bool,
) -> list[tuple[dict[str, int], list[str] | None]]:
    """Sample every unit of one group from its row's final state and tally.

    ``states`` are the group's evolved rows, and ``draws`` holds one
    ``(row, rng, shots)`` per unit.  ``measures`` lists the circuits'
    ``(qubit, clbit)`` measurements in program order.  Each clbit holds the
    outcome of the qubit measured into it *last*, as a per-shot run leaves
    it: one qubit may feed several clbits, and a later measurement
    overwrites a clbit; a clbit nothing measures into reads 0.  Returns, per
    unit, what :func:`tally_counts` returns for those registers: the counts
    sorted by key, and the per-shot keys when ``memory`` is set.

    The joint distribution is drawn over the measured qubits in the order
    they are first measured (the key order of ``measured_qubit_to_clbit()``).
    Each row's marginal and its CDF are computed once, and each unit takes
    ``rng.random(shots)`` from its own generator and searches its row's CDF:
    the steps, and so the draws, of ``rng.choice(len(p), size=shots, p=p)``.
    A unit's counts are therefore a pure function of ``(state, measures,
    shots, rng state)``, whatever group it rode in.  A distribution whose
    mass is not finite or strays from 1 by more than :data:`NORM_ATOL`
    raises :class:`SimulationError`.  Each outcome index any unit drew is
    decoded to its key once; indices that differ only in qubits no clbit
    reads (overwritten, or never measured into a kept clbit) share a key,
    and their counts merge.
    """
    if not measures:
        key = "0" * num_clbits
        return [
            ({key: shots}, [key] * shots if memory else None)
            for _, _, shots in draws
        ]
    qubits = list(dict.fromkeys(qubit for qubit, _ in measures))
    cdfs: dict[int, np.ndarray] = {}
    for row, _, _ in draws:
        if row in cdfs:
            continue
        probs = states[row].probabilities(qubits)
        total = float(probs.sum())
        if not math.isfinite(total) or abs(total - 1.0) > NORM_ATOL:
            raise SimulationError(
                f"measurement distribution sums to {total!r}, not 1; the state "
                "lost normalisation upstream (non-unitary gate matrix?)"
            )
        # Dividing by the validated total scrubs honest rounding dust.
        cdf = (probs / total).cumsum()
        cdf /= cdf[-1]
        cdfs[row] = cdf
    drawn = [
        cdfs[row].searchsorted(rng.random(shots), side="right")
        for row, rng, shots in draws
    ]
    # Every index some unit drew; np.unique would import numpy.ma, which
    # costs 1.7 MB of peak RSS.
    outcomes = np.flatnonzero(np.bincount(np.concatenate(drawn)))
    position = {qubit: pos for pos, qubit in enumerate(qubits)}
    last_source = {clbit: qubit for qubit, clbit in measures}
    clbits = np.zeros((outcomes.size, num_clbits), dtype=np.int64)
    for clbit, qubit in last_source.items():
        clbits[:, clbit] = (outcomes >> position[qubit]) & 1
    keyed = digit_rows(clbits).view(f"S{num_clbits}")[:, 0]
    key_of = dict(
        zip(outcomes.tolist(), [row.decode("ascii") for row in keyed.tolist()])
    )
    results = []
    for shot_outcomes in drawn:
        counts = np.bincount(shot_outcomes)
        indices = np.flatnonzero(counts)
        tallied: dict[str, int] = {}
        for index, count in zip(indices.tolist(), counts[indices].tolist()):
            key = key_of[index]
            tallied[key] = tallied.get(key, 0) + count
        results.append((
            dict(sorted(tallied.items())),
            [key_of[index] for index in shot_outcomes.tolist()] if memory else None,
        ))
    return results


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
