"""Execute planned groups on the batch axis, bit-identical to serial.

Two vectorised paths, matching the serial engine's two paths:

* **ideal groups** — units sharing one gate structure evolve together: one
  |0...0> row per *distinct* circuit (units differing only in seed share a
  row outright), every gate applied across the whole batch with one stacked
  matmul, parameter-divergent positions gathered into per-parameter
  sub-batches.  Sampling then runs per unit with its own generator, so counts
  are bit-identical to ``Backend.execute_circuit`` per ``(seed, circuit)``.
* **shot-batched trajectories** — one unit's shots evolve as the batch axis.
  All uniform draws are taken up front in exactly the serial order (row ``s``
  of one ``rng.random((shots, per_shot))`` table is shot ``s``'s stream — the
  generator fills row-major, so the table *is* the serial sequence), laid out
  by the draw plan the planner attached to the unit.  Each gate is applied
  across all shots, each sampled Pauli across its shot subset, and each
  feed-forward (``c_if``) gate across the shots whose classical bit holds the
  condition's value — the same gather/scatter kernel call throughout.
  Measure and reset collapse every shot at once through
  :func:`~repro.quantum.batchsim.state.batch_measure`, whose per-row
  arithmetic is the serial ``measure_probabilities``/``collapse`` one.  A
  per-row collapse loop would dominate: one 4096-shot teleport batch took
  0.36-0.39 s with it and 0.06-0.07 s vectorised on a 2-CPU host.

Memory stays bounded by tiling the batch axis so no tile holds more than
:data:`MAX_BATCH_AMPLITUDES` amplitudes; rows are independent, so tiling
cannot affect results.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SimulationError
from repro.quantum import gates as _gates
from repro.quantum.batchsim.planner import IDEAL, SHOTS, PlannedGroup, PlannedUnit
from repro.quantum.batchsim.state import BatchStatevector
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.noise import NoiseModel
from repro.quantum.simulator import (
    _PAULI_MATRICES,
    bit_rows_to_strings,
    sample_from_state,
    tally_counts,
)
from repro.quantum.statevector import Statevector

#: Cap on amplitudes held by one batch tile; 2**21 complex128 = 32 MiB.
MAX_BATCH_AMPLITUDES = 2**21


def _tiles(count: int, num_qubits: int):
    """Yield ``(start, stop)`` batch-row ranges under the memory cap."""
    per_tile = max(1, MAX_BATCH_AMPLITUDES // 2**num_qubits)
    for start in range(0, count, per_tile):
        yield start, min(start + per_tile, count)


def execute_group(
    noise: NoiseModel | None, group: PlannedGroup, memory: bool
) -> list[tuple[dict[str, int], list[str] | None]]:
    """Run one batchable group; results align with ``group.units`` order."""
    if group.kind == IDEAL:
        return _execute_ideal(group.units, memory)
    if group.kind == SHOTS:
        return [
            _execute_trajectory_unit(unit, noise, memory)
            for unit in group.units
        ]
    raise SimulationError(
        f"group kind {group.kind!r} is not executable by the batch engine"
    )


# -- ideal fast path -----------------------------------------------------------------


def _execute_ideal(
    units: list[PlannedUnit], memory: bool
) -> list[tuple[dict[str, int], list[str] | None]]:
    # Within one structure group, circuits differ only in their parameter
    # streams — so the parameter stream is the full identity of a row, and
    # units sharing it (a sweep re-run under many seeds) share one evolution.
    row_of: dict[tuple, int] = {}
    distinct: list[QuantumCircuit] = []
    row_keys: list[tuple] = []
    for unit in units:
        params_stream = tuple(inst.params for inst in unit.compacted)
        if params_stream not in row_of:
            row_of[params_stream] = len(distinct)
            distinct.append(unit.compacted)
        row_keys.append(params_stream)
    states = _evolve_rows(distinct)
    results = []
    for unit, params_stream in zip(units, row_keys):
        rng = np.random.default_rng(unit.seed)
        outcomes = sample_from_state(
            states[row_of[params_stream]],
            unit.compacted.measured_qubit_to_clbit(),
            unit.compacted.num_clbits,
            unit.shots,
            rng,
        )
        results.append(tally_counts(outcomes, memory))
    return results


def _evolve_rows(circuits: list[QuantumCircuit]) -> list[Statevector]:
    """Evolve |0...0> through structurally identical circuits in one batch.

    Mirrors ``Statevector.from_circuit(circuit.remove_all_measurements())``
    instruction for instruction, including the final constructor wrap (and
    its normalisation handling), so each returned state equals its serial
    twin exactly.
    """
    stripped = [circuit.remove_all_measurements() for circuit in circuits]
    num_qubits = stripped[0].num_qubits
    states: list[Statevector | None] = [None] * len(stripped)
    for start, stop in _tiles(len(stripped), num_qubits):
        chunk = [list(circuit) for circuit in stripped[start:stop]]
        batch = BatchStatevector.zero_states(len(chunk), num_qubits)
        for position, lead in enumerate(chunk[0]):
            if lead.name == "barrier":
                continue
            if not lead.is_unitary:
                raise SimulationError(
                    f"evolve() only handles unitary gates, found '{lead.name}'"
                )
            by_params: dict[tuple, list[int]] = {}
            for row, stream in enumerate(chunk):
                by_params.setdefault(stream[position].params, []).append(row)
            if len(by_params) == 1:
                batch.apply(lead.matrix(), lead.qubits)
            else:
                for rows in by_params.values():
                    inst = chunk[rows[0]][position]
                    batch.apply_rows(rows, inst.matrix(), inst.qubits)
        for offset in range(len(chunk)):
            states[start + offset] = Statevector(batch.row(offset))
    return states


# -- shot-batched trajectory path ----------------------------------------------------


def _execute_trajectory_unit(
    unit: PlannedUnit, noise: NoiseModel | None, memory: bool
) -> tuple[dict[str, int], list[str] | None]:
    compacted, plan = unit.compacted, unit.draw_plan
    if plan is None:
        raise SimulationError(
            "shot-batched unit carries no draw plan; route it through plan()"
        )
    rng = np.random.default_rng(unit.seed)
    # Row s holds shot s's draws in exactly the order the serial loop would
    # have consumed them: the generator fills the table row-major.
    draws = rng.random((unit.shots, sum(plan)))
    outcomes: list[str] = []
    for start, stop in _tiles(unit.shots, compacted.num_qubits):
        outcomes.extend(
            _run_trajectory_tile(compacted, noise, draws[start:stop], plan)
        )
    return tally_counts(outcomes, memory)


def _run_trajectory_tile(
    circuit: QuantumCircuit,
    noise: NoiseModel | None,
    draws: np.ndarray,
    plan: list[int],
) -> list[str]:
    """Evolve one tile of shots through the trajectory, everything batched.

    ``draws[s, i]`` is the ``i``-th uniform the serial loop would draw for
    shot ``s``; ``plan`` maps instructions to their per-shot draw widths, so
    the cursor advances identically whether or not any branch fires.  A
    conditional instruction always has width 0 here (the plan refuses
    conditionals that draw), so skipping it on some shots cannot shift any
    shot's stream.
    """
    num_qubits, num_clbits = circuit.num_qubits, circuit.num_clbits
    batch = BatchStatevector.zero_states(draws.shape[0], num_qubits)
    clbits = np.zeros((batch.batch_size, num_clbits), dtype=np.int64)
    cursor = 0
    for inst, width in zip(circuit, plan):
        if inst.name == "barrier":
            continue
        if inst.name in ("measure", "reset"):
            qubit = inst.qubits[0]
            outcomes = batch.measure(qubit, draws[:, cursor])
            if inst.name == "reset":
                batch.apply_rows(np.flatnonzero(outcomes), _gates.X_MATRIX, [qubit])
            else:
                readout = noise.readout_for(qubit) if noise is not None else None
                if readout is not None:
                    outcomes = readout.apply_rows(outcomes, draws[:, cursor + 1])
                clbits[:, inst.clbits[0]] = outcomes
            cursor += width
            continue
        if inst.condition is not None:
            bit, value = inst.condition
            batch.apply_rows(
                np.flatnonzero(clbits[:, bit] == value), inst.matrix(), inst.qubits
            )
            continue
        batch.apply(inst.matrix(), inst.qubits)
        if width:
            channel = noise.channel_for(inst.name, inst.qubits)
            p_x = channel.p_x
            p_xy = channel.p_x + channel.p_y
            p_xyz = channel.p_x + channel.p_y + channel.p_z
            for offset, qubit in enumerate(inst.qubits):
                u = draws[:, cursor + offset]
                # Same left-to-right threshold sums as PauliNoise.sample, so
                # each shot lands in the identical branch it would serially.
                x_mask = u < p_x
                y_mask = ~x_mask & (u < p_xy)
                z_mask = ~x_mask & ~y_mask & (u < p_xyz)
                for mask, pauli in ((x_mask, "x"), (y_mask, "y"), (z_mask, "z")):
                    batch.apply_rows(
                        np.flatnonzero(mask), _PAULI_MATRICES[pauli], [qubit]
                    )
            cursor += width
    return bit_rows_to_strings(clbits[:, ::-1] + ord("0"))
