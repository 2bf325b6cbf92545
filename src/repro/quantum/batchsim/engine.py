"""The one simulation engine: planned groups and single circuits.

Two vectorised paths, one per route of the planner:

* **ideal groups** — units sharing one gate structure evolve together: one
  |0...0> row per *distinct* circuit (units differing only in seed share a
  row outright), every gate applied across the whole batch with one stacked
  matmul.  At a position whose parameters differ across rows, each distinct
  matrix is built once and the rows' matrices go in as a ``(batch, 2**k,
  2**k)`` stack, still one matmul.  ``Statevector.evolve`` runs the same
  loop, :func:`evolve_rows`, on one row.  Sampling then runs per unit with
  its own generator and tallies the drawn outcome indices
  (:func:`~repro.quantum.simulator.sample_counts`), so a unit's counts
  depend on its ``(seed, circuit)`` alone, never on the batch it rode in.
* **shot-batched trajectories** — one unit's shots evolve as the batch axis.
  All uniform draws are taken up front in per-shot order (row ``s`` of one
  ``rng.random((shots, per_shot))`` table is shot ``s``'s stream — the
  generator fills row-major, so the table *is* the one-shot-at-a-time
  sequence), laid out by the draw plan the planner attached to the unit.
  Each gate is applied across all shots, each sampled Pauli across its shot
  subset, and each feed-forward (``c_if``) gate across the shots whose
  classical bit holds the condition's value — the same gather/scatter
  kernel call throughout.  Measure and reset collapse every shot at once
  through :func:`~repro.quantum.batchsim.state.batch_measure`.  A per-row
  collapse loop would dominate: one 4096-shot teleport batch took
  0.36-0.39 s with it and 0.06-0.07 s vectorised on a 2-CPU host.  One
  ``.sum()`` per row for P(1) was then most of what remained; with every
  row's sum taken as whole-column adds the batch takes a median 0.021 s,
  against 0.045-0.055 s (15 runs a side, 2-CPU host).  Its clbits come
  from collapse, so it tallies ``(shots, num_clbits)`` digit
  rows with :func:`~repro.quantum.simulator.tally_counts`.

:func:`run_circuit` is the single-circuit entry behind
``Backend.execute_circuit``.  It routes like the planner and adds the one
class no group takes: a circuit whose conditionals draw (a conditional
measure or reset, or a noisy conditional gate) runs through the same
trajectory tile one shot at a time, a one-row tile that takes each uniform
from the generator when an instruction that runs needs it.  For 1024 shots
of a 3-qubit conditional measure/reset circuit that is about 1.7x slower
than a flat-state loop (0.24 s against 0.14 s on a 2-CPU host); no workload
runs that class.

Memory stays bounded by tiling the batch axis so no tile holds more than
:data:`MAX_BATCH_AMPLITUDES` amplitudes; rows are independent, so tiling
cannot affect results.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.errors import SimulationError
from repro.quantum import gates as _gates
from repro.quantum.analysis import structural_errors
from repro.quantum.batchsim.planner import (
    IDEAL,
    SHOTS,
    PlannedGroup,
    PlannedUnit,
    make_unit,
    route,
)
from repro.quantum.batchsim.state import BatchStatevector
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.noise import NoiseModel
from repro.quantum.simulator import (
    _PAULI_MATRICES,
    MAX_DENSE_QUBITS,
    _measure_pairs,
    digit_rows,
    draw_widths,
    sample_counts,
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


def run_circuit(
    circuit: QuantumCircuit,
    shots: int,
    seed: int | None,
    noise: NoiseModel | None,
    memory: bool,
) -> tuple[dict[str, int], list[str] | None]:
    """Simulate one circuit: ``(counts, memory)``.

    Raises :class:`SimulationError` for a structurally defective circuit,
    for more than :data:`~repro.quantum.simulator.MAX_DENSE_QUBITS` touched
    qubits and for ``shots <= 0``, checked in that order.  Otherwise the
    circuit takes the path :func:`~repro.quantum.batchsim.planner.route`
    picks, as a group of one, or runs shot by shot when its conditionals
    draw.
    """
    unit = make_unit(0, circuit, None, seed, shots)
    if unit.facts.structurally_defective:
        first = structural_errors(unit.facts)[0]
        raise SimulationError(
            f"circuit is structurally defective: [{first.code}] {first.message}"
        )
    if unit.compacted.num_qubits > MAX_DENSE_QUBITS:
        raise SimulationError(
            f"circuit touches {unit.compacted.num_qubits} qubits; dense "
            f"simulation is capped at {MAX_DENSE_QUBITS}"
        )
    if shots <= 0:
        raise SimulationError(f"shots must be positive, got {shots}")
    kind = route(unit, noise)
    if kind == IDEAL:
        return _execute_ideal([unit], memory)[0]
    if kind == SHOTS:
        return _execute_trajectory_unit(unit, noise, memory)
    return _execute_shot_by_shot(unit, noise, memory)


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
            distinct.append(unit.compacted.remove_all_measurements())
        row_keys.append(params_stream)
    states = evolve_rows(distinct)
    return [
        sample_counts(
            states[row_of[params_stream]],
            _measure_pairs(unit.compacted),
            unit.compacted.num_clbits,
            unit.shots,
            np.random.default_rng(unit.seed),
            memory,
        )
        for unit, params_stream in zip(units, row_keys)
    ]


def evolve_rows(
    circuits: list[QuantumCircuit], initial: np.ndarray | None = None
) -> list[Statevector]:
    """Evolve structurally identical unitary circuits in one batch.

    Each row starts from the amplitudes ``initial`` (|0...0> if ``None``)
    and ends in the ``Statevector`` constructor's wrap.  A measure, a reset
    or a classically conditioned gate raises :class:`SimulationError`.  A
    gate whose parameters differ across rows builds each distinct matrix
    once and applies the per-row stack in one matmul.
    """
    num_qubits = circuits[0].num_qubits
    states: list[Statevector | None] = [None] * len(circuits)
    for start, stop in _tiles(len(circuits), num_qubits):
        chunk = [list(circuit) for circuit in circuits[start:stop]]
        if initial is None:
            batch = BatchStatevector.zero_states(len(chunk), num_qubits)
        else:
            batch = BatchStatevector(np.tile(initial, (len(chunk), 1)))
        for position, lead in enumerate(chunk[0]):
            if lead.name == "barrier":
                continue
            if not lead.is_unitary:
                raise SimulationError(
                    f"evolve() only handles unitary gates, found '{lead.name}'"
                )
            if lead.condition is not None:
                raise SimulationError(
                    "evolve() cannot apply classically conditioned "
                    f"'{lead.name}' (clbit {lead.condition[0]} == "
                    f"{lead.condition[1]}); use a backend with shots instead"
                )
            matrix_of: dict[tuple, np.ndarray] = {}
            per_row = []
            for stream in chunk:
                inst = stream[position]
                matrix = matrix_of.get(inst.params)
                if matrix is None:
                    matrix = matrix_of[inst.params] = inst.matrix()
                per_row.append(matrix)
            if len(matrix_of) == 1:
                batch.apply(per_row[0], lead.qubits)
            else:
                # Parametric gate builders return C-contiguous complex128
                # matrices, so each stack slice keeps the layout, and with
                # it the GEMM, of the one-matrix call.
                batch.apply(np.stack(per_row), lead.qubits)
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
    # Row s holds shot s's draws in exactly the order a one-shot-at-a-time
    # run would consume them: the generator fills the table row-major.
    draws = rng.random((unit.shots, sum(plan)))
    rows = np.concatenate([
        _run_trajectory_tile(
            compacted, noise, plan, stop - start, _columns(draws[start:stop])
        )
        for start, stop in _tiles(unit.shots, compacted.num_qubits)
    ])
    return tally_counts(rows, memory)


def _execute_shot_by_shot(
    unit: PlannedUnit, noise: NoiseModel | None, memory: bool
) -> tuple[dict[str, int], list[str] | None]:
    """A circuit whose conditionals draw, as one-row tiles in shot order.

    Whether such a conditional draws depends on the shot's measured bits,
    so no table can be laid out up front: each tile takes its uniforms from
    the unit's generator as the instructions that run need them.
    """
    rng = np.random.default_rng(unit.seed)
    widths = draw_widths(unit.compacted, noise)

    def take(width: int) -> np.ndarray:
        return rng.random((1, width))

    rows = np.concatenate([
        _run_trajectory_tile(unit.compacted, noise, widths, 1, take)
        for _ in range(unit.shots)
    ])
    return tally_counts(rows, memory)


def _columns(draws: np.ndarray) -> Callable[[int], np.ndarray]:
    """Hand out a pre-drawn table's columns, ``width`` at a time, in order."""
    cursor = 0

    def take(width: int) -> np.ndarray:
        nonlocal cursor
        cursor += width
        return draws[:, cursor - width:cursor]

    return take


def _run_trajectory_tile(
    circuit: QuantumCircuit,
    noise: NoiseModel | None,
    plan: list[int],
    shots: int,
    take: Callable[[int], np.ndarray],
) -> np.ndarray:
    """Evolve one tile of ``shots`` rows through the trajectory, batched.

    ``plan`` maps instructions to their per-shot draw widths, and
    ``take(width)`` returns the ``(shots, width)`` uniforms of the next
    instruction that runs and draws; row ``s``, column ``i`` is the ``i``-th
    uniform that instruction draws for shot ``s``.  A conditional
    instruction that draws nothing is applied to the rows whose classical
    bit holds the condition's value.  One that draws only occurs in a
    one-row tile (a draw plan refuses it), where it runs on the row or is
    skipped together with its draws.
    """
    num_clbits = circuit.num_clbits
    batch = BatchStatevector.zero_states(shots, circuit.num_qubits)
    clbits = np.zeros((shots, num_clbits), dtype=np.int64)
    for inst, width in zip(circuit, plan):
        if inst.name == "barrier":
            continue
        if inst.condition is not None:
            bit, value = inst.condition
            rows = np.flatnonzero(clbits[:, bit] == value)
            if not width:
                batch.apply_rows(rows, inst.matrix(), inst.qubits)
                continue
            if not rows.size:
                continue
        draws = take(width) if width else None
        if inst.name in ("measure", "reset"):
            qubit = inst.qubits[0]
            outcomes = batch.measure(qubit, draws[:, 0])
            if inst.name == "reset":
                batch.apply_rows(np.flatnonzero(outcomes), _gates.X_MATRIX, [qubit])
            else:
                readout = noise.readout_for(qubit) if noise is not None else None
                if readout is not None:
                    outcomes = readout.apply_rows(outcomes, draws[:, 1])
                clbits[:, inst.clbits[0]] = outcomes
            continue
        batch.apply(inst.matrix(), inst.qubits)
        if width:
            channel = noise.channel_for(inst.name, inst.qubits)
            p_x = channel.p_x
            p_xy = channel.p_x + channel.p_y
            p_xyz = channel.p_x + channel.p_y + channel.p_z
            for offset, qubit in enumerate(inst.qubits):
                u = draws[:, offset]
                # Same left-to-right threshold sums as PauliNoise.sample, so
                # each shot lands in the identical branch it would serially.
                x_mask = u < p_x
                y_mask = ~x_mask & (u < p_xy)
                z_mask = ~x_mask & ~y_mask & (u < p_xyz)
                for mask, pauli in ((x_mask, "x"), (y_mask, "y"), (z_mask, "z")):
                    batch.apply_rows(
                        np.flatnonzero(mask), _PAULI_MATRICES[pauli], [qubit]
                    )
    return digit_rows(clbits)
