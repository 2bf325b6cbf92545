"""The one simulation engine: planned groups and single circuits.

Two vectorised paths, one per route of the planner:

* **ideal groups** — units sharing one gate structure evolve together: one
  |0...0> row per *distinct* circuit (units differing only in seed share a
  row outright), every gate applied across the whole batch with one stacked
  matmul.  At a position whose parameters differ across rows, the gate's
  spec builds the ``(batch, 2**k, 2**k)`` stack of the rows' matrices in
  one ``np.array`` call (:meth:`~repro.quantum.gates.GateSpec.stack`),
  still one matmul.  ``Statevector.evolve`` runs the same loop,
  :func:`evolve_rows`, on one row.  The group is then sampled in one call
  (:func:`~repro.quantum.simulator.sample_group`): each row's marginal and
  CDF once, each unit's uniforms from its own generator searched in its
  row's CDF, and each drawn outcome index decoded to its key once.  A
  unit's counts therefore depend on its ``(seed, circuit)`` alone, never on
  the batch it rode in.  With the stacks, variational (1,000 groups of two
  units) went from a median 0.84 to 0.65 s (10 alternating pairs, 2 CPUs).
* **shot-batched trajectories** — one unit's shots share a tile that holds
  one amplitude row per *distinct* history, not one per shot: ``row_of[s]``
  points shot ``s`` at its row, and clbits stay per shot.  All uniform
  draws are taken up front in per-shot order (row ``s`` of one
  ``rng.random((shots, per_shot))`` table is shot ``s``'s stream — the
  generator fills row-major, so the table *is* the one-shot-at-a-time
  sequence), laid out by the draw plan the planner attached to the unit.
  A gate that neither draws nor is conditioned is one kernel call over the
  distinct rows.  Three kinds of step give each shot a branch: a
  measurement or reset outcome (the shot's uniform against its row's P(1),
  :func:`~repro.quantum.batchsim.state.batch_p1`), a sampled Pauli and a
  feed-forward (``c_if``) condition.  Each (row, branch) pair the shots
  hold then gets a row of its own, an O(shots) compaction with no sort and
  no comparing of amplitudes, and each branch's operation (a collapse
  through :func:`~repro.quantum.batchsim.state.batch_collapse`, a reset's
  X, the Pauli, the conditioned gate) is applied to its rows with the same
  gather/scatter kernel call.  Each row keeps its own GEMM and summation
  orders, so every shot draws exactly what it would alone.  A noise-free
  4096-shot teleport (three measurements, two ``c_if``) therefore evolves
  at most 8 rows: it takes a median 1.6 ms, against 18 ms with one row per
  shot (15 runs a side, 2-CPU host).  Its clbits come from collapse, so it
  tallies ``(shots, num_clbits)`` digit rows with
  :func:`~repro.quantum.simulator.tally_counts`.

:func:`run_circuit` is the single-circuit entry behind
``Backend.execute_circuit``.  It routes like the planner and adds the one
class no group takes: a circuit whose conditionals draw (a conditional
measure or reset, or a noisy conditional gate) runs through the same
trajectory tile one shot at a time, a one-row tile that takes each uniform
from the generator when an instruction that runs needs it.  For 1024 shots
of a 3-qubit conditional measure/reset circuit that is about 2x slower
than a flat-state loop (medians of 0.19 s against 0.09 s, 9 alternating
runs each on a 2-CPU host); no workload runs that class.

Memory stays bounded by tiling the batch axis so no tile holds more than
:data:`MAX_BATCH_AMPLITUDES` amplitudes, even when every shot of a tile
has a history of its own; rows are independent, so tiling cannot affect
results.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

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
from repro.quantum.batchsim.state import (
    BatchStatevector,
    batch_apply_matrix,
    batch_collapse,
    batch_p1,
)
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.noise import NoiseModel
from repro.quantum.simulator import (
    _PAULI_MATRICES,
    MAX_DENSE_QUBITS,
    _measure_pairs,
    digit_rows,
    draw_widths,
    sample_group,
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
    # The group shares its measurements and clbits too, so one sampler call
    # draws every unit from its row.
    row_of: dict[tuple, int] = {}
    distinct: list[QuantumCircuit] = []
    draws = []
    for unit in units:
        params_stream = tuple(inst.params for inst in unit.compacted)
        if params_stream not in row_of:
            row_of[params_stream] = len(distinct)
            distinct.append(unit.compacted.remove_all_measurements())
        draws.append(
            (row_of[params_stream], np.random.default_rng(unit.seed), unit.shots)
        )
    lead = units[0].compacted
    return sample_group(
        evolve_rows(distinct), _measure_pairs(lead), lead.num_clbits, draws, memory
    )


def evolve_rows(
    circuits: list[QuantumCircuit], initial: np.ndarray | None = None
) -> list[Statevector]:
    """Evolve structurally identical unitary circuits in one batch.

    Each row starts from the amplitudes ``initial`` (|0...0> if ``None``)
    and ends in the ``Statevector`` constructor's wrap.  A measure, a reset
    or a classically conditioned gate raises :class:`SimulationError`.  A
    gate whose parameters differ across rows goes in as the per-row stack
    its spec builds (:meth:`~repro.quantum.gates.GateSpec.stack`), in one
    matmul.
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
            if lead.params and len(chunk) > 1:
                rows = [stream[position].params for stream in chunk]
                if rows.count(rows[0]) != len(rows):
                    # One np.array call over every row's entries: a
                    # C-contiguous complex128 stack whose slices are the
                    # rows' matrices byte for byte, so each keeps the GEMM
                    # of the one-matrix call.
                    batch.apply(_gates.get_spec(lead.name).stack(rows), lead.qubits)
                    continue
            batch.apply(lead.matrix(), lead.qubits)
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
    """Evolve one tile of ``shots`` shots through the trajectory, batched.

    The tile holds one amplitude row per distinct history: ``row_of[s]`` is
    shot ``s``'s row, and clbits stay per shot.  ``plan`` maps instructions
    to their per-shot draw widths, and ``take(width)`` returns the
    ``(shots, width)`` uniforms of the next instruction that runs and draws;
    row ``s``, column ``i`` is the ``i``-th uniform that instruction draws
    for shot ``s``.  A gate that neither draws nor is conditioned is applied
    to every row.  A measurement or reset outcome, a Pauli draw and a
    condition give each shot a branch; :func:`_split` gives every (row,
    branch) pair the shots hold a row of its own, and each branch's
    operation is applied to its rows.  A conditional instruction that draws
    only occurs in a one-row tile (a draw plan refuses it), where it runs on
    the row or is skipped together with its draws.
    """
    num_qubits = circuit.num_qubits
    states = np.zeros((1, 2**num_qubits), dtype=np.complex128)
    states[0, 0] = 1.0
    row_of = np.zeros(shots, dtype=np.intp)
    clbits = np.zeros((shots, circuit.num_clbits), dtype=np.int64)
    for inst, width in zip(circuit, plan):
        if inst.name == "barrier":
            continue
        if inst.condition is not None:
            bit, value = inst.condition
            fires = clbits[:, bit] == value
            if not width:
                states, row_of, branch = _split(states, row_of, fires, 2)
                states = _apply_rows(
                    states, branch.nonzero()[0], inst.matrix(), inst.qubits,
                    num_qubits,
                )
                continue
            if not fires.any():
                continue
        draws = take(width) if width else None
        if inst.name in ("measure", "reset"):
            qubit = inst.qubits[0]
            outcomes = draws[:, 0] < batch_p1(states, qubit, num_qubits)[row_of]
            states, row_of, branch = _split(states, row_of, outcomes, 2)
            states = batch_collapse(states, qubit, num_qubits, branch)
            if inst.name == "reset":
                states = _apply_rows(
                    states, branch.nonzero()[0], _gates.X_MATRIX, [qubit],
                    num_qubits,
                )
                continue
            readout = noise.readout_for(qubit) if noise is not None else None
            if readout is not None:
                outcomes = readout.apply_rows(
                    outcomes.astype(np.int64), draws[:, 1]
                )
            clbits[:, inst.clbits[0]] = outcomes
            continue
        states = batch_apply_matrix(states, inst.matrix(), inst.qubits, num_qubits)
        if width:
            channel = noise.channel_for(inst.name, inst.qubits)
            p_x = channel.p_x
            p_xy = channel.p_x + channel.p_y
            p_xyz = channel.p_x + channel.p_y + channel.p_z
            for offset, qubit in enumerate(inst.qubits):
                u = draws[:, offset]
                # Same left-to-right threshold sums as PauliNoise.sample, so
                # each shot lands in the identical branch it would serially:
                # 1, 2, 3 for x, y, z and 0 for no error.  The sums grow
                # with each term, so a shot errs exactly when u < p_xyz.
                errs = u < p_xyz
                if not errs.any():
                    continue
                pauli = np.where(
                    u < p_x, 1, np.where(u < p_xy, 2, np.where(errs, 3, 0))
                )
                states, row_of, branch = _split(states, row_of, pauli, 4)
                for index, name in enumerate("xyz", 1):
                    states = _apply_rows(
                        states, (branch == index).nonzero()[0],
                        _PAULI_MATRICES[name], [qubit], num_qubits,
                    )
    return digit_rows(clbits)


def _split(
    states: np.ndarray, row_of: np.ndarray, branch: np.ndarray, branches: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Give every (row, branch) pair the shots hold a row of its own.

    ``branch[s]`` in ``0..branches-1`` is shot ``s``'s branch, and every row
    of ``states`` has at least one shot.  A row keeps its index for the
    lowest branch its shots take; each other pair gets a copy of its row,
    appended.  Returns ``(states, row_of, branch of each row)``.  The work
    is O(shots): pairs are marked in a ``(rows, branches)`` table, so
    nothing is sorted and no amplitude is compared.
    """
    count = len(states)
    if count == len(row_of):
        # One shot per row, so no row splits.
        per_row = np.empty_like(branch)
        per_row[row_of] = branch
        return states, row_of, per_row
    keys = row_of * branches + branch
    taken = np.zeros(count * branches, dtype=bool)
    taken[keys] = True
    table = taken.reshape(count, branches)
    kept = table.argmax(axis=1)
    table[np.arange(count), kept] = False
    extra = taken.nonzero()[0]
    if not extra.size:
        return states, row_of, kept
    new_row = np.empty(count * branches, dtype=np.intp)
    new_row[np.arange(count) * branches + kept] = np.arange(count)
    new_row[extra] = np.arange(count, count + extra.size)
    states = np.concatenate([states, states[extra // branches]])
    return states, new_row[keys], np.concatenate([kept, extra % branches])


def _apply_rows(
    states: np.ndarray,
    rows: np.ndarray,
    matrix: np.ndarray,
    targets: Sequence[int],
    num_qubits: int,
) -> np.ndarray:
    """``states`` with ``matrix`` applied to the distinct ``rows``.

    A subset is gathered into a fresh contiguous block, evolved and
    scattered back in place, so each row keeps the kernel's per-row GEMM
    shape and with it bit-identity; naming every row applies the kernel to
    the whole array.
    """
    if len(rows) == len(states):
        return batch_apply_matrix(states, matrix, targets, num_qubits)
    if len(rows):
        states[rows] = batch_apply_matrix(states[rows], matrix, targets, num_qubits)
    return states
