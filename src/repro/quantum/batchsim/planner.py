"""Group cache-miss work units into batchable execution groups.

The planner decides *what may share a batch*, and nothing else — it never
changes results, because grouping only ever shares work that is provably
identical (the gate structure) while everything sample-relevant (seed, shots,
parameters) stays per unit.  :func:`route` classifies one unit on the
compacted circuit, and the single-circuit entry
:func:`~repro.quantum.batchsim.engine.run_circuit` picks its path with the
same function, so a circuit runs the same way alone or in a batch:

* **ideal** — fast-path circuits (no nontrivial noise, final measurements
  only), grouped by :func:`structure_fingerprint`: same gate names, qubits,
  clbits and conditions, parameters free.  The engine evolves the whole group
  on one batch axis and samples each unit with its own generator.
* **shots** — every other circuit whose noise-draw schedule is
  state-independent: :func:`~repro.quantum.simulator.trajectory_draw_plan`
  returns a plan for the compacted circuit, and the unit carries that plan
  to the engine.  Feed-forward (``c_if``) circuits qualify when their
  conditionals draw nothing.  Each unit is its own group; its shots share
  tiles that hold one amplitude row per distinct history.
* **serial** — everything else, one unit at a time through
  ``Backend.execute_circuit``: conditionals that draw (a conditional
  measure or reset, or a conditional gate with a noise channel), which
  ``run_circuit`` runs one shot at a time; circuits beyond the dense-width
  cap or structurally defective, for which it raises the canonical error;
  and any backend that overrides ``execute_circuit`` (its semantics are its
  own; see :func:`batchable_backend`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.quantum.analysis import CircuitFacts, shared_facts, structure_fingerprint
from repro.quantum.backend import Backend
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.noise import NoiseModel
from repro.quantum.simulator import (
    MAX_DENSE_QUBITS,
    _compact,
    trajectory_draw_plan,
)

__all__ = [
    "IDEAL",
    "SERIAL",
    "SHOTS",
    "PlannedGroup",
    "PlannedUnit",
    "batchable_backend",
    "make_unit",
    "plan",
    "route",
    "structure_fingerprint",
]

#: Group kinds, in dispatch-preference order.
IDEAL = "ideal"
SHOTS = "shots"
SERIAL = "serial"


@dataclass
class PlannedUnit:
    """One cache-miss work unit, annotated for batch execution."""

    index: int  #: slot in the submitting batch (result ordering)
    circuit: QuantumCircuit  #: as submitted; the SERIAL route runs this
    compacted: QuantumCircuit  #: touched qubits relabelled to 0..k-1
    key: object | None  #: the service's CacheKey, or None when uncacheable
    seed: int | None
    shots: int
    facts: CircuitFacts  #: analyzer facts of ``circuit`` (routing input)
    #: per-instruction draw widths of ``compacted``; set by :func:`plan` for
    #: SHOTS units, the schedule the engine replays
    draw_plan: list[int] | None = None


@dataclass
class PlannedGroup:
    """Units that one engine dispatch may execute together."""

    kind: str
    units: list[PlannedUnit]


def make_unit(
    index: int,
    circuit: QuantumCircuit,
    key: object | None,
    seed: int | None,
    shots: int,
) -> PlannedUnit:
    """Annotate one miss with its compacted circuit and analyzer facts.

    Facts are computed on the circuit *as submitted*, not the compacted form:
    compaction forgives out-of-range qubit references (it relabels them in),
    which would hide ``QA101`` defects from routing, and every predicate the
    planner reads is invariant under qubit relabelling anyway.  A circuit
    :meth:`~repro.quantum.circuit.QuantumCircuit.bind` produced and nothing
    changed since shares its template's facts (see :func:`shared_facts`).
    """
    return PlannedUnit(
        index, circuit, _compact(circuit), key, seed, shots, shared_facts(circuit)
    )


def batchable_backend(backend: Backend) -> bool:
    """Only the stock ``Backend.execute_circuit`` can be replayed in batch.

    A subclass that overrides the execution primitive (e.g. the QEC
    memory-experiment backend) owns its own semantics; replaying such units
    through the batch engine would silently drop the override, so the planner
    sends them down the serial path instead.
    """
    return type(backend).execute_circuit is Backend.execute_circuit


def route(unit: PlannedUnit, noise: NoiseModel | None) -> str:
    """The group kind of one unit on a stock backend with ``noise``.

    Width, defects and fast-path eligibility come from the unit's
    :class:`CircuitFacts`; the shot-batched route is decided by the draw
    plan of the compacted circuit alone, computed once here and kept on the
    unit for the engine.  SERIAL means the unit is over-wide or defective,
    or its conditionals draw.
    """
    facts = unit.facts
    # Compacted width == touched-qubit count (floor 1 for empty circuits).
    too_wide = max(1, len(facts.touched_qubits)) > MAX_DENSE_QUBITS
    if too_wide or facts.structurally_defective:
        return SERIAL
    if facts.is_fast_path(noise):
        return IDEAL
    unit.draw_plan = trajectory_draw_plan(unit.compacted, noise)
    return SERIAL if unit.draw_plan is None else SHOTS


def plan(backend: Backend, units: list[PlannedUnit]) -> list[PlannedGroup]:
    """Partition miss units into batchable groups plus one serial group.

    Each unit goes where :func:`route` sends it; IDEAL units sharing a
    structure fingerprint share a group, and each SHOTS unit is its own.
    Group order is deterministic (first appearance of each structure), and
    the serial group, when present, comes last.
    """
    if not units:
        return []
    if not batchable_backend(backend):
        return [PlannedGroup(SERIAL, list(units))]
    noise = backend.noise_model
    ideal: dict[str, PlannedGroup] = {}
    groups: list[PlannedGroup] = []
    serial: list[PlannedUnit] = []
    for unit in units:
        kind = route(unit, noise)
        if kind == IDEAL:
            fingerprint = structure_fingerprint(unit.compacted)
            group = ideal.get(fingerprint)
            if group is None:
                group = ideal[fingerprint] = PlannedGroup(IDEAL, [])
                groups.append(group)
            group.units.append(unit)
        elif kind == SHOTS:
            groups.append(PlannedGroup(SHOTS, [unit]))
        else:
            serial.append(unit)
    if serial:
        groups.append(PlannedGroup(SERIAL, serial))
    return groups
