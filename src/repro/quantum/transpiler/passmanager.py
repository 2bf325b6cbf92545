"""An introspectable pass manager over the transpiler's pure passes.

The monolithic ``transpile()`` body is recast as a linear stack of named
passes (in the style of qiskit-terra's ``transpiler/passmanager.py``): each
pass is a small object with a ``name`` and a ``run(instructions, properties)``
method that transforms the instruction stream while reading/writing a shared
*property set* (coupling map, basis, chosen layout, final layout).  The
manager times every pass and records instruction-count deltas, which is what
``repro transpile --explain`` surfaces.

The stack built by :func:`build_pass_manager` is behavior-identical to the
historical ``transpile()`` for barrier-free circuits at every optimization
level; the one sanctioned difference is :class:`DropBarriers`, which removes
barrier directives at level >= 1 (barriers draw nothing in the samplers, so
counts are unchanged — see ``tests/quantum/test_transpile_parity.py``).
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from dataclasses import dataclass

from repro.errors import TranspilerError
from repro.quantum.circuit import Instruction, QuantumCircuit
from repro.quantum.topology import CouplingMap
from repro.quantum.transpiler.decompose import decompose_to_basis
from repro.quantum.transpiler.passes import (
    cancel_adjacent_inverses,
    drop_barriers,
    merge_rotations,
)
from repro.quantum.transpiler.routing import Layout, dense_layout, route


@dataclass(frozen=True)
class PassRecord:
    """One pass's contribution to a transpilation: time and size delta."""

    name: str
    seconds: float
    instructions_in: int
    instructions_out: int

    @property
    def delta(self) -> int:
        return self.instructions_out - self.instructions_in


class TranspilerPass:
    """Base class: a named transform over the instruction stream.

    ``properties`` is the shared property set; the keys every pass may read
    are ``circuit`` (the *source* circuit), ``coupling_map``, ``basis``,
    ``initial_layout``, ``layout`` and ``final_layout`` (both
    :class:`~repro.quantum.transpiler.routing.Layout` or ``None``).
    """

    name = "pass"

    def run(
        self, instructions: list[Instruction], properties: dict
    ) -> list[Instruction]:
        raise NotImplementedError


class DecomposeToBasis(TranspilerPass):
    """Lower every instruction to the target basis gate set."""

    name = "DecomposeToBasis"

    def run(self, instructions, properties):
        return decompose_to_basis(instructions, properties["basis"])


class DenseLayout(TranspilerPass):
    """Choose (or validate) the logical->physical placement.

    Width and explicit-layout validation live here so the error order matches
    the historical monolithic pipeline exactly: width first, then layout
    length, then layout range.
    """

    name = "DenseLayout"

    def run(self, instructions, properties):
        circuit: QuantumCircuit = properties["circuit"]
        coupling_map: CouplingMap = properties["coupling_map"]
        initial_layout = properties.get("initial_layout")
        if circuit.num_qubits > coupling_map.num_qubits:
            raise TranspilerError(
                f"circuit needs {circuit.num_qubits} qubits, coupling map has "
                f"{coupling_map.num_qubits}"
            )
        if initial_layout is not None:
            if len(initial_layout) != circuit.num_qubits:
                raise TranspilerError(
                    f"initial_layout has {len(initial_layout)} entries for a "
                    f"{circuit.num_qubits}-qubit circuit"
                )
            for phys in initial_layout:
                if not 0 <= phys < coupling_map.num_qubits:
                    raise TranspilerError(
                        f"initial_layout entry {phys} is outside the device "
                        f"(0..{coupling_map.num_qubits - 1})"
                    )
            properties["layout"] = Layout.from_sequence(list(initial_layout))
        else:
            properties["layout"] = dense_layout(circuit, coupling_map)
        return instructions


class Route(TranspilerPass):
    """Insert SWAPs so every 2-qubit gate sits on a coupled edge."""

    name = "Route"

    def run(self, instructions, properties):
        routed, final_layout = route(
            instructions, properties["layout"], properties["coupling_map"]
        )
        properties["final_layout"] = final_layout
        return routed


class MergeRotations(TranspilerPass):
    """Fuse adjacent same-axis rotations; drop identity rotations."""

    name = "MergeRotations"

    def run(self, instructions, properties):
        return merge_rotations(instructions)


class CancelInverses(TranspilerPass):
    """Cancel adjacent self-inverse pairs (``h h``, ``s sdg``, ...)."""

    name = "CancelInverses"

    def run(self, instructions, properties):
        return cancel_adjacent_inverses(instructions)


class DropBarriers(TranspilerPass):
    """Remove barrier directives: they are sampling no-ops downstream.

    The simulation engine draws nothing for a barrier on any route, so
    removing them cannot change counts; doing it before
    the peephole passes lets merges/cancellations see across what used to be
    barrier boundaries.
    """

    name = "DropBarriers"

    def run(self, instructions, properties):
        return drop_barriers(instructions)


class PassManager:
    """Run a fixed pass stack over a circuit, recording per-pass telemetry.

    After :meth:`run`, ``records`` holds one :class:`PassRecord` per pass (in
    execution order) and ``property_set`` the final shared properties.
    """

    def __init__(
        self,
        passes: Sequence[TranspilerPass],
        coupling_map: CouplingMap | None = None,
        basis: Sequence[str] = (),
        initial_layout: Sequence[int] | None = None,
    ) -> None:
        self.passes = list(passes)
        self.coupling_map = coupling_map
        self.basis = tuple(basis)
        self.initial_layout = (
            list(initial_layout) if initial_layout is not None else None
        )
        self.records: list[PassRecord] = []
        self.property_set: dict = {}

    def run(self, circuit: QuantumCircuit) -> QuantumCircuit:
        """Transpile one circuit, refreshing ``records``/``property_set``."""
        properties: dict = {
            "circuit": circuit,
            "coupling_map": self.coupling_map,
            "basis": self.basis,
            "initial_layout": self.initial_layout,
            "layout": None,
            "final_layout": None,
        }
        instructions = list(circuit.instructions)
        records: list[PassRecord] = []
        for stage in self.passes:
            before = len(instructions)
            start = time.perf_counter()
            instructions = stage.run(instructions, properties)
            records.append(
                PassRecord(
                    stage.name,
                    time.perf_counter() - start,
                    before,
                    len(instructions),
                )
            )
        self.records = records
        self.property_set = properties

        if self.coupling_map is not None:
            num_qubits = self.coupling_map.num_qubits
        else:
            num_qubits = circuit.num_qubits
        out = QuantumCircuit(
            num_qubits, circuit.num_clbits, name=f"{circuit.name}_t"
        )
        out._instructions = instructions
        out.metadata = dict(circuit.metadata)
        layout = properties["layout"]
        final_layout = properties["final_layout"]
        if layout is None:
            # No layout pass ran (no coupling constraint): both placements are
            # the identity, and both keys are always present for consumers.
            identity = {i: i for i in range(circuit.num_qubits)}
            out.metadata["layout"] = dict(identity)
            out.metadata["final_layout"] = dict(identity)
        else:
            out.metadata["layout"] = layout.to_dict()
            out.metadata["final_layout"] = final_layout.to_dict()
        return out


def build_pass_manager(
    coupling_map: CouplingMap | None = None,
    basis: Sequence[str] = (),
    initial_layout: Sequence[int] | None = None,
    optimization_level: int = 1,
) -> PassManager:
    """The default pass stack for a target, mirroring the historical pipeline.

    Level 0: lowering only (decompose, and layout/route when a coupling map
    constrains connectivity).  Level 1 adds ``DropBarriers`` plus one
    merge/cancel peephole round; level 2 repeats the peephole round.
    """
    passes: list[TranspilerPass] = [DecomposeToBasis()]
    if coupling_map is not None:
        # Routing SWAPs land outside the basis; decompose the residue too.
        passes += [DenseLayout(), Route(), DecomposeToBasis()]
    if optimization_level >= 1:
        passes += [DropBarriers(), MergeRotations(), CancelInverses()]
    if optimization_level >= 2:
        passes += [MergeRotations(), CancelInverses()]
    return PassManager(
        passes,
        coupling_map=coupling_map,
        basis=basis,
        initial_layout=initial_layout,
    )
