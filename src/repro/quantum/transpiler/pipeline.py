"""The top-level :func:`transpile` entry point.

Pipeline: decompose -> layout -> route -> decompose residual swaps -> peephole
passes, each a named pass in a :class:`~repro.quantum.transpiler.passmanager.
PassManager`.  The output circuit lives on *physical* qubit indices (width =
device size when a coupling map is involved); the chosen layout is recorded in
``circuit.metadata['layout']`` and ``metadata['final_layout']``.

Transpilation is a content-addressed pipeline stage: :func:`transpile`
delegates to :meth:`ExecutionService.transpile`, which keys the result by
``(circuit fingerprint, coupling fingerprint, basis fingerprint, layout,
optimization level)`` and shares the service's memory/disk/remote cache
tiers, so a logical circuit is transpiled once per fleet, ever.  The uncached
core lives in :func:`transpile_core`.
"""

from __future__ import annotations

import threading
from collections.abc import Sequence
from contextlib import contextmanager

from repro.errors import TranspilerError
from repro.quantum.analysis import shared_facts, structural_errors
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.topology import CouplingMap
from repro.quantum.transpiler.passmanager import build_pass_manager

#: Hardware-style default basis (matches the fake IBM backends).
DEFAULT_BASIS = ("id", "rz", "sx", "x", "cx")

_ambient = threading.local()


@contextmanager
def ambient_optimization_level(level: int | None):
    """Set the default optimization level for transpiles in this block.

    ``transpile()`` calls that do not pass an explicit ``optimization_level``
    resolve to the innermost ambient level; ``None`` makes the context a
    no-op.  The state is thread-local (mirroring ``ambient_seed``), so an
    evalsuite arm can pin a level around generated code it cannot edit.
    """
    if level is None:
        yield
        return
    previous = getattr(_ambient, "level", None)
    _ambient.level = int(level)
    try:
        yield
    finally:
        _ambient.level = previous


def resolve_optimization_level(level: int | None = None) -> int:
    """Explicit level, else the ambient level, else the default of 1."""
    if level is not None:
        return int(level)
    ambient = getattr(_ambient, "level", None)
    return 1 if ambient is None else int(ambient)


def resolve_lowering(
    backend,
    coupling_map: CouplingMap | None,
    basis_gates: Sequence[str] | None,
) -> tuple[CouplingMap | None, tuple[str, ...]]:
    """The effective (coupling map, basis) for a target.

    Explicit arguments win over the backend's properties; with neither, the
    coupling map is unconstrained and the basis falls back to
    :data:`DEFAULT_BASIS`.
    """
    if backend is not None:
        if coupling_map is None:
            coupling_map = backend.coupling_map
        if basis_gates is None:
            basis_gates = backend.basis_gates
    basis = tuple(basis_gates) if basis_gates is not None else DEFAULT_BASIS
    return coupling_map, basis


def validate_structure(circuit: QuantumCircuit) -> None:
    """Reject structurally defective circuits before layout/routing.

    Layout and routing assume every instruction references declared wires;
    the analyzer's structural facts gate that up front (the builder API
    cannot produce such circuits, but QASM import of generated code can
    deliver e.g. a conditional on a clbit nothing writes).
    """
    facts = shared_facts(circuit)
    if facts.structurally_defective:
        first = structural_errors(facts)[0]
        raise TranspilerError(
            f"circuit is structurally defective: [{first.code}] {first.message}"
        )


def transpile_core(
    circuit: QuantumCircuit,
    coupling_map: CouplingMap | None,
    basis: Sequence[str],
    initial_layout: Sequence[int] | None,
    optimization_level: int,
) -> QuantumCircuit:
    """Uncached transpilation: validate, build the pass stack, run it."""
    validate_structure(circuit)
    manager = build_pass_manager(
        coupling_map=coupling_map,
        basis=basis,
        initial_layout=initial_layout,
        optimization_level=optimization_level,
    )
    return manager.run(circuit)


def transpile(
    circuit: QuantumCircuit,
    backend=None,
    coupling_map: CouplingMap | None = None,
    basis_gates: Sequence[str] | None = None,
    initial_layout: Sequence[int] | None = None,
    optimization_level: int | None = None,
) -> QuantumCircuit:
    """Lower a circuit to a device's basis and connectivity.

    Args:
        circuit: the logical circuit.
        backend: optional backend; supplies coupling map and basis gates.
        coupling_map: overrides the backend's coupling map.
        basis_gates: overrides the backend's basis gates.
        initial_layout: explicit logical->physical placement (list where entry
            ``i`` is the physical qubit for logical qubit ``i``).
        optimization_level: 0 disables peephole optimization; 1 and 2 enable
            increasingly repeated passes.  ``None`` (the default) resolves to
            the ambient level set by :func:`ambient_optimization_level`, or 1.

    Returns:
        A new circuit on physical qubits.  ``metadata['layout']`` maps logical
        to physical indices; ``metadata['final_layout']`` gives the mapping
        after routing SWAPs (the identity when no coupling map constrains
        placement).

    Results are content-addressed in the default execution service's cache
    (memory -> disk -> remote), so repeated transpiles of the same logical
    circuit against the same target are served without re-running the passes.
    """
    # Imported lazily: execution.service imports this module's helpers.
    from repro.quantum.execution.service import default_service

    return default_service().transpile(
        circuit,
        backend=backend,
        coupling_map=coupling_map,
        basis_gates=basis_gates,
        initial_layout=initial_layout,
        optimization_level=optimization_level,
    )
