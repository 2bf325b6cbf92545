"""The :class:`CircuitFacts` record and its single-walk extractor.

:func:`circuit_facts` walks the instruction list exactly once and records
everything the downstream consumers ask about a circuit — the serial
simulator's path choice, the batchsim planner's group classification, the
pre-flight validator's dataflow checks and the lint CLI's statistics all read
the same record.  The walk never builds gate matrices and never touches the
simulator, so it is cheap enough to sit on the execution hot path and safe to
import from every layer.  :func:`shared_facts` is the same record with the
walk done once per template for the circuits ``bind`` produced, as
:func:`structure_fingerprint` hashes once per template.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.quantum.circuit import QuantumCircuit
from repro.quantum.noise import NoiseModel
from repro.quantum.parameters import iter_parameters
from repro.utils.rng import stable_hash


def structure_fingerprint(circuit: QuantumCircuit) -> str:
    """Hash of the gate *structure*: everything the full circuit fingerprint
    covers except parameters, so two sweep points of one ansatz group
    together while arbitrary-angle rotations stay distinct per unit.

    Computed **once per structure**: circuits produced by
    :meth:`QuantumCircuit.bind` share their template's fingerprint (the
    structure is the template's by construction), and the template itself
    memoises the digest keyed on its instruction count, so an N-point sweep
    hashes the structure a single time.  Mutating a circuit after binding
    changes its instruction count, which invalidates both fast paths.
    """
    provenance = circuit._provenance()
    if provenance is not None:
        return structure_fingerprint(provenance.template)
    return circuit._memo("structure_fp", _structure_digest)


def _structure_digest(circuit: QuantumCircuit) -> str:
    payload = (
        circuit.num_qubits,
        circuit.num_clbits,
        tuple(
            (inst.name, inst.qubits, inst.clbits, inst.condition)
            for inst in circuit
        ),
    )
    return f"{stable_hash('structure', payload):016x}"


@dataclass(frozen=True)
class ConditionalRead:
    """One classically-conditioned instruction, as seen during the walk."""

    index: int  #: instruction index in the circuit
    clbit: int  #: classical bit the condition reads
    value: int  #: value the condition tests for
    written_before: bool  #: had any measure written the clbit by this point?


@dataclass(frozen=True)
class CircuitFacts:
    """Everything one walk of the instruction stream can know statically.

    Dataflow sets use the circuit's *own* index space (the declared
    registers), not any device's.  Structural-defect records (out-of-range
    references, dangling conditionals) are kept as raw ``(index, bit)``
    tuples here; :mod:`repro.quantum.analysis.diagnostics` turns them into
    coded :class:`~repro.quantum.analysis.diagnostics.Diagnostic` objects.
    """

    num_qubits: int
    num_clbits: int
    num_instructions: int
    size: int  #: non-barrier instruction count (mirrors ``circuit.size()``)
    depth: int
    gate_counts: dict[str, int] = field(default_factory=dict)
    touched_qubits: frozenset[int] = frozenset()
    measured_qubits: frozenset[int] = frozenset()
    written_clbits: frozenset[int] = frozenset()  #: targets of measure
    read_clbits: frozenset[int] = frozenset()  #: read by conditions
    num_conditionals: int = 0
    has_reset: bool = False
    has_measurements: bool = False
    #: ``(instruction index, qubit)`` for gate/measure/reset qubit references
    #: outside ``0..num_qubits-1`` (only reachable by bypassing the builder).
    bad_qubit_refs: tuple[tuple[int, int], ...] = ()
    #: ``(instruction index, clbit)`` for measure targets outside the
    #: declared classical registers.
    bad_clbit_writes: tuple[tuple[int, int], ...] = ()
    #: Every conditioned instruction, with write-ordering information.
    conditional_reads: tuple[ConditionalRead, ...] = ()
    #: ``(instruction index, qubit)`` for non-measure operations touching an
    #: already-measured qubit (what disqualifies the fast sampling path).
    gates_after_measure: tuple[tuple[int, int], ...] = ()
    #: Unbound symbolic parameter names in first-appearance order — the
    #: circuit's *parameter signature*.  Empty for concrete circuits.
    parameters: tuple[str, ...] = ()
    #: Gate-structure hash; ``None`` unless requested (it costs a second
    #: pass over the instruction tuples plus a BLAKE2b digest).
    structure_fingerprint: str | None = None

    # -- derived views ----------------------------------------------------------

    @property
    def unused_qubits(self) -> tuple[int, ...]:
        """Declared qubits no instruction touches (sorted)."""
        return tuple(
            q for q in range(self.num_qubits) if q not in self.touched_qubits
        )

    @property
    def never_written_reads(self) -> tuple[ConditionalRead, ...]:
        """Conditionals whose clbit no measure in the whole circuit writes."""
        return tuple(
            read
            for read in self.conditional_reads
            if not 0 <= read.clbit < self.num_clbits
            or read.clbit not in self.written_clbits
        )

    @property
    def structurally_defective(self) -> bool:
        """True when the circuit cannot execute with defined semantics."""
        return bool(
            self.bad_qubit_refs
            or self.bad_clbit_writes
            or self.never_written_reads
        )

    @property
    def is_parameterized(self) -> bool:
        """Whether any instruction carries an unbound symbol."""
        return bool(self.parameters)

    def is_fast_path(self, noise: NoiseModel | None) -> bool:
        """Whether sampling the final state reproduces per-shot semantics.

        The structural half (no conditionals, no reset, no gate on a
        measured qubit) is invariant under qubit relabelling, so facts of a
        circuit and of its compacted form answer identically.
        """
        if noise is not None and not noise.is_trivial:
            # Readout-only noise could in principle use the fast path, but
            # flipping bits per shot costs the same as the trajectory loop,
            # so only the fully-ideal case takes it.
            return False
        return not (
            self.num_conditionals
            or self.has_reset
            or self.gates_after_measure
        )


def circuit_facts(
    circuit: QuantumCircuit, fingerprint: bool = False
) -> CircuitFacts:
    """Extract :class:`CircuitFacts` in one pass over the instructions.

    ``fingerprint=True`` additionally fills
    :attr:`CircuitFacts.structure_fingerprint` (skipped by default: the
    digest is pure overhead for the simulator's path choice).
    """
    num_qubits = circuit.num_qubits
    num_clbits = circuit.num_clbits
    gate_counts: dict[str, int] = {}
    touched: set[int] = set()
    measured: set[int] = set()
    written: set[int] = set()
    read: set[int] = set()
    bad_qubit_refs: list[tuple[int, int]] = []
    bad_clbit_writes: list[tuple[int, int]] = []
    conditional_reads: list[ConditionalRead] = []
    gates_after_measure: list[tuple[int, int]] = []
    num_conditionals = 0
    has_reset = False
    has_measurements = False
    parameters: dict[str, None] = {}  # insertion-ordered name set
    size = 0
    depth = 0
    level: dict[tuple[str, int], int] = {}
    for index, inst in enumerate(circuit):
        name = inst.name
        gate_counts[name] = gate_counts.get(name, 0) + 1
        for q in inst.qubits:
            touched.add(q)
            if not 0 <= q < num_qubits:
                bad_qubit_refs.append((index, q))
        if inst.condition is not None:
            num_conditionals += 1
            clbit, value = inst.condition
            read.add(clbit)
            conditional_reads.append(
                ConditionalRead(index, clbit, value, clbit in written)
            )
        for param in iter_parameters(inst.params):
            parameters.setdefault(param.name)
        if name == "barrier":
            continue
        size += 1
        # Wire-level depth, identical to ``QuantumCircuit.depth()``.
        wires = [("q", q) for q in inst.qubits]
        wires += [("c", c) for c in inst.clbits]
        if inst.condition is not None:
            wires.append(("c", inst.condition[0]))
        current = max((level.get(w, 0) for w in wires), default=0) + 1
        for w in wires:
            level[w] = current
        depth = max(depth, current)
        if name == "measure":
            has_measurements = True
            measured.add(inst.qubits[0])
            clbit = inst.clbits[0]
            written.add(clbit)
            if not 0 <= clbit < num_clbits:
                bad_clbit_writes.append((index, clbit))
            continue
        if name == "reset":
            has_reset = True
        for q in inst.qubits:
            if q in measured:
                gates_after_measure.append((index, q))
    return CircuitFacts(
        num_qubits=num_qubits,
        num_clbits=num_clbits,
        num_instructions=len(circuit),
        size=size,
        depth=depth,
        gate_counts=dict(sorted(gate_counts.items())),
        touched_qubits=frozenset(touched),
        measured_qubits=frozenset(measured),
        written_clbits=frozenset(written),
        read_clbits=frozenset(read),
        num_conditionals=num_conditionals,
        has_reset=has_reset,
        has_measurements=has_measurements,
        bad_qubit_refs=tuple(bad_qubit_refs),
        bad_clbit_writes=tuple(bad_clbit_writes),
        conditional_reads=tuple(conditional_reads),
        gates_after_measure=tuple(gates_after_measure),
        parameters=tuple(parameters),
        structure_fingerprint=(
            structure_fingerprint(circuit) if fingerprint else None
        ),
    )


def shared_facts(
    circuit: QuantumCircuit, fingerprint: bool = False
) -> CircuitFacts:
    """:func:`circuit_facts`, walked once per template for bound circuits.

    Binding changes parameter values only, so a circuit
    :meth:`~repro.quantum.circuit.QuantumCircuit.bind` produced, with no
    instruction added or removed since, has its template's facts with no
    unbound parameter left.  The template keeps that record until its
    instruction count changes, and an N-point sweep walks it once; any other
    circuit gets the full walk.  The record is shared, so nothing may
    mutate it (its ``gate_counts`` dict included).
    """
    provenance = circuit._provenance()
    if provenance is None:
        return circuit_facts(circuit, fingerprint)
    facts = provenance.template._memo("bound_facts", _bound_facts)
    if fingerprint:
        facts = replace(facts, structure_fingerprint=structure_fingerprint(circuit))
    return facts


def _bound_facts(template: QuantumCircuit) -> CircuitFacts:
    return replace(circuit_facts(template), parameters=())
