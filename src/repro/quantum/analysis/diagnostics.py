"""Coded diagnostics over :class:`~repro.quantum.analysis.facts.CircuitFacts`.

Severity bands (stable codes — tooling and tests key on them):

* ``QA1xx`` **errors** — the circuit cannot execute with defined semantics;
  the simulator refuses these and the service's ``validate="strict"``
  pre-flight rejects them before any cache or pool traffic:
  ``QA101`` gate on an out-of-range qubit, ``QA102`` conditional on a
  never-written (or out-of-range) clbit, ``QA103`` measurement into an
  out-of-range clbit, ``QA104`` non-unitary (or unregistered) gate matrix,
  ``QA105`` unbound symbolic parameter reaching execution.  ``QA105`` is an
  *execution-boundary* error: templates are legitimate programs for lint and
  analysis (``analyze_circuit`` does not emit it), but the
  ``ExecutionService`` pre-flight raises it in every validate mode — see
  :func:`unbound_parameter_errors`.
* ``QA2xx`` **warnings** — runnable but suspicious: ``QA201`` unused
  qubits, ``QA202`` gate after measurement on a measured qubit, ``QA203``
  unreachable conditional (tests a nonzero value before any write), and
  ``QA204`` circuit too wide for dense simulation on the configured
  executor.
* ``QA3xx`` **info** — ``QA301`` depth/width statistics.
"""

from __future__ import annotations

import numpy as np

from repro.quantum import gates as _gates
from repro.quantum.analysis.facts import CircuitFacts, shared_facts
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.parameters import is_symbolic, iter_parameters

ERROR = "error"
WARNING = "warning"
INFO = "info"

#: Code -> (severity, one-line description).  The README's diagnostic table
#: and ``repro lint``'s legend render from this mapping.
DIAGNOSTIC_CODES: dict[str, tuple[str, str]] = {
    "QA101": (ERROR, "gate references a qubit outside the declared registers"),
    "QA102": (ERROR, "conditional reads a clbit no measurement ever writes"),
    "QA103": (ERROR, "measurement writes a clbit outside the declared registers"),
    "QA104": (ERROR, "gate matrix is non-unitary or unregistered"),
    "QA105": (ERROR, "unbound symbolic parameter reaches execution"),
    "QA201": (WARNING, "declared qubit is never used"),
    "QA202": (WARNING, "gate applied to a qubit after it was measured"),
    "QA203": (WARNING, "conditional tests a nonzero value before any write"),
    "QA204": (WARNING, "circuit too wide for dense simulation"),
    "QA301": (INFO, "circuit depth/width statistics"),
}

#: Tolerance for the unitarity check, matched to the simulator's norm guard
#: (:data:`repro.quantum.simulator.NORM_ATOL`): a matrix passing this check
#: cannot corrupt the state norm past what sampling accepts.
UNITARY_ATOL = 1e-9


class Diagnostic:
    """One analyzer finding: stable code, severity, location, explanation."""

    __slots__ = ("code", "severity", "index", "message")

    def __init__(
        self, code: str, index: int | None, message: str
    ) -> None:
        self.code = code
        self.severity = DIAGNOSTIC_CODES[code][0]
        self.index = index
        self.message = message

    @property
    def is_error(self) -> bool:
        return self.severity == ERROR

    def render(self) -> str:
        """The one-line form ``repro lint`` prints."""
        where = f"@{self.index}" if self.index is not None else "@-"
        return f"{self.code} {self.severity:7s} {where:>5s}  {self.message}"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Diagnostic):
            return NotImplemented
        return (self.code, self.index, self.message) == (
            other.code, other.index, other.message
        )

    def __hash__(self) -> int:
        return hash((self.code, self.index, self.message))

    def __repr__(self) -> str:
        return f"Diagnostic({self.code}, index={self.index}, {self.message!r})"


class CircuitAnalysis:
    """The analyzer's full output: facts plus the diagnostic stream."""

    __slots__ = ("facts", "diagnostics")

    def __init__(
        self, facts: CircuitFacts, diagnostics: list[Diagnostic]
    ) -> None:
        self.facts = facts
        self.diagnostics = list(diagnostics)

    @property
    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == ERROR]

    @property
    def warnings(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == WARNING]

    @property
    def ok(self) -> bool:
        """No ``QA1xx`` error (warnings and info do not fail a circuit)."""
        return not self.errors


def structural_errors(facts: CircuitFacts) -> list[Diagnostic]:
    """The cheap ``QA1xx`` subset derivable from facts alone (no matrices).

    This is what the simulator's own pre-check uses: every structural error
    here makes :func:`repro.quantum.batchsim.run_circuit` raise, which
    keeps the analyzer and the engine in exact agreement about what is
    executable.  ``QA104`` needs gate matrices and is deliberately excluded
    (the engines catch non-unitary matrices through their norm guards).
    """
    out: list[Diagnostic] = []
    for index, qubit in facts.bad_qubit_refs:
        out.append(
            Diagnostic(
                "QA101",
                index,
                f"qubit {qubit} out of range for a "
                f"{facts.num_qubits}-qubit circuit",
            )
        )
    for read in facts.never_written_reads:
        if not 0 <= read.clbit < facts.num_clbits:
            detail = (
                f"clbit {read.clbit} out of range for "
                f"{facts.num_clbits} clbit(s)"
            )
        else:
            detail = f"clbit {read.clbit} is never written by any measurement"
        out.append(
            Diagnostic(
                "QA102",
                read.index,
                f"condition ({read.clbit}, {read.value}) is undefined: {detail}",
            )
        )
    for index, clbit in facts.bad_clbit_writes:
        out.append(
            Diagnostic(
                "QA103",
                index,
                f"measurement into clbit {clbit} out of range for "
                f"{facts.num_clbits} clbit(s)",
            )
        )
    return out


def unbound_parameter_errors(circuit: QuantumCircuit) -> list[Diagnostic]:
    """``QA105``: one diagnostic per instruction carrying an unbound symbol.

    Deliberately *not* part of :func:`analyze_circuit`: a parameterized
    template is a legitimate program for lint/analysis purposes, and only
    becomes an error at the execution boundary.  The ``ExecutionService``
    pre-flight calls this in **every** validate mode (including ``"off"``) —
    executing a symbol is meaningless, not merely suspicious.

    A circuit :meth:`~repro.quantum.circuit.QuantumCircuit.bind` produced,
    and no instruction added or removed since, is not scanned: bind refuses
    to leave a symbol unbound.  The result-cache fingerprint trusts the same
    provenance check.
    """
    if circuit._provenance() is not None:
        return []
    out: list[Diagnostic] = []
    for index, inst in enumerate(circuit):
        names = sorted({p.name for p in iter_parameters(inst.params)})
        if names:
            out.append(
                Diagnostic(
                    "QA105",
                    index,
                    f"gate '{inst.name}' has unbound parameter(s) "
                    f"{', '.join(names)}; call circuit.bind({{...}}) before "
                    "execution",
                )
            )
    return out


def _unitarity_errors(circuit: QuantumCircuit) -> list[Diagnostic]:
    """``QA104``: flag instructions whose matrix is missing or non-unitary.

    Gate specs are a mutable registry (custom registrations may supply
    arbitrary builders), so the matrix of each distinct ``(name, params)``
    pair is checked once against ``U @ U† = I``.
    """
    out: list[Diagnostic] = []
    checked: dict[tuple, bool] = {}
    for index, inst in enumerate(circuit):
        if inst.name in _gates.NON_UNITARY:
            continue
        if any(is_symbolic(p) for p in inst.params):
            # A template gate has no matrix yet; unitarity is judged on the
            # bound instances, and unboundness itself is QA105, not QA104.
            continue
        key = (inst.name, inst.params)
        verdict = checked.get(key)
        if verdict is None:
            try:
                matrix = np.asarray(_gates.gate_matrix(inst.name, inst.params))
                identity = np.eye(matrix.shape[0])
                verdict = matrix.shape[0] == matrix.shape[1] and np.allclose(
                    matrix @ matrix.conj().T, identity, atol=UNITARY_ATOL
                )
            except Exception:  # noqa: BLE001 - unknown gate = no unitary
                verdict = False
            checked[key] = verdict
        if not verdict:
            out.append(
                Diagnostic(
                    "QA104",
                    index,
                    f"gate '{inst.name}' has no unitary matrix for params "
                    f"{inst.params}",
                )
            )
    return out


#: How many unused qubit indices the aggregated QA201 message spells out.
_MAX_UNUSED_LISTED = 8


def analyze_circuit(
    circuit: QuantumCircuit,
    facts: CircuitFacts | None = None,
    max_qubits: int | None = None,
) -> CircuitAnalysis:
    """Run the full analyzer: facts (fingerprinted) plus every diagnostic.

    ``facts`` may be supplied by a caller that already walked the circuit;
    ``max_qubits`` enables the ``QA204`` over-wide warning against a
    configured executor/backend cap (e.g.
    :data:`repro.quantum.simulator.MAX_DENSE_QUBITS` or a backend's
    ``max_active_qubits``).
    """
    if facts is None:
        facts = shared_facts(circuit, fingerprint=True)
    diagnostics: list[Diagnostic] = list(structural_errors(facts))
    diagnostics.extend(_unitarity_errors(circuit))

    unused = facts.unused_qubits
    if unused:
        listed = ", ".join(str(q) for q in unused[:_MAX_UNUSED_LISTED])
        more = len(unused) - _MAX_UNUSED_LISTED
        diagnostics.append(
            Diagnostic(
                "QA201",
                None,
                f"{len(unused)} declared qubit(s) never used: {listed}"
                + (f" (+{more} more)" if more > 0 else ""),
            )
        )
    for index, qubit in facts.gates_after_measure:
        diagnostics.append(
            Diagnostic(
                "QA202",
                index,
                f"operation on qubit {qubit} after it was measured "
                "(disqualifies the fast sampling path)",
            )
        )
    never_written = {read.index for read in facts.never_written_reads}
    for read in facts.conditional_reads:
        if read.index in never_written or read.written_before:
            continue
        if read.value != 0:
            diagnostics.append(
                Diagnostic(
                    "QA203",
                    read.index,
                    f"condition ({read.clbit}, {read.value}) tested before "
                    "the clbit is written; the bit is still 0 so the "
                    "instruction never fires",
                )
            )
    if max_qubits is not None and len(facts.touched_qubits) > max_qubits:
        diagnostics.append(
            Diagnostic(
                "QA204",
                None,
                f"circuit touches {len(facts.touched_qubits)} qubits; dense "
                f"simulation on the configured executor is capped at "
                f"{max_qubits}",
            )
        )
    diagnostics.append(
        Diagnostic(
            "QA301",
            None,
            f"width {facts.num_qubits}q/{facts.num_clbits}c "
            f"(touched {len(facts.touched_qubits)}), depth {facts.depth}, "
            f"size {facts.size}, conditionals {facts.num_conditionals}, "
            f"fingerprint {facts.structure_fingerprint or '-'}",
        )
    )
    return CircuitAnalysis(facts, diagnostics)
