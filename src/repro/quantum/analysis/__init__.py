"""``repro.quantum.analysis`` — single-walk static circuit analysis.

One pass over a :class:`~repro.quantum.circuit.QuantumCircuit` produces two
artifacts that the rest of the stack shares instead of re-deriving:

* :class:`CircuitFacts` — width, depth, gate histogram, conditional usage,
  measurement coverage, qubit/clbit dataflow (touched/measured/written/read
  sets) and the gate-structure fingerprint.  The simulator's path choice,
  the batchsim planner's width/defect/fast-path checks and the transpiler's
  pre-checks all read these facts, so those decisions can never disagree
  with the analyzer.  (Whether a trajectory's shots can share a batch is
  not a fact of the circuit alone: it depends on the noise model, so the
  planner asks :func:`~repro.quantum.simulator.trajectory_draw_plan`.)
* a :class:`Diagnostic` stream with stable codes — ``QA1xx`` errors (the
  circuit cannot execute meaningfully), ``QA2xx`` warnings (suspicious but
  runnable), ``QA3xx`` info — each carrying a severity, the offending
  instruction index and a one-line explanation.  The
  :class:`~repro.quantum.execution.service.ExecutionService` pre-flight
  stage (``validate="warn"|"strict"``), the evalsuite's ``static_error``
  grading and the ``repro lint`` CLI all consume the same stream.

This package deliberately imports only the circuit/gate layer (never the
simulator or the execution service), so every higher layer may depend on it
without cycles.
"""

from repro.quantum.analysis.diagnostics import (
    DIAGNOSTIC_CODES,
    ERROR,
    INFO,
    WARNING,
    CircuitAnalysis,
    Diagnostic,
    analyze_circuit,
    structural_errors,
    unbound_parameter_errors,
)
from repro.quantum.analysis.facts import (
    CircuitFacts,
    circuit_facts,
    structure_fingerprint,
)

__all__ = [
    "CircuitAnalysis",
    "CircuitFacts",
    "DIAGNOSTIC_CODES",
    "Diagnostic",
    "ERROR",
    "INFO",
    "WARNING",
    "analyze_circuit",
    "circuit_facts",
    "structural_errors",
    "structure_fingerprint",
    "unbound_parameter_errors",
]
