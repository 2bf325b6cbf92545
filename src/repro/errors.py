"""Exception hierarchy for the ``repro`` package.

Every error raised by the library derives from :class:`ReproError`, so callers can
catch one base class.  The quantum SDK deliberately exposes a *structured* error
surface — error category, offending symbol, and a migration hint — because the
multi-pass repair loop (paper Section IV-A) consumes tracebacks programmatically
and the fault taxonomy of the evaluation (paper Section V) is keyed on these
categories.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this package."""


# ---------------------------------------------------------------------------
# Quantum SDK errors
# ---------------------------------------------------------------------------


class QuantumError(ReproError):
    """Base class for errors raised by :mod:`repro.quantum`."""


class CircuitError(QuantumError):
    """Structural problem while building a circuit (bad qubit index, width...)."""


class GateError(QuantumError):
    """Unknown gate name or malformed gate parameters."""


class SimulationError(QuantumError):
    """The simulator could not execute the circuit."""


class ValidationError(QuantumError):
    """Static analysis rejected a circuit before execution.

    Raised by the execution service's pre-flight stage (``validate="strict"``)
    when the analyzer reports ``QA1xx`` errors.  Carries the full diagnostic
    stream so callers — the evalsuite's ``static_error`` grading, the lint
    CLI — can report coded findings without re-running the analyzer.
    """

    def __init__(self, message: str, diagnostics: tuple = ()) -> None:
        self.diagnostics = tuple(diagnostics)
        super().__init__(message)


class TranspilerError(QuantumError):
    """Layout/routing/decomposition failure."""


class BackendError(QuantumError):
    """Problems talking to a (simulated) backend."""


class QasmError(QuantumError):
    """Malformed OpenQASM text."""


class QuantumDeprecationError(QuantumError):
    """A removed legacy API was called.

    Mirrors the "deprecated Qiskit feature" errors that the paper identifies as
    the dominant syntactic failure mode of LLM-generated quantum code
    (Sections IV-C and V-D).  Instances carry the removed symbol and a
    migration hint so the repair loop — and RAG over the API docs — can fix
    the call site.
    """

    def __init__(self, symbol: str, hint: str) -> None:
        self.symbol = symbol
        self.hint = hint
        super().__init__(
            f"'{symbol}' was removed from the quantum SDK. Migration: {hint}"
        )


# ---------------------------------------------------------------------------
# QEC errors
# ---------------------------------------------------------------------------


class QECError(ReproError):
    """Base class for errors raised by :mod:`repro.qec`."""


class CodeConstructionError(QECError):
    """A stabilizer code could not be constructed (bad distance, topology...)."""


class DecodingError(QECError):
    """A decoder failed to produce a correction for a syndrome."""


class TopologyError(QECError):
    """The device topology cannot host the requested code.

    Raised by the QEC agent when the coupling map is not lattice-embeddable;
    reproduces the topology-specificity limitation of paper Section V-E.
    """


# ---------------------------------------------------------------------------
# LLM / agents / evaluation errors
# ---------------------------------------------------------------------------


class LLMError(ReproError):
    """Base class for errors raised by :mod:`repro.llm`."""


class TokenizationError(LLMError):
    """Input text could not be tokenized."""


class GenerationError(LLMError):
    """The model failed to produce a completion."""


class DatasetError(LLMError):
    """The fine-tuning data pipeline rejected or failed to parse the corpus."""


class RAGError(ReproError):
    """Base class for errors raised by :mod:`repro.rag`."""


class AgentError(ReproError):
    """Base class for errors raised by :mod:`repro.agents`."""


class SandboxError(AgentError):
    """Generated code escaped or crashed the execution sandbox."""


class EvaluationError(ReproError):
    """Base class for errors raised by :mod:`repro.evalsuite`."""
