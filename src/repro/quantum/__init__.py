"""``repro.quantum`` — the gate-level quantum SDK.

This package is the reproduction's substitute for Qiskit: circuits, a
statevector simulator, noise models, device topologies, fake backends, a
transpiler, and the algorithm library that the evaluation suite grades
against.

Quickstart::

    from repro.quantum import QuantumCircuit, default_service, get_backend

    qc = QuantumCircuit(2, 2)
    qc.h(0)
    qc.cx(0, 1)
    qc.measure([0, 1], [0, 1])
    job = default_service().run(qc, backend=get_backend("ideal"),
                                shots=1000, seed=7)
    counts = job.result().get_counts()

The legacy one-liner still works (and shares the execution cache)::

    counts = LocalSimulator().run(qc, shots=1000, seed=7).result().get_counts()
"""

from repro.quantum.backend import (
    Backend,
    FakeBrisbane,
    FakeFalcon,
    LocalSimulator,
    NoisySimulator,
    Result,
)
from repro.quantum.circuit import (
    ClassicalRegister,
    Instruction,
    QuantumCircuit,
    QuantumRegister,
)
# NOTE: ``repro.quantum.execution.execute`` is deliberately NOT re-exported
# here — the package-level ``execute`` name belongs to the *legacy* removed
# symbol (see repro.quantum.legacy), which the fault taxonomy depends on.
from repro.quantum.execution import (
    ExecutionJob,
    ExecutionService,
    default_service,
    get_backend,
    list_backends,
    register_backend,
    resolve_backend,
)
from repro.quantum.noise import NoiseModel, PauliNoise, ReadoutError
from repro.quantum.parameters import Parameter, ParameterExpression
from repro.quantum.qasm import circuit_to_qasm, qasm_to_circuit
from repro.quantum.statevector import Statevector
from repro.quantum.topology import CouplingMap
from repro.quantum.transpiler import transpile

# Legacy symbols are importable (so stale generated code imports cleanly) but
# raise QuantumDeprecationError when used; see repro.quantum.legacy.
from repro.quantum.legacy import Aer, BasicAer, IBMQ, execute

__all__ = [
    "Aer",
    "Backend",
    "BasicAer",
    "ClassicalRegister",
    "CouplingMap",
    "ExecutionJob",
    "ExecutionService",
    "FakeBrisbane",
    "FakeFalcon",
    "IBMQ",
    "Instruction",
    "LocalSimulator",
    "NoiseModel",
    "NoisySimulator",
    "Parameter",
    "ParameterExpression",
    "PauliNoise",
    "QuantumCircuit",
    "QuantumRegister",
    "ReadoutError",
    "Result",
    "Statevector",
    "circuit_to_qasm",
    "default_service",
    "execute",
    "get_backend",
    "list_backends",
    "qasm_to_circuit",
    "register_backend",
    "resolve_backend",
    "transpile",
]
