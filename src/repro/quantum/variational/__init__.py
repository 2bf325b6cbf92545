"""``repro.quantum.variational`` — ansatz builders and a batched optimizer.

The workload family unlocked by symbolic parameters: an ansatz is built
*once* as a parameterized template (:func:`qaoa_ansatz`,
:func:`hardware_efficient_ansatz`), every optimizer iterate binds it to
concrete angles, and all of an iteration's candidate points execute as **one**
:class:`~repro.quantum.execution.service.ExecutionService` batch — sharing a
single structure fingerprint, so each iteration is a single batch-planner
group.

Quickstart::

    from repro.quantum.variational import maxcut_energy, minimize, qaoa_ansatz

    edges = [(0, 1), (1, 2), (2, 3), (3, 0)]
    ansatz = qaoa_ansatz(4, edges, reps=1)
    result = minimize(maxcut_energy(edges), ansatz, backend="ideal", seed=7)
    result.best_value, result.best_parameters

``repro variational`` drives the same loop from the CLI.
"""

from repro.quantum.variational.ansatz import (
    hardware_efficient_ansatz,
    maxcut_cut_size,
    maxcut_energy,
    qaoa_ansatz,
)
from repro.quantum.variational.optimize import (
    OPTIMIZE_METHODS,
    VariationalResult,
    minimize,
)

__all__ = [
    "OPTIMIZE_METHODS",
    "VariationalResult",
    "hardware_efficient_ansatz",
    "maxcut_cut_size",
    "maxcut_energy",
    "minimize",
    "qaoa_ansatz",
]
