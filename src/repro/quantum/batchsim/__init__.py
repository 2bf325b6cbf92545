"""``repro.quantum.batchsim`` — the vectorised batch statevector engine.

A numpy batch-axis simulator that runs every cache miss of the
:class:`~repro.quantum.execution.service.ExecutionService`: compatible
work units (same compacted gate structure and qubit count; per-unit
seed/shots/parameters distinct) evolve together as a ``(batch, 2**n)``
state with one stacked matmul per gate, and noisy units batch across their
*shots* by pre-drawing the serial noise stream.  Results are bit-identical
to the serial engine per ``(seed, circuit, shots, noise)`` — the batch axis
is an execution detail, never an observable one.

The cooperating pieces:

* :mod:`~repro.quantum.batchsim.state` — the ``(batch, 2**n)`` state
  container and the bit-exact stacked-matmul gate kernel;
* :mod:`~repro.quantum.batchsim.planner` — groups miss units by compacted
  gate structure and classifies them ``ideal`` / ``shots`` / ``serial``,
  mirroring the serial engine's own path choice;
* :mod:`~repro.quantum.batchsim.engine` — executes ideal groups (shared
  evolution, per-unit sampling) and shot-batched noisy trajectories
  (pre-drawn noise tables, per-Pauli sub-batches), tiled under a memory cap.
  It never sees a backend, only its noise model, so it is property-tested
  without any execution machinery.

The service drives all of this transparently: it plans each submission's
misses, runs every batchable group through :func:`execute_group` and the
SERIAL group through ``Backend.execute_circuit``, and keeps caching,
single-flight dedup and counters per unit.  ``simulations_batched`` /
``batch_groups`` in ``service.stats()`` report how much work took the
vectorised path.
"""

from repro.quantum.batchsim.engine import MAX_BATCH_AMPLITUDES, execute_group
from repro.quantum.batchsim.planner import (
    IDEAL,
    SERIAL,
    SHOTS,
    PlannedGroup,
    PlannedUnit,
    batchable_backend,
    make_unit,
    plan,
    structure_fingerprint,
)
from repro.quantum.batchsim.state import BatchStatevector, batch_apply_matrix

__all__ = [
    "BatchStatevector",
    "IDEAL",
    "MAX_BATCH_AMPLITUDES",
    "PlannedGroup",
    "PlannedUnit",
    "SERIAL",
    "SHOTS",
    "batch_apply_matrix",
    "batchable_backend",
    "execute_group",
    "make_unit",
    "plan",
    "structure_fingerprint",
]
