"""``repro.quantum.batchsim`` — the vectorised batch statevector engine.

A numpy batch-axis simulator that runs every cache miss of the
:class:`~repro.quantum.execution.service.ExecutionService`: compatible
work units (same compacted gate structure and qubit count; per-unit
seed/shots/parameters distinct) evolve together as a ``(batch, 2**n)``
state with one stacked matmul per gate, and trajectory units (noisy,
mid-circuit measurement or reset, feed-forward ``c_if``) batch across their
*shots* by pre-drawing the serial noise stream.  Results are bit-identical
to the serial engine per ``(seed, circuit, shots, noise)`` — the batch axis
is an execution detail, never an observable one.

The cooperating pieces:

* :mod:`~repro.quantum.batchsim.state` — the ``(batch, 2**n)`` state
  container, the bit-exact stacked-matmul gate kernel and the bit-exact
  batched measurement;
* :mod:`~repro.quantum.batchsim.planner` — groups miss units by compacted
  gate structure and classifies them ``ideal`` / ``shots`` / ``serial``,
  mirroring the serial engine's own path choice: a unit shot-batches when
  its compacted circuit has a draw plan, which it carries to the engine;
* :mod:`~repro.quantum.batchsim.engine` — executes ideal groups (shared
  evolution, per-unit sampling) and shot-batched trajectories (pre-drawn
  noise tables, per-Pauli and per-condition row subsets, batched collapse),
  tiled under a memory cap.  It never sees a backend, only its noise model,
  so it is property-tested without any execution machinery.

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
from repro.quantum.batchsim.state import (
    BatchStatevector,
    batch_apply_matrix,
    batch_measure,
)

__all__ = [
    "BatchStatevector",
    "IDEAL",
    "MAX_BATCH_AMPLITUDES",
    "PlannedGroup",
    "PlannedUnit",
    "SERIAL",
    "SHOTS",
    "batch_apply_matrix",
    "batch_measure",
    "batchable_backend",
    "execute_group",
    "make_unit",
    "plan",
    "structure_fingerprint",
]
