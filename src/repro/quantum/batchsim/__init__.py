"""``repro.quantum.batchsim`` — the simulation engine.

The one simulator in the program: a numpy batch-axis statevector engine.
It runs every cache miss of the
:class:`~repro.quantum.execution.service.ExecutionService` and every
``Backend.execute_circuit`` call on a stock backend.  Compatible work units
(same compacted gate structure and qubit count; per-unit
seed/shots/parameters distinct) evolve together as a ``(batch, 2**n)``
state with one stacked matmul per gate (a per-row matrix stack where the
parameters differ), and trajectory units (noisy,
mid-circuit measurement or reset, feed-forward ``c_if``) batch across their
*shots* by pre-drawing the per-shot noise stream, one amplitude row per
distinct history.  A unit's result depends
on its ``(seed, circuit, shots, noise)`` alone — the batch axis is an
execution detail, never an observable one — and matches the serial engine
it replaced bit for bit (kept frozen in ``tests/serial_engine.py`` as the
parity reference).

The cooperating pieces:

* :mod:`~repro.quantum.batchsim.state` — the ``(batch, 2**n)`` state
  container, the bit-exact stacked-matmul gate kernel and the bit-exact
  batched measurement;
* :mod:`~repro.quantum.batchsim.planner` — groups miss units by compacted
  gate structure and classifies them ``ideal`` / ``shots`` / ``serial``
  (:func:`route`): a unit shot-batches when its compacted circuit has a
  draw plan, which it carries to the engine.  A bound circuit routes on
  its template's facts, walked once per template;
* :mod:`~repro.quantum.batchsim.engine` — executes ideal groups (shared
  evolution, per-unit sampling) and shot-batched trajectories (pre-drawn
  noise tables, one row per distinct history, split by measurement outcome,
  Pauli draw and condition),
  tiled under a memory cap, plus :func:`run_circuit`, the single-circuit
  entry, which also runs circuits whose conditionals draw one shot at a
  time.  It never sees a backend, only its noise model, so it is
  property-tested without any execution machinery.

The service drives all of this transparently: it plans each submission's
misses, runs every batchable group through :func:`execute_group` and each
SERIAL unit through ``Backend.execute_circuit`` (:func:`run_circuit` on a
stock backend), and keeps caching, single-flight dedup and counters per
unit.  ``simulations_batched`` / ``batch_groups`` in ``service.stats()``
report how much work took the vectorised group path.
"""

from repro.quantum.batchsim.engine import (
    MAX_BATCH_AMPLITUDES,
    execute_group,
    run_circuit,
)
from repro.quantum.batchsim.planner import (
    IDEAL,
    SERIAL,
    SHOTS,
    PlannedGroup,
    PlannedUnit,
    batchable_backend,
    make_unit,
    plan,
    route,
    structure_fingerprint,
)
from repro.quantum.batchsim.state import (
    BatchStatevector,
    batch_apply_matrix,
    batch_collapse,
    batch_p1,
)

#: Version of the engine's results.  A stock backend's cache keys carry it
#: (``CacheKey.engine``), so a change that moves any result bumps it, and
#: every result the previous engine stored then misses once, on every tier.
#: A bit-identical change keeps it.
ENGINE_VERSION = 1

__all__ = [
    "BatchStatevector",
    "ENGINE_VERSION",
    "IDEAL",
    "MAX_BATCH_AMPLITUDES",
    "PlannedGroup",
    "PlannedUnit",
    "SERIAL",
    "SHOTS",
    "batch_apply_matrix",
    "batch_collapse",
    "batch_p1",
    "batchable_backend",
    "execute_group",
    "make_unit",
    "plan",
    "route",
    "run_circuit",
    "structure_fingerprint",
]
