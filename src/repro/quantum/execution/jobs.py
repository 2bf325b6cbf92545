"""The handle an execution returns.

:meth:`~repro.quantum.execution.service.ExecutionService.run` (and
``Backend.run``, which delegates to it) returns an :class:`ExecutionJob` once
every circuit has a result, so ``job.result()`` never blocks and Qiskit-style
``backend.run(qc).result().get_counts()`` programs run unchanged.  The job
carries no counters: what a call cost (cache hits, simulations, deduplicated
misses) is credited to the stats scopes open around it
(``with service.stats_scope() as scope:``).
"""

from __future__ import annotations

import itertools

from repro.quantum.backend import Result

_job_ids = itertools.count(1)


def next_job_id() -> str:
    """Monotonically increasing process-unique job identifier."""
    return f"exec-{next(_job_ids):06d}"


class ExecutionJob:
    """Finished handle on one execution by the :class:`ExecutionService`:
    its result, id, circuit count and backend name."""

    def __init__(
        self, result: Result, num_circuits: int, backend_name: str
    ) -> None:
        self.job_id = next_job_id()
        self.num_circuits = num_circuits
        self.backend_name = backend_name
        self._result = result

    def result(self) -> Result:
        """The execution's :class:`Result`, in submission order."""
        return self._result

    def __repr__(self) -> str:
        return (
            f"ExecutionJob(id='{self.job_id}', backend='{self.backend_name}', "
            f"circuits={self.num_circuits})"
        )
