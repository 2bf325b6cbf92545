"""The handle an execution returns.

:meth:`~repro.quantum.execution.service.ExecutionService.run` (and
``Backend.run``, which delegates to it) returns an :class:`ExecutionJob` once
every circuit has a result, so ``job.result()`` never blocks and Qiskit-style
``backend.run(qc).result().get_counts()`` programs run unchanged.  The job
also records how the service served its circuits.
"""

from __future__ import annotations

import itertools

from repro.quantum.backend import Result

_job_ids = itertools.count(1)


def next_job_id() -> str:
    """Monotonically increasing process-unique job identifier."""
    return f"exec-{next(_job_ids):06d}"


class ExecutionJob:
    """Finished handle on one execution by the :class:`ExecutionService`."""

    def __init__(
        self,
        result: Result,
        num_circuits: int,
        backend_name: str,
        cache_hits: int = 0,
        deduped: int = 0,
    ) -> None:
        self.job_id = next_job_id()
        self.num_circuits = num_circuits
        self.backend_name = backend_name
        #: Circuit indices served straight from the result cache.
        self.cache_hits = cache_hits
        #: Circuit indices whose simulation was deduplicated by the service's
        #: single-flight path (an identical execution was already in flight;
        #: this job read its cache fill instead of re-simulating).
        self.deduped = deduped
        self._result = result

    def result(self) -> Result:
        """The execution's :class:`Result`, in submission order."""
        return self._result

    def __repr__(self) -> str:
        return (
            f"ExecutionJob(id='{self.job_id}', backend='{self.backend_name}', "
            f"circuits={self.num_circuits})"
        )
