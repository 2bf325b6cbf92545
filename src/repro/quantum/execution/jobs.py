"""Job lifecycle for asynchronous circuit execution.

An :class:`ExecutionJob` is the handle returned by
:meth:`~repro.quantum.execution.service.ExecutionService.submit`: it tracks a
batch of circuits through ``QUEUED -> RUNNING -> DONE`` (or ``ERROR`` /
``CANCELLED``), exposes a blocking :meth:`ExecutionJob.result` with an
optional timeout, and supports best-effort cancellation of work that has not
started.  Jobs are also constructed already-finished by the synchronous
compatibility path (``Backend.run``), so every consumer sees one uniform
job/result surface regardless of how the execution was scheduled.
"""

from __future__ import annotations

import itertools
import threading
from enum import Enum

from repro.errors import BackendError
from repro.quantum.backend import Result

_job_ids = itertools.count(1)


def next_job_id() -> str:
    """Monotonically increasing process-unique job identifier."""
    return f"exec-{next(_job_ids):06d}"


class JobStatus(str, Enum):
    """Lifecycle states of an :class:`ExecutionJob`."""

    QUEUED = "QUEUED"
    RUNNING = "RUNNING"
    DONE = "DONE"
    ERROR = "ERROR"
    CANCELLED = "CANCELLED"

    @property
    def is_terminal(self) -> bool:
        return self in (JobStatus.DONE, JobStatus.ERROR, JobStatus.CANCELLED)


class ExecutionJob:
    """Handle on one batched submission to the :class:`ExecutionService`.

    The service owns the state transitions; consumers only read ``status()``,
    block on ``result()`` and may request ``cancel()``.
    """

    def __init__(
        self,
        job_id: str | None = None,
        num_circuits: int = 1,
        backend_name: str = "?",
    ) -> None:
        self.job_id = job_id or next_job_id()
        self.num_circuits = num_circuits
        self.backend_name = backend_name
        #: Circuit indices served straight from the result cache.
        self.cache_hits: int = 0
        #: Circuit indices whose simulation was deduplicated by the service's
        #: single-flight path (an identical execution was already in flight;
        #: this job read its cache fill instead of re-simulating).
        self.deduped: int = 0
        self._status = JobStatus.QUEUED
        self._result: Result | None = None
        self._error: BaseException | None = None
        self._lock = threading.Lock()
        self._finished = threading.Event()

    # -- consumer surface ---------------------------------------------------------

    def status(self) -> JobStatus:
        return self._status

    def done(self) -> bool:
        return self._status.is_terminal

    def cancelled(self) -> bool:
        return self._status is JobStatus.CANCELLED

    def error(self) -> BaseException | None:
        """The exception that failed the job, when ``status() == ERROR``."""
        return self._error

    def result(self, timeout: float | None = None) -> Result:
        """Block until the job finishes and return its :class:`Result`.

        Raises:
            BackendError: on timeout or cancellation.
            Exception: re-raises the original failure for ``ERROR`` jobs.
        """
        if not self._finished.wait(timeout):
            raise BackendError(
                f"job '{self.job_id}' did not finish within {timeout}s "
                f"(status {self._status.value})"
            )
        if self._status is JobStatus.CANCELLED:
            raise BackendError(f"job '{self.job_id}' was cancelled")
        if self._error is not None:
            raise self._error
        assert self._result is not None
        return self._result

    def wait(self, timeout: float | None = None) -> bool:
        """Block until terminal (or timeout); returns ``done()``."""
        self._finished.wait(timeout)
        return self.done()

    def cancel(self) -> bool:
        """Cancel the job; succeeds only if execution has not started."""
        with self._lock:
            if self._status is JobStatus.QUEUED:
                self._finish(JobStatus.CANCELLED)
                return True
            return self._status is JobStatus.CANCELLED

    # -- service-side transitions ---------------------------------------------------

    def _mark_running(self) -> bool:
        """QUEUED -> RUNNING; returns False when cancellation won the race."""
        with self._lock:
            if self._status is JobStatus.QUEUED:
                self._status = JobStatus.RUNNING
            return self._status is JobStatus.RUNNING

    def _mark_done(self, result: Result) -> None:
        with self._lock:
            self._result = result
            self._finish(JobStatus.DONE)

    def _mark_error(self, exc: BaseException) -> None:
        with self._lock:
            self._error = exc
            self._finish(JobStatus.ERROR)

    def _finish(self, status: JobStatus) -> None:
        if not self._status.is_terminal:
            self._status = status
        self._finished.set()

    def __repr__(self) -> str:
        return (
            f"ExecutionJob(id='{self.job_id}', backend='{self.backend_name}', "
            f"circuits={self.num_circuits}, status={self._status.value})"
        )
