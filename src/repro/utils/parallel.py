"""Order-preserving parallel mapping over picklable work chunks.

The evaluation engine and the experiment drivers fan deterministic,
seed-derived chunks of work across a pool.  The helpers here keep that
machinery in one place:

* :func:`resolve_workers` — one rule for picking the worker count: an
  explicit argument wins, then the ``REPRO_EVAL_WORKERS`` environment
  variable, then the serial default of 1.
* :func:`process_pool` — the one process-pool constructor.  It prefers
  ``fork`` (the work is CPU-bound Python/numpy that holds the GIL, and forked
  children inherit the warm in-memory execution cache) and returns ``None``
  on a platform that cannot build a pool.
* :func:`parallel_map` — maps a module-level function over argument tuples,
  preserving input order, one of two ways: on a process pool, or inline on
  the calling thread.  It runs inline for ``workers <= 1``, for a single
  call, for a payload that does not pickle, and when no pool can be built.
  Results are bit-identical in both modes as long as ``fn`` is
  deterministic per item — which is exactly the contract the eval engine's
  seed derivation provides.

``multiprocessing`` and ``concurrent.futures`` load only when a pool is
built, so a process that maps inline never imports them.
"""

from __future__ import annotations

import os
import pickle
from collections.abc import Callable, Sequence
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

#: Environment variable consulted when no explicit worker count is given.
EVAL_WORKERS_ENV = "REPRO_EVAL_WORKERS"


def resolve_workers(workers: int | None) -> int:
    """``workers`` if given, else ``REPRO_EVAL_WORKERS``, else 1.

    Raises ``ValueError`` for a non-positive or unparsable count — a
    misconfigured fleet variable must fail loudly, not silently serialise.
    """
    if workers is not None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        return workers
    text = os.environ.get(EVAL_WORKERS_ENV, "").strip()
    if not text:
        return 1
    try:
        value = int(text)
    except ValueError:
        raise ValueError(
            f"{EVAL_WORKERS_ENV} must be an integer, got {text!r}"
        ) from None
    if value < 1:
        raise ValueError(f"{EVAL_WORKERS_ENV} must be >= 1, got {value}")
    return value


def process_pool(workers: int) -> ProcessPoolExecutor | None:
    """A ``workers``-process pool preferring ``fork`` so children inherit
    warm caches; ``None`` on a platform that cannot build one."""
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    context = None
    if "fork" in multiprocessing.get_all_start_methods():
        context = multiprocessing.get_context("fork")
    try:
        return ProcessPoolExecutor(max_workers=workers, mp_context=context)
    except (OSError, NotImplementedError):
        return None


def _picklable(fn: Callable, calls: Sequence[tuple]) -> bool:
    # Probe the function plus *every* call: one unpicklable item anywhere
    # (e.g. a task carrying a closure checker) must run the whole map
    # inline, not crash mid-pool.  This serialises the payload twice in the
    # pool path, but payloads are KB-scale task tuples.
    try:
        pickle.dumps((fn, list(calls)))
        return True
    except Exception:  # noqa: BLE001 - any pickling failure means "inline"
        return False


def parallel_map(
    fn: Callable,
    calls: Sequence[tuple],
    workers: int,
    on_result: Callable[[int, object], None] | None = None,
) -> list:
    """``[fn(*args) for args in calls]``, fanned across ``workers`` processes.

    ``on_result(completed_count, result)`` fires as results land (in
    completion order — use it for progress, not for ordering).  The returned
    list is always in input order.  The first failing call re-raises after
    outstanding work is cancelled.
    """
    calls = list(calls)
    pool = None
    if workers > 1 and len(calls) > 1 and _picklable(fn, calls):
        pool = process_pool(min(workers, len(calls)))
    if pool is None:
        results = []
        for index, args in enumerate(calls):
            results.append(fn(*args))
            if on_result is not None:
                on_result(index + 1, results[-1])
        return results

    from concurrent.futures import FIRST_EXCEPTION, wait

    results: list = [None] * len(calls)
    try:
        futures = {pool.submit(fn, *args): i for i, args in enumerate(calls)}
        pending = set(futures)
        completed = 0
        while pending:
            done, pending = wait(pending, return_when=FIRST_EXCEPTION)
            for future in done:
                index = futures[future]
                results[index] = future.result()  # re-raises the first failure
                completed += 1
                if on_result is not None:
                    on_result(completed, results[index])
    finally:
        # cancel_futures tears queued work down fast on the failure path.
        pool.shutdown(wait=True, cancel_futures=True)
    return results
