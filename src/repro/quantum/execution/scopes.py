"""Scoped, attributable execution-stats counters.

``ExecutionService.stats()`` is a process-global view: diffing it before and
after a workload attributes *everything that happened in between* to that
workload, which is simply wrong the moment two evaluation arms (or any other
service users) overlap in time.  A :class:`StatsScope` fixes attribution at
the root: it is a thread-safe counter sink that receives exactly the
increments caused by work *initiated under it* —

* synchronous executions count on the calling thread;
* asynchronous submissions capture the scopes active at ``submit()`` time and
  credit them from the pool workers that actually run the circuits;
* cache lookups/fills credit the scopes of the caller that triggered them.

Scopes are ambient per thread (a stack, so they nest — an inner sandbox
scope and an outer evaluation-arm scope both see the same increment) and
explicitly portable across threads and processes:

* :func:`stats_scope` opens a fresh scope on the current thread::

      with stats_scope() as scope:
          service.run(qc, backend="ideal", shots=256, seed=1)
      scope.get("simulations")   # exactly this block's work

* :func:`use_scope` re-activates an existing scope on another thread, so a
  fan-out engine can attribute every worker's activity to one owner;
* :meth:`StatsScope.merge` folds a counter dict produced elsewhere (e.g. a
  worker process that ran its chunk under its own local scope) into this one.

The counters are named once, in :data:`COUNTERS`; the keys of
``service.stats()`` (whose totals are the service's own scope) and
``EvalResult.execution_stats`` are those names, so a scope snapshot drops
straight into every reporting surface.
"""

from __future__ import annotations

import threading
from collections.abc import Iterable, Mapping
from contextlib import contextmanager

#: The counter registry: ``(name, help)`` for every counter a scope tracks,
#: in reporting order.  Every surface that lists counters renders from it:
#: ``stats()``, the evalsuite table, the report appendix, ``--exec-stats``,
#: ``repro backends`` and the ``/metrics`` HELP lines.  Adding a counter is
#: one line here plus its ``credit`` call.
COUNTERS: tuple[tuple[str, str], ...] = (
    ("simulations", "actual statevector/trajectory + QEC memory runs"),
    (
        "simulations_deduped",
        "concurrent identical executions merged (single-flight)",
    ),
    (
        "simulations_batched",
        "simulations run by the vectorised batch engine; the rest ran serially",
    ),
    ("batch_groups", "batch-engine calls that ran the batched simulations"),
    ("cache_hits", "repeat executions served from cache"),
    ("cache_misses", "deterministic executions found in no cache tier"),
    (
        "cache_disk_hits",
        "cache hits restored from the persistent tier (REPRO_CACHE_DIR), "
        "warm-starting this process",
    ),
    (
        "cache_remote_hits",
        "cache hits downloaded from the shared cache server (REPRO_CACHE_URL), "
        "warm-starting this machine",
    ),
    (
        "cache_evictions",
        "persistent-tier entries evicted by writes to keep the store within "
        "its limits",
    ),
    ("programs_validated", "circuits through the static pre-flight analyzer"),
    (
        "rejected_static",
        "circuits rejected on QA1xx diagnostics before any simulation",
    ),
    (
        "rejected_unbound",
        "circuits refused for unbound symbolic parameters (QA105) in every "
        "validate mode",
    ),
    ("transpiles", "pass-manager runs of the content-addressed transpile stage"),
    (
        "transpile_cache_hits",
        "transpiled circuits restored from the cache tiers instead of "
        "re-running the pass stack",
    ),
)

#: Every counter name, in registry order.
SCOPE_FIELDS = tuple(name for name, _help in COUNTERS)


class StatsScope:
    """A thread-safe sink of execution counters owned by one logical caller."""

    __slots__ = ("label", "_lock", "_counts")

    def __init__(self, label: str | None = None) -> None:
        self.label = label
        self._lock = threading.Lock()
        self._counts = dict.fromkeys(SCOPE_FIELDS, 0)

    def add(self, field: str, amount: int = 1) -> None:
        """Credit ``amount`` to one counter; an unknown field raises
        :class:`KeyError`, so a misspelt counter name fails loudly."""
        if amount:
            with self._lock:
                self._counts[field] += amount

    def merge(self, counts: Mapping[str, int]) -> None:
        """Fold a counter dict (e.g. from a worker process) into this scope.

        Unknown fields are ignored: a worker running a different build may
        ship counters this one does not track.
        """
        with self._lock:
            for field, amount in counts.items():
                if field in self._counts:
                    self._counts[field] += int(amount)

    def get(self, field: str) -> int:
        with self._lock:
            return self._counts[field]

    def as_dict(self) -> dict[str, int]:
        """An immutable-snapshot copy of every counter."""
        with self._lock:
            return dict(self._counts)

    def _reset_for_child(self) -> None:
        """Replace the lock after ``fork()``: another thread of the parent
        may have held it at fork time, which would deadlock the child.  The
        counts are kept."""
        self._lock = threading.Lock()

    def __repr__(self) -> str:
        label = f"'{self.label}' " if self.label else ""
        body = ", ".join(f"{k}={v}" for k, v in self.as_dict().items() if v)
        return f"StatsScope({label}{body or 'empty'})"


def fold_counts(dicts: Iterable[Mapping[str, int]]) -> dict[str, int]:
    """Sum counter dicts into one complete ``SCOPE_FIELDS`` dict.

    The cross-process/cross-host half of scope accounting: a worker runs its
    chunk under a local scope, ships ``scope.as_dict()`` home (through a
    pickle pipe or the dispatch protocol's JSON — the dicts are plain
    ``str -> int``), and the engine folds the snapshots per owner.  Unknown
    fields are ignored and missing ones count as zero, so snapshots from a
    worker running a different build still fold safely.
    """
    totals = dict.fromkeys(SCOPE_FIELDS, 0)
    for counts in dicts:
        for field in SCOPE_FIELDS:
            totals[field] += int(counts.get(field, 0))
    return totals


def cache_hit_rate(counts: Mapping[str, int]) -> float | None:
    """Share of result-cache lookups in ``counts`` that hit (``None`` when
    there were no lookups)."""
    hits = counts.get("cache_hits", 0)
    lookups = hits + counts.get("cache_misses", 0)
    return hits / lookups if lookups else None


_stack = threading.local()


def active_scopes() -> tuple[StatsScope, ...]:
    """The scopes active on the *current* thread, outermost first."""
    return tuple(getattr(_stack, "scopes", ()))


def credit(
    scopes: Iterable[StatsScope], field: str, amount: int = 1
) -> None:
    """Credit one counter on every scope in ``scopes``."""
    if not amount:
        return
    for scope in scopes:
        scope.add(field, amount)


@contextmanager
def use_scope(scope: StatsScope):
    """Activate an existing scope on the current thread (re-entrant).

    This is the cross-thread half of the API: a coordinator creates one
    scope, hands it to N workers, and each worker wraps its slice of the work
    in ``use_scope(scope)`` — the counters still add up exactly.  Entering a
    scope that is already active on this thread is a no-op, so re-entrant
    activation never double-credits an increment.
    """
    stack = getattr(_stack, "scopes", None)
    if stack is None:
        stack = _stack.scopes = []
    pushed = not any(existing is scope for existing in stack)
    if pushed:
        stack.append(scope)
    try:
        yield scope
    finally:
        if pushed:
            # Remove by identity from the end: exits may interleave only
            # within one thread, and contextmanager exits are LIFO per thread.
            for index in range(len(stack) - 1, -1, -1):
                if stack[index] is scope:
                    del stack[index]
                    break


@contextmanager
def stats_scope(label: str | None = None):
    """Open a fresh :class:`StatsScope` on the current thread."""
    with use_scope(StatsScope(label)) as scope:
        yield scope


@contextmanager
def isolated_scopes():
    """Temporarily clear the current thread's ambient scope stack.

    For engines that collect per-chunk counters and fold them into the
    caller's scopes *explicitly* (e.g. the parallel eval runner, whose
    chunks may run on the calling thread, a pool thread, or a forked
    worker): isolating the chunk makes ambient crediting identical across
    all three placements, so the explicit merge never double-counts.
    """
    previous = getattr(_stack, "scopes", None)
    _stack.scopes = []
    try:
        yield
    finally:
        _stack.scopes = previous if previous is not None else []
