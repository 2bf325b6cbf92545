"""Distributed work dispatch over the cache-server transport.

The parallel evaluation engine (PR 4) fans picklable per-task episode chunks
across a single host's fork pool.  This module ships the *same* chunks to
remote machines instead, reusing the stdlib-HTTP transport (and shared-token
auth) of :mod:`~repro.quantum.execution.remote_cache`:

* :class:`WorkQueue` — the coordinator-side lease queue.  Chunks move
  ``pending -> leased -> done``; a lease that misses its heartbeat deadline
  moves its chunk back to ``pending`` (at-least-once execution), but
  :meth:`WorkQueue.complete` folds each chunk **exactly once** — a stale or
  duplicate completion is rejected, never double-counted.  Lease ids are
  strictly monotonic.  These invariants are what the protocol property tests
  fuzz (``tests/quantum/test_dispatch_properties.py``).
* :class:`EvalCoordinator` — a :class:`~repro.quantum.execution.remote_cache.
  CacheServer` subclass adding the ``/work`` endpoints, so one process (``repro
  eval-server``) serves both the warm result cache and the work queue on one
  port with one token.  :meth:`EvalCoordinator.run_chunks` queues payloads,
  folds results in input order, and transparently falls back to *local*
  execution on the host's fork pool when no remote worker shows up.
* :class:`DispatchClient` / :func:`run_worker` — the worker side (``repro
  eval-worker``): lease, heartbeat while executing, complete; transient
  transport errors retry, auth rejections raise.

Protocol (JSON over HTTP; binary chunk payloads travel base64-encoded):

* ``POST /work/lease``      ``{"worker": id}`` → ``{"lease", "chunk",
  "payload", "timeout"}`` (the lease timeout, so workers can pace their
  heartbeats under it) or ``{"empty": true}``;
* ``POST /work/heartbeat``  ``{"lease": n}`` → ``{"ok": bool}`` (false means
  the lease already expired — the worker should drop the chunk);
* ``POST /work/complete``   ``{"lease": n, "result": b64}`` → ``{"folded":
  bool}`` (false: stale/duplicate lease, the result was discarded); a result
  that does not even unpickle answers 400 and requeues the chunk;
* ``GET  /work/status``     → queue counters (including per-lane depths).

Multi-tenant serving (PR 10): with a
:class:`~repro.quantum.execution.tenants.TenantRegistry` attached, tenant
API keys authenticate alongside the admin token, leases charge per-tenant
simulation quotas (429 when spent), chunks queue into per-tenant
fair-share lanes, and a :class:`~repro.quantum.execution.jobstore.JobStore`
persists queued work across coordinator restarts.

Chunks are pickled ``(function, args)`` calls and results pickled
``("ok", value)`` / ``("err", exception)`` — executing one is running
arbitrary code, exactly like the fork pool does locally.  The transport is
therefore **only** for fleets that already share the cache token (the same
trust boundary as the cache tier, where a poisoned entry could fake counts);
deterministic chunks make who-runs-what irrelevant to the results, which is
what keeps distributed evaluation bit-identical to the serial loop.
"""

from __future__ import annotations

import base64
import itertools
import json
import os
import pickle
import threading
import time
import urllib.error
import urllib.request
from collections import deque
from dataclasses import dataclass

from repro.errors import BackendError
from repro.quantum.execution.remote_cache import (
    DEFAULT_THROTTLE_BACKOFF,
    MAX_ENTRY_BYTES,
    MAX_THROTTLE_BACKOFF,
    CacheServer,
    _CacheRequestHandler,
    bearer_headers,
    parse_retry_after,
    raise_auth_error,
    resolve_token,
)
from repro.utils.parallel import process_pool, resolve_workers

#: Seconds a lease may go without a heartbeat before its chunk is requeued.
DEFAULT_LEASE_TIMEOUT = 30.0
#: Worker-side pause between lease attempts on an empty queue.
DEFAULT_POLL_INTERVAL = 0.2
#: Worker-side pause between heartbeats while executing a chunk.
DEFAULT_HEARTBEAT_INTERVAL = 5.0
#: Seconds of remote-worker silence before the coordinator's local fallback
#: pool starts draining the queue itself.
DEFAULT_FALLBACK_GRACE = 1.0
#: Per-request timeout for dispatch calls (leases carry chunk payloads, so
#: this is roomier than the cache tier's).
DEFAULT_DISPATCH_TIMEOUT = 10.0


# -- chunk payload codec -------------------------------------------------------------


def encode_chunk(fn, args: tuple) -> bytes:
    """One picklable work chunk: a module-level callable plus its arguments."""
    return pickle.dumps((fn, tuple(args)), protocol=pickle.HIGHEST_PROTOCOL)


def run_chunk_payload(payload: bytes) -> bytes:
    """Execute one encoded chunk; the result is itself an encoded outcome.

    Runs on workers and on the coordinator's local fallback pool alike (it is
    module-level precisely so the fork pool can ship it).  A chunk that raises
    is reported as an ``("err", exc)`` outcome — re-raised at fold time, like
    the local engine re-raises the first failing chunk — never retried: the
    chunks are deterministic, so a second run would fail identically.
    """
    try:
        fn, args = pickle.loads(payload)
        result = fn(*args)
        return pickle.dumps(("ok", result), protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as exc:  # noqa: BLE001 - relayed to the folding loop
        try:
            return pickle.dumps(("err", exc), protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:  # noqa: BLE001 - unpicklable exception
            return pickle.dumps(
                ("err", BackendError(f"chunk failed: {exc!r}")),
                protocol=pickle.HIGHEST_PROTOCOL,
            )


def _run_payload_on(pool, payload: bytes) -> bytes:
    """:func:`run_chunk_payload` on ``pool``; inline when there is no pool or
    it broke.  A chunk's own failure comes back as an ``err`` outcome, so an
    exception here can only be the pool's."""
    if pool is not None:
        try:
            return pool.submit(run_chunk_payload, payload).result()
        except Exception:  # noqa: BLE001 - broken pool: run inline
            pass
    return run_chunk_payload(payload)


def decode_result(blob: bytes):
    """Unpack one outcome produced by :func:`run_chunk_payload`; raises the
    chunk's own exception for ``err`` outcomes."""
    return _fold_outcome(pickle.loads(blob))


def _fold_outcome(outcome: tuple):
    status, value = outcome
    if status == "err":
        raise value
    return value


def _valid_outcome(outcome) -> bool:
    return (
        isinstance(outcome, tuple)
        and len(outcome) == 2
        and outcome[0] in ("ok", "err")
    )


# -- the coordinator-side lease queue ------------------------------------------------


@dataclass
class _Lease:
    lease_id: int
    index: int
    worker: str
    deadline: float


class WorkQueue:
    """Lease-based chunk queue: at-least-once execution, exactly-once folding.

    Thread-safe; driven concurrently by the HTTP handler threads (remote
    workers), the coordinator's local fallback threads, and the folding loop.
    ``clock`` is injectable so the property tests can drive lease expiry
    deterministically.

    Invariants (fuzzed in ``tests/quantum/test_dispatch_properties.py``):

    * **no lost chunk** — every added chunk is always in exactly one of
      ``pending`` / ``leased`` / ``done``; expiry and explicit failure move
      ``leased`` chunks back to ``pending``, never drop them;
    * **no duplicate fold** — :meth:`complete` succeeds at most once per
      chunk; completions against expired, already-completed, or never-issued
      leases return ``False`` and discard the result;
    * **monotonic lease ids** — every lease (including a re-lease after
      expiry) gets a strictly larger id, so "which attempt is current" is
      always decidable.

    Fair-share scheduling (PR 10): chunks are queued into per-tenant
    *lanes* and leases are handed out weighted-round-robin across
    non-empty lanes — each lane serves up to its priority weight
    (default 1) per turn before the rotation moves on — so one tenant's
    10k-chunk sweep cannot starve another tenant's 10-chunk job.  A
    single-lane queue (every caller using the default lane) degenerates
    to exactly the old FIFO order.
    """

    def __init__(
        self,
        lease_timeout: float = DEFAULT_LEASE_TIMEOUT,
        clock=time.monotonic,
    ) -> None:
        if lease_timeout <= 0:
            raise ValueError(
                f"lease_timeout must be positive, got {lease_timeout}"
            )
        self.lease_timeout = lease_timeout
        self._clock = clock
        self._lock = threading.Lock()
        self._results_ready = threading.Condition(self._lock)
        self._payloads: list[bytes] = []
        self._state: list[str] = []  # "pending" | "leased" | "done"
        #: Pending indexes per lane, plus the round-robin rotation of lane
        #: names and each lane's fair-share weight and current-turn credit.
        self._lanes: dict[str, deque[int]] = {}
        self._lane_order: deque[str] = deque()
        self._lane_priority: dict[str, int] = {}
        self._lane_credit: dict[str, int] = {}
        self._chunk_lane: list[str] = []
        self._leases: dict[int, _Lease] = {}
        self._next_lease = itertools.count(1)
        #: Folded ``(index, result)`` pairs; the queue is agnostic about the
        #: result type (the HTTP layer stores decoded outcome tuples).
        self._completed: deque[tuple[int, object]] = deque()
        self._done = 0
        #: Per-chunk requeue counts (expiry + explicit failures), for tests
        #: and the ``/work/status`` document.
        self.requeues: dict[int, int] = {}
        #: Distinct remote worker ids that ever leased work.
        self.workers_seen: set[str] = set()
        self._remote_activity: float | None = None

    # -- queue surface ---------------------------------------------------------------

    def set_lane_priority(self, lane: str, weight: int) -> None:
        """Fair-share weight of one lane: chunks served per rotation turn."""
        with self._lock:
            self._lane_priority[lane] = max(1, int(weight))

    def add_chunks(self, payloads: list[bytes], lane: str = "") -> list[int]:
        """Append chunks to a lane; returns their queue indexes (stable
        identifiers).  The default lane keeps single-tenant callers on the
        original strict-FIFO behavior."""
        with self._lock:
            pending = self._lane_locked(lane)
            indexes = []
            for payload in payloads:
                index = len(self._payloads)
                self._payloads.append(payload)
                self._state.append("pending")
                self._chunk_lane.append(lane)
                pending.append(index)
                indexes.append(index)
            return indexes

    def lease(self, worker: str = "") -> tuple[int, int, bytes] | None:
        """Hand out one pending chunk: ``(lease_id, index, payload)``.

        Expired leases are requeued first, so a crashed worker's chunk is
        re-leasable the moment its deadline passes.  Lanes are drained
        weighted-round-robin (see the class docstring).  ``None`` when
        nothing is pending.
        """
        with self._lock:
            self._expire_locked()
            index = self._next_pending_locked()
            if index is None:
                return None
            lease = _Lease(
                lease_id=next(self._next_lease),
                index=index,
                worker=worker,
                deadline=self._clock() + self.lease_timeout,
            )
            self._state[index] = "leased"
            self._leases[lease.lease_id] = lease
            return lease.lease_id, index, self._payloads[index]

    def heartbeat(self, lease_id: int) -> bool:
        """Extend a live lease's deadline; ``False`` if it already expired."""
        with self._lock:
            self._expire_locked()
            lease = self._leases.get(lease_id)
            if lease is None:
                return False
            lease.deadline = self._clock() + self.lease_timeout
            return True

    def complete(self, lease_id: int, result) -> bool:
        """Fold one result; ``False`` (result discarded) for a stale lease.

        Exactly-once: the first valid completion moves the chunk to ``done``
        and retires the lease, so a second completion — same worker retrying,
        or the original worker of an expired-and-requeued chunk racing the
        replacement — finds no live lease and is rejected.
        """
        with self._lock:
            self._expire_locked()
            lease = self._leases.pop(lease_id, None)
            if lease is None:
                return False
            self._state[lease.index] = "done"
            self._done += 1
            self._completed.append((lease.index, result))
            self._results_ready.notify_all()
            return True

    def fail(self, lease_id: int) -> bool:
        """Requeue a leased chunk whose execution attempt went wrong (e.g. a
        corrupt result upload); ``False`` for a stale lease."""
        with self._lock:
            self._expire_locked()
            lease = self._leases.pop(lease_id, None)
            if lease is None:
                return False
            self._requeue_locked(lease.index)
            return True

    def retire(self, indexes) -> None:
        """Take chunks out of circulation at the end of their run.

        Pending ones are delisted, live leases on them are revoked (a later
        completion is then rejected like any stale lease), and payloads are
        released so a long-lived coordinator serving run after run does not
        accumulate every chunk it ever queued.  Retired chunks count as
        ``done``, preserving the pending/leased/done partition.  Without
        this, an aborted run's unfinished chunks would sit at the front of
        the queue and the *next* run's workers would execute them only to
        have the results dropped as stragglers.
        """
        wanted = set(indexes)
        with self._lock:
            for lane, pending in self._lanes.items():
                self._lanes[lane] = deque(
                    i for i in pending if i not in wanted
                )
            for lease_id, lease in list(self._leases.items()):
                if lease.index in wanted:
                    del self._leases[lease_id]
            # Drop the retired chunks' folded-but-unread results too, or an
            # aborted run's completions would sit in the stream forever.
            self._completed = deque(
                item for item in self._completed if item[0] not in wanted
            )
            for index in wanted:
                if self._state[index] != "done":
                    self._state[index] = "done"
                    self._done += 1
                self._payloads[index] = b""

    def expire(self) -> int:
        """Requeue every chunk whose lease deadline has passed."""
        with self._lock:
            return self._expire_locked()

    def next_result(
        self, timeout: float | None = None, within=None
    ) -> tuple[int, object] | None:
        """Pop one completed ``(index, result)``; ``None`` on timeout.

        ``within`` restricts the pop to a set of chunk indexes, so
        concurrent folding loops (two tenants' ``run_chunks`` calls sharing
        one coordinator) each consume exactly their own completions instead
        of stealing from one shared stream.  ``None`` pops the leftmost
        completion regardless — the single-run behavior.
        """
        with self._results_ready:
            item = self._pop_completed_locked(within)
            if item is None:
                self._results_ready.wait(timeout)
                item = self._pop_completed_locked(within)
            return item

    def _pop_completed_locked(self, within) -> tuple[int, object] | None:
        if within is None:
            return self._completed.popleft() if self._completed else None
        for position, item in enumerate(self._completed):
            if item[0] in within:
                del self._completed[position]
                return item
        return None

    # -- liveness signals ------------------------------------------------------------

    def note_remote_activity(self, worker: str = "") -> None:
        """Record that a remote worker spoke (any ``/work`` request)."""
        with self._lock:
            if worker:
                self.workers_seen.add(worker)
            self._remote_activity = self._clock()

    def seconds_since_remote_activity(self) -> float | None:
        """Age of the last remote-worker request; ``None`` if there was none."""
        with self._lock:
            if self._remote_activity is None:
                return None
            return self._clock() - self._remote_activity

    # -- introspection ---------------------------------------------------------------

    @property
    def total(self) -> int:
        with self._lock:
            return len(self._payloads)

    @property
    def done(self) -> int:
        with self._lock:
            return self._done

    def status(self) -> dict:
        with self._lock:
            return {
                "total": len(self._payloads),
                "pending": sum(len(q) for q in self._lanes.values()),
                "leased": len(self._leases),
                "done": self._done,
                "requeues": sum(self.requeues.values()),
                "workers": len(self.workers_seen),
                "lanes": {
                    lane: len(q) for lane, q in self._lanes.items()
                },
            }

    # -- internals -------------------------------------------------------------------

    def _lane_locked(self, lane: str) -> deque[int]:
        pending = self._lanes.get(lane)
        if pending is None:
            pending = self._lanes[lane] = deque()
            self._lane_order.append(lane)
            self._lane_credit.setdefault(lane, 0)
        return pending

    def _next_pending_locked(self) -> int | None:
        """Weighted round-robin across lanes: the front lane serves up to
        its priority weight per turn (and yields early when it empties),
        then rotates to the back."""
        order = self._lane_order
        for _ in range(len(order)):
            lane = order[0]
            pending = self._lanes[lane]
            if not pending:
                self._lane_credit[lane] = 0
                order.rotate(-1)
                continue
            index = pending.popleft()
            self._lane_credit[lane] += 1
            if (
                self._lane_credit[lane]
                >= self._lane_priority.get(lane, 1)
                or not pending
            ):
                self._lane_credit[lane] = 0
                order.rotate(-1)
            return index
        return None

    def _requeue_locked(self, index: int) -> None:
        self._state[index] = "pending"
        self._lane_locked(self._chunk_lane[index]).append(index)
        self.requeues[index] = self.requeues.get(index, 0) + 1

    def _expire_locked(self) -> int:
        now = self._clock()
        expired = [
            lease_id
            for lease_id, lease in self._leases.items()
            if lease.deadline <= now
        ]
        for lease_id in expired:
            lease = self._leases.pop(lease_id)
            self._requeue_locked(lease.index)
        return len(expired)

    def __repr__(self) -> str:
        status = self.status()
        body = ", ".join(f"{k}={v}" for k, v in status.items())
        return f"WorkQueue({body})"


# -- HTTP layer ----------------------------------------------------------------------

_WORK_ROUTES = ("/work/lease", "/work/heartbeat", "/work/complete")


def _loopback(host: str) -> bool:
    # "" is NOT loopback: an empty host makes ThreadingHTTPServer bind
    # INADDR_ANY, the very exposure this predicate exists to refuse.
    return host in ("127.0.0.1", "localhost", "::1")


class _DispatchRequestHandler(_CacheRequestHandler):
    """Cache routes plus the ``/work`` dispatch verbs, one auth gate."""

    queue: WorkQueue  # set by the per-server subclass

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        if self.path == "/work/status":
            if not self._authorized():
                return
            self._send_json(200, self.queue.status())
            return
        super().do_GET()

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        if not self._authorized():
            return
        if self.path not in _WORK_ROUTES:
            self._send_json(404, {"error": "unknown path"})
            return
        document = self._read_json_body()
        if document is None:
            return
        try:
            if self.path == "/work/lease":
                self._handle_lease(document)
            elif self.path == "/work/heartbeat":
                self._handle_heartbeat(document)
            else:
                self._handle_complete(document)
        except (KeyError, TypeError, ValueError):
            self._send_json(400, {"error": "malformed request"})

    def _handle_lease(self, document: dict) -> None:
        worker = str(document.get("worker", ""))
        self.queue.note_remote_activity(worker)
        tenant = self.tenant
        if tenant is not None:
            # Reserve against the simulation (chunk) quota *before* leasing
            # so two racing leases cannot both slip under the limit; an
            # empty queue refunds the reservation below.
            if not self.tenants.try_charge_chunk(tenant):
                self._send_json(429, {"error": "chunk quota exhausted"})
                return
        leased = self.queue.lease(worker)
        if leased is None:
            if tenant is not None:
                self.tenants.refund_chunk(tenant)
            self._send_json(200, {"empty": True})
            return
        lease_id, index, payload = leased
        self._send_json(
            200,
            {
                "lease": lease_id,
                "chunk": index,
                "payload": base64.b64encode(payload).decode("ascii"),
                "timeout": self.queue.lease_timeout,
            },
        )

    def _handle_heartbeat(self, document: dict) -> None:
        self.queue.note_remote_activity(str(document.get("worker", "")))
        self._send_json(
            200, {"ok": self.queue.heartbeat(int(document["lease"]))}
        )

    def _handle_complete(self, document: dict) -> None:
        self.queue.note_remote_activity(str(document.get("worker", "")))
        lease_id = int(document["lease"])
        try:
            blob = base64.b64decode(document["result"], validate=True)
            outcome = pickle.loads(blob)
            if not _valid_outcome(outcome):
                raise ValueError("not an outcome tuple")
        except Exception:  # noqa: BLE001 - any corruption requeues the chunk
            # A corrupt result must not poison the fold: requeue the chunk
            # (exactly once — `fail` is a no-op for a stale lease) and tell
            # the worker its upload was rejected.
            requeued = self.queue.fail(lease_id)
            self._send_json(
                400, {"error": "corrupt result", "requeued": requeued}
            )
            return
        # The queue stores the decoded outcome, so the folding loop never
        # deserializes a completion twice.
        self._send_json(
            200, {"folded": self.queue.complete(lease_id, outcome)}
        )

    def _read_json_body(self) -> dict | None:
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            self._send_json(400, {"error": "bad content-length"})
            return None
        if not 0 < length <= MAX_ENTRY_BYTES:
            self._send_json(400, {"error": "body too large or empty"})
            return None
        body = self.rfile.read(length)
        try:
            document = json.loads(body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            self._send_json(400, {"error": "not json"})
            return None
        if not isinstance(document, dict):
            self._send_json(400, {"error": "not an object"})
            return None
        return document


class EvalCoordinator(CacheServer):
    """Cache server + work queue: the engine behind ``repro eval-server``.

    One port serves the fleet's warm result cache *and* leases episode chunks
    to ``repro eval-worker`` processes, both behind the same shared token.
    An ``evaluate(..., coordinator=...)`` call (or any ``evaluate`` inside
    ``with distributed(coordinator):``) feeds :meth:`run_chunks`; when no
    remote worker speaks within ``fallback_grace`` seconds, local fallback
    threads drain the queue through the host's process pool instead — same
    chunks, same lease invariants, bit-identical results — so a coordinator
    with no fleet behaves exactly like the single-host engine.

    ``fallback_workers=0`` disables local fallback (the fault-injection tests
    use this to guarantee chunks are executed remotely); ``None`` resolves
    like the eval engine's worker count (``REPRO_EVAL_WORKERS`` or 1); a
    negative count raises ``ValueError``.

    Serving-tier extensions (PR 10): a
    :class:`~repro.quantum.execution.tenants.TenantRegistry` turns on
    per-tenant API keys, rate limits, quotas, and fair-share lanes (lane
    weights follow tenant priorities); a
    :class:`~repro.quantum.execution.jobstore.JobStore` (or a directory
    path for one) persists every queued chunk so a coordinator killed
    mid-run resumes bit-identically on restart — completed chunks re-fold
    from disk, unfinished ones re-execute.
    """

    handler_class = _DispatchRequestHandler

    def __init__(
        self,
        cache_dir,
        host: str = "127.0.0.1",
        port: int = 0,
        limits=None,
        quiet: bool = True,
        token: str | None = None,
        lease_timeout: float = DEFAULT_LEASE_TIMEOUT,
        fallback_workers: int | None = None,
        fallback_grace: float = DEFAULT_FALLBACK_GRACE,
        tenants=None,
        service=None,
        job_store=None,
        default_tenant: str = "",
    ) -> None:
        if fallback_workers is not None and fallback_workers < 0:
            raise ValueError(
                f"fallback_workers must be >= 0, got {fallback_workers}"
            )
        if not token and tenants is None and not _loopback(host):
            # Completing a chunk is executing code; the documented trust
            # boundary is "fleets that share a credential" (the admin token
            # or a tenant API key).  Enforce it: an open work queue may only
            # ever face this machine.
            raise BackendError(
                f"refusing to serve the work queue on non-loopback "
                f"{host!r} without a shared token (pass token=... / "
                f"--token, or set REPRO_CACHE_TOKEN): leased chunks "
                f"execute as code on every machine that folds results"
            )
        self.queue = WorkQueue(lease_timeout=lease_timeout)
        self.fallback_workers = fallback_workers
        self.fallback_grace = fallback_grace
        self.default_tenant = default_tenant
        if job_store is not None and not hasattr(job_store, "restore"):
            from repro.quantum.execution.jobstore import JobStore

            job_store = JobStore(job_store)
        self.job_store = job_store
        if tenants is not None:
            for name, priority in tenants.priorities().items():
                self.queue.set_lane_priority(name, priority)
        super().__init__(
            cache_dir, host=host, port=port, limits=limits, quiet=quiet,
            token=token, tenants=tenants, service=service,
        )

    def _handler_attrs(self) -> dict:
        return {"queue": self.queue, "job_store": self.job_store}

    def run_chunks(
        self, payloads: list[bytes], on_result=None, tenant: str = ""
    ) -> list:
        """Queue encoded chunks; return their decoded results in input order.

        Blocks until every chunk folds.  ``on_result(completed_count,
        result)`` fires in completion order, mirroring
        :func:`repro.utils.parallel.parallel_map`.  Results arriving for a
        requeued chunk's *stale* lease were already rejected by the queue, so
        each slot is written exactly once.  Concurrent calls are safe: each
        run's folding loop consumes only its own chunks' completions
        (``next_result(within=...)``), so two tenants' runs share the
        scheduler without stealing each other's results.

        ``tenant`` names the fair-share lane the chunks queue into
        (default: the coordinator's ``default_tenant``).  With a job store
        attached, every chunk is persisted before it is queued and its
        outcome persisted before it is folded; chunks whose outcomes
        already sit in the store (a previous run died after executing
        them) are *restored* — re-folded from disk, never re-executed —
        which is what makes a killed-and-restarted coordinator
        bit-identical to an uninterrupted run.  Records are dropped only
        when the whole run returns.
        """
        lane = tenant or self.default_tenant
        store = self.job_store
        queue = self.queue
        results: list = [None] * len(payloads)
        digests: list[str | None] = [None] * len(payloads)
        restored: dict[int, tuple] = {}
        to_queue: list[int] = []
        if store is not None:
            for local, payload in enumerate(payloads):
                digests[local] = store.digest_of(payload)
                outcome = store.restore(digests[local])
                if outcome is not None:
                    restored[local] = outcome
                else:
                    store.record(digests[local], payload, lane)
                    to_queue.append(local)
        else:
            to_queue = list(range(len(payloads)))
        index_of = dict(
            zip(
                queue.add_chunks([payloads[i] for i in to_queue], lane=lane),
                to_queue,
            )
        )
        remaining = set(index_of)
        completed = 0
        fallback = _FallbackPool(self)
        try:
            for local in sorted(restored):
                results[local] = _fold_outcome(restored[local])
                completed += 1
                if on_result is not None:
                    on_result(completed, results[local])
            while remaining:
                item = queue.next_result(timeout=0.05, within=remaining)
                if item is not None:
                    qi, outcome = item
                    local = index_of[qi]
                    if store is not None:
                        # Persist before folding: _fold_outcome may raise
                        # (an "err" outcome), and even then a restart must
                        # re-serve this outcome, not re-execute the chunk.
                        store.complete(
                            digests[local],
                            pickle.dumps(
                                outcome, protocol=pickle.HIGHEST_PROTOCOL
                            ),
                            lane,
                        )
                    results[local] = _fold_outcome(outcome)
                    remaining.discard(qi)
                    completed += 1
                    if on_result is not None:
                        on_result(completed, results[local])
                    continue
                queue.expire()
                fallback.start_if_due()
        finally:
            fallback.stop()
            # Whether this run finished or aborted mid-fold, nothing of it
            # may linger: unfinished chunks would otherwise be leased (and
            # uselessly executed) by the next run's workers, and retained
            # payloads would grow the queue for the coordinator's lifetime.
            queue.retire(index_of)
        if store is not None:
            # Reached only when every slot folded cleanly; an abort (or an
            # "err" outcome re-raised above) keeps the records for resume.
            store.forget(d for d in digests if d is not None)
        return results

    def _fallback_due(self, waited: float) -> bool:
        """Local execution is due after ``fallback_grace`` seconds of remote
        silence — measured from the last worker request, or from the start
        of the run when no worker has ever spoken (so a fleet gets the full
        grace window to attach before the coordinator starts competing)."""
        if self.fallback_workers == 0:
            return False
        since = self.queue.seconds_since_remote_activity()
        if since is None:
            since = waited
        return since >= self.fallback_grace


class _FallbackPool:
    """The coordinator's local consumers: threads that lease from the same
    queue and execute on the host's process pool (inline on the leasing
    thread when the platform cannot build one)."""

    def __init__(self, coordinator: EvalCoordinator) -> None:
        self._coordinator = coordinator
        self._stop = threading.Event()
        self._threads: list[threading.Thread] = []
        self._pool = None
        self._started_waiting = time.monotonic()

    def start_if_due(self) -> None:
        if self._threads or not self._coordinator._fallback_due(
            time.monotonic() - self._started_waiting
        ):
            return
        workers = resolve_workers(self._coordinator.fallback_workers)
        self._pool = process_pool(workers)
        self._threads = [
            threading.Thread(
                target=self._drain,
                args=(f"coordinator-local-{i}",),
                name=f"repro-dispatch-fallback-{i}",
                daemon=True,
            )
            for i in range(workers)
        ]
        for thread in self._threads:
            thread.start()

    def _drain(self, worker_id: str) -> None:
        queue = self._coordinator.queue
        while not self._stop.is_set():
            leased = queue.lease(worker_id)
            if leased is None:
                if self._stop.wait(0.05):
                    return
                continue
            lease_id, _index, payload = leased
            # Keep the lease alive while the chunk runs — a local chunk that
            # outlives lease_timeout must not be requeued mid-execution, or
            # the queue would re-lease it forever (the remote worker loop
            # heartbeats for exactly the same reason).
            hb_stop = threading.Event()
            hb = threading.Thread(
                target=self._keepalive, args=(lease_id, hb_stop), daemon=True
            )
            hb.start()
            try:
                blob = _run_payload_on(self._pool, payload)
            finally:
                hb_stop.set()
                hb.join(timeout=5)
            queue.complete(lease_id, pickle.loads(blob))

    def _keepalive(self, lease_id: int, stop: threading.Event) -> None:
        queue = self._coordinator.queue
        while not stop.wait(queue.lease_timeout / 4):
            if not queue.heartbeat(lease_id):
                return

    def stop(self) -> None:
        self._stop.set()
        for thread in self._threads:
            thread.join(timeout=5)
        self._threads = []
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None


# -- the worker side -----------------------------------------------------------------


class DispatchClient:
    """``urllib`` client for a coordinator's ``/work`` endpoints.

    Transient transport errors return ``None``/``False`` so the worker loop
    retries; a 401/403 raises :class:`~repro.errors.BackendError` immediately
    — a worker with the wrong token must crash loudly, not poll forever.
    A 429 is neither: the coordinator is healthy but this tenant is over
    its limit, so the client records a bounded pause (``pause_hint``)
    honoring ``Retry-After`` and does **not** count an error.
    ``token`` falls back to ``REPRO_CACHE_TOKEN``.
    """

    def __init__(
        self,
        base_url: str,
        token: str | None = None,
        timeout: float = DEFAULT_DISPATCH_TIMEOUT,
    ) -> None:
        if not base_url.startswith(("http://", "https://")):
            raise ValueError(
                f"coordinator URL must be http(s)://, got {base_url!r}"
            )
        self.base_url = base_url.rstrip("/")
        self.token = resolve_token(token)
        self.timeout = timeout
        self.errors = 0
        self.throttles = 0
        self._pause_until = 0.0
        self._lock = threading.Lock()

    def pause_hint(self) -> float:
        """Seconds the worker loop should sit out after a 429 (0.0: none)."""
        with self._lock:
            return max(0.0, self._pause_until - time.monotonic())

    def lease(self, worker: str = "") -> dict | None:
        """One lease attempt: the response document, or ``None`` on a
        transport error.  An empty queue answers ``{"empty": true}``."""
        return self._post("/work/lease", {"worker": worker})

    def heartbeat(self, lease_id: int, worker: str = "") -> bool | None:
        """``True``: lease extended; ``False``: the coordinator explicitly
        said the lease is gone; ``None``: transport error (unknown — retry).
        The three-way answer matters: a heartbeat loop that treated one
        dropped request as "lease lost" would stop beating and *cause* the
        expiry it feared."""
        document = self._post(
            "/work/heartbeat", {"lease": lease_id, "worker": worker}
        )
        if document is None:
            return None
        return bool(document.get("ok"))

    def complete(
        self, lease_id: int, result: bytes, worker: str = ""
    ) -> bool:
        """Upload one outcome; ``True`` iff the coordinator folded it."""
        document = self._post(
            "/work/complete",
            {
                "lease": lease_id,
                "worker": worker,
                "result": base64.b64encode(result).decode("ascii"),
            },
        )
        return bool(document and document.get("folded"))

    def status(self) -> dict | None:
        return self._request(
            urllib.request.Request(
                f"{self.base_url}/work/status", headers=self._headers()
            )
        )

    def _post(self, path: str, payload: dict) -> dict | None:
        body = json.dumps(payload).encode("utf-8")
        return self._request(
            urllib.request.Request(
                f"{self.base_url}{path}",
                data=body,
                method="POST",
                headers=self._headers(**{"Content-Type": "application/json"}),
            )
        )

    def _request(self, request: urllib.request.Request) -> dict | None:
        try:
            with urllib.request.urlopen(
                request, timeout=self.timeout
            ) as response:
                return json.loads(response.read().decode("utf-8"))
        except urllib.error.HTTPError as exc:
            code, retry_after = exc.code, parse_retry_after(exc.headers)
            exc.close()
            if code in (401, 403):
                raise_auth_error("coordinator", self.base_url, code)
            if code == 429:
                self._record_throttle(retry_after)
                return None
            self.errors += 1
            return None
        except (urllib.error.URLError, OSError, TimeoutError, ValueError):
            self.errors += 1
            return None

    def _record_throttle(self, retry_after: float | None) -> None:
        delay = (
            DEFAULT_THROTTLE_BACKOFF if retry_after is None else retry_after
        )
        delay = min(delay, MAX_THROTTLE_BACKOFF)
        with self._lock:
            self.throttles += 1
            self._pause_until = max(
                self._pause_until, time.monotonic() + delay
            )

    def _headers(self, **extra: str) -> dict[str, str]:
        return bearer_headers(self.token, **extra)

    def __repr__(self) -> str:
        return (
            f"DispatchClient(url='{self.base_url}', errors={self.errors}, "
            f"throttles={self.throttles})"
        )


def run_worker(
    url: str,
    token: str | None = None,
    workers: int = 1,
    poll_interval: float = DEFAULT_POLL_INTERVAL,
    heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL,
    max_idle: float | None = None,
    stop: threading.Event | None = None,
    worker_id: str | None = None,
) -> int:
    """Serve a coordinator until stopped; returns chunks completed.

    ``workers`` threads each loop lease → execute → complete; the chunk
    itself executes on a shared process pool (episode work holds the GIL, so
    thread-only execution would serialize — this mirrors the local engine),
    or inline on platforms that cannot build one.  While a chunk runs, its
    lease is heartbeated at the lesser of ``heartbeat_interval`` and a third
    of the coordinator's advertised lease timeout, so a *live* slow worker
    never loses its lease (only a crashed or vanished one does).  The loop
    exits when ``stop`` is set or the queue has been empty for ``max_idle``
    seconds (``None``: poll forever — the CLI's Ctrl-C mode).
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    client = DispatchClient(url, token=token)
    stop = stop or threading.Event()
    name = worker_id or f"worker-{os.getpid()}"
    completed = 0
    completed_lock = threading.Lock()
    auth_failure: list[BaseException] = []
    pool = process_pool(workers)

    def serve(slot: int) -> None:
        nonlocal completed
        me = f"{name}/{slot}"
        idle_since: float | None = None
        while not stop.is_set():
            try:
                document = client.lease(me)
            except BackendError as exc:
                auth_failure.append(exc)
                stop.set()
                return
            if document is None or document.get("empty"):
                now = time.monotonic()
                idle_since = idle_since if idle_since is not None else now
                if max_idle is not None and now - idle_since >= max_idle:
                    return
                # A throttled tenant sits out the server's advertised
                # Retry-After window instead of hammering the poll loop.
                stop.wait(max(poll_interval, client.pause_hint()))
                continue
            idle_since = None
            lease_id = int(document["lease"])
            payload = base64.b64decode(document["payload"])
            interval = heartbeat_interval
            lease_timeout = float(document.get("timeout") or 0)
            if lease_timeout > 0:
                # Never let the configured interval outpace the lease: three
                # beats fit in one timeout even if two are lost.
                interval = min(interval, lease_timeout / 3.0)
            hb_stop = threading.Event()
            hb = threading.Thread(
                target=_heartbeat_loop,
                args=(client, lease_id, me, interval, hb_stop),
                daemon=True,
            )
            hb.start()
            try:
                outcome = _run_payload_on(pool, payload)
            finally:
                hb_stop.set()
                hb.join(timeout=5)
            try:
                folded = client.complete(lease_id, outcome, me)
            except BackendError as exc:
                # Same contract as the lease path: credentials revoked
                # mid-run must crash the worker loudly, not silently kill
                # one thread while the rest keep polling.
                auth_failure.append(exc)
                stop.set()
                return
            if folded:
                with completed_lock:
                    completed += 1

    threads = [
        threading.Thread(
            target=serve, args=(slot,), name=f"repro-eval-worker-{slot}",
            daemon=True,
        )
        for slot in range(workers)
    ]
    for thread in threads:
        thread.start()
    try:
        for thread in threads:
            thread.join()
    finally:
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)
    if auth_failure:
        raise auth_failure[0]
    return completed


def _heartbeat_loop(
    client: DispatchClient,
    lease_id: int,
    worker: str,
    interval: float,
    stop: threading.Event,
) -> None:
    while not stop.wait(interval):
        try:
            if client.heartbeat(lease_id, worker) is False:
                return  # lease lost for sure; the completion will be
                # rejected anyway.  A transport error (None) keeps beating:
                # giving up on one dropped request would *cause* the expiry.
        except BackendError:
            return
