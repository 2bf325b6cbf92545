"""The ExecutionService: batched, cached, thread-pooled circuit execution.

This is the single funnel through which the repo runs circuits.  Every layer
above (agents, evalsuite, experiments, CLI, and the ``Backend.run``
compatibility shim) submits work here, which buys:

* **batching** — ``service.submit([qc1, qc2, ...], backend="fake_brisbane",
  shots=1024, seed=7)`` fans the circuits out across a worker pool and
  returns one :class:`~repro.quantum.execution.jobs.ExecutionJob` whose
  ``result()`` preserves submission order;
* **vectorised simulation** — cache misses are always planned by
  :mod:`repro.quantum.batchsim`: misses sharing one compacted gate structure
  evolve together on a batch axis, and the shots of every trajectory circuit
  with a state-independent noise-draw schedule evolve together, feed-forward
  (``c_if``) circuits included.  Everything else takes the SERIAL route one
  circuit at a time: circuits with a conditional that draws (a conditional
  measure or reset, or a conditional gate with a noise channel), whose draws
  depend on measured bits; over-wide or defective circuits, so the serial
  engine raises its canonical error; and backends that override
  ``execute_circuit``.  Results are bit-identical to the serial engine per
  ``(seed, circuit)``, and the ``simulations_batched`` / ``batch_groups``
  counters report how much work took the vectorised path;
* **an async job lifecycle** — ``QUEUED -> RUNNING -> DONE/ERROR``, with
  ``job.result(timeout=...)`` and best-effort ``job.cancel()``;
* **content-addressed caching** — deterministic executions (``seed`` given)
  are keyed by circuit/backend/shots/seed/noise fingerprints, so repeated
  grading passes and re-run experiment arms skip re-simulation entirely; the
  hit/miss counters are surfaced via :meth:`ExecutionService.stats`;
* **a persistent cache tier** — ``ExecutionService(cache_dir=...)`` (or the
  ``REPRO_CACHE_DIR`` environment variable for the default service) layers a
  :class:`~repro.quantum.execution.disk_cache.DiskResultCache` behind the
  in-memory LRU, so a second process repeating the same deterministic work
  performs zero simulations; ``cache_limits=CacheLimits(max_bytes=...,
  max_entries=..., max_age_seconds=...)`` (or ``REPRO_CACHE_MAX_BYTES`` /
  ``REPRO_CACHE_MAX_ENTRIES`` / ``REPRO_CACHE_MAX_AGE``) bounds that store
  with LRU eviction enforced on every write;
* **a shared remote tier** — ``ExecutionService(remote_url="http://...")``
  (or ``REPRO_CACHE_URL``) layers a
  :class:`~repro.quantum.execution.remote_cache.RemoteResultCache` behind
  memory and disk, so a *fleet* of workers on different machines shares one
  warm store served by ``repro cache-server``; a dead server degrades to
  cache misses, never errors;
* **single-flight simulation** — concurrent misses on an identical cache key
  elect one leader to simulate while the rest wait for its cache fill
  (``simulations_deduped`` in :meth:`ExecutionService.stats`), so a batch of
  duplicate circuits never multiplies work;
* **attributable counters** — ``with service.stats_scope() as scope:``
  captures exactly the simulations/cache traffic caused by the work initiated
  under it (asynchronous submissions credit the scopes that were active at
  ``submit()`` time), so concurrent callers — e.g. two evaluation arms
  sharing the service — get exact, non-overlapping stats instead of the racy
  before/after diff of the global :meth:`ExecutionService.stats`.

Seed semantics: circuit *i* of a batch executes with ``seed`` itself for
``i == 0`` and ``derive_seed(seed, "batch", i)`` afterwards.  Index 0 matches
the pre-service behaviour of ``Backend.run`` (a fresh generator per call), so
single-circuit executions — the overwhelming majority — produce bit-identical
counts to the legacy path while every circuit stays independently cacheable.

Synchronous callers use :meth:`ExecutionService.run` or the module-level
:func:`execute` convenience on the shared :func:`default_service`.  ``run``
and ``submit`` share one flow: probe the cache for every circuit, plan the
misses, run each planned group, fill the result slots.  ``run`` runs the
groups inline on the calling thread, in plan order; ``submit`` gives each
batchable group, and each SERIAL unit, its own pool task.
"""

from __future__ import annotations

import os
import threading
import warnings
import weakref
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

from repro.errors import BackendError, TranspilerError, ValidationError
from repro.quantum import batchsim
from repro.quantum.analysis import (
    Diagnostic,
    analyze_circuit,
    unbound_parameter_errors,
)
from repro.quantum.backend import Backend, Result
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.execution.cache import (
    CacheKey,
    ResultCache,
    circuit_fingerprint,
    noise_fingerprint,
)
from repro.quantum.execution.disk_cache import CacheLimits, DiskResultCache
from repro.quantum.execution.jobs import ExecutionJob
from repro.quantum.execution.registry import resolve_backend
from repro.quantum.execution.remote_cache import RemoteResultCache
from repro.quantum.execution.scopes import (
    StatsScope,
    active_scopes,
    cache_hit_rate,
    credit,
    stats_scope,
)
from repro.utils.rng import derive_seed

#: Environment variable that gives the *default* service a persistent cache.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"
#: Environment variable that points the default service at a cache server.
CACHE_URL_ENV = "REPRO_CACHE_URL"
#: Environment variable that picks the default service's pre-flight mode.
VALIDATE_ENV = "REPRO_VALIDATE"

#: Pre-flight validation modes: ``off`` skips the analyzer entirely,
#: ``warn`` surfaces diagnostics as warnings but still executes, ``strict``
#: raises :class:`~repro.errors.ValidationError` on any ``QA1xx`` error
#: before the submission reaches the cache, the pool, or a simulator.
VALIDATE_MODES = ("off", "warn", "strict")

#: Upper bound on worker threads; dense statevector math releases little of
#: the GIL, so a small pool captures most of the available overlap.
DEFAULT_MAX_WORKERS = 4

_ambient = threading.local()


@contextmanager
def ambient_seed(seed: int | None):
    """Give unseeded executions on this thread a deterministic default.

    Used by the sandbox to make generated programs (which call
    ``backend.run(qc, shots=...)`` without a seed) reproducible — and
    therefore cacheable: a repeated eval arm re-executes nothing.  Explicit
    seeds always win; ``None`` restores true entropy.

    Successive unseeded submissions inside one scope receive *distinct*
    seeds (the first gets ``seed`` itself, the n-th a derivation of it), so
    a program that runs the same circuit twice to average over shot noise
    still sees independent samples — the sequence is merely replayable.
    """
    previous = getattr(_ambient, "state", None)
    _ambient.state = None if seed is None else [seed, 0]
    try:
        yield
    finally:
        _ambient.state = previous


def _ambient_seed() -> int | None:
    state = getattr(_ambient, "state", None)
    if state is None:
        return None
    base, index = state
    state[1] += 1
    return base if index == 0 else derive_seed(base, "ambient", index)


class _Batch:
    """Book-keeping for one submission's outstanding circuits."""

    def __init__(
        self,
        job: ExecutionJob,
        size: int,
        backend: Backend,
        shots: int,
        seed: int | None,
        memory: bool,
        scopes: tuple[StatsScope, ...],
    ) -> None:
        self.job = job
        self.backend = backend
        self.shots = shots
        self.seed = seed
        self.memory = memory
        #: Stats scopes active on the *submitting* thread: pool workers credit
        #: these, so async work stays attributed to whoever submitted it.
        self.scopes = scopes
        self.slots: list[tuple[dict[str, int], list[str] | None] | None] = (
            [None] * size
        )
        self.pending = size
        self.lock = threading.Lock()


class ExecutionService:
    """Pooled execution engine with a shared (optionally persistent) cache."""

    def __init__(
        self,
        max_workers: int = DEFAULT_MAX_WORKERS,
        cache: ResultCache | None = None,
        use_cache: bool = True,
        cache_dir: str | os.PathLike | None = None,
        cache_limits: CacheLimits | None = None,
        remote_url: str | None = None,
        validate: str = "off",
    ) -> None:
        if max_workers <= 0:
            raise BackendError(f"max_workers must be positive, got {max_workers}")
        if validate not in VALIDATE_MODES:
            raise BackendError(
                f"validate must be one of {VALIDATE_MODES}, got {validate!r}"
            )
        if cache is not None and (
            cache_dir is not None
            or cache_limits is not None
            or remote_url is not None
        ):
            raise BackendError(
                "pass either a prebuilt cache or cache_dir/cache_limits/"
                "remote_url, not both; attach the extra tiers via "
                "ResultCache(disk=..., remote=...)"
            )
        if cache_limits is not None and cache_dir is None:
            raise BackendError(
                "cache_limits bounds the persistent tier; pass cache_dir too"
            )
        if (cache_dir is not None or remote_url is not None) and not use_cache:
            raise BackendError(
                "cache_dir/remote_url require caching; drop use_cache=False "
                "to enable the persistent tiers"
            )
        self.max_workers = max_workers
        self.validate = validate
        self.cache_dir = os.fspath(cache_dir) if cache_dir is not None else None
        self.remote_url = remote_url
        if cache is None and use_cache:
            disk = (
                DiskResultCache(cache_dir, limits=cache_limits)
                if cache_dir is not None
                else None
            )
            remote = (
                RemoteResultCache(remote_url) if remote_url is not None else None
            )
            cache = ResultCache(disk=disk, remote=remote)
        self.cache = cache
        self._pool: ThreadPoolExecutor | None = None
        self._lock = threading.Lock()
        self._inflight: dict[CacheKey, threading.Event] = {}
        #: The service's own ledger: every counter in ``COUNTERS`` is stored
        #: here (and in the caller's scopes), nowhere else.
        self._totals = StatsScope("service")
        self._jobs_submitted = 0
        self._circuits_executed = 0
        #: Template keys whose symbolic transpilation raised (e.g. ZYZ needs
        #: concrete angles); sweeps over these fall back to transpiling each
        #: bound point without retrying the template every time.
        self._untranspilable_templates: set[CacheKey] = set()
        _live_services.add(self)

    # -- public API --------------------------------------------------------------

    def submit(
        self,
        circuits: QuantumCircuit | Sequence[QuantumCircuit],
        backend: Backend | str | None = None,
        shots: int = 1024,
        seed: int | None = None,
        memory: bool = False,
    ) -> ExecutionJob:
        """Asynchronously execute circuits; returns a live :class:`ExecutionJob`.

        Validation (circuit/backend compatibility, shot limits) happens
        eagerly so malformed submissions raise :class:`BackendError` here, not
        inside a worker.  Fully-cached submissions complete without touching
        the pool.  Each batchable group, and each SERIAL unit, is one pool
        task.
        """
        batch, groups = self._probe_and_plan(
            circuits, backend, shots, seed, memory
        )
        if not groups:
            self._finalize(batch)
            return batch.job
        pool = self._ensure_pool()
        for group in groups:
            if group.kind == batchsim.SERIAL:
                for unit in group.units:
                    pool.submit(
                        self._group_task, batch,
                        batchsim.PlannedGroup(batchsim.SERIAL, [unit]),
                    )
            else:
                pool.submit(self._group_task, batch, group)
        return batch.job

    def run(
        self,
        circuits: QuantumCircuit | Sequence[QuantumCircuit],
        backend: Backend | str | None = None,
        shots: int = 1024,
        seed: int | None = None,
        memory: bool = False,
    ) -> ExecutionJob:
        """Synchronous path: same validation, cache, seed and planning as
        :meth:`submit`, with the groups run inline in plan order; returns a
        finished job."""
        batch, groups = self._probe_and_plan(
            circuits, backend, shots, seed, memory
        )
        for group in groups:
            self._fill(batch, self._run_group(batch, group))
        self._finalize(batch)
        return batch.job

    def transpile(
        self,
        circuit: QuantumCircuit,
        backend: Backend | str | None = None,
        coupling_map=None,
        basis_gates: Sequence[str] | None = None,
        initial_layout: Sequence[int] | None = None,
        optimization_level: int | None = None,
    ) -> QuantumCircuit:
        """Content-addressed transpilation through the service's cache tiers.

        The key is ``(logical circuit fingerprint, coupling fingerprint,
        basis fingerprint, initial layout, optimization level)``; see
        :mod:`repro.quantum.execution.transpile_cache`.  Hits — from the
        memory LRU, the disk store, or the shared cache server, with the
        usual tier promotion — skip the pass manager entirely and count as
        ``transpile_cache_hits``; misses run the pass stack once, count as
        ``transpiles``, and write through to every tier, so a fleet of
        workers transpiles each logical circuit once, ever.

        Lookups use :meth:`ResultCache.peek`, so the execution-result
        ``cache_hits``/``cache_misses`` counters are untouched — the
        dedicated transpile counters (surfaced by :meth:`stats`, stats
        scopes, ``--exec-stats`` and ``repro backends``) carry the
        attribution instead.
        """
        from repro.quantum.transpiler.pipeline import (
            resolve_lowering,
            resolve_optimization_level,
            transpile_core,
        )
        from repro.quantum.execution.transpile_cache import (
            decode_transpiled,
            encode_transpiled,
            transpile_cache_key,
        )

        if isinstance(backend, str):
            backend = resolve_backend(backend)
        coupling_map, basis = resolve_lowering(backend, coupling_map, basis_gates)
        level = resolve_optimization_level(optimization_level)
        scopes = self._scopes()
        provenance = getattr(circuit, "_bound_from", None)
        if provenance is not None and provenance.matches(circuit):
            # Bound-template fast path: transpile the *unbound* structure once
            # (cached under the template's key), then bind the lowered output
            # with this point's values — an N-point sweep costs 1 transpile.
            # Symbolic lowering can legitimately fail (ZYZ resynthesis needs
            # concrete angles); such templates are negatively cached and their
            # sweep points fall through to concrete per-point transpilation.
            template_key = transpile_cache_key(
                provenance.template, coupling_map, basis, initial_layout, level
            )
            with self._lock:
                known_failure = template_key in self._untranspilable_templates
            if not known_failure:
                try:
                    lowered = self.transpile(
                        provenance.template,
                        backend=backend,
                        coupling_map=coupling_map,
                        basis_gates=basis,
                        initial_layout=initial_layout,
                        optimization_level=level,
                    )
                except TranspilerError:
                    with self._lock:
                        self._untranspilable_templates.add(template_key)
                else:
                    return lowered.bind(provenance.mapping, allow_unused=True)
        key = None
        if self.cache is not None:
            key = transpile_cache_key(
                circuit, coupling_map, basis, initial_layout, level
            )
            entry = self.cache.peek(key)
            if entry is not None:
                restored = decode_transpiled(entry[0], entry[1], circuit)
                if restored is not None:
                    credit(scopes, "transpile_cache_hits")
                    return restored
        out = transpile_core(circuit, coupling_map, basis, initial_layout, level)
        credit(scopes, "transpiles")
        if key is not None:
            counts, payload = encode_transpiled(out)
            self.cache.put(key, counts, payload, scopes)
        return out

    def stats_scope(self, label: str | None = None):
        """Open an attributable counter scope on the current thread.

        Everything executed under the scope — synchronously, or submitted
        from this thread and run on pool workers — credits the yielded
        :class:`~repro.quantum.execution.scopes.StatsScope` exactly, even
        while other threads drive the same service.  This is the
        concurrency-safe replacement for diffing :meth:`stats` around a
        workload.  Scopes are ambient per thread, so the same scope also
        covers any other service the thread touches; see
        :func:`repro.quantum.execution.scopes.use_scope` for re-activating a
        scope on worker threads.
        """
        return stats_scope(label)

    def stats(self) -> dict[str, float | int | str]:
        """Service-level totals: every registered counter (read from the
        service's own scope, so all of them are always present), plus the
        hit rate, the cache settings and the job/circuit counts.

        These are process-global; to attribute activity to one caller under
        concurrency use :meth:`stats_scope`, not a before/after diff.
        """
        counts = self._totals.as_dict()
        with self._lock:
            out: dict[str, float | int | str] = {
                "jobs_submitted": self._jobs_submitted,
                "circuits_executed": self._circuits_executed,
            }
        out.update(
            counts,
            validate=self.validate,
            cache_hit_rate=cache_hit_rate(counts) or 0.0,
        )
        if self.cache is not None:
            out["cache_entries"] = len(self.cache)
            if self.cache.disk is not None:
                # No disk entry count here: that is O(entries) directory I/O
                # and stats() sits on hot paths (the CLI prints it per eval).
                # `repro cache` reports entry counts on demand.
                out["cache_dir"] = str(self.cache.disk.cache_dir)
            if self.cache.remote is not None:
                out.update(
                    cache_remote_errors=self.cache.remote.errors,
                    cache_url=self.cache.remote.base_url,
                )
        return out

    def shutdown(self, wait: bool = True) -> None:
        """Stop the worker pool (it restarts lazily on the next submit)."""
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=wait)

    # -- internals ------------------------------------------------------------------

    def _probe_and_plan(
        self,
        circuits: QuantumCircuit | Sequence[QuantumCircuit],
        backend: Backend | str | None,
        shots: int,
        seed: int | None,
        memory: bool,
    ) -> tuple[_Batch, list[batchsim.PlannedGroup]]:
        """The first steps of :meth:`run` and :meth:`submit`: validate, probe
        the cache for every circuit (filling the hit slots), and plan the
        misses."""
        target, batch_circuits = self._prepare(circuits, backend, shots)
        if seed is None:
            seed = _ambient_seed()
        job = ExecutionJob(
            num_circuits=len(batch_circuits), backend_name=target.name
        )
        batch = _Batch(
            job, len(batch_circuits), target, shots, seed, memory,
            self._scopes(),
        )
        noise_fp = noise_fingerprint(target.noise_model)
        misses: list[batchsim.PlannedUnit] = []
        for index, qc in enumerate(batch_circuits):
            eff_seed = self._effective_seed(seed, index)
            key = self._cache_key(qc, target, shots, eff_seed, noise_fp, memory)
            cached = self.cache.get(key, batch.scopes) if key is not None else None
            if cached is not None:
                batch.slots[index] = cached
                batch.pending -= 1
                job.cache_hits += 1
            else:
                misses.append(batchsim.make_unit(index, qc, key, eff_seed, shots))
        self._account(len(batch_circuits))
        return batch, batchsim.plan(target, misses)

    def _prepare(
        self,
        circuits: QuantumCircuit | Sequence[QuantumCircuit],
        backend: Backend | str | None,
        shots: int,
    ) -> tuple[Backend, list[QuantumCircuit]]:
        target = resolve_backend(backend)
        if isinstance(circuits, QuantumCircuit):
            circuits = [circuits]
        batch = list(circuits)
        target.validate_batch(batch, shots)
        self._preflight(batch, target)
        return target, batch

    def _preflight(self, batch: list[QuantumCircuit], target: Backend) -> None:
        """Static pre-flight over a submission (``validate="warn"|"strict"``).

        Runs the analyzer on every circuit before any cache, pool or
        simulator traffic.  ``strict`` raises
        :class:`~repro.errors.ValidationError` on ``QA1xx`` errors (crediting
        ``rejected_static`` per defective circuit); ``warn`` emits one warning
        per diagnosed circuit and proceeds.  Both modes credit
        ``programs_validated`` per circuit analyzed.

        The ``QA105`` unbound-parameter check runs first and in **every**
        mode, including ``"off"``: executing a symbol is meaningless in any
        mode, so templates are rejected (crediting ``rejected_unbound`` per
        offending circuit) before any cache or pool traffic.
        """
        scopes = self._scopes()
        unbound: list[Diagnostic] = []
        unbound_rejected = 0
        for qc in batch:
            diags = unbound_parameter_errors(qc)
            if diags:
                unbound_rejected += 1
                unbound.extend(diags)
        if unbound:
            credit(scopes, "rejected_unbound", unbound_rejected)
            rendered = "; ".join(d.render() for d in unbound)
            raise ValidationError(
                f"{unbound_rejected} of {len(batch)} circuit(s) carry unbound "
                f"symbolic parameters: {rendered}",
                diagnostics=unbound,
            )
        if self.validate == "off":
            return
        errors: list[Diagnostic] = []
        rejected = 0
        for position, qc in enumerate(batch):
            analysis = analyze_circuit(qc, max_qubits=target.max_active_qubits)
            if analysis.errors:
                rejected += 1
                errors.extend(analysis.errors)
            if self.validate == "warn" and not analysis.ok:
                rendered = "; ".join(d.render() for d in analysis.errors)
                warnings.warn(
                    f"circuit {position} ({qc.name or 'unnamed'}) failed "
                    f"static validation: {rendered}",
                    stacklevel=4,
                )
        credit(scopes, "programs_validated", len(batch))
        if self.validate == "strict" and errors:
            credit(scopes, "rejected_static", rejected)
            rendered = "; ".join(d.render() for d in errors)
            raise ValidationError(
                f"static analysis rejected {rejected} of {len(batch)} "
                f"circuit(s): {rendered}",
                diagnostics=errors,
            )

    @staticmethod
    def _effective_seed(seed: int | None, index: int) -> int | None:
        if seed is None or index == 0:
            return seed
        return derive_seed(seed, "batch", index)

    def _cache_key(
        self,
        circuit: QuantumCircuit,
        backend: Backend,
        shots: int,
        eff_seed: int | None,
        noise_fp: str,
        memory: bool,
    ) -> CacheKey | None:
        if self.cache is None or eff_seed is None:
            return None
        return CacheKey(
            circuit=circuit_fingerprint(circuit),
            backend=backend.name,
            shots=shots,
            seed=eff_seed,
            noise=noise_fp,
            memory=memory,
        )

    def _simulate(
        self,
        backend: Backend,
        circuit: QuantumCircuit,
        shots: int,
        eff_seed: int | None,
        memory: bool,
        scopes: tuple[StatsScope, ...],
    ) -> tuple[dict[str, int], list[str] | None]:
        credit(scopes, "simulations")
        return backend.execute_circuit(circuit, shots, eff_seed, memory)

    def _lookup_or_simulate(
        self,
        backend: Backend,
        circuit: QuantumCircuit,
        shots: int,
        eff_seed: int | None,
        memory: bool,
        key: CacheKey | None,
        scopes: tuple[StatsScope, ...],
    ) -> tuple[dict[str, int], list[str] | None, str]:
        """One already-probed miss, serially: ``(counts, memory, source)``.

        ``source`` is ``"sim"`` (actually simulated) or ``"dedup"`` (waited
        on — or arrived after — an identical in-flight execution and read its
        cache fill).  The caller has probed the cache already, so this never
        counts a lookup.  ``scopes`` receive every increment this circuit
        causes, no matter which thread runs it.
        """
        if key is None:
            counts, mem = self._simulate(
                backend, circuit, shots, eff_seed, memory, scopes
            )
            return counts, mem, "sim"
        # Single-flight: concurrent misses on one key elect a leader; the
        # rest block on its cache fill instead of duplicating the simulation.
        while True:
            with self._lock:
                event = self._inflight.get(key)
                if event is None:
                    self._inflight[key] = threading.Event()
                    break
            event.wait()
            filled = self.cache.peek(key)
            if filled is not None:
                return self._deduped(filled, scopes)
            # The leader failed without filling the cache; compete to retry.
        try:
            # Re-probe silently: the key may have been filled between the
            # probe-time miss and this thread winning leadership.
            filled = self.cache.peek(key)
            if filled is not None:
                return self._deduped(filled, scopes)
            counts, mem = self._simulate(
                backend, circuit, shots, eff_seed, memory, scopes
            )
            self.cache.put(key, counts, mem, scopes)
            return counts, mem, "sim"
        finally:
            with self._lock:
                event = self._inflight.pop(key)
            event.set()

    def _deduped(
        self,
        entry: tuple[dict[str, int], list[str] | None],
        scopes: tuple[StatsScope, ...],
    ) -> tuple[dict[str, int], list[str] | None, str]:
        credit(scopes, "simulations_deduped")
        return entry[0], entry[1], "dedup"

    def _scopes(self) -> tuple[StatsScope, ...]:
        """Where this thread's work is credited: the service's own ledger,
        then the scopes active on the calling thread."""
        return (self._totals, *active_scopes())

    def _account(self, num_circuits: int) -> None:
        with self._lock:
            self._jobs_submitted += 1
            self._circuits_executed += num_circuits

    def _run_group(
        self, batch: _Batch, group: batchsim.PlannedGroup
    ) -> dict[int, tuple[dict[str, int], list[str] | None, str]]:
        """One planned group: the SERIAL group one unit at a time, any other
        through the batch engine.  Returns ``{index: (counts, memory,
        source)}`` for every unit of the group."""
        if group.kind != batchsim.SERIAL:
            return self._execute_group(
                batch.backend, group, batch.memory, batch.scopes
            )
        return {
            unit.index: self._lookup_or_simulate(
                batch.backend, unit.circuit, unit.shots, unit.seed,
                batch.memory, unit.key, batch.scopes,
            )
            for unit in group.units
        }

    def _fill(
        self,
        batch: _Batch,
        resolved: dict[int, tuple[dict[str, int], list[str] | None, str]],
    ) -> bool:
        """Fill result slots; True when this filled the batch's last one."""
        with batch.lock:
            for index, (counts, mem, source) in resolved.items():
                if source == "dedup":
                    batch.job.deduped += 1
                batch.slots[index] = (counts, mem)
                batch.pending -= 1
            return batch.pending == 0

    def _group_task(self, batch: _Batch, group: batchsim.PlannedGroup) -> None:
        """Pool task of :meth:`submit`: run one group, relay any error."""
        job = batch.job
        if not job._mark_running():
            return  # cancelled (or already failed) before this group started
        try:
            resolved = self._run_group(batch, group)
        except BaseException as exc:  # noqa: BLE001 - relayed via job.result()
            job._mark_error(exc)
            return
        if self._fill(batch, resolved):
            self._finalize(batch)

    def _execute_group(
        self,
        backend: Backend,
        group: batchsim.PlannedGroup,
        memory: bool,
        scopes: tuple[StatsScope, ...],
    ) -> dict[int, tuple[dict[str, int], list[str] | None, str]]:
        """One batchable group through the cache and single-flight contracts.

        Leadership is acquired *non-blocking* per unit: contested units —
        some other thread is already simulating the identical key — are
        deferred to the normal single-flight wait until after the group has
        simulated and released every flight it leads, so this thread never
        blocks while holding a leadership (no deadlock between two groups
        contending for overlapping key sets).  Returns ``{submission index:
        (counts, memory, source)}`` covering every unit of the group.
        """
        results: dict[int, tuple[dict[str, int], list[str] | None, str]] = {}
        leaders: list[batchsim.PlannedUnit] = []
        deferred: list[batchsim.PlannedUnit] = []
        for unit in group.units:
            if unit.key is None:
                leaders.append(unit)  # uncacheable: nothing to coordinate
                continue
            if self._try_lead(unit.key):
                # Re-probe silently, as _lookup_or_simulate does: the key may
                # have been filled since the probe-time miss.
                filled = self.cache.peek(unit.key)
                if filled is not None:
                    self._release_flight(unit.key)
                    results[unit.index] = self._deduped(filled, scopes)
                else:
                    leaders.append(unit)
            else:
                deferred.append(unit)
        try:
            if leaders:
                credit(scopes, "simulations", len(leaders))
                credit(scopes, "simulations_batched", len(leaders))
                credit(scopes, "batch_groups")
                executed = batchsim.execute_group(
                    backend.noise_model,
                    batchsim.PlannedGroup(group.kind, leaders),
                    memory,
                )
                for unit, (counts, mem) in zip(leaders, executed):
                    if unit.key is not None:
                        self.cache.put(unit.key, counts, mem, scopes)
                    results[unit.index] = (counts, mem, "sim")
        finally:
            # On engine failure the flights release unfilled; waiters observe
            # a failed leader and compete to retry, exactly as serially.
            for unit in leaders:
                if unit.key is not None:
                    self._release_flight(unit.key)
        for unit in deferred:
            results[unit.index] = self._lookup_or_simulate(
                backend, unit.circuit, unit.shots, unit.seed, memory, unit.key,
                scopes,
            )
        return results

    def _try_lead(self, key: CacheKey) -> bool:
        """Claim single-flight leadership for ``key`` without blocking."""
        with self._lock:
            if key in self._inflight:
                return False
            self._inflight[key] = threading.Event()
            return True

    def _release_flight(self, key: CacheKey) -> None:
        with self._lock:
            event = self._inflight.pop(key, None)
        if event is not None:
            event.set()

    def _finalize(self, batch: _Batch) -> None:
        job = batch.job
        if not job._mark_running():
            return  # cancelled, or already failed by another group
        if batch.pending:  # pragma: no cover - invariant
            job._mark_error(BackendError("internal error: incomplete batch"))
            return
        job._mark_done(
            Result(
                [slot[0] for slot in batch.slots],
                [slot[1] for slot in batch.slots],
                batch.backend.name, batch.shots, batch.seed,
            )
        )

    def _reset_for_child(self) -> None:
        """Repair state after ``fork()``: worker threads do not survive into
        the child, so inherited pools would queue work forever, and a lock
        another parent thread held at fork time would deadlock.  Counters and
        the (warm) cache contents are kept — inheriting them is exactly why
        eval workers fork."""
        self._lock = threading.Lock()
        self._totals._reset_for_child()
        self._pool = None
        # Parent-side leaders will never set their events in this process.
        self._inflight = {}
        if self.cache is not None:
            self.cache._reset_for_child()

    def _ensure_pool(self) -> ThreadPoolExecutor:
        with self._lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.max_workers,
                    thread_name_prefix="repro-exec",
                )
            return self._pool


# -- fork safety --------------------------------------------------------------------

#: Every live service, so forked children can repair inherited state.
_live_services: "weakref.WeakSet[ExecutionService]" = weakref.WeakSet()


def _reset_services_after_fork() -> None:
    global _default_lock
    _default_lock = threading.Lock()
    for service in list(_live_services):
        service._reset_for_child()


if hasattr(os, "register_at_fork"):  # pragma: no branch - posix containers
    os.register_at_fork(after_in_child=_reset_services_after_fork)


# -- process-wide default service ---------------------------------------------------

_default: ExecutionService | None = None
_default_lock = threading.Lock()


def validate_from_env(default: str = "off") -> str:
    """The pre-flight mode named by ``REPRO_VALIDATE`` (or ``default``).

    Shared by every entry point that builds its *own* service, so one
    environment variable turns on static validation uniformly across a
    fleet; unknown values raise inside :class:`ExecutionService`.
    """
    return os.environ.get(VALIDATE_ENV, "").strip().lower() or default


def default_service() -> ExecutionService:
    """The shared process-wide :class:`ExecutionService` (lazily created).

    Honours ``REPRO_CACHE_DIR`` (persistent disk cache tier, bounded by
    ``REPRO_CACHE_MAX_BYTES`` / ``REPRO_CACHE_MAX_ENTRIES`` /
    ``REPRO_CACHE_MAX_AGE``), ``REPRO_CACHE_URL`` (shared remote tier) and
    ``REPRO_VALIDATE`` (pre-flight mode) so headless runs — CI, ``repro
    report``, repeated evalsuite arms, fleet workers — can be warm-started
    without touching call sites.  Explicitly constructed services ignore the
    environment.
    """
    global _default
    with _default_lock:
        if _default is None:
            cache_dir = os.environ.get(CACHE_DIR_ENV, "").strip() or None
            remote_url = os.environ.get(CACHE_URL_ENV, "").strip() or None
            _default = ExecutionService(
                cache_dir=cache_dir,
                cache_limits=(
                    CacheLimits.from_env() if cache_dir is not None else None
                ),
                remote_url=remote_url,
                validate=validate_from_env(),
            )
        return _default


def set_default_service(
    service: ExecutionService | None, shutdown_previous: bool = False
) -> None:
    """Replace the shared service (``None`` resets to a fresh default).

    ``shutdown_previous=True`` also stops the displaced service's worker
    pools — for callers that permanently retire it (e.g. the CLI swapping in
    a configured service).  The default leaves the previous instance running,
    so tests can swap services in and out and restore them afterwards.
    """
    global _default
    with _default_lock:
        previous, _default = _default, service
    if shutdown_previous and previous is not None and previous is not service:
        previous.shutdown()


def execute(
    circuits: QuantumCircuit | Sequence[QuantumCircuit],
    backend: Backend | str | None = None,
    shots: int = 1024,
    seed: int | None = None,
    memory: bool = False,
) -> Result:
    """One-call synchronous execution on the shared default service."""
    return default_service().run(
        circuits, backend=backend, shots=shots, seed=seed, memory=memory
    ).result()
