"""``repro.quantum.execution`` — the unified circuit-execution subsystem.

The cooperating pieces (see the per-module docstrings for detail):

* :mod:`~repro.quantum.execution.registry` — a :class:`BackendProvider`
  registry of named, lazily-constructed backends
  (``get_backend("fake_brisbane")``, ``register_backend(...)``, aliases);
* :mod:`~repro.quantum.execution.service` — the :class:`ExecutionService`
  worker pool that accepts batched submissions and returns async
  :class:`ExecutionJob` handles (``QUEUED -> RUNNING -> DONE/ERROR``); it
  plans every submission's cache misses onto the vectorised engine in
  :mod:`repro.quantum.batchsim` and deduplicates concurrent identical
  executions (single flight);
* :mod:`~repro.quantum.execution.cache` — a content-addressed
  :class:`ResultCache` keyed by circuit/backend/shots/seed/noise fingerprints,
  with hit/miss counters surfaced through ``service.stats()``;
* :mod:`~repro.quantum.execution.disk_cache` — the persistent
  :class:`DiskResultCache` tier (``ExecutionService(cache_dir=...)`` /
  ``REPRO_CACHE_DIR``) that warm-starts repeated work across processes,
  bounded by a :class:`CacheLimits` retention policy
  (``cache_limits=...`` / ``REPRO_CACHE_MAX_BYTES``, enforced on every
  write and via ``repro cache --prune``);
* :mod:`~repro.quantum.execution.remote_cache` — the shared HTTP tier: a
  stdlib :class:`CacheServer` (``repro cache-server``) plus the
  :class:`RemoteResultCache` client (``ExecutionService(remote_url=...)`` /
  ``REPRO_CACHE_URL``) that lets a fleet of workers on different machines
  share one warm store;
* :mod:`~repro.quantum.execution.dispatch` — distributed work dispatch over
  the same transport: a lease-based :class:`WorkQueue`, the
  :class:`EvalCoordinator` (``repro eval-server`` — cache + work endpoints on
  one port, one shared token) and the :func:`run_worker` loop behind ``repro
  eval-worker``, which ship the eval engine's picklable episode chunks to
  remote machines with results bit-identical to the serial runner;
* :mod:`~repro.quantum.execution.tenants` — multi-tenant admission
  control for the serving tier: per-tenant API keys (``tenants.json`` /
  ``--tenant-file``), token-bucket rate limits, byte/simulation quotas,
  and fair-share priorities that become :class:`WorkQueue` lane weights;
* :mod:`~repro.quantum.execution.jobstore` — the :class:`JobStore`
  persisting queued coordinator work as atomic JSON-per-job records, so
  a killed coordinator restarts and resumes bit-identically;
* :mod:`~repro.quantum.execution.metrics` — Prometheus text rendering
  behind the servers' ``GET /metrics`` endpoint (every ``stats()``
  counter plus per-tenant request/throttle/eviction counts);
* :mod:`~repro.quantum.execution.transpile_cache` — content addressing for
  the cached transpile stage: ``service.transpile(...)`` keys transpiled
  circuits by (circuit, coupling, basis, layout, level) fingerprints and
  stores them through the same three cache tiers, so a fleet transpiles each
  logical circuit once, ever;
* :mod:`~repro.quantum.execution.scopes` — attributable per-caller counters,
  named once in its ``COUNTERS`` registry:
  ``with service.stats_scope() as scope:`` captures exactly the work a block
  initiated (sync or async), so concurrent users — e.g. two evaluation arms —
  get exact, non-overlapping execution stats.

Quickstart::

    from repro.quantum import QuantumCircuit
    from repro.quantum.execution import default_service, get_backend

    backend = get_backend("brisbane")            # alias of fake_brisbane
    job = default_service().submit([qc1, qc2], backend=backend, shots=1024, seed=7)
    counts = job.result(timeout=30).get_counts(0)

``Backend.run`` remains available and now delegates here, so legacy call
sites transparently share the same cache and counters.
"""

from repro.quantum.execution.cache import (
    CacheKey,
    ResultCache,
    circuit_fingerprint,
    noise_fingerprint,
)
from repro.quantum.execution.disk_cache import CacheLimits, DiskResultCache
from repro.quantum.execution.dispatch import (
    DispatchClient,
    EvalCoordinator,
    WorkQueue,
    run_worker,
)
from repro.quantum.execution.jobs import ExecutionJob, JobStatus
from repro.quantum.execution.jobstore import JobStore
from repro.quantum.execution.metrics import METRICS_CONTENT_TYPE, serving_metrics
from repro.quantum.execution.remote_cache import (
    CACHE_TOKEN_ENV,
    CacheServer,
    RemoteResultCache,
)
from repro.quantum.execution.registry import (
    BackendProvider,
    get_backend,
    list_backends,
    provider,
    register_backend,
    resolve_backend,
)
from repro.quantum.execution.scopes import (
    StatsScope,
    stats_scope,
    use_scope,
)
from repro.quantum.execution.tenants import (
    TENANT_FILE_ENV,
    Tenant,
    TenantRegistry,
    TokenBucket,
    load_tenants,
)
from repro.quantum.execution.transpile_cache import (
    basis_fingerprint,
    coupling_fingerprint,
    transpile_cache_key,
)
from repro.quantum.execution.service import (
    VALIDATE_ENV,
    VALIDATE_MODES,
    ExecutionService,
    ambient_seed,
    default_service,
    execute,
    set_default_service,
    validate_from_env,
)

__all__ = [
    "BackendProvider",
    "CACHE_TOKEN_ENV",
    "CacheKey",
    "CacheLimits",
    "CacheServer",
    "DispatchClient",
    "EvalCoordinator",
    "ambient_seed",
    "DiskResultCache",
    "RemoteResultCache",
    "ExecutionJob",
    "ExecutionService",
    "JobStatus",
    "JobStore",
    "METRICS_CONTENT_TYPE",
    "TENANT_FILE_ENV",
    "Tenant",
    "TenantRegistry",
    "TokenBucket",
    "load_tenants",
    "serving_metrics",
    "ResultCache",
    "StatsScope",
    "stats_scope",
    "use_scope",
    "VALIDATE_ENV",
    "VALIDATE_MODES",
    "WorkQueue",
    "run_worker",
    "basis_fingerprint",
    "circuit_fingerprint",
    "coupling_fingerprint",
    "transpile_cache_key",
    "default_service",
    "execute",
    "get_backend",
    "list_backends",
    "noise_fingerprint",
    "provider",
    "register_backend",
    "resolve_backend",
    "set_default_service",
    "validate_from_env",
]
