"""Content-addressed result cache for circuit execution.

Execution results are keyed by everything that determines them:

    (circuit fingerprint, backend name, shots, seed, noise fingerprint, memory)

so a cache hit is *exactly* a repeated simulation — the multi-pass refinement
loop re-grading an unchanged program, an evalsuite arm re-run under the same
seeds, or two experiment drivers sharing a reference circuit all short-circuit
to the stored counts.  Entries are immutable snapshots (counts dicts are
copied on the way in and out), the store is a bounded LRU, and every lookup
credits the hit/miss counters of the stats scopes it is given — the
service's own ledger and its caller's scopes — which the service and the
evalsuite surface in their reports.

The LRU may be layered over a persistent
:class:`~repro.quantum.execution.disk_cache.DiskResultCache` tier and a
shared :class:`~repro.quantum.execution.remote_cache.RemoteResultCache`
tier: lookups that miss in memory consult the disk store, then the remote
server, promote what they find into every faster tier, and count as hits
(``cache_disk_hits`` / ``cache_remote_hits`` track the serving tier); every
``put`` writes through to all tiers.  The disk tier is what makes report
regeneration and CI warm-started across process restarts; the remote tier is
what lets a fleet of workers on different machines share one warm store.

Executions with ``seed=None`` are inherently non-reproducible and are never
cached (they would poison determinism guarantees).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.quantum.circuit import QuantumCircuit
from repro.quantum.execution.disk_cache import DiskResultCache
from repro.quantum.execution.scopes import StatsScope, credit
from repro.quantum.noise import NoiseModel
from repro.utils.rng import stable_hash

if TYPE_CHECKING:
    from repro.quantum.execution.remote_cache import RemoteResultCache

#: Default number of distinct executions retained by a :class:`ResultCache`.
DEFAULT_CACHE_SIZE = 512


def circuit_fingerprint(circuit: QuantumCircuit) -> str:
    """Stable content hash of a circuit's executable structure.

    Covers register widths and the full instruction stream (names, qubits,
    clbits, parameters, conditions) — everything the simulator reads.  Circuit
    names and metadata are deliberately excluded: two identically-built
    circuits with different labels are the same execution.

    Circuits produced by :meth:`QuantumCircuit.bind` take a fast path: their
    identity is ``(template structure, binding vector)``, so an N-point sweep
    hashes the instruction stream once (on the template) and each point costs
    only a digest over its values.  The binding vector is exactly what
    distinguishes two sweep points, so the result-cache key still separates
    them; a bound circuit and an identically-built concrete circuit may carry
    different fingerprints (two cache keys for one execution — harmless,
    since results are deterministic under the seed either way).
    """
    provenance = circuit._provenance()
    if provenance is not None:
        template_fp = circuit_fingerprint(provenance.template)
        return (
            f"{stable_hash('bound-circuit', template_fp, provenance.values):016x}"
        )
    return circuit._memo("circuit_fp", _circuit_digest)


def _circuit_digest(circuit: QuantumCircuit) -> str:
    payload = (
        circuit.num_qubits,
        circuit.num_clbits,
        tuple(
            (inst.name, inst.qubits, inst.clbits, inst.params, inst.condition)
            for inst in circuit
        ),
    )
    return f"{stable_hash('circuit', payload):016x}"


def noise_fingerprint(noise: NoiseModel | None) -> str:
    """Stable content hash of a noise model (``'ideal'`` for no noise)."""
    if noise is None or noise.is_trivial:
        return "ideal"
    return noise.fingerprint()


@dataclass(frozen=True)
class CacheKey:
    """The full identity of one deterministic circuit execution.

    ``engine`` names the implementation that computed the result:
    :data:`repro.quantum.batchsim.ENGINE_VERSION` for a stock backend, whose
    circuits the batch engine simulates, and 0 where no engine version
    applies (a backend that overrides ``execute_circuit`` versions its own
    results, and a transpile key names its schema in ``backend``).
    """

    circuit: str
    backend: str
    shots: int
    seed: int
    noise: str
    memory: bool
    engine: int


class ResultCache:
    """Thread-safe bounded LRU of ``(counts, memory)`` execution outcomes.

    When constructed with a ``disk`` and/or ``remote`` tier, in-memory
    misses fall through to the persistent store, then to the shared cache
    server (promoting what they find into every faster tier), and writes go
    to all tiers.  The cache counts nothing itself: lookups and writes
    credit the :class:`~repro.quantum.execution.scopes.StatsScope` sinks
    their caller passes.
    """

    def __init__(
        self,
        maxsize: int = DEFAULT_CACHE_SIZE,
        disk: DiskResultCache | None = None,
        remote: RemoteResultCache | None = None,
    ) -> None:
        if maxsize <= 0:
            raise ValueError(f"cache maxsize must be positive, got {maxsize}")
        self.maxsize = maxsize
        self.disk = disk
        self.remote = remote
        self._lock = threading.Lock()
        self._store: OrderedDict[
            CacheKey, tuple[dict[str, int], list[str] | None]
        ] = OrderedDict()

    def __len__(self) -> int:
        with self._lock:
            return len(self._store)

    def get(
        self,
        key: CacheKey,
        scopes: tuple[StatsScope, ...] = (),
    ) -> tuple[dict[str, int], list[str] | None] | None:
        """Look up one execution, crediting the hit or miss to ``scopes``.

        ``scopes`` are the :class:`~repro.quantum.execution.scopes.StatsScope`
        sinks this lookup is attributable to (the service passes its own
        ledger first); crediting per caller is what makes per-caller stats
        exact under concurrency.
        """
        entry = self._lookup(key)
        if entry is None:
            credit(scopes, "cache_misses")
            return None
        counts, mem, tier = entry
        credit(scopes, "cache_hits")
        if tier == "disk":
            credit(scopes, "cache_disk_hits")
        elif tier == "remote":
            credit(scopes, "cache_remote_hits")
        return dict(counts), (list(mem) if mem is not None else None)

    def peek(self, key: CacheKey) -> tuple[dict[str, int], list[str] | None] | None:
        """Like :meth:`get` but without touching the hit/miss counters.

        Used by the service's single-flight path to re-probe for a
        concurrently-filled entry without double-counting the lookup that was
        already recorded when the execution probed the cache.
        """
        entry = self._lookup(key)
        if entry is None:
            return None
        counts, mem, _tier = entry
        return dict(counts), (list(mem) if mem is not None else None)

    def _lookup(
        self, key: CacheKey
    ) -> tuple[dict[str, int], list[str] | None, str] | None:
        """Memory tier first, then disk, then remote (each hit promotes into
        every faster tier); no stats accounting.  The third element names the
        serving tier: ``"memory"``, ``"disk"``, or ``"remote"``."""
        with self._lock:
            entry = self._store.get(key)
            if entry is not None:
                self._store.move_to_end(key)
                return entry[0], entry[1], "memory"
        if self.disk is not None:
            persisted = self.disk.get(key)  # file I/O outside the lock
            if persisted is not None:
                counts, mem = persisted
                with self._lock:
                    self._insert(key, counts, mem)
                return counts, mem, "disk"
        if self.remote is not None:
            downloaded = self.remote.get(key)  # network I/O outside the lock
            if downloaded is not None:
                counts, mem = downloaded
                with self._lock:
                    self._insert(key, counts, mem)
                if self.disk is not None:
                    self.disk.put(key, counts, mem)
                return counts, mem, "remote"
        return None

    def put(
        self,
        key: CacheKey,
        counts: dict[str, int],
        memory: list[str] | None,
        scopes: tuple[StatsScope, ...] = (),
    ) -> None:
        with self._lock:
            self._insert(key, counts, memory)
        if self.disk is not None:
            # Disk-tier evictions are attributable to the write that pushed
            # the store over its budget, i.e. to this caller's scopes.
            credit(scopes, "cache_evictions", self.disk.put(key, counts, memory))
        if self.remote is not None:
            self.remote.put(key, counts, memory)

    def _insert(
        self, key: CacheKey, counts: dict[str, int], memory: list[str] | None
    ) -> None:
        # Defensive copies on the way in: `memory == []` must store a fresh
        # list too, never alias the caller's own object.
        self._store[key] = (
            dict(counts),
            list(memory) if memory is not None else None,
        )
        self._store.move_to_end(key)
        while len(self._store) > self.maxsize:
            self._store.popitem(last=False)

    def clear(self) -> None:
        """Drop all *local* entries (memory + disk).

        The remote tier is deliberately left untouched: it is a store shared
        by a whole fleet, and one worker resetting its local state must not
        cold-start everyone else (``repro cache-server`` owns its own
        directory and can be cleared there).
        """
        with self._lock:
            self._store.clear()
        if self.disk is not None:
            self.disk.clear()

    def _reset_for_child(self) -> None:
        """Replace locks after ``fork()``: another thread of the parent may
        have held them at fork time, which would deadlock the child.  The
        stored entries are kept — an inherited warm cache is the point of
        forking eval workers."""
        self._lock = threading.Lock()
        if self.disk is not None:
            self.disk._reset_for_child()

    def __repr__(self) -> str:
        disk = f", disk={self.disk!r}" if self.disk is not None else ""
        remote = f", remote={self.remote!r}" if self.remote is not None else ""
        return f"ResultCache(size={len(self)}/{self.maxsize}{disk}{remote})"
