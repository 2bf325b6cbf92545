"""Persistent on-disk tier of the execution result cache.

A :class:`DiskResultCache` stores one JSON file per cache key under a
configurable directory, so deterministic execution results survive process
restarts: regenerating EXPERIMENTS.md, re-running an evalsuite arm, or a CI
job restored from ``actions/cache`` warm-start from previous runs instead of
re-simulating.

Design notes:

* **content-addressed** — the file name is a BLAKE2b digest of the full
  :class:`~repro.quantum.execution.cache.CacheKey` (circuit fingerprint,
  backend, shots, seed, noise fingerprint, memory flag); the key itself is
  stored inside the file and verified on read, so a digest collision or a
  stale file can never serve the wrong counts;
* **crash-safe writes** — entries are written to a temporary file in the
  cache directory and atomically renamed into place, so a killed process
  leaves at most an orphaned ``*.tmp``, never a truncated entry;
* **corruption-tolerant reads** — unreadable, truncated, or mismatched files
  are treated as misses and deleted best-effort, so a damaged cache degrades
  to a cold one instead of failing executions;
* **bounded by policy** — a :class:`CacheLimits` (``max_bytes`` /
  ``max_entries`` / ``max_age_seconds``) turns the store into a bounded LRU:
  every successful ``get`` touches the entry's mtime, every ``put`` enforces
  the limits (evicting least-recently-used entries first, never the entry
  just written unless it alone exceeds the byte budget), and an explicit
  :meth:`DiskResultCache.prune` applies them on demand
  (``repro cache --prune``);
* **best-effort by construction** — I/O errors on ``put`` are swallowed: a
  full disk must never fail a simulation that already succeeded.

The tier is layered *behind* the in-memory LRU by
:class:`~repro.quantum.execution.cache.ResultCache` (which credits hits,
misses and the evictions each write causes to its caller's stats scopes);
it keeps only an eviction counter of its own, which the cache server's
``/stats`` and ``/metrics`` read with no service attached.  The same entry encoding is reused verbatim by
the HTTP tier (:mod:`~repro.quantum.execution.remote_cache`), so a disk
store can be served to a fleet without any translation.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from repro.quantum.execution.cache import CacheKey

#: Schema version of on-disk entries; bump to invalidate old caches wholesale.
ENTRY_VERSION = 1

_tmp_ids = itertools.count()


def _key_payload(key: "CacheKey") -> dict:
    """The JSON-serialisable identity of a cache key."""
    return {
        "circuit": key.circuit,
        "backend": key.backend,
        "shots": key.shots,
        "seed": key.seed,
        "noise": key.noise,
        "memory": key.memory,
        "engine": key.engine,
    }


def key_digest(key: "CacheKey") -> str:
    """Hex digest naming this key's entry — identical on every machine."""
    canonical = json.dumps(_key_payload(key), sort_keys=True)
    return hashlib.blake2b(canonical.encode("utf-8"), digest_size=16).hexdigest()


def encode_entry(
    key: "CacheKey", counts: dict[str, int], memory: list[str] | None
) -> dict:
    """The JSON document persisted (and shipped over HTTP) for one result."""
    return {
        "version": ENTRY_VERSION,
        "key": _key_payload(key),
        "counts": {str(k): int(v) for k, v in counts.items()},
        "memory": list(memory) if memory is not None else None,
    }


def decode_entry(
    entry: object, key: "CacheKey"
) -> tuple[dict[str, int], list[str] | None] | None:
    """Validate a stored/transported entry against ``key``; ``None`` if it is
    malformed, from another schema version, or belongs to a different key
    (digest collision, tampered file, misbehaving server)."""
    if (
        not isinstance(entry, dict)
        or entry.get("version") != ENTRY_VERSION
        or entry.get("key") != _key_payload(key)
        or not isinstance(entry.get("counts"), dict)
    ):
        return None
    try:
        counts = {str(k): int(v) for k, v in entry["counts"].items()}
        memory = entry.get("memory")
        if memory is not None:
            memory = [str(bit) for bit in memory]
    except (TypeError, ValueError):
        # Well-formed JSON, nonsense values (counts of "garbage", memory=5):
        # corruption-tolerance means this is a miss, never an exception.
        return None
    return counts, memory


@dataclass(frozen=True)
class CacheLimits:
    """Retention policy for a :class:`DiskResultCache`.

    Any combination of bounds may be set; ``None`` leaves that axis
    unbounded.  Age is measured against the entry's mtime, which every cache
    hit refreshes — so ``max_age_seconds`` bounds *idle* time, matching the
    LRU eviction order.
    """

    max_bytes: int | None = None
    max_entries: int | None = None
    max_age_seconds: float | None = None

    def __post_init__(self) -> None:
        for name in ("max_bytes", "max_entries", "max_age_seconds"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ValueError(f"{name} must be positive, got {value}")

    @property
    def bounded(self) -> bool:
        return any(
            value is not None
            for value in (self.max_bytes, self.max_entries, self.max_age_seconds)
        )

    @staticmethod
    def from_env(environ: dict | None = None) -> "CacheLimits | None":
        """Limits from ``REPRO_CACHE_MAX_BYTES`` / ``_MAX_ENTRIES`` /
        ``_MAX_AGE`` (seconds), or ``None`` when none are set."""
        env = os.environ if environ is None else environ
        raw = {
            "max_bytes": env.get("REPRO_CACHE_MAX_BYTES", "").strip(),
            "max_entries": env.get("REPRO_CACHE_MAX_ENTRIES", "").strip(),
            "max_age_seconds": env.get("REPRO_CACHE_MAX_AGE", "").strip(),
        }
        env_names = {
            "max_bytes": "REPRO_CACHE_MAX_BYTES",
            "max_entries": "REPRO_CACHE_MAX_ENTRIES",
            "max_age_seconds": "REPRO_CACHE_MAX_AGE",
        }
        kwargs: dict[str, float | int] = {}
        for name, text in raw.items():
            if not text:
                continue
            try:
                number = float(text)
            except ValueError:
                # A mistyped bound must be a clear config error, not a raw
                # float() traceback — and never a silently unbounded store.
                raise ValueError(
                    f"{env_names[name]} must be a number, got {text!r}"
                ) from None
            kwargs[name] = number if name == "max_age_seconds" else int(number)
        return CacheLimits(**kwargs) if kwargs else None


class DiskResultCache:
    """Content-addressed JSON-per-key store of ``(counts, memory)`` results."""

    def __init__(
        self,
        cache_dir: str | os.PathLike,
        limits: CacheLimits | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.cache_dir = Path(cache_dir)
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        self.limits = limits
        self.evictions = 0
        self._lock = threading.Lock()
        # Running (bytes, entries) totals so bounded puts stay O(1): a full
        # directory scan runs only when the totals say a limit may be
        # exceeded (or the periodic age sweep is due), not on every write.
        # The totals over-count relative to a store that other processes
        # delete from — which only triggers harmless extra scans.
        self._approx: list[int] | None = None
        # The age-sweep *deadline* runs on a monotonic clock (injectable for
        # tests): entry ages stay wall-clock (mtimes are wall time), but the
        # "is the next sweep due yet" comparison must not — a backwards
        # wall-clock step would otherwise defer age eviction indefinitely.
        self._clock = clock
        self._age_sweep_due = 0.0

    def _reset_for_child(self) -> None:
        """Fresh lock after ``fork()`` (the parent's may have been held)."""
        self._lock = threading.Lock()

    # -- addressing ----------------------------------------------------------------

    def path_for(self, key: "CacheKey") -> Path:
        """The file that holds (or would hold) this key's entry."""
        return self.cache_dir / f"{key_digest(key)}.json"

    # -- store surface ---------------------------------------------------------------

    def get(self, key: "CacheKey") -> tuple[dict[str, int], list[str] | None] | None:
        """Read one entry; corrupted or mismatched files count as misses."""
        path = self.path_for(key)
        try:
            with open(path, encoding="utf-8") as handle:
                entry = json.load(handle)
        except FileNotFoundError:
            return None
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            self._discard(path)
            return None
        decoded = decode_entry(entry, key)
        if decoded is None:
            self._discard(path)
            return None
        self._touch(path)
        return decoded

    def put(
        self, key: "CacheKey", counts: dict[str, int], memory: list[str] | None
    ) -> int:
        """Atomically persist one entry (best-effort: I/O errors are ignored),
        then enforce the retention limits.  Returns the number of entries this
        write evicted, so callers can attribute eviction pressure."""
        return self._write(self.path_for(key), encode_entry(key, counts, memory))

    def put_entry(self, entry: object) -> int | None:
        """Persist a pre-encoded entry (the HTTP server's upload path).

        The entry must decode against the key it embeds — i.e. it is
        re-verified and re-addressed here, so an uploader can never plant a
        file under a digest that does not match its content.  Returns the
        eviction count of the underlying ``put`` on success (possibly 0 —
        test ``is None`` for failure, not truthiness) and ``None`` when the
        entry does not verify, so the server can attribute eviction
        pressure to the uploading tenant.
        """
        from repro.quantum.execution.cache import CacheKey

        if not isinstance(entry, dict) or not isinstance(entry.get("key"), dict):
            return None
        try:
            key = CacheKey(**entry["key"])
        except TypeError:
            return None
        decoded = decode_entry(entry, key)
        if decoded is None:
            return None
        counts, memory = decoded
        return self.put(key, counts, memory)

    def _write(self, path: Path, entry: dict) -> int:
        tmp = path.with_suffix(f".{os.getpid()}-{next(_tmp_ids)}.tmp")
        try:
            with open(tmp, "w", encoding="utf-8") as handle:
                json.dump(entry, handle, separators=(",", ":"))
            os.replace(tmp, path)
        except OSError:
            self._discard(tmp)
            return 0
        if self.limits is not None and self.limits.bounded:
            return self._after_bounded_write(path)
        return 0

    def _after_bounded_write(self, path: Path) -> int:
        """Update the running totals; enforce only when a bound may be hit.
        Returns the number of entries evicted by this write."""
        policy = self.limits
        with self._lock:
            if self._approx is None:
                self._approx = [0, 0]
                for _, _, size in self.entry_stats():
                    self._approx[0] += size
                    self._approx[1] += 1
            else:
                try:
                    self._approx[0] += path.stat().st_size
                except OSError:
                    self._approx[0] += 0
                self._approx[1] += 1
            over = (
                policy.max_bytes is not None
                and self._approx[0] > policy.max_bytes
            ) or (
                policy.max_entries is not None
                and self._approx[1] > policy.max_entries
            )
            sweep = (
                policy.max_age_seconds is not None
                and self._clock() >= self._age_sweep_due
            )
            if not over and not sweep:
                return 0
        return self._enforce(policy, protect=path)

    # -- retention -------------------------------------------------------------------

    def prune(self, limits: CacheLimits | None = None) -> int:
        """Apply retention limits now; returns the number of entries evicted.

        Uses the store's own limits when none are given.  Unlike the
        enforcement that runs on ``put``, an explicit prune protects nothing:
        it may empty the store entirely.
        """
        policy = limits if limits is not None else self.limits
        if policy is None or not policy.bounded:
            return 0
        return self._enforce(policy, protect=None)

    def _enforce(self, policy: CacheLimits, protect: Path | None) -> int:
        """Evict least-recently-used entries until ``policy`` is satisfied.

        ``protect`` (the entry a ``put`` just wrote) is evicted only as a
        last resort — when it alone exceeds ``max_bytes`` — so the byte bound
        holds unconditionally after every put.
        """
        with self._lock:
            evicted = 0
            entries = self.entry_stats()
            now = time.time()
            if policy.max_age_seconds is not None:
                fresh = []
                for path, mtime, size in entries:
                    if path != protect and now - mtime > policy.max_age_seconds:
                        self._discard(path)
                        evicted += 1
                    else:
                        fresh.append((path, mtime, size))
                entries = fresh
            entries.sort(key=lambda item: item[1])  # oldest mtime first
            total = sum(size for _, _, size in entries)
            count = len(entries)

            def over() -> bool:
                return (
                    policy.max_bytes is not None and total > policy.max_bytes
                ) or (policy.max_entries is not None and count > policy.max_entries)

            survivors = []
            for path, mtime, size in entries:
                if over() and path != protect:
                    self._discard(path)
                    evicted += 1
                    total -= size
                    count -= 1
                else:
                    survivors.append((path, mtime, size))
            if over() and protect is not None:
                # The just-written entry alone busts the byte budget; the
                # bound wins over write-retention.
                for path, _, size in survivors:
                    if path == protect:
                        self._discard(path)
                        evicted += 1
                        total -= size
                        count -= 1
                        break
            self.evictions += evicted
            # Exact totals from the scan re-anchor the running approximation.
            self._approx = [total, count]
            if policy.max_age_seconds is not None:
                # Deadline on the monotonic clock; `now` above is wall time
                # because entry ages compare against mtimes.
                self._age_sweep_due = self._clock() + min(
                    policy.max_age_seconds / 2, 60.0
                )
            return evicted

    @staticmethod
    def _touch(path: Path) -> None:
        """Refresh mtime so LRU eviction sees this entry as recently used."""
        try:
            os.utime(path)
        except OSError:
            pass  # raced with an eviction/clear, or a read-only store

    # -- maintenance -----------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries())

    def size_bytes(self) -> int:
        """Total bytes of all persisted entries."""
        return sum(size for _, _, size in self.entry_stats())

    def entry_stats(self) -> list[tuple[Path, float, int]]:
        """``(path, mtime, size_bytes)`` per entry, tolerating concurrent
        deletion: another thread's ``clear()``/eviction may unlink a file
        between the directory listing and the ``stat`` — such entries are
        simply skipped, never raised."""
        out = []
        for path in self._entries():
            try:
                stat = path.stat()
            except FileNotFoundError:
                continue  # unlinked while we were scanning
            except OSError:
                continue
            out.append((path, stat.st_mtime, stat.st_size))
        return out

    def clear(self) -> None:
        """Delete every persisted entry (and any orphaned temp files)."""
        with self._lock:
            for path in list(self.cache_dir.glob("*.json")) + list(
                self.cache_dir.glob("*.tmp")
            ):
                self._discard(path)
            self._approx = [0, 0]

    def _entries(self) -> list[Path]:
        try:
            return sorted(self.cache_dir.glob("*.json"))
        except OSError:
            return []

    @staticmethod
    def _discard(path: Path) -> None:
        try:
            path.unlink()
        except OSError:
            pass

    def __repr__(self) -> str:
        bounds = f", limits={self.limits}" if self.limits is not None else ""
        return f"DiskResultCache(dir='{self.cache_dir}', entries={len(self)}{bounds})"
