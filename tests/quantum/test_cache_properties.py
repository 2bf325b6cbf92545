"""Property-based/fuzz harness for the cache tiers.

Seeded ``random`` only (no new dependencies): random payloads must survive
disk and remote round-trips bit-identically, and eviction invariants must
hold over arbitrary operation sequences — the store never exceeds its byte
budget after a ``put``, LRU order decides who dies, and the entry just
written is never the victim of its own write.
"""

import os
import random
import threading

import pytest

from repro.quantum.circuit import QuantumCircuit
from repro.quantum.execution import (
    CacheKey,
    CacheLimits,
    CacheServer,
    DiskResultCache,
    ExecutionService,
)

SEED = 20260728


def _rng(tag: str) -> random.Random:
    return random.Random(f"{SEED}:{tag}")


def random_key(rng: random.Random) -> CacheKey:
    return CacheKey(
        circuit=f"{rng.getrandbits(64):016x}",
        backend=rng.choice(["local_simulator", "fake_brisbane", "qec_memory"]),
        shots=rng.randint(1, 1 << 20),
        seed=rng.randint(-(1 << 40), 1 << 62),
        noise=rng.choice(["ideal", f"{rng.getrandbits(64):016x}"]),
        memory=rng.random() < 0.5,
        engine=rng.choice([0, 1]),
    )


def random_counts(rng: random.Random) -> dict[str, int]:
    width = rng.randint(1, 10)
    n = rng.randint(1, 12)
    counts: dict[str, int] = {}
    for _ in range(n):
        if rng.random() < 0.1:
            # Pathological-but-valid JSON string keys must survive too.
            label = "".join(rng.choice("μΩ∆ 01\"\\") for _ in range(4))
        else:
            label = "".join(rng.choice("01") for _ in range(width))
        counts[label] = rng.randint(0, 10**9)
    return counts


def random_memory(rng: random.Random) -> list[str] | None:
    roll = rng.random()
    if roll < 0.4:
        return None
    if roll < 0.5:
        return []
    width = rng.randint(1, 8)
    return [
        "".join(rng.choice("01") for _ in range(width))
        for _ in range(rng.randint(1, 30))
    ]


def random_payload(rng: random.Random):
    return random_key(rng), random_counts(rng), random_memory(rng)


class TestRoundTripProperties:
    def test_disk_roundtrip_is_bit_identical(self, tmp_path):
        rng = _rng("disk-roundtrip")
        disk = DiskResultCache(tmp_path)
        payloads = [random_payload(rng) for _ in range(40)]
        for key, counts, memory in payloads:
            disk.put(key, counts, memory)
        for key, counts, memory in payloads:
            assert disk.get(key) == (counts, memory)

    def test_remote_roundtrip_is_bit_identical(self, tmp_path):
        rng = _rng("remote-roundtrip")
        payloads = [random_payload(rng) for _ in range(25)]
        with CacheServer(tmp_path) as server:
            from repro.quantum.execution import RemoteResultCache

            client = RemoteResultCache(server.url)
            for key, counts, memory in payloads:
                client.put(key, counts, memory)
            for key, counts, memory in payloads:
                assert client.get(key) == (counts, memory)
            assert client.errors == 0
        # What the server persisted is exactly what the disk tier would have:
        disk = DiskResultCache(tmp_path)
        for key, counts, memory in payloads:
            assert disk.get(key) == (counts, memory)


class TestEvictionInvariants:
    def test_max_bytes_never_exceeded_after_any_put(self, tmp_path):
        rng = _rng("max-bytes")
        limits = CacheLimits(max_bytes=1500)
        disk = DiskResultCache(tmp_path, limits=limits)
        for _ in range(60):
            disk.put(*random_payload(rng))
            assert disk.size_bytes() <= limits.max_bytes

    def test_put_never_evicts_the_entry_just_written(self, tmp_path):
        rng = _rng("protect")
        disk = DiskResultCache(tmp_path, limits=CacheLimits(max_entries=1))
        for _ in range(10):
            key, counts, memory = random_payload(rng)
            disk.put(key, counts, memory)
            assert len(disk) == 1
            assert disk.get(key) == (counts, memory)

    def test_oversized_entry_is_evicted_to_hold_the_byte_bound(self, tmp_path):
        """The one exception to write-retention: an entry that alone busts
        ``max_bytes`` cannot stay, or the bound would be a lie."""
        rng = _rng("oversized")
        disk = DiskResultCache(tmp_path, limits=CacheLimits(max_bytes=120))
        key = random_key(rng)
        disk.put(key, {f"{i:010b}": 10**9 for i in range(50)}, None)
        assert disk.size_bytes() <= 120
        assert disk.get(key) is None

    def test_lru_order_respected(self, tmp_path):
        disk = DiskResultCache(tmp_path, limits=CacheLimits(max_entries=3))
        rng = _rng("lru")
        keys = [random_key(rng) for _ in range(4)]
        base = 1_000_000_000
        for tick, key in enumerate(keys[:3]):
            disk.put(key, {"0": 1}, None)
            os.utime(disk.path_for(key), (base + tick, base + tick))
        # Touch the oldest via get(): it must now outlive the middle one.
        assert disk.get(keys[0]) is not None
        os.utime(disk.path_for(keys[0]), (base + 10, base + 10))
        disk.put(keys[3], {"0": 1}, None)
        assert disk.get(keys[1]) is None  # least recently used: evicted
        assert disk.get(keys[0]) is not None
        assert disk.get(keys[2]) is not None
        assert disk.get(keys[3]) is not None

    def test_max_age_prunes_idle_entries_only(self, tmp_path):
        rng = _rng("age")
        disk = DiskResultCache(tmp_path)
        stale, fresh = random_key(rng), random_key(rng)
        disk.put(stale, {"0": 1}, None)
        old = 1_000_000_000.0
        os.utime(disk.path_for(stale), (old, old))
        disk.put(fresh, {"1": 2}, None)
        assert disk.prune(CacheLimits(max_age_seconds=3600)) == 1
        assert disk.get(stale) is None
        assert disk.get(fresh) is not None

    def test_age_sweep_deadline_runs_on_the_monotonic_clock(self, tmp_path):
        """Regression: the periodic age-sweep deadline was compared against
        wall-clock time.time(), so a backwards clock step (NTP correction,
        VM resume) deferred age eviction indefinitely.  The deadline now
        lives on an injectable monotonic clock: entry *ages* stay mtime vs
        wall time, but "is the next sweep due" follows monotonic time only.
        """
        clock = [0.0]
        limits = CacheLimits(max_age_seconds=3600)
        disk = DiskResultCache(tmp_path, limits=limits, clock=lambda: clock[0])
        rng = _rng("sweepclock")
        stale, k2, k3 = random_key(rng), random_key(rng), random_key(rng)
        disk.put(stale, {"0": 1}, None)  # first put: sweep runs, rearms at 60
        old = 1_000_000_000.0
        os.utime(disk.path_for(stale), (old, old))
        clock[0] = 10.0  # before the rearmed deadline: no sweep
        disk.put(k2, {"0": 1}, None)
        # Existence via the path, not get(): a get would touch the mtime
        # and un-stale the very entry the sweep is supposed to evict.
        assert disk.path_for(stale).exists()
        # However far backwards the wall clock steps, the monotonic deadline
        # still arrives: advance past it and the stale entry is swept.
        clock[0] = 61.0
        disk.put(k3, {"0": 1}, None)
        assert not disk.path_for(stale).exists()
        assert disk.get(k2) is not None
        assert disk.get(k3) is not None

    def test_prune_without_bounds_is_a_noop(self, tmp_path):
        disk = DiskResultCache(tmp_path)
        disk.put(random_key(_rng("noop")), {"0": 1}, None)
        assert disk.prune() == 0
        assert len(disk) == 1

    def test_randomized_operation_sequences_hold_all_invariants(self, tmp_path):
        """Fuzz: interleaved put/get/prune with a model of what must exist.

        Invariants after every operation: the byte and entry bounds hold, a
        get returns either a miss or exactly the payload last stored, and the
        key written by the latest put is still readable (it always fits the
        budget here).
        """
        rng = _rng("ops")
        limits = CacheLimits(max_bytes=4000, max_entries=12)
        disk = DiskResultCache(tmp_path, limits=limits)
        model: dict[CacheKey, tuple] = {}
        keys: list[CacheKey] = []
        for step in range(150):
            roll = rng.random()
            if roll < 0.55 or not keys:
                key, counts, memory = random_payload(rng)
                disk.put(key, counts, memory)
                model[key] = (counts, memory)
                keys.append(key)
                assert disk.get(key) == (counts, memory), f"step {step}"
            elif roll < 0.9:
                key = rng.choice(keys)
                got = disk.get(key)
                assert got is None or got == model[key], f"step {step}"
            else:
                disk.prune()
            assert disk.size_bytes() <= limits.max_bytes, f"step {step}"
            assert len(disk) <= limits.max_entries, f"step {step}"
        assert disk.evictions > 0  # the sequence actually exercised eviction


def _stress_workload() -> list[QuantumCircuit]:
    circuits = []
    for tag in range(4):
        qc = QuantumCircuit(2, 2)
        qc.h(0)
        if tag & 1:
            qc.x(1)
        if tag & 2:
            qc.cx(0, 1)
        qc.measure([0, 1], [0, 1])
        circuits.append(qc)
    return circuits


class TestConcurrencyStress:
    def test_hammered_service_with_evicting_disk_stays_bit_identical(
        self, tmp_path
    ):
        """N threads submit duplicate circuits while the disk tier churns
        under a tiny ``max_bytes``: single-flight dedup must still hold (one
        simulation per distinct circuit) and every thread must see counts
        bit-identical to an uncached run."""
        circuits = _stress_workload()
        baseline = ExecutionService()
        expected = baseline.run(circuits, shots=50, seed=9).result()

        service = ExecutionService(
            cache_dir=tmp_path,
            cache_limits=CacheLimits(max_bytes=400),  # a couple entries, tops
        )
        results: list = [None] * 8
        errors: list = []

        def hammer(slot: int) -> None:
            try:
                results[slot] = service.run(circuits, shots=50, seed=9).result()
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(slot,)) for slot in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors
        for result in results:
            assert result is not None
            for index in range(len(circuits)):
                assert result.get_counts(index) == expected.get_counts(index)
        stats = service.stats()
        # Single-flight + the in-memory LRU: disk eviction can never force a
        # re-simulation, and concurrent identical misses elect one leader.
        assert stats["simulations"] == len(circuits)
        assert DiskResultCache(tmp_path).size_bytes() <= 400


class TestThreeWayParity:
    def test_memory_disk_remote_tiers_agree_and_warm_passes_simulate_nothing(
        self, tmp_path
    ):
        circuits = _stress_workload()
        shots, seed = 40, 17

        mem_only = ExecutionService()
        a = mem_only.run(circuits, shots=shots, seed=seed).result()

        disk_dir = tmp_path / "disk"
        with_disk = ExecutionService(cache_dir=disk_dir)
        b = with_disk.run(circuits, shots=shots, seed=seed).result()

        with CacheServer(tmp_path / "server") as server:
            full = ExecutionService(
                cache_dir=tmp_path / "disk2",
                remote_url=server.url,
            )
            c = full.run(circuits, shots=shots, seed=seed).result()

            for index in range(len(circuits)):
                assert (
                    a.get_counts(index)
                    == b.get_counts(index)
                    == c.get_counts(index)
                )

            # Warm pass 1: a fresh process stand-in over the disk store.
            warm_disk = ExecutionService(cache_dir=disk_dir)
            warm_disk.run(circuits, shots=shots, seed=seed).result()
            stats = warm_disk.stats()
            assert stats["simulations"] == 0
            assert stats["cache_disk_hits"] == len(circuits)

            # Warm pass 2 — the acceptance scenario: a *cold* worker (no
            # local cache directory at all) pointed at the warm server.
            cold_worker = ExecutionService(remote_url=server.url)
            d = cold_worker.run(circuits, shots=shots, seed=seed).result()
            stats = cold_worker.stats()
            assert stats["simulations"] == 0
            assert stats["simulations_deduped"] == 0
            assert stats["cache_remote_hits"] == len(circuits)
            for index in range(len(circuits)):
                assert d.get_counts(index) == a.get_counts(index)

    def test_memory_parity_across_tiers(self, tmp_path):
        """`memory=True` shot lists survive every tier bit-identically."""
        qc = _stress_workload()[3]
        reference = ExecutionService()
        expected = reference.run(qc, shots=25, seed=5, memory=True).result()
        with CacheServer(tmp_path / "server") as server:
            full = ExecutionService(
                cache_dir=tmp_path / "d", remote_url=server.url
            )
            full.run(qc, shots=25, seed=5, memory=True)
            cold = ExecutionService(remote_url=server.url)
            replay = cold.run(qc, shots=25, seed=5, memory=True).result()
            assert replay.get_memory() == expected.get_memory()
            assert cold.stats()["simulations"] == 0


class TestCacheLimitsValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_bytes": 0},
            {"max_bytes": -1},
            {"max_entries": 0},
            {"max_age_seconds": -2.0},
        ],
    )
    def test_non_positive_bounds_rejected(self, kwargs):
        with pytest.raises(ValueError, match="must be positive"):
            CacheLimits(**kwargs)

    def test_from_env(self):
        env = {
            "REPRO_CACHE_MAX_BYTES": "1048576",
            "REPRO_CACHE_MAX_AGE": "86400",
        }
        limits = CacheLimits.from_env(env)
        assert limits == CacheLimits(max_bytes=1048576, max_age_seconds=86400.0)
        assert CacheLimits.from_env({}) is None

    def test_from_env_rejects_garbage_with_a_clear_error(self):
        """Regression: a mistyped bound must name the variable, not surface
        as a raw float() traceback (and never silently unbound the store)."""
        with pytest.raises(ValueError, match="REPRO_CACHE_MAX_BYTES"):
            CacheLimits.from_env({"REPRO_CACHE_MAX_BYTES": "1GB"})


class TestMalformedValueTolerance:
    """Regression: well-formed JSON carrying nonsense values must decode to
    a miss in every tier, never raise out of a cache lookup."""

    @pytest.mark.parametrize(
        "mutation",
        [
            {"counts": {"0": "garbage"}},
            {"counts": {"0": None}},
            {"memory": 5},
        ],
    )
    def test_disk_get_treats_nonsense_values_as_corruption(
        self, tmp_path, mutation
    ):
        import json as json_module

        rng = _rng("nonsense")
        disk = DiskResultCache(tmp_path)
        key = random_key(rng)
        disk.put(key, {"0": 1}, None)
        path = disk.path_for(key)
        entry = json_module.loads(path.read_text(encoding="utf-8"))
        entry.update(mutation)
        path.write_text(json_module.dumps(entry), encoding="utf-8")
        assert disk.get(key) is None
        assert not path.exists()  # discarded like any other corruption

    def test_remote_get_treats_nonsense_values_as_miss(self, tmp_path):
        import json as json_module

        from repro.quantum.execution import RemoteResultCache
        from repro.quantum.execution.disk_cache import key_digest

        rng = _rng("nonsense-remote")
        key = random_key(rng)
        with CacheServer(tmp_path) as server:
            client = RemoteResultCache(server.url)
            client.put(key, {"0": 1}, None)
            path = tmp_path / f"{key_digest(key)}.json"
            entry = json_module.loads(path.read_text(encoding="utf-8"))
            entry["counts"] = {"0": "garbage"}
            path.write_text(json_module.dumps(entry), encoding="utf-8")
            assert client.get(key) is None
            assert client.errors == 0
