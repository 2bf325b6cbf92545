"""The persistent on-disk cache tier and the layered ResultCache."""

import json

import pytest

from repro.errors import BackendError
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.execution import (
    CacheKey,
    DiskResultCache,
    ExecutionService,
    ResultCache,
    StatsScope,
    default_service,
    set_default_service,
    use_scope,
)
from repro.quantum.library import bell_pair


def _key(tag: int = 0, memory: bool = False) -> CacheKey:
    return CacheKey(
        circuit=f"{tag:016x}",
        backend="local_simulator",
        shots=64,
        seed=7,
        noise="ideal",
        memory=memory,
    )


class TestDiskResultCache:
    def test_put_get_roundtrip(self, tmp_path):
        disk = DiskResultCache(tmp_path)
        disk.put(_key(), {"00": 40, "11": 24}, None)
        assert disk.get(_key()) == ({"00": 40, "11": 24}, None)
        assert len(disk) == 1
        assert disk.size_bytes() > 0

    def test_memory_roundtrip(self, tmp_path):
        disk = DiskResultCache(tmp_path)
        disk.put(_key(memory=True), {"0": 2, "1": 1}, ["0", "1", "0"])
        assert disk.get(_key(memory=True)) == ({"0": 2, "1": 1}, ["0", "1", "0"])

    def test_miss_returns_none(self, tmp_path):
        assert DiskResultCache(tmp_path).get(_key(99)) is None

    def test_corrupted_file_is_a_miss_and_removed(self, tmp_path):
        disk = DiskResultCache(tmp_path)
        disk.put(_key(), {"0": 64}, None)
        path = disk.path_for(_key())
        path.write_text("{ not json", encoding="utf-8")
        assert disk.get(_key()) is None
        assert not path.exists()

    def test_truncated_file_is_a_miss(self, tmp_path):
        disk = DiskResultCache(tmp_path)
        disk.put(_key(), {"0": 64}, None)
        path = disk.path_for(_key())
        path.write_text(path.read_text(encoding="utf-8")[:10], encoding="utf-8")
        assert disk.get(_key()) is None

    def test_key_mismatch_is_a_miss(self, tmp_path):
        """A digest collision (or tampered file) must never serve wrong data."""
        disk = DiskResultCache(tmp_path)
        disk.put(_key(), {"0": 64}, None)
        path = disk.path_for(_key())
        entry = json.loads(path.read_text(encoding="utf-8"))
        entry["key"]["shots"] = 4096
        path.write_text(json.dumps(entry), encoding="utf-8")
        assert disk.get(_key()) is None

    def test_clear(self, tmp_path):
        disk = DiskResultCache(tmp_path)
        disk.put(_key(1), {"0": 1}, None)
        disk.put(_key(2), {"0": 1}, None)
        disk.clear()
        assert len(disk) == 0
        assert disk.get(_key(1)) is None

    def test_size_bytes_tolerates_concurrent_unlink(self, tmp_path, monkeypatch):
        """Regression: a concurrent ``clear()``/eviction may unlink a file
        between the directory listing and the ``stat`` — the scan must skip
        it, not raise ``FileNotFoundError``."""
        from pathlib import Path

        disk = DiskResultCache(tmp_path)
        disk.put(_key(1), {"0": 1}, None)
        disk.put(_key(2), {"0": 1}, None)
        vanished = disk.path_for(_key(1))
        survivor_size = disk.path_for(_key(2)).stat().st_size
        real_stat = Path.stat

        def racing_stat(self, **kwargs):
            if self == vanished:
                raise FileNotFoundError(str(self))  # unlinked mid-scan
            return real_stat(self, **kwargs)

        monkeypatch.setattr(Path, "stat", racing_stat)
        assert disk.size_bytes() == survivor_size
        assert [p for p, _, _ in disk.entry_stats()] == [disk.path_for(_key(2))]


class TestLayeredResultCache:
    def test_disk_fallthrough_promotes_and_counts(self, tmp_path):
        disk = DiskResultCache(tmp_path)
        warm = ResultCache(disk=disk)
        warm.put(_key(), {"0": 64}, None)
        cold = ResultCache(disk=disk)  # fresh LRU over the same store
        scope = StatsScope()
        assert cold.get(_key(), (scope,)) == ({"0": 64}, None)
        assert scope.get("cache_hits") == 1
        assert scope.get("cache_disk_hits") == 1
        assert len(cold) == 1  # promoted into the LRU
        # Second lookup is a pure memory hit.
        assert cold.get(_key(), (scope,)) is not None
        assert scope.get("cache_hits") == 2
        assert scope.get("cache_disk_hits") == 1

    def test_peek_does_not_touch_stats(self):
        cache = ResultCache()
        scope = StatsScope()
        cache.put(_key(), {"0": 64}, None, (scope,))
        with use_scope(scope):
            assert cache.peek(_key()) == ({"0": 64}, None)
            assert cache.peek(_key(5)) is None
        assert scope.get("cache_hits") == 0
        assert scope.get("cache_misses") == 0

    def test_put_empty_memory_does_not_alias_caller_list(self):
        """Regression: ``memory == []`` used to store the caller's object."""
        cache = ResultCache()
        shared: list = []
        cache.put(_key(memory=True), {"0": 64}, shared)
        shared.append("intruder")
        counts_mem = cache.get(_key(memory=True))
        assert counts_mem is not None
        assert counts_mem[1] == []

    def test_clear_clears_both_tiers(self, tmp_path):
        cache = ResultCache(disk=DiskResultCache(tmp_path))
        cache.put(_key(), {"0": 64}, None)
        cache.clear()
        assert len(cache) == 0
        assert len(cache.disk) == 0


class TestServiceDiskTier:
    def test_second_service_instance_is_warm(self, tmp_path):
        """Write -> new service (new process stand-in) -> zero simulations."""
        qc = bell_pair(measure=True)
        first = ExecutionService(max_workers=1, cache_dir=tmp_path)
        counts = first.run(qc, shots=100, seed=6).result().get_counts()
        assert first.stats()["simulations"] == 1
        first.shutdown()

        second = ExecutionService(max_workers=1, cache_dir=tmp_path)
        replay = second.run(qc, shots=100, seed=6).result().get_counts()
        stats = second.stats()
        assert replay == counts
        assert stats["simulations"] == 0
        assert stats["cache_hits"] == 1
        assert stats["cache_disk_hits"] == 1
        assert stats["cache_dir"] == str(tmp_path)
        second.shutdown()

    def test_memory_results_survive_restart(self, tmp_path):
        qc = bell_pair(measure=True)
        first = ExecutionService(max_workers=1, cache_dir=tmp_path)
        mem = first.run(qc, shots=20, seed=3, memory=True).result().get_memory()
        first.shutdown()
        second = ExecutionService(max_workers=1, cache_dir=tmp_path)
        assert (
            second.run(qc, shots=20, seed=3, memory=True).result().get_memory()
            == mem
        )
        assert second.stats()["simulations"] == 0
        second.shutdown()

    def test_corrupted_entry_falls_back_to_simulation(self, tmp_path):
        qc = bell_pair(measure=True)
        first = ExecutionService(max_workers=1, cache_dir=tmp_path)
        counts = first.run(qc, shots=100, seed=6).result().get_counts()
        first.shutdown()
        disk = DiskResultCache(tmp_path)
        for path in disk.cache_dir.glob("*.json"):
            path.write_text("garbage", encoding="utf-8")
        second = ExecutionService(max_workers=1, cache_dir=tmp_path)
        assert second.run(qc, shots=100, seed=6).result().get_counts() == counts
        assert second.stats()["simulations"] == 1  # re-simulated and re-persisted
        third = ExecutionService(max_workers=1, cache_dir=tmp_path)
        assert third.run(qc, shots=100, seed=6).result().get_counts() == counts
        assert third.stats()["simulations"] == 0
        second.shutdown()
        third.shutdown()

    def test_cache_and_cache_dir_are_mutually_exclusive(self, tmp_path):
        with pytest.raises(BackendError, match="not both"):
            ExecutionService(cache=ResultCache(), cache_dir=tmp_path)

    def test_unseeded_runs_never_touch_disk(self, tmp_path):
        service = ExecutionService(max_workers=1, cache_dir=tmp_path)
        service.run(bell_pair(measure=True), shots=10)
        assert len(DiskResultCache(tmp_path)) == 0
        service.shutdown()

    def test_default_service_honours_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        set_default_service(None)
        try:
            stats = default_service().stats()
            assert stats["cache_dir"] == str(tmp_path)
        finally:
            monkeypatch.delenv("REPRO_CACHE_DIR")
            set_default_service(None)


def _wide_counts_circuit(tag: int) -> QuantumCircuit:
    qc = QuantumCircuit(2, 2)
    if tag & 1:
        qc.x(0)
    if tag & 2:
        qc.x(1)
    qc.measure([0, 1], [0, 1])
    return qc


class TestCrossProcessAcceptance:
    def test_two_processes_share_the_disk_cache(self, tmp_path):
        """The acceptance check, in-process: two *fresh* service instances
        over one cache dir behave exactly like two separate runs."""
        circuits = [_wide_counts_circuit(t) for t in range(4)]
        first = ExecutionService(max_workers=2, cache_dir=tmp_path)
        a = first.submit(circuits, shots=30, seed=11).result(timeout=30)
        assert first.stats()["simulations"] == 4
        first.shutdown()
        second = ExecutionService(max_workers=2, cache_dir=tmp_path)
        b = second.submit(circuits, shots=30, seed=11).result(timeout=30)
        stats = second.stats()
        assert stats["simulations"] == 0
        assert stats["cache_disk_hits"] == 4
        for index in range(4):
            assert a.get_counts(index) == b.get_counts(index)
        second.shutdown()
