"""Scoped execution-stats attribution: exact under concurrency.

The regression target: per-caller ``execution_stats`` used to be computed by
diffing the *global* ``service.stats()`` before/after, which attributed every
concurrent user's work to everyone.  A :class:`StatsScope` must receive
exactly the increments caused by work initiated under it — on the calling
thread, across threads, and via the sandbox.
"""

import os
import signal
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.agents.sandbox import run_code
from repro.errors import ValidationError
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.execution import (
    CacheLimits,
    ExecutionService,
    StatsScope,
    set_default_service,
    stats_scope,
    use_scope,
)
from repro.quantum.execution.scopes import SCOPE_FIELDS, active_scopes, credit
from repro.quantum.parameters import Parameter


def bell(phase: float = 0.0) -> QuantumCircuit:
    qc = QuantumCircuit(2, 2)
    qc.h(0)
    qc.cx(0, 1)
    if phase:
        qc.rz(phase, 1)
    qc.measure(0, 0)
    qc.measure(1, 1)
    return qc


@pytest.fixture
def service():
    return ExecutionService()


class TestScopeBasics:
    def test_sync_run_attribution(self, service):
        with service.stats_scope() as scope:
            service.run(bell(), backend="local_simulator", shots=64, seed=1)
        counts = scope.as_dict()
        assert counts["simulations"] == 1
        assert counts["cache_misses"] == 1
        assert counts["cache_hits"] == 0
        # A repeat under a new scope is a pure cache hit.
        with service.stats_scope() as scope2:
            service.run(bell(), backend="local_simulator", shots=64, seed=1)
        assert scope2.as_dict()["cache_hits"] == 1
        assert scope2.as_dict()["simulations"] == 0

    def test_work_outside_scope_not_counted(self, service):
        service.run(bell(0.5), backend="local_simulator", shots=64, seed=3)
        with service.stats_scope() as scope:
            pass
        assert all(v == 0 for v in scope.as_dict().values())

    def test_nested_scopes_both_credited(self, service):
        with service.stats_scope() as outer:
            with service.stats_scope() as inner:
                service.run(bell(0.75), backend="local_simulator", shots=64, seed=4)
            service.run(bell(0.85), backend="local_simulator", shots=64, seed=4)
        assert inner.as_dict()["simulations"] == 1
        assert outer.as_dict()["simulations"] == 2

    def test_scope_fields_and_helpers(self):
        scope = StatsScope("demo")
        scope.add("simulations", 3)
        with pytest.raises(KeyError):
            scope.add("not_a_field", 5)  # a misspelt counter fails loudly
        scope.merge({"cache_hits": 2, "junk": 9})  # foreign fields ignored
        assert scope.get("simulations") == 3
        assert scope.as_dict()["cache_hits"] == 2
        assert set(scope.as_dict()) == set(SCOPE_FIELDS)
        assert "demo" in repr(scope)
        credit((scope,), "cache_misses", 0)  # zero credit is a no-op
        assert scope.get("cache_misses") == 0

    @pytest.mark.parametrize("tiers", ["memory", "disk", "remote"])
    def test_stats_always_carries_every_counter(self, tiers, tmp_path):
        kwargs = {
            "memory": {},
            "disk": {"cache_dir": tmp_path},
            "remote": {"remote_url": "http://127.0.0.1:9"},
        }[tiers]
        svc = ExecutionService(**kwargs)
        stats = svc.stats()
        assert {name: stats[name] for name in SCOPE_FIELDS} == dict.fromkeys(
            SCOPE_FIELDS, 0
        )

    def test_stats_totals_equal_one_scope_over_all_work(self, tmp_path):
        theta = Parameter("theta")
        template = QuantumCircuit(1, 1)
        template.rz(theta, 0)
        template.measure(0, 0)
        svc = ExecutionService(
            cache_dir=tmp_path,
            cache_limits=CacheLimits(max_entries=2),
            validate="strict",
        )
        with svc.stats_scope() as scope:
            svc.run(bell(), backend="local_simulator", shots=32, seed=1)
            svc.run(bell(), backend="local_simulator", shots=32, seed=1)
            svc.run(
                [bell(0.3), bell(0.6), bell(0.3)],
                backend="local_simulator", shots=32, seed=2,
            )
            for _ in range(2):
                svc.transpile(bell(), backend="fake_brisbane")
            with pytest.raises(ValidationError):
                svc.run(template, backend="ideal", shots=16, seed=1)
        stats = svc.stats()
        assert {name: stats[name] for name in SCOPE_FIELDS} == scope.as_dict()
        # The work reached the cache, pre-flight and transpile counters too.
        for name in ("simulations", "cache_hits", "cache_misses",
                     "cache_evictions", "programs_validated",
                     "rejected_unbound", "transpiles",
                     "transpile_cache_hits"):
            assert stats[name] > 0, name

    def test_reentrant_use_scope_credits_once(self, service):
        scope = StatsScope("reentrant")
        with use_scope(scope), use_scope(scope):
            service.run(bell(1.25), backend="local_simulator", shots=64, seed=6)
        # Entering an already-active scope is a no-op, not a double-credit.
        assert scope.get("simulations") == 1
        assert scope not in active_scopes()

    def test_use_scope_activates_on_other_thread(self, service):
        scope = StatsScope("cross-thread")

        def work():
            with use_scope(scope):
                service.run(bell(1.5), backend="local_simulator", shots=64, seed=5)

        thread = threading.Thread(target=work)
        thread.start()
        thread.join()
        assert scope.get("simulations") == 1
        # The scope is not active on this thread.
        assert scope not in active_scopes()

    def test_run_on_another_thread_credits_only_that_threads_scopes(
        self, service
    ):
        """Work runs, and is counted, on the thread that calls ``run``: a
        scope open on this thread sees none of another thread's run unless
        that thread carries it with ``use_scope``."""
        with service.stats_scope() as here:
            thread = threading.Thread(
                target=service.run,
                args=(bell(1.75),),
                kwargs={"backend": "local_simulator", "shots": 64, "seed": 7},
            )
            thread.start()
            thread.join()
        assert all(v == 0 for v in here.as_dict().values())
        assert service.stats()["simulations"] == 1


class TestConcurrentAttribution:
    def test_two_scopes_partition_exactly(self, service):
        """Concurrent users never bleed counters into each other."""
        circuits_a = [bell(0.1 * i) for i in range(6)]
        circuits_b = [bell(1 + 0.1 * i) for i in range(6)]
        scope_a = StatsScope("a")
        scope_b = StatsScope("b")

        def run_under(scope, circuits, seed):
            with use_scope(scope):
                service.run(
                    circuits, backend="local_simulator", shots=64, seed=seed
                )

        before = service.stats()
        with ThreadPoolExecutor(2) as pool:
            fa = pool.submit(run_under, scope_a, circuits_a, 10)
            fb = pool.submit(run_under, scope_b, circuits_b, 11)
            fa.result()
            fb.result()
        after = service.stats()
        a, b = scope_a.as_dict(), scope_b.as_dict()
        # Each scope saw exactly its own lookups...
        assert a["cache_hits"] + a["cache_misses"] == 6
        assert b["cache_hits"] + b["cache_misses"] == 6
        # ...and the scoped counters partition the global deltas exactly.
        for key in ("simulations", "simulations_deduped", "cache_hits",
                    "cache_misses"):
            global_delta = int(after[key]) - int(before[key])
            assert a[key] + b[key] == global_delta, key

    def test_shared_key_sim_or_dedup_partitions(self, service):
        """Two scopes racing on one cache key: one sims, totals stay exact."""
        scope_a = StatsScope("a")
        scope_b = StatsScope("b")
        qc = bell(2.5)

        def run_under(scope):
            with use_scope(scope):
                service.run(qc, backend="local_simulator", shots=64, seed=12)

        before = service.stats()
        with ThreadPoolExecutor(2) as pool:
            list(pool.map(run_under, [scope_a, scope_b]))
        after = service.stats()
        a, b = scope_a.as_dict(), scope_b.as_dict()
        sims = int(after["simulations"]) - int(before["simulations"])
        dedup = (
            int(after["simulations_deduped"])
            - int(before["simulations_deduped"])
        )
        hits = int(after["cache_hits"]) - int(before["cache_hits"])
        assert a["simulations"] + b["simulations"] == sims
        assert a["simulations_deduped"] + b["simulations_deduped"] == dedup
        assert a["cache_hits"] + b["cache_hits"] == hits
        # However the race resolved, both callers' outcomes are covered.
        assert sims + dedup + hits == 2

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    @pytest.mark.filterwarnings("ignore:.*fork.*:DeprecationWarning")
    def test_fork_while_ledger_lock_is_held(self, service):
        """A child forked while another thread holds the service ledger's
        lock still counts: the fork hook gives the ledger a fresh lock."""
        held, release = threading.Event(), threading.Event()

        def hold_ledger():
            with service._totals._lock:
                held.set()
                release.wait(timeout=30)

        holder = threading.Thread(target=hold_ledger)
        holder.start()
        try:
            assert held.wait(timeout=10)
            pid = os.fork()
            if pid == 0:  # child: never return into the test runner
                status = 1
                try:
                    service.run(
                        bell(3.5), backend="local_simulator", shots=16, seed=9
                    )
                    status = 0 if service.stats()["simulations"] == 1 else 2
                finally:
                    os._exit(status)
            deadline = time.monotonic() + 10
            while True:
                done, wait_status = os.waitpid(pid, os.WNOHANG)
                if done:
                    break
                if time.monotonic() > deadline:
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
                    pytest.fail("forked child deadlocked on the ledger lock")
                time.sleep(0.02)
            assert os.waitstatus_to_exitcode(wait_status) == 0
        finally:
            release.set()
            holder.join(timeout=10)
        assert not holder.is_alive()
        # The parent's ledger never saw the child's work.
        assert service.stats()["simulations"] == 0


class TestEvictionAttribution:
    def test_disk_evictions_credit_the_writer(self, tmp_path):
        service = ExecutionService(
            cache_dir=tmp_path, cache_limits=CacheLimits(max_entries=2)
        )
        with service.stats_scope() as scope:
            for i in range(5):
                service.run(
                    bell(0.2 * i + 0.01),
                    backend="local_simulator",
                    shots=32,
                    seed=20,
                )
        assert scope.as_dict()["cache_evictions"] >= 3
        assert scope.as_dict()["cache_evictions"] == service.cache.disk.evictions


class TestSandboxAttribution:
    def test_run_code_counts_only_its_own_sims(self):
        service = ExecutionService()
        set_default_service(service)
        try:
            stop = threading.Event()

            def background_noise():
                i = 0
                while not stop.is_set() and i < 50:
                    service.run(
                        bell(3 + 0.01 * i),
                        backend="local_simulator",
                        shots=16,
                        seed=30 + i,
                    )
                    i += 1

            noise = threading.Thread(target=background_noise)
            noise.start()
            try:
                code = (
                    "from repro.quantum.backend import LocalSimulator\n"
                    "from repro.quantum.circuit import QuantumCircuit\n"
                    "qc = QuantumCircuit(1, 1)\n"
                    "qc.h(0)\n"
                    "qc.measure(0, 0)\n"
                    "counts = LocalSimulator().run(qc, shots=32).result()"
                    ".get_counts()\n"
                )
                result = run_code(code)
                assert result.ok, result.trace
                # Exactly one execution is attributable to the program, no
                # matter how much the background thread is simulating.
                assert result.simulations + result.sim_cache_hits == 1
            finally:
                stop.set()
                noise.join()
        finally:
            set_default_service(None)

    def test_concurrent_sandboxes_keep_their_stdout(self):
        """Thread-local stdout capture: parallel programs don't steal output."""
        def program(tag):
            return f"print('tag-{tag}')\n"

        with ThreadPoolExecutor(4) as pool:
            results = list(pool.map(run_code, [program(i) for i in range(8)]))
        for i, result in enumerate(results):
            assert result.ok
            assert result.stdout == f"tag-{i}\n"

    def test_stdout_proxy_delegates_stream_attributes(self, capsys):
        """The installed proxy must not degrade sys.stdout for later code."""
        import sys

        run_code("print('hello')\n")
        # Outside a capture, attribute lookups reach the real stream: the
        # proxy must not shadow encoding/isatty/writable with io defaults.
        assert sys.stdout.writable()
        sys.stdout.isatty()  # delegates without raising
        print("after-sandbox")  # plain printing still works end-to-end
        assert "after-sandbox" in capsys.readouterr().out


class TestFoldCounts:
    def test_folds_snapshots_including_cross_host_shapes(self):
        from repro.quantum.execution.scopes import fold_counts

        folded = fold_counts(
            [
                {"simulations": 2, "cache_hits": 1},
                # A remote worker's snapshot: JSON round-trip may carry
                # extra/missing fields — ignored and zero-filled.
                {"simulations": 1, "cache_misses": 3, "unknown_field": 9},
                {},
            ]
        )
        assert folded["simulations"] == 3
        assert folded["cache_hits"] == 1
        assert folded["cache_misses"] == 3
        assert "unknown_field" not in folded
        assert set(folded) == set(SCOPE_FIELDS)

    def test_empty_fold_is_all_zero(self):
        from repro.quantum.execution.scopes import fold_counts

        assert fold_counts([]) == dict.fromkeys(SCOPE_FIELDS, 0)
