"""The parallel evaluation engine: parity, attribution, and plumbing.

Acceptance for the engine: ``evaluate(..., workers=N)`` is bit-identical to
the serial runner for any N; per-arm ``execution_stats`` are exact and
non-overlapping while arms run concurrently; the old counter-bleed between
concurrent ``evaluate`` calls is gone.
"""

import os
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.evalsuite.reporting import progress_printer
from repro.evalsuite.runner import (
    PipelineSettings,
    _run_task_chunk,
    evaluate,
    evaluate_many,
)
from repro.evalsuite.suite import build_suite
from repro.llm.faults import ModelConfig
from repro.quantum.execution import ExecutionService, set_default_service
from repro.utils.parallel import parallel_map, resolve_workers


def outcome_key(result):
    """Everything observable about an arm's outcomes, for parity checks."""
    return [
        (
            o.case_id,
            o.tier,
            o.family,
            o.samples,
            o.syntactic_successes,
            o.full_successes,
            o.semantic_unknown,
            o.static_errors,
            tuple(o.passes_used),
        )
        for o in result.outcomes
    ]


@pytest.fixture
def fresh_service():
    """A cold shared service per test, restored afterwards."""
    service = ExecutionService()
    set_default_service(service)
    yield service
    set_default_service(None)


@pytest.fixture(scope="module")
def bank():
    return build_suite()[:6]


class TestSerialParallelParity:
    def test_workers_bit_identical(self, fresh_service, bank):
        settings = PipelineSettings(
            ModelConfig("3b", True), samples_per_task=2, label="parity"
        )
        serial = evaluate(settings, bank, workers=1)
        wide = evaluate(settings, bank, workers=8)
        assert outcome_key(serial) == outcome_key(wide)
        assert serial.accuracy() == wide.accuracy()
        assert serial.label == wide.label

    def test_settings_workers_and_env(self, fresh_service, bank, monkeypatch):
        settings = PipelineSettings(
            ModelConfig("3b", True), samples_per_task=2, label="parity-env"
        )
        via_argument = evaluate(settings, bank, workers=4)
        monkeypatch.setenv("REPRO_EVAL_WORKERS", "3")
        via_env = evaluate(settings, bank)
        assert outcome_key(via_argument) == outcome_key(via_env)

    def test_evaluate_many_matches_sequential_evaluates(
        self, fresh_service, bank
    ):
        arms = [
            PipelineSettings(
                ModelConfig("3b", False), samples_per_task=2, label="arm-base"
            ),
            PipelineSettings(
                ModelConfig("3b", True), samples_per_task=2, label="arm-ft"
            ),
        ]
        combined = evaluate_many(arms, bank, workers=4)
        separate = [evaluate(s, bank, workers=1) for s in arms]
        assert [r.label for r in combined] == [r.label for r in separate]
        for c, s in zip(combined, separate):
            assert outcome_key(c) == outcome_key(s)

    def test_thread_mode_parity(self, fresh_service, bank):
        """Chunks run on a caller's own threads match the serial run."""
        settings = PipelineSettings(
            ModelConfig("3b", True), samples_per_task=2, label="thread-par"
        )
        serial = evaluate(settings, bank, workers=1)
        again = evaluate(settings, bank, workers=1)
        with ThreadPoolExecutor(max_workers=4) as pool:
            threaded = list(
                pool.map(lambda task: _run_task_chunk(settings, task), bank)
            )
        assert [
            (o.syntactic_successes, o.full_successes, tuple(o.passes_used))
            for o in serial.outcomes
        ] == [(t[0], t[1], tuple(t[4])) for t in threaded]

        forked = evaluate(settings, bank, workers=4)
        assert outcome_key(forked) == outcome_key(serial)
        assert outcome_key(again) == outcome_key(serial)

        # Analyzers live per thread and grading context: a rerun on this
        # thread grades from its verdicts, and so do fork children, which
        # inherit them; the pool's fresh threads grade afresh, served by the
        # result cache the serial run filled.
        def lookups(stats):
            return stats["cache_hits"] + stats["cache_misses"]

        assert lookups(serial.execution_stats) > 0
        assert lookups(again.execution_stats) == 0
        assert again.execution_stats["simulations"] == 0
        assert lookups(forked.execution_stats) == 0
        assert sum(lookups(t[5]) for t in threaded) > 0
        assert sum(t[5]["simulations"] for t in threaded) == 0


class TestExactAttribution:
    def test_concurrent_evaluates_do_not_bleed(self, fresh_service, bank):
        """Regression: per-arm stats used to absorb *everyone's* work."""
        arm_a = PipelineSettings(
            ModelConfig("3b", True), samples_per_task=2, label="arm-a"
        )
        arm_b = PipelineSettings(
            ModelConfig("3b", False), samples_per_task=2, label="arm-b"
        )
        # Reference: each arm alone on a cold service.
        solo = {}
        for arm in (arm_a, arm_b):
            set_default_service(ExecutionService())
            solo[arm.label] = evaluate(arm, bank, workers=1)
        # Now run both concurrently on one cold shared service.
        service = ExecutionService()
        set_default_service(service)
        before = service.stats()
        results = {}

        def run(arm):
            results[arm.label] = evaluate(arm, bank, workers=1)

        threads = [threading.Thread(target=run, args=(arm,)) for arm in (arm_a, arm_b)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        after = service.stats()

        for label, result in results.items():
            stats = result.execution_stats
            ref = solo[label].execution_stats
            # Outcomes are unaffected by concurrency...
            assert outcome_key(result) == outcome_key(solo[label])
            # ...and the arm's *lookup volume* is its own deterministic
            # number, not inflated by the other arm's traffic.
            assert (
                stats["cache_hits"] + stats["cache_misses"]
                == ref["cache_hits"] + ref["cache_misses"]
            )
            # Every miss was resolved by own work, never by phantom counts.
            assert stats["cache_misses"] == (
                stats["simulations"] + stats["simulations_deduped"]
            )
        # The scoped counters partition the service totals exactly.
        for key in ("simulations", "simulations_deduped", "cache_hits",
                    "cache_misses"):
            global_delta = int(after[key]) - int(before[key])
            scoped = sum(r.execution_stats[key] for r in results.values())
            assert scoped == global_delta, key

    def test_callers_ambient_scope_sees_totals_in_every_mode(
        self, fresh_service, bank
    ):
        """A surrounding stats_scope observes the same numbers whether the
        episodes ran inline or on worker processes (regression: process mode
        used to leave the caller's scope at zero)."""
        from repro.quantum.execution import stats_scope

        settings = PipelineSettings(
            ModelConfig("3b", True), samples_per_task=2, label="ambient"
        )
        with stats_scope() as inline_scope:
            inline = evaluate(settings, bank, workers=1)
        assert inline_scope.as_dict() == inline.execution_stats

        set_default_service(ExecutionService())
        with stats_scope() as parallel_scope:
            parallel = evaluate(settings, bank, workers=4)
        assert parallel_scope.as_dict() == parallel.execution_stats

    def test_parallel_stats_cover_worker_activity(self, fresh_service, bank):
        settings = PipelineSettings(
            ModelConfig("3b", True), samples_per_task=2, label="scoped-par"
        )
        result = evaluate(settings, bank, workers=4)
        stats = result.execution_stats
        # Work happened somewhere (worker processes or threads) and was
        # attributed: every miss is matched by a simulation or a dedup.
        assert stats["cache_hits"] + stats["cache_misses"] > 0
        assert stats["cache_misses"] == (
            stats["simulations"] + stats["simulations_deduped"]
        )


class TestEnginePlumbing:
    def test_progress_callback_counts_chunks(self, fresh_service, bank):
        settings = PipelineSettings(
            ModelConfig("3b", True), samples_per_task=1, label="progress"
        )
        seen = []
        evaluate(settings, bank, workers=2, progress=lambda d, t: seen.append((d, t)))
        assert seen == [(i + 1, len(bank)) for i in range(len(bank))]

    def test_progress_printer_renders(self):
        import io

        stream = io.StringIO()
        progress = progress_printer("demo", stream=stream)
        progress(1, 2)
        progress(2, 2)
        text = stream.getvalue()
        assert "demo" in text and "2/2" in text and text.endswith("\n")

    def test_resolve_workers_precedence(self, monkeypatch):
        monkeypatch.delenv("REPRO_EVAL_WORKERS", raising=False)
        assert resolve_workers(None) == 1
        assert resolve_workers(5) == 5
        monkeypatch.setenv("REPRO_EVAL_WORKERS", "7")
        assert resolve_workers(None) == 7
        assert resolve_workers(3) == 3
        monkeypatch.setenv("REPRO_EVAL_WORKERS", "zero")
        with pytest.raises(ValueError):
            resolve_workers(None)
        monkeypatch.setenv("REPRO_EVAL_WORKERS", "0")
        with pytest.raises(ValueError):
            resolve_workers(None)
        with pytest.raises(ValueError):
            resolve_workers(0)

    def test_parallel_map_orders_and_raises(self):
        assert parallel_map(_square, [(i,) for i in range(7)], 3) == [
            i * i for i in range(7)
        ]
        assert parallel_map(_square, [(3,)], 8) == [9]  # single item inline
        with pytest.raises(ZeroDivisionError):
            parallel_map(_inverse, [(1,), (0,), (2,)], 2)

    def test_parallel_map_unpicklable_runs_inline(self):
        threads = []

        def closure(x):  # not picklable -> inline on the caller's thread
            threads.append(threading.get_ident())
            return x + 1

        assert parallel_map(closure, [(i,) for i in range(5)], 3) == [
            1, 2, 3, 4, 5
        ]
        assert threads == [threading.get_ident()] * 5

    def test_parallel_map_heterogeneous_unpicklable_item_falls_back(self):
        """One bad item anywhere runs the whole map inline — never a
        mid-pool PicklingError."""
        calls = [(1,), (lambda: 2,), (3,)]
        results = parallel_map(_identity, calls, 2)
        assert results[0] == 1
        assert callable(results[1]) and results[1]() == 2
        assert results[2] == 3

    def test_no_process_pool_runs_inline(self, tmp_path, monkeypatch):
        """A platform that cannot build a process pool still maps, and a
        coordinator's local fallback still drains its queue: both inline."""
        import concurrent.futures

        import repro.utils.parallel as parallel
        from repro.quantum.execution import EvalCoordinator
        from repro.quantum.execution.dispatch import encode_chunk

        calls = [(i,) for i in range(5)]
        pooled = parallel_map(_square, calls, 3)

        def no_pool(*args, **kwargs):
            raise OSError("no process pool on this platform")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        assert parallel.process_pool(2) is None
        assert parallel_map(_square, calls, 3) == pooled
        here = os.getpid()
        assert parallel_map(_pid, calls, 3) == [here] * len(calls)
        with EvalCoordinator(
            tmp_path, fallback_workers=1, fallback_grace=0.0
        ) as coordinator:
            assert coordinator.run_chunks([encode_chunk(_pid, (0,))]) == [here]
            assert coordinator.queue.status()["done"] == 1


def _square(x):
    return x * x


def _inverse(x):
    return 1 / x


def _identity(x):
    return x


def _pid(_x):
    return os.getpid()
