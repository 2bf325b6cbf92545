"""Parallel evaluation engine — serial vs parallel wall-clock and parity.

The engine's contract: ``evaluate_many(arms, tasks, workers=N)`` is
bit-identical to the serial runner for any N, per-arm ``execution_stats``
partition the service totals exactly, and on a multi-core host the fan-out
yields a real wall-clock win (the episode work is GIL-holding Python +
numpy, so the speedup comes from forked worker processes).

The >= 2x speedup assertion is gated on available CPUs: on a single-core
container the parallel run cannot beat serial (the bench still asserts
parity and reports the measured ratio).
"""

import os
import time

from repro.evalsuite.runner import PipelineSettings, evaluate_many
from repro.evalsuite.suite import build_suite
from repro.llm.faults import ModelConfig
from repro.quantum.execution import ExecutionService, set_default_service

SAMPLES = 2
SEED = 4242
WORKERS = 4
#: Cores needed before the 2x wall-clock assertion is meaningful.
SPEEDUP_MIN_CPUS = 4


def _arms():
    return [
        PipelineSettings(
            ModelConfig("3b", False), samples_per_task=SAMPLES,
            base_seed=SEED, label="bench-base",
        ),
        PipelineSettings(
            ModelConfig("3b", True), samples_per_task=SAMPLES,
            base_seed=SEED, label="bench-ft",
        ),
        PipelineSettings(
            ModelConfig("3b", True, prompt_style="cot"),
            samples_per_task=SAMPLES, base_seed=SEED, label="bench-cot",
        ),
        PipelineSettings(
            ModelConfig("3b", True, prompt_style="scot"),
            samples_per_task=SAMPLES, base_seed=SEED, label="bench-scot",
        ),
    ]


def _outcomes(results):
    return [
        (
            r.label,
            [
                (o.case_id, o.syntactic_successes, o.full_successes,
                 tuple(o.passes_used))
                for o in r.outcomes
            ],
        )
        for r in results
    ]


def test_bench_parallel_eval_multi_arm(once):
    tasks = build_suite()[:24]
    arms = _arms()

    # Serial reference on a cold service.
    set_default_service(ExecutionService())
    start = time.perf_counter()
    serial = evaluate_many(arms, tasks, workers=1)
    serial_time = time.perf_counter() - start

    # Parallel engine on an equally cold service, under the benchmark timer.
    set_default_service(ExecutionService())
    parallel = once(evaluate_many, arms, tasks, workers=WORKERS)
    set_default_service(None)

    # Bit-identical outcomes, arm for arm.
    assert _outcomes(serial) == _outcomes(parallel)

    # Exact attribution: every arm's misses are resolved by its own work.
    for result in parallel:
        stats = result.execution_stats
        assert stats["cache_misses"] == (
            stats["simulations"] + stats["simulations_deduped"]
        ), result.label
        assert stats["cache_hits"] + stats["cache_misses"] > 0, result.label

    print()
    print(f"serial (workers=1): {serial_time:.2f}s for {len(arms)} arms")


def test_bench_parallel_eval_speedup():
    """Measured wall-clock: workers=WORKERS vs workers=1 on a warm cache."""
    tasks = build_suite()[:24]
    arms = _arms()

    set_default_service(ExecutionService())
    evaluate_many(arms, tasks, workers=1)  # warm the shared cache

    start = time.perf_counter()
    warm_serial = evaluate_many(arms, tasks, workers=1)
    serial_time = time.perf_counter() - start

    start = time.perf_counter()
    warm_parallel = evaluate_many(arms, tasks, workers=WORKERS)
    parallel_time = time.perf_counter() - start
    set_default_service(None)

    assert _outcomes(warm_serial) == _outcomes(warm_parallel)
    speedup = serial_time / max(1e-9, parallel_time)
    cpus = os.cpu_count() or 1
    print()
    print(
        f"warm multi-arm eval: serial {serial_time:.2f}s, "
        f"workers={WORKERS} {parallel_time:.2f}s -> {speedup:.2f}x "
        f"({cpus} CPUs)"
    )
    if cpus >= SPEEDUP_MIN_CPUS:
        assert speedup >= 2.0, (
            f"expected >= 2x wall-clock win with workers={WORKERS} on "
            f"{cpus} CPUs, measured {speedup:.2f}x"
        )
