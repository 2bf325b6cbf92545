"""The evaluation engine keeps one semantic analyzer per thread and grading
context (the default service and the resolved optimization level).

A program graded in one arm is not run again in the next, which removes
only lookups that would have hit: outcomes, simulations, misses, transpiles
and static rejections stay what a fresh analyzer per chunk gives.
"""

import gc
import weakref

import pytest

from repro.agents.semantic import SemanticAnalyzerAgent
from repro.evalsuite import runner
from repro.evalsuite.runner import PipelineSettings, evaluate, evaluate_many
from repro.evalsuite.suite import build_suite
from repro.llm.faults import ModelConfig
from repro.quantum.execution import ExecutionService, set_default_service
from tests.evalsuite.test_parallel_eval import outcome_key

#: Counters a verdict memo must leave alone.
WORK_COUNTERS = ("simulations", "cache_misses", "transpiles", "rejected_static")


def lookups(result):
    stats = result.execution_stats
    return stats["cache_hits"] + stats["cache_misses"]


@pytest.fixture(autouse=True)
def restore_default_service():
    yield
    set_default_service(None)


@pytest.fixture(scope="module")
def bank():
    return build_suite()[:4]


def _arm(label, **kwargs):
    return PipelineSettings(
        ModelConfig("3b", True), samples_per_task=2, label=label, **kwargs
    )


def test_memo_removes_only_would_be_hits(bank, monkeypatch):
    """Two arms over one bank, graded with this thread's analyzers and with
    a fresh analyzer per chunk (each on a fresh service)."""
    arms = [
        PipelineSettings(
            ModelConfig("3b", False), samples_per_task=2, label="base"
        ),
        _arm("ft"),
    ]

    def run():
        set_default_service(ExecutionService())
        return evaluate_many(arms, bank, workers=1)

    memo = run()
    monkeypatch.setattr(
        runner, "_cached_analyzer", lambda settings: SemanticAnalyzerAgent()
    )
    per_chunk = run()
    for shared, fresh in zip(memo, per_chunk):
        assert outcome_key(shared) == outcome_key(fresh)
        for name in WORK_COUNTERS:
            assert shared.execution_stats[name] == fresh.execution_stats[name]
    total_hits = [
        sum(result.execution_stats["cache_hits"] for result in results)
        for results in (memo, per_chunk)
    ]
    assert total_hits[0] < total_hits[1]


def test_a_new_service_grades_afresh(bank):
    """Verdicts belong to the service that graded them: after the default
    service is replaced, the same arm makes the first run's lookups again."""
    settings = _arm("service")
    set_default_service(ExecutionService())
    first = evaluate(settings, bank)
    assert lookups(evaluate(settings, bank)) == 0
    set_default_service(ExecutionService())
    second = evaluate(settings, bank)
    assert lookups(first) > 0
    assert second.execution_stats == first.execution_stats
    assert outcome_key(second) == outcome_key(first)


def test_the_cache_holds_its_service(bank):
    """The analyzer cache keys on the service object, not its id, so a
    replaced service stays alive while its analyzer is cached and no later
    service can take its address."""
    service = ExecutionService()
    set_default_service(service)
    evaluate(_arm("held"), bank[:1])
    held = weakref.ref(service)
    del service
    set_default_service(None)
    gc.collect()
    assert held() is not None


def test_another_optimization_level_grades_afresh(bank):
    """Arms that differ only in level generate the same programs, yet an
    arm at another level grades them afresh; an explicit level equal to the
    default resolves to the same context and reuses its verdicts."""
    default = _arm("o-default", seed_label="paired")
    level3 = _arm("o3", seed_label="paired", optimization_level=3)
    level1 = _arm("o1", seed_label="paired", optimization_level=1)
    set_default_service(ExecutionService())
    evaluate(default, bank)
    assert lookups(evaluate(level1, bank)) == 0
    warm = evaluate(level3, bank)
    set_default_service(ExecutionService())
    cold = evaluate(level3, bank)
    assert lookups(warm) == lookups(cold) > 0
    assert outcome_key(warm) == outcome_key(cold)


def test_analyzer_cache_starts_over_past_its_maximum(monkeypatch):
    monkeypatch.setattr(runner, "_PIPELINE_CACHE_MAX", 2)
    monkeypatch.setattr(runner._pipelines, "analyzers", {}, raising=False)
    settings = _arm("bounded")
    analyzers = []
    for _ in range(3):
        set_default_service(ExecutionService())
        analyzers.append(runner._cached_analyzer(settings))
        assert runner._cached_analyzer(settings) is analyzers[-1]
    assert len(runner._pipelines.analyzers) == 1
    assert len({id(analyzer) for analyzer in analyzers}) == 3
