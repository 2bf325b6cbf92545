"""Evaluation engine: drive the pipeline over a task bank, in parallel.

``evaluate`` is the engine under Figure 3, Table I and the multi-pass sweep:
it runs one pipeline configuration over a bank, with ``samples_per_task``
seeds each, and returns per-task outcomes plus the aggregate metrics the
paper reports (overall accuracy, syntactic accuracy, per-tier breakdown,
pass@k).

**Parallelism.**  Every (task, sample) episode is independent: its seed is
derived from ``(base_seed, arm label, case id, sample index)`` alone, so
episodes can run in any order — or concurrently — and produce bit-identical
outcomes.  ``evaluate(..., workers=N)`` (or ``REPRO_EVAL_WORKERS``) fans
per-task chunks across a ``fork``-based process pool (the work is
GIL-holding Python + numpy; children inherit the warm in-memory execution
cache), and runs them inline on the calling thread for one worker, for a
payload that does not pickle, or where no process pool can be built.
``evaluate_many`` extends the same fan-out across *independent arms*, which
is how the experiment drivers (Table I, Figure 3, the multi-pass sweep) run
all their arms concurrently.

**Exact stats attribution.**  Each chunk counts its execution-service
activity in its own :class:`~repro.quantum.execution.scopes.StatsScope` and
the engine sums the chunk scopes per arm, so ``EvalResult.execution_stats``
is exact even when arms overlap in time — the racy before/after diff of the
global ``service.stats()`` is gone.  Chunks grade with one semantic analyzer
per thread and grading context, so a program graded in one arm is not run
again in the next.  That skips only lookups that would have hit, so cache
hits count only gradings the thread had not done before, and depend on
which chunks shared a thread.

**Distribution.**  A coordinator — passed as ``evaluate(...,
coordinator=...)`` or installed by :func:`distributed` — leases the same
picklable chunks to ``repro eval-worker`` processes through an
:class:`~repro.quantum.execution.dispatch.EvalCoordinator`'s queue; with no
coordinator they run on the local pool, and one folding loop consumes the
ordered results either way.  Chunk determinism makes the two paths — and
any mix of remote workers, local fallback, crashes and lease-expiry
requeues — bit-identical.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.agents.codegen import CodeGenerationAgent, GenerationRequest
from repro.agents.semantic import SemanticAnalyzerAgent
from repro.errors import EvaluationError
from repro.evalsuite.passk import mean_pass_at_k
from repro.evalsuite.suite import Task
from repro.llm.faults import ModelConfig
from repro.llm.model import SimulatedCodeLLM
from repro.prompts.generator import ScaffoldGenerator
from repro.quantum.execution import default_service
from repro.quantum.execution.scopes import (
    active_scopes,
    fold_counts,
    isolated_scopes,
    stats_scope,
)
from repro.quantum.transpiler import (
    ambient_optimization_level,
    resolve_optimization_level,
)
from repro.rag.retriever import retriever_for
from repro.utils.parallel import parallel_map, resolve_workers
from repro.utils.rng import derive_seed
from repro.utils.stats import binomial_confidence_interval


@dataclass(frozen=True)
class PipelineSettings:
    """One experimental arm: a model config plus pipeline switches."""

    config: ModelConfig
    max_passes: int = 1
    semantic_feedback: bool = False
    samples_per_task: int = 4
    base_seed: int = 1234
    label: str | None = None
    #: Override the string used in per-sample seed derivation.  Arms that
    #: should see *paired* generations (e.g. the multi-pass sweep, where only
    #: the repair budget differs) share one seed_label.
    seed_label: str | None = None
    #: Pin the transpiler optimization level for every transpile performed
    #: inside this arm's episodes (generated programs included, via the
    #: ambient level).  ``None`` leaves the pipeline's own default (level 1)
    #: in place.  Arms that differ only in level and share a ``seed_label``
    #: see *paired* generations, isolating what routing quality buys.
    optimization_level: int | None = None

    def __post_init__(self) -> None:
        if self.samples_per_task < 1:
            raise EvaluationError(
                f"samples_per_task must be >= 1, got {self.samples_per_task}"
            )

    def display_label(self) -> str:
        if self.label:
            return self.label
        label = self.config.label()
        if self.max_passes > 1:
            label += f"+MP{self.max_passes}"
        if self.optimization_level is not None:
            label += f"+O{self.optimization_level}"
        return label

    def seed_scope(self) -> str:
        return self.seed_label if self.seed_label is not None else self.display_label()


@dataclass
class TaskOutcome:
    """All samples of one task under one arm."""

    case_id: str
    tier: str
    family: str
    samples: int
    syntactic_successes: int
    full_successes: int
    passes_used: list[int] = field(default_factory=list)
    #: Samples that ran clean but could not be graded semantically (no
    #: reference and no checker).  These are *included* in
    #: ``full_successes`` — the historical accuracy definition — but
    #: surfaced here so reports can show how much of an arm's accuracy is
    #: ungraded instead of silently folding it in.
    semantic_unknown: int = 0
    #: Samples rejected by static analysis (``QA1xx``): the model emitted an
    #: ill-formed circuit, caught without running a single simulation.  Kept
    #: apart from runtime errors — "wrote ill-formed code" and "code ran and
    #: answered wrong" are different failure modes — and never counted as
    #: syntactic or full successes.
    static_errors: int = 0


@dataclass
class EvalResult:
    """Aggregated evaluation of one arm over one bank."""

    label: str
    outcomes: list[TaskOutcome]
    #: ExecutionService activity attributable to this arm (simulations run,
    #: result-cache hits/misses) — exact under concurrency, see
    #: :func:`evaluate`.
    execution_stats: dict[str, int] = field(default_factory=dict)

    def accuracy(self) -> float:
        """Fraction of samples both syntactically and semantically valid."""
        total = sum(o.samples for o in self.outcomes)
        good = sum(o.full_successes for o in self.outcomes)
        return good / total if total else 0.0

    def syntactic_accuracy(self) -> float:
        total = sum(o.samples for o in self.outcomes)
        good = sum(o.syntactic_successes for o in self.outcomes)
        return good / total if total else 0.0

    def semantic_unknown_count(self) -> int:
        """Samples counted as successes without a semantic verdict."""
        return sum(o.semantic_unknown for o in self.outcomes)

    def static_error_count(self) -> int:
        """Samples statically rejected (``QA1xx``) before any simulation."""
        return sum(o.static_errors for o in self.outcomes)

    def semantic_unknown_rate(self) -> float:
        total = sum(o.samples for o in self.outcomes)
        return self.semantic_unknown_count() / total if total else 0.0

    def accuracy_by_tier(self) -> dict[str, float]:
        """Per-tier accuracy; tiers with zero samples get *no* entry.

        (They used to be masked to a fake ``0.0`` via ``max(1, total)``,
        which made an empty tier indistinguishable from an all-failing one.)
        """
        tiers: dict[str, list[TaskOutcome]] = {}
        for o in self.outcomes:
            tiers.setdefault(o.tier, []).append(o)
        accuracies: dict[str, float] = {}
        for tier, group in sorted(tiers.items()):
            samples = sum(o.samples for o in group)
            if samples:
                accuracies[tier] = (
                    sum(o.full_successes for o in group) / samples
                )
        return accuracies

    def pass_at_k(self, k: int = 1) -> float:
        return mean_pass_at_k(
            [(o.samples, o.full_successes) for o in self.outcomes], k
        )

    def confidence_interval(self) -> tuple[float, float]:
        total = sum(o.samples for o in self.outcomes)
        good = sum(o.full_successes for o in self.outcomes)
        return binomial_confidence_interval(good, total)

    def mean_passes(self) -> float:
        passes = [p for o in self.outcomes for p in o.passes_used]
        return sum(passes) / len(passes) if passes else 0.0


def build_pipeline(settings: PipelineSettings) -> CodeGenerationAgent:
    """Construct one arm's generation pipeline: model, retriever, scaffolds."""
    return CodeGenerationAgent(
        SimulatedCodeLLM(settings.config),
        retriever=retriever_for(settings.config),
        scaffolds=ScaffoldGenerator(),
    )


# -- the chunked episode engine ---------------------------------------------------

#: Generation pipelines and semantic analyzers memoised per thread.  A worker
#: process or the serial caller reuses one pipeline for every chunk of an arm
#: (keyed by arm settings) and one analyzer per grading context, while
#: callers' own threads (and the coordinator's fallback threads) each get
#: their own instances so nothing is shared across threads.  Thread-locality
#: also means no lock, no cross-thread ident aliasing, and nothing to repair
#: after fork (the child's main thread inherits the forking thread's warm
#: caches).  The pipeline's memos (the store's searches, the model's fault
#: applicability) credit no execution counter; the analyzer's verdicts skip
#: only lookups that would hit (see :func:`_cached_analyzer`).
_pipelines = threading.local()
_PIPELINE_CACHE_MAX = 16


def _thread_cached(name: str, key, build):
    """This thread's ``name`` cache entry for ``key``, built on first use;
    the cache starts over past ``_PIPELINE_CACHE_MAX`` entries."""
    cache = getattr(_pipelines, name, None)
    if cache is None:
        cache = {}
        setattr(_pipelines, name, cache)
    value = cache.get(key)
    if value is None:
        if len(cache) >= _PIPELINE_CACHE_MAX:
            cache.clear()
        value = cache[key] = build()
    return value


def _cached_pipeline(settings: PipelineSettings) -> CodeGenerationAgent:
    return _thread_cached("cache", settings, lambda: build_pipeline(settings))


def _cached_analyzer(settings: PipelineSettings) -> SemanticAnalyzerAgent:
    """This thread's analyzer for the arm's grading context: the default
    service and the resolved optimization level.

    The key holds the service object itself, so a new service allocated at
    a collected one's address cannot pick up its verdicts.  Reusing the
    analyzer across chunks skips only lookups that would hit: the first
    grading of a program already simulated and cached everything it needs.
    """
    key = (
        default_service(),
        resolve_optimization_level(settings.optimization_level),
    )
    return _thread_cached("analyzers", key, SemanticAnalyzerAgent)


def _run_task_chunk(settings: PipelineSettings, task: Task) -> tuple:
    """All samples of one task under one arm; the unit of parallel work.

    Deterministic given ``(settings, task)`` — every episode seed is derived
    from stable identifiers, the sandbox pins its ambient seed, and grading
    uses a fixed seed — so the engine is free to run chunks in any order, on
    any thread, or in any worker process and still produce outcomes
    bit-identical to the serial loop.  Returns plain picklable data:
    ``(syntactic, full, semantic_unknown, static_errors, passes_used,
    stats_dict)``.

    The chunk runs with the ambient scope stack *isolated*: whether it
    executes on the calling thread or in a forked worker, any
    scopes of the surrounding caller see nothing directly — the engine
    merges the returned stats into them explicitly, identically in every
    mode.

    The chunk grades with this thread's :class:`SemanticAnalyzerAgent` for
    its grading context, so each reference and each distinct program runs
    once per thread, whichever arm's chunk met it first.  Its outcomes do
    not depend on which chunks ran before it on this thread; its cache hits
    do, since a program graded before is not looked up again.
    """
    codegen = _cached_pipeline(settings)
    analyzer = _cached_analyzer(settings)
    with (
        isolated_scopes(),
        stats_scope(settings.display_label()) as scope,
        ambient_optimization_level(settings.optimization_level),
    ):
        syntactic = 0
        full = 0
        semantic_unknown = 0
        static_errors = 0
        passes_used: list[int] = []
        for sample in range(settings.samples_per_task):
            seed = derive_seed(
                settings.base_seed, settings.seed_scope(), task.case_id, sample
            )
            request = GenerationRequest(
                prompt_text=task.case.text,
                params=dict(task.case.params),
                seed=seed,
            )
            completion, _rendered = codegen.generate(request)
            refinement = analyzer.refine(
                codegen,
                request,
                completion,
                reference_code=task.reference_code,
                checker=task.checker,
                max_passes=settings.max_passes,
                semantic_feedback=settings.semantic_feedback,
            )
            report = refinement.report
            if report.static_error:
                static_errors += 1
            if report.syntactic_ok:
                syntactic += 1
            if report.syntactic_ok and report.semantic_ok is not False:
                full += 1
                if report.semantic_ok is None:
                    semantic_unknown += 1
            passes_used.append(refinement.passes_used)
    return (
        syntactic,
        full,
        semantic_unknown,
        static_errors,
        passes_used,
        scope.as_dict(),
    )


# -- where chunks run -------------------------------------------------------------


_distribution = threading.local()


@contextmanager
def distributed(coordinator):
    """Route this thread's ``evaluate``/``evaluate_many`` calls through a
    coordinator (``repro report --distributed`` wraps the whole experiment
    sweep in one of these, so every driver distributes without new plumbing).
    """
    previous = getattr(_distribution, "coordinator", None)
    _distribution.coordinator = coordinator
    try:
        yield coordinator
    finally:
        _distribution.coordinator = previous


def ambient_coordinator():
    """The coordinator installed by :func:`distributed` on this thread."""
    return getattr(_distribution, "coordinator", None)


def _map_chunks(calls: list[tuple], workers: int, coordinator, on_result):
    """``_run_task_chunk`` over ``calls``, results in input order: leased
    through ``coordinator`` when there is one, else on the local pool.

    A payload that does not pickle (e.g. a task carrying a closure checker)
    runs locally even with a coordinator, so distribution never changes
    *whether* an evaluation succeeds, only where it runs.
    """
    if coordinator is not None:
        from repro.quantum.execution.dispatch import encode_chunk

        try:
            payloads = [encode_chunk(_run_task_chunk, args) for args in calls]
        except Exception:  # noqa: BLE001 - any pickling failure → run locally
            pass
        else:
            return coordinator.run_chunks(payloads, on_result=on_result)
    return parallel_map(_run_task_chunk, calls, workers, on_result=on_result)


def evaluate_many(
    settings_list: list[PipelineSettings],
    tasks: list[Task],
    workers: int | None = None,
    progress=None,
    coordinator=None,
) -> list[EvalResult]:
    """Run several independent arms over one bank, sharing a worker pool.

    All (arm, task) chunks fan out together, so a multi-arm experiment keeps
    every worker busy even while one arm's last task drains.  ``workers``
    falls back to ``REPRO_EVAL_WORKERS``, then 1 (inline serial execution —
    the reference the pool is bit-identical to).  ``progress(done, total)``
    is called as chunks complete.

    A ``coordinator`` — passed here or installed by :func:`distributed` —
    leases the identical chunks to remote eval workers via the dispatch
    protocol instead; one folding loop consumes the results either way, so
    outcomes stay bit-identical to the serial run for any worker topology —
    including crashed workers and expired leases, which merely re-run a
    deterministic chunk.

    Per-arm ``execution_stats`` are the sum of the per-chunk stats scopes:
    exact and non-overlapping even though the arms run concurrently.  They
    count where the chunks ran: each process has its own memory cache, and
    each thread its own analyzers, so cache hits count only gradings that
    were new to the thread.  Any scopes ambient on the *calling* thread
    receive the same totals (via an explicit merge — chunks run
    scope-isolated), so ``with service.stats_scope() as s: evaluate(...)``
    observes the arm's numbers whether the episodes ran inline, in worker
    processes, or on another host.
    """
    arms = list(settings_list)
    caller_scopes = active_scopes()
    workers = resolve_workers(workers)
    if coordinator is None:
        coordinator = ambient_coordinator()
    calls = [(settings, task) for settings in arms for task in tasks]
    on_result = None
    if progress is not None:
        total = len(calls)
        on_result = lambda done, _result: progress(done, total)  # noqa: E731
    chunk_results = _map_chunks(calls, workers, coordinator, on_result)
    results = []
    for arm_index, settings in enumerate(arms):
        outcomes = []
        arm_chunks = chunk_results[
            arm_index * len(tasks) : (arm_index + 1) * len(tasks)
        ]
        for task, chunk in zip(tasks, arm_chunks):
            syntactic, full, unknown, static, passes_used, _chunk_stats = chunk
            outcomes.append(
                TaskOutcome(
                    case_id=task.case_id,
                    tier=task.tier,
                    family=task.case.family,
                    samples=settings.samples_per_task,
                    syntactic_successes=syntactic,
                    full_successes=full,
                    passes_used=passes_used,
                    semantic_unknown=unknown,
                    static_errors=static,
                )
            )
        stats = fold_counts(chunk[5] for chunk in arm_chunks)
        for scope in caller_scopes:
            scope.merge(stats)
        results.append(
            EvalResult(
                label=settings.display_label(),
                outcomes=outcomes,
                execution_stats=stats,
            )
        )
    return results


def evaluate(
    settings: PipelineSettings,
    tasks: list[Task],
    workers: int | None = None,
    progress=None,
    coordinator=None,
) -> EvalResult:
    """Run one arm over a bank; deterministic given ``settings.base_seed``.

    ``workers=N`` fans the per-task chunks across N processes with outcomes
    **bit-identical** to the serial runner for any N (per-sample seeds are
    order-independent via ``derive_seed``); a running
    :class:`~repro.quantum.execution.dispatch.EvalCoordinator`, passed as
    ``coordinator`` or installed by :func:`distributed`, ships the same
    chunks to remote eval workers with the same guarantee.  Grading runs
    through the shared ExecutionService under per-chunk stats scopes, so the
    result carries the arm's own simulation and cache counters — exact even
    while other arms run concurrently.  A repeat run of an identical arm on
    the same thread grades from the analyzer's verdicts without a single
    lookup; on another thread it is served from the result cache.
    """
    return evaluate_many(
        [settings],
        tasks,
        workers=workers,
        progress=progress,
        coordinator=coordinator,
    )[0]
