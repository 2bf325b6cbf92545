"""Layer tracer that wraps the program's public entry points from outside.

The benchmark measures per-layer time without touching ``src/``: it replaces
each layer's entry point (a module-level function or a class method) with a
wrapper that opens a span around the original call.  Spans nest on a stack
kept **per thread**, so work that a pool thread runs for a job submitted from
the calling thread never pops or credits the calling thread's spans.

Attribution rules:

* a span's *self time* is its duration minus the durations of the spans
  nested directly inside it on the same thread; self times are summed over
  threads per layer;
* the calling thread's root spans cover part of the timed wall; the rest is
  ``unattributed``;
* root spans on other threads are pool busy time, reported apart from the
  calling thread's waiting in ``ExecutionJob.result`` (``exec.job_wait``).

``from module import name`` binds a copy of a function in the importing
module, so wrapping the defining module alone would miss every call made
through such a copy.  :func:`install` therefore rebinds every module
attribute that *is* the original function, wherever the name is looked up.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
import types
from collections import Counter
from collections.abc import Callable, Iterable
from dataclasses import dataclass


class _ThreadState:
    __slots__ = ("ident", "stack", "self_s", "calls", "counts", "root_s")

    def __init__(self, ident: int) -> None:
        self.ident = ident
        #: Open spans, innermost last: ``[layer, start, child_seconds]``.
        self.stack: list[list] = []
        self.self_s: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.root_s = 0.0


@dataclass(frozen=True)
class TraceReport:
    """Per-layer totals merged over every thread that recorded a span."""

    self_s: dict[str, float]
    calls: dict[str, int]
    counts: dict[str, int]
    #: Summed durations of root spans on the thread named at report time.
    main_root_s: float
    #: Summed durations of root spans on every other thread (pool busy time).
    other_root_s: float


class Tracer:
    """Collects spans and counters; each thread writes only its own state."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState(threading.get_ident())
            with self._lock:
                self._states.append(state)
        return state

    def begin(self, layer: str) -> None:
        self._state().stack.append([layer, self.clock(), 0.0])

    def end(self) -> None:
        now = self.clock()
        state = self._state()
        layer, start, children = state.stack.pop()
        duration = now - start
        state.self_s[layer] += duration - children
        state.calls[layer] += 1
        if state.stack:
            state.stack[-1][2] += duration
        else:
            state.root_s += duration

    def count(self, key: str, amount: int = 1) -> None:
        self._state().counts[key] += amount

    def report(self, main_ident: int | None = None) -> TraceReport:
        """Merge every thread's totals; ``main_ident`` defaults to the caller."""
        main_ident = threading.get_ident() if main_ident is None else main_ident
        self_s: Counter = Counter()
        calls: Counter = Counter()
        counts: Counter = Counter()
        main_root = other_root = 0.0
        with self._lock:
            states = list(self._states)
        for state in states:
            self_s.update(state.self_s)
            calls.update(state.calls)
            counts.update(state.counts)
            if state.ident == main_ident:
                main_root += state.root_s
            else:
                other_root += state.root_s
        return TraceReport(dict(self_s), dict(calls), dict(counts), main_root, other_root)


# -- wrappers ------------------------------------------------------------------------


def span_wrapper(tracer: Tracer, fn: Callable, layer: str, counter: str | None = None):
    """Time every call of ``fn`` as a span of ``layer``."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if counter is not None:
            tracer.count(counter)
        tracer.begin(layer)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.end()

    return wrapper


def count_wrapper(tracer: Tracer, fn: Callable, counter: str):
    """Count calls of ``fn`` without timing them (for kernels too hot to time)."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.count(counter)
        return fn(*args, **kwargs)

    return wrapper


def shots_wrapper(tracer: Tracer, fn: Callable, route: Callable[..., str]):
    """Wrap an ``execute_circuit(backend, circuit, shots, ...)`` primitive.

    ``route(backend, circuit)`` names the span; the requested shots are
    counted under ``<route>.shots``.  Routing runs before the span opens, so
    its cost lands in the caller's self time as tracing overhead.
    """

    @functools.wraps(fn)
    def wrapper(backend, circuit, shots, *args, **kwargs):
        layer = route(backend, circuit)
        tracer.count(f"{layer}.shots", shots)
        tracer.begin(layer)
        try:
            return fn(backend, circuit, shots, *args, **kwargs)
        finally:
            tracer.end()

    return wrapper


# -- hooks ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Hook:
    """One entry point to wrap: ``module`` + ``qualname`` (``Class.method`` or
    a module-level function name) and a factory building its wrapper."""

    module: str
    qualname: str
    make: Callable[[Tracer, Callable, dict[str, Callable]], Callable]


def span(layer: str, counter: str | None = None):
    return lambda tracer, fn, _originals: span_wrapper(tracer, fn, layer, counter)


def counted(counter: str):
    return lambda tracer, fn, _originals: count_wrapper(tracer, fn, counter)


def _simulator_route(tracer: Tracer, fn: Callable, originals: dict[str, Callable]):
    # The unwrapped analyzer, so routing neither counts as nor times a
    # circuit_facts call of the program's own.
    facts = originals["repro.quantum.analysis.facts.circuit_facts"]

    def route(backend, circuit) -> str:
        ideal = facts(circuit).is_fast_path(backend.noise_model)
        return "sim.fast" if ideal else "sim.trajectory"

    return shots_wrapper(tracer, fn, route)


def _memory_route(tracer: Tracer, fn: Callable, _originals):
    return shots_wrapper(tracer, fn, lambda _backend, _circuit: "qec.memory")


#: Every wrapped entry point, named by the module that owns the layer.
HOOKS: tuple[Hook, ...] = (
    Hook("repro.agents.codegen", "CodeGenerationAgent.generate", span("agents.codegen")),
    Hook(
        "repro.agents.codegen", "CodeGenerationAgent.repair",
        span("agents.codegen", counter="agents.codegen.repair.calls"),
    ),
    Hook("repro.llm.model", "SimulatedCodeLLM.generate", span("llm.generate")),
    Hook("repro.rag.retriever", "Retriever.retrieve", span("rag.retrieve")),
    Hook("repro.agents.sandbox", "run_code", span("agents.sandbox")),
    Hook("repro.agents.semantic", "SemanticAnalyzerAgent.refine", span("agents.semantic")),
    Hook("repro.quantum.backend", "Backend.execute_circuit", _simulator_route),
    Hook("repro.quantum.statevector", "apply_matrix", counted("statevector.apply_matrix.calls")),
    Hook("repro.quantum.batchsim.planner", "plan", span("batchsim.plan")),
    Hook("repro.quantum.batchsim.engine", "execute_group", span("batchsim.execute_group")),
    Hook("repro.quantum.execution.service", "ExecutionService.run", span("exec.run")),
    Hook("repro.quantum.execution.service", "ExecutionService.submit", span("exec.submit")),
    Hook("repro.quantum.execution.jobs", "ExecutionJob.result", span("exec.job_wait")),
    Hook("repro.quantum.execution.cache", "ResultCache.get", span("cache.get")),
    Hook("repro.quantum.execution.cache", "ResultCache.put", span("cache.put")),
    Hook("repro.quantum.execution.disk_cache", "DiskResultCache.get", span("cache.disk.get")),
    Hook("repro.quantum.execution.disk_cache", "DiskResultCache.put", span("cache.disk.put")),
    Hook(
        "repro.quantum.execution.service", "ExecutionService.transpile",
        span("transpiler.stage"),
    ),
    Hook("repro.quantum.transpiler.passmanager", "PassManager.run", span("transpiler.passes")),
    Hook("repro.quantum.analysis.facts", "circuit_facts", span("analysis.circuit_facts")),
    Hook("repro.quantum.circuit", "QuantumCircuit.bind", span("parameters.bind")),
    Hook("repro.qec.experiments", "MemoryExperimentBackend.execute_circuit", _memory_route),
    Hook("repro.qec.matching", "MWPMDecoder.decode", span("qec.mwpm")),
    Hook("repro.qec.unionfind", "UnionFindDecoder.decode", span("qec.unionfind")),
    Hook("repro.agents.qec_agent", "QECAgent.apply", span("agents.qec")),
)


def _resolve(hook: Hook):
    """``(owner, attribute, original)`` for a hook, or ``None`` if it is gone."""
    try:
        owner = importlib.import_module(hook.module)
    except ImportError:
        return None
    *path, attr = hook.qualname.split(".")
    for name in path:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    original = vars(owner).get(attr)
    if not callable(original):
        return None
    return owner, attr, original


def install(
    tracer: Tracer,
    hooks: Iterable[Hook] = HOOKS,
    scan_prefixes: tuple[str, ...] = ("repro",),
) -> tuple[Callable[[], None], list[str]]:
    """Wrap every hook's entry point; returns ``(uninstall, missing)``.

    A module-level function is also rebound in every loaded module under
    ``scan_prefixes`` that holds it by another import.  ``missing`` lists
    hooks whose target no longer exists; their layers simply read zero.
    """
    resolved: list[tuple[Hook, tuple]] = []
    missing: list[str] = []
    for hook in hooks:
        target = _resolve(hook)
        if target is None:
            missing.append(f"{hook.module}.{hook.qualname}")
        else:
            resolved.append((hook, target))
    originals = {
        f"{hook.module}.{hook.qualname}": original
        for hook, (_owner, _attr, original) in resolved
    }
    patches: list[tuple[object, str, object]] = []
    for hook, (owner, attr, original) in resolved:
        wrapper = hook.make(tracer, original, originals)
        sites = [(owner, attr)]
        if isinstance(owner, types.ModuleType):
            sites += [
                (module, name)
                for module_name, module in list(sys.modules.items())
                if module is not owner
                and module_name.startswith(scan_prefixes)
                for name, value in list(vars(module).items())
                if value is original
            ]
        for site, name in sites:
            patches.append((site, name, getattr(site, name)))
            setattr(site, name, wrapper)

    def uninstall() -> None:
        for site, name, previous in reversed(patches):
            setattr(site, name, previous)

    return uninstall, missing
