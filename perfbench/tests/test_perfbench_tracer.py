"""The benchmark's tracer, host-speed timeline, digest checks and definition file."""

from __future__ import annotations

import json
import signal
import sys
import threading
import time
import types

import pytest
from repro.quantum.execution.scopes import SCOPE_FIELDS

from perfbench import hostspeed, run
from perfbench.hostspeed import Timeline
from perfbench.iteration import PER_LAYER_METRICS, layer_metrics
from perfbench.tracer import HOOKS, Hook, TraceReport, Tracer, install, span


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def play(tracer: Tracer, clock: FakeClock, script) -> None:
    """Run ``(actor, time, "begin"|"end", layer)`` steps strictly in order,
    each on its actor's own thread ("main" is the calling thread)."""
    turn = threading.Condition()
    position = [0]

    def actor(name: str) -> None:
        while True:
            with turn:
                turn.wait_for(
                    lambda: position[0] == len(script) or script[position[0]][0] == name
                )
                if position[0] == len(script):
                    return
                _actor, clock.now, op, layer = script[position[0]]
                tracer.begin(layer) if op == "begin" else tracer.end()
                position[0] += 1
                turn.notify_all()

    worker = threading.Thread(target=actor, args=("worker",))
    worker.start()
    actor("main")
    worker.join(timeout=10)
    assert not worker.is_alive()


def test_self_time_on_a_nested_cross_thread_call_tree():
    # main:   A [0 ............................ 6]
    #           B [1 ..... 3]                        (waits for the job)
    # worker:       W [2 ....................... 8]  (the job outlives B)
    #                        X [4 .. 5]
    # One stack shared by both threads would pop W when B ends, charge the
    # job's time to the waiting span and drive a self time negative.
    clock = FakeClock()
    tracer = Tracer(clock)
    play(tracer, clock, [
        ("main", 0, "begin", "A"),
        ("main", 1, "begin", "B"),
        ("worker", 2, "begin", "W"),
        ("main", 3, "end", "B"),
        ("worker", 4, "begin", "X"),
        ("worker", 5, "end", "X"),
        ("main", 6, "end", "A"),
        ("worker", 8, "end", "W"),
    ])
    report = tracer.report(main_ident=threading.get_ident())
    assert report.self_s == {"A": 4, "B": 2, "W": 5, "X": 1}
    assert report.calls == {"A": 1, "B": 1, "W": 1, "X": 1}
    assert report.main_root_s == 6
    assert report.other_root_s == 6
    # Self times partition each thread's root spans exactly.
    assert sum(report.self_s.values()) == report.main_root_s + report.other_root_s


def test_layer_metrics_split_wall_into_attributed_and_unattributed():
    report = TraceReport(
        self_s={"sim.trajectory": 3.0, "exec.job_wait": 1.5, "exec.run": 0.5},
        calls={"exec.run": 2},
        counts={"sim.trajectory.shots": 1000},
        main_root_s=9.0,
        other_root_s=3.0,
    )
    scope = dict.fromkeys(SCOPE_FIELDS, 0)
    scope.update(cache_hits=3, cache_misses=1, transpiles=1, transpile_cache_hits=1)
    metrics = layer_metrics(report, wall_s=10.0, scope=scope)
    assert set(metrics) == set(PER_LAYER_METRICS) - {"trace_overhead_frac"}
    assert metrics["unattributed_s"] == pytest.approx(1.0)
    assert metrics["unattributed_frac"] == pytest.approx(0.1)
    assert metrics["exec.job_wait_s"] == 1.5
    assert metrics["exec.pool_busy_s"] == 3.0
    assert metrics["sim.trajectory.us_per_shot"] == pytest.approx(3000.0)
    assert metrics["cache.hit_ratio"] == 0.75
    assert metrics["transpiler.hit_ratio"] == 0.5


@pytest.fixture
def fake_modules():
    core = types.ModuleType("pbfake_core")

    def helper(x):
        if x < 0:
            raise ValueError("negative")
        return x + 1

    class Engine:
        def step(self, x):
            return core.helper(x) * 2

    core.helper, core.Engine = helper, Engine
    user = types.ModuleType("pbfake_user")
    user.helper = helper  # what `from pbfake_core import helper` leaves behind
    sys.modules.update(pbfake_core=core, pbfake_user=user)
    try:
        yield core, user
    finally:
        del sys.modules["pbfake_core"], sys.modules["pbfake_user"]


def test_install_wraps_a_name_where_it_is_looked_up(fake_modules):
    core, user = fake_modules
    original = core.helper
    tracer = Tracer()
    uninstall, missing = install(
        tracer,
        [Hook("pbfake_core", "helper", span("core.helper")),
         Hook("pbfake_core", "Engine.step", span("core.step")),
         Hook("pbfake_core", "gone", span("core.gone"))],
        scan_prefixes=("pbfake_",),
    )
    try:
        assert missing == ["pbfake_core.gone"]
        assert user.helper(1) == 2
        assert core.Engine().step(1) == 4
        with pytest.raises(ValueError):
            user.helper(-1)
    finally:
        uninstall()
    assert core.helper is original and user.helper is original
    report = tracer.report()
    assert report.calls == {"core.helper": 3, "core.step": 1}
    assert set(report.self_s) == {"core.helper", "core.step"}
    # The raising call closed its span: the stack is empty again.
    assert tracer._state().stack == []


def test_real_hooks_reach_from_import_copies_and_restore():
    import repro.agents.semantic as semantic
    from repro.agents import sandbox

    original = sandbox.run_code
    uninstall, _missing = install(Tracer(), HOOKS)
    try:
        assert semantic.run_code is sandbox.run_code is not original
    finally:
        uninstall()
    assert semantic.run_code is original and sandbox.run_code is original


def test_check_counts_raised_and_mismatched_operations():
    reference = [["a", "1"], ["b", "2"], ["c", "3"]]
    records = [
        {"ops": reference},
        {"ops": [["a", "1"], ["b", "X"], ["c", "3"]]},
        {"error": "Traceback ...", "ops": []},
    ]
    problems: list[str] = []
    attempted, failed = run.check(records, reference, problems)
    assert (attempted, failed) == (9, 4)
    assert len(problems) == 2


def test_timeline_scales_each_lap_by_the_samples_around_it():
    timeline = Timeline()
    # (taken at, CPU seconds the sample took, kernel seconds)
    timeline.samples = [(0.0, 0.0, 0.002), (1.5, 0.01, 0.004), (3.0, 0.0, 0.002)]
    timeline.laps = [(0.1, 1.0, True), (1.0, 2.0, True), (2.0, 2.9, False)]
    ref = hostspeed.REFERENCE_S
    # Lap 2 holds the middle sample: its time comes out of the lap, and its
    # scale averages it with the nearest sample on each side.
    seconds, scales, ops = zip(*timeline.figures())
    assert seconds == pytest.approx((0.9, 0.99, 0.9))
    assert scales == pytest.approx((ref / 0.003, ref * 3 / 0.008, ref / 0.003))
    assert ops == (True, True, False)
    assert timeline.latencies() == pytest.approx([0.9 * ref / 0.003, 0.99 * ref * 3 / 0.008])
    assert timeline.measured_s() == pytest.approx(2.79)
    assert timeline.setup_scale() == pytest.approx(ref / 0.002)


def test_timeline_samples_while_the_work_runs_and_restores_the_handler():
    previous = signal.getsignal(signal.SIGALRM)
    timeline = Timeline(every_s=0.01)
    timeline.start()
    deadline = time.perf_counter() + 0.2
    while time.perf_counter() < deadline:
        pass
    timeline.lap()
    timeline.stop()
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    taken_during = len(timeline.samples) - 2
    assert taken_during >= 3
    # The samples' own time is not counted as work.
    (begin, end, _op), _close = timeline.laps
    assert timeline.figures()[0][0] < end - begin


def test_benchmark_definition_matches_the_runner():
    definition = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert definition["command"] == ["python3", "perfbench/run.py"]
    assert {m["name"]: m["unit"] for m in definition["end_to_end"]} == run.END_TO_END
    assert {
        m["name"]: (m["unit"], m["better"]) for m in definition["per_layer"]
    } == PER_LAYER_METRICS
    from perfbench.workloads import WORKLOADS

    assert [w["name"] for w in definition["workloads"]] == list(WORKLOADS)
