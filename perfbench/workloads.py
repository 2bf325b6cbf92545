"""The benchmark's workloads, each a closed loop with one caller.

A workload has two halves.  ``setup(seed, iteration)`` imports the program,
builds the inputs from the seed (and, where that leaves the results alone,
the iteration's index) and opens the default execution service; it counts as
set-up time.  ``run(state, timeline)`` is the timed region: it calls
``timeline.lap()`` as each unit of work completes (see
:mod:`perfbench.hostspeed`) and returns a :class:`RunOutput`: one digest per
operation and how much work was requested.

Only public, default-configured API is used: no executor, worker-count or
validation setting is passed anywhere, so the workloads keep working when
those knobs change or go away.  Why each workload exists is written in
``perfbench/README.md``.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections.abc import Callable
from dataclasses import dataclass, field

from perfbench.hostspeed import Timeline


def digest(value: object) -> str:
    """A short stable hash of a JSON-serialisable value."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"), default=repr)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass
class RunOutput:
    #: ``(operation name, result digest)`` in execution order.
    ops: list[tuple[str, str]]
    #: Requested work: episodes for eval workloads, simulated shots otherwise.
    units: int
    #: Small human-readable summary of the results.
    summary: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    setup: Callable[[int, int], object]
    run: Callable[[object, Timeline], RunOutput]


# -- eval-cold / eval-warm -----------------------------------------------------------


def _eval_setup(seed: int, iteration: int):
    from repro.evalsuite import build_suite
    from repro.experiments import figure3
    from repro.quantum.execution import default_service

    # The default service honours REPRO_CACHE_DIR, which the runner points
    # at a fresh directory (eval-cold) or one filled beforehand (eval-warm):
    # the service `repro eval --cache-dir DIR` builds.
    default_service()
    # The seed orders the arms and tasks but keeps Figure 3's episode seeds.
    # Those decide which programs the model writes, and with them how many
    # feed-forward circuits need per-shot trajectories: a seed that changed
    # them would change the amount of work, not just its order.  The order
    # still decides which chunk pays for a shared circuit's simulation, so
    # each iteration draws its own, and a run's latency percentiles pool
    # several orders rather than resting on one.
    arms, tasks = figure3.arms(), build_suite()
    order = random.Random(seed * 1000 + iteration)
    order.shuffle(arms)
    order.shuffle(tasks)
    return arms, tasks


def _eval_run(state, timeline: Timeline) -> RunOutput:
    from repro.evalsuite import evaluate_many

    arms, tasks = state
    # One lap per (arm, task) chunk: evaluation runs inline, so `progress`
    # is called on this thread between chunks.
    results = evaluate_many(arms, tasks, progress=lambda _done, _total: timeline.lap())
    ops = sorted(
        (
            f"{result.label}/{o.case_id}",
            digest([
                o.samples, o.syntactic_successes, o.full_successes,
                o.semantic_unknown, o.static_errors, o.passes_used,
            ]),
        )
        for result in results
        for o in result.outcomes
    )
    episodes = sum(o.samples for result in results for o in result.outcomes)
    summary = {result.label: round(result.accuracy(), 4) for result in results}
    return RunOutput(ops, episodes, summary)


# -- qec-noisy ---------------------------------------------------------------------

#: Device shots per figure4 run (default 4096).
FIGURE4_SHOTS = 512
#: Shots the QEC agent's memory experiment requests inside figure4.run.
FIGURE4_AGENT_SHOTS = 300
#: Memory-experiment shots per decoder in the decoder ablation (default 150).
DECODER_SHOTS = 1000
#: Memory-experiment shots per (distance, rate) point (default 120).
DISTANCE_SHOTS = 240
DISTANCE_RATES = (0.005, 0.02, 0.08)
DISTANCES = (3, 5)


def _qec_setup(seed: int, _iteration: int):
    from repro.experiments import ablations, figure4
    from repro.quantum.execution import default_service

    default_service()
    return seed, figure4, ablations


def _results(experiment, skip_extras: tuple[str, ...] = ()) -> tuple[list, list]:
    """Measured rows and extras (the counts histograms), without the notes:
    the decoder ablation's notes carry wall-clock ms/shot."""
    rows = [[row.name, row.measured_value] for row in experiment.rows]
    extras = [e for e in experiment.extras if not e.startswith(skip_extras)]
    return rows, extras


def _qec_run(state, timeline: Timeline) -> RunOutput:
    seed, figure4, ablations = state
    calls = (
        # The stats line counts cache traffic, which is not a result.
        ("figure4", lambda: _results(
            figure4.run(shots=FIGURE4_SHOTS, seed=seed),
            skip_extras=("execution service:",),
        )),
        ("decoder_ablation", lambda: _results(
            ablations.decoder_ablation(shots=DECODER_SHOTS, seed=seed)
        )),
        ("distance_ablation", lambda: _results(
            ablations.distance_ablation(
                physical_rates=DISTANCE_RATES, distances=DISTANCES,
                shots=DISTANCE_SHOTS, seed=seed,
            )
        )),
    )
    ops, summary = [], {}
    for name, call in calls:
        rows, extras = call()
        timeline.lap()
        ops.append((name, digest([rows, extras])))
        summary[name] = rows
    shots = (
        2 * FIGURE4_SHOTS + FIGURE4_AGENT_SHOTS
        + 2 * DECODER_SHOTS
        + len(DISTANCE_RATES) * len(DISTANCES) * DISTANCE_SHOTS
    )
    return RunOutput(ops, shots, summary)


# -- variational ---------------------------------------------------------------------

#: ``repro variational`` defaults: a 4-qubit ring, one repetition, SPSA,
#: 1024 shots on the ideal simulator; only the iteration count is raised.
VARIATIONAL_QUBITS = 4
VARIATIONAL_SHOTS = 1024
VARIATIONAL_ITERS = 500


def _variational_setup(seed: int, _iteration: int):
    from repro.quantum.execution import default_service
    from repro.quantum.variational import (
        hardware_efficient_ansatz,
        maxcut_energy,
        minimize,
        qaoa_ansatz,
    )

    n = VARIATIONAL_QUBITS
    edges = [(i, (i + 1) % n) for i in range(n)]
    ansatze = (
        ("qaoa", qaoa_ansatz(n, edges, reps=1)),
        ("hea", hardware_efficient_ansatz(n, reps=1)),
    )
    return seed, ansatze, maxcut_energy(edges), minimize, default_service()


def _variational_run(state, timeline: Timeline) -> RunOutput:
    seed, ansatze, energy, minimize, service = state
    ops, summary = [], {}
    shots = 0
    for name, ansatz in ansatze:
        evaluations = [0]

        def lapped_energy(counts):
            value = energy(counts)
            # SPSA evaluates one point first, then two per iteration: the
            # last energy of each iteration's batch closes that iteration.
            # The first evaluation closes work that is not an iteration.
            if evaluations[0] % 2 == 0:
                timeline.lap(sample=evaluations[0] > 0)
            evaluations[0] += 1
            return value

        result = minimize(
            lapped_energy, ansatz, backend="ideal", shots=VARIATIONAL_SHOTS,
            seed=seed, maxiter=VARIATIONAL_ITERS, service=service,
        )
        ops.append((name, digest([
            result.history, result.best_parameters, result.evaluations,
        ])))
        summary[name] = round(result.best_value, 4)
        shots += result.evaluations * VARIATIONAL_SHOTS
    return RunOutput(ops, shots, summary)


WORKLOADS: dict[str, Workload] = {
    "eval-cold": Workload(_eval_setup, _eval_run),
    "eval-warm": Workload(_eval_setup, _eval_run),
    "qec-noisy": Workload(_qec_setup, _qec_run),
    "variational": Workload(_variational_setup, _variational_run),
}
