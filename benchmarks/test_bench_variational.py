"""Variational sweep — parameterized batch path vs legacy concrete path.

The symbolic-parameter contract, measured end-to-end: a 64-point sweep of one
ansatz knob costs ONE transpile (the bound fast path lowers the template once
and rebinds) and ONE batch-planner group (every point shares the template's
structure fingerprint), where the legacy path builds 64 concrete circuits,
transpiles each one and simulates them serially.

Parity is asserted always — the bound sweep must be bit-identical to the
concretely-built sweep per point.  The wall-clock assertion is gated on
available CPUs like ``test_bench_batch_sim``: on a starved container the
ratio is noise.
"""

import os
import time

import numpy as np

from repro.quantum.circuit import QuantumCircuit
from repro.quantum.execution import ExecutionService
from repro.quantum.parameters import Parameter

SWEEP = 64
QUBITS = 5
LAYERS = 6
SHOTS = 384
SEED = 9393
BASIS = ("ry", "rz", "cx", "measure")
#: Cores needed before the wall-clock assertion is meaningful.
SPEEDUP_MIN_CPUS = 4


def _body_angles() -> list[list[float]]:
    rng = np.random.default_rng(SEED)
    return [
        [float(rng.uniform(0, 2 * np.pi)) for _ in range(2 * QUBITS)]
        for _ in range(LAYERS)
    ]


def _build(knob) -> QuantumCircuit:
    """The sweep ansatz; ``knob`` is a float (legacy) or Parameter (template)."""
    qc = QuantumCircuit(QUBITS, QUBITS)
    for angles in _body_angles():
        for q in range(QUBITS):
            qc.ry(angles[2 * q], q)
            qc.rz(angles[2 * q + 1], q)
        for q in range(QUBITS - 1):
            qc.cx(q, q + 1)
    qc.ry(knob, 0)
    qc.measure_all()
    return qc


def _points() -> list[float]:
    return [2 * np.pi * point / SWEEP for point in range(SWEEP)]


def _counts(result, n):
    return [result.get_counts(i) for i in range(n)]


def test_bench_variational_sweep_cold(once, serial_reference):
    # Legacy path: one concrete circuit per point, each transpiled from
    # scratch, simulated one by one on the frozen serial engine.
    legacy_svc = ExecutionService()
    start = time.perf_counter()
    legacy_lowered = [
        legacy_svc.transpile(_build(v), basis_gates=BASIS) for v in _points()
    ]
    legacy = [c for c, _ in serial_reference(None, legacy_lowered, SHOTS, SEED)]
    legacy_time = time.perf_counter() - start
    legacy_stats = legacy_svc.stats()

    # Parameterized path: bind one template per point; the bound fast path
    # lowers the template once, the batch planner groups the whole sweep.
    template = _build(Parameter("theta"))
    param_svc = ExecutionService()

    def sweep():
        lowered = [
            param_svc.transpile(template.bind({"theta": v}), basis_gates=BASIS)
            for v in _points()
        ]
        return param_svc.run(lowered, shots=SHOTS, seed=SEED).result()

    start = time.perf_counter()
    param = once(sweep)
    param_time = time.perf_counter() - start

    # Parity always: late binding is bit-identical to concrete building.
    assert _counts(param, SWEEP) == legacy

    param_stats = param_svc.stats()
    assert legacy_stats["transpiles"] == SWEEP
    assert param_stats["transpiles"] == 1
    assert param_stats["transpile_cache_hits"] == SWEEP - 1
    assert param_stats["batch_groups"] == 1
    assert param_stats["simulations_batched"] == SWEEP

    speedup = legacy_time / max(1e-9, param_time)
    cpus = os.cpu_count() or 1
    print()
    print(
        f"cold {SWEEP}-point sweep: legacy {legacy_time:.3f}s "
        f"({legacy_stats['transpiles']} transpiles), parameterized "
        f"{param_time:.3f}s ({param_stats['transpiles']} transpile) "
        f"-> {speedup:.2f}x ({cpus} CPUs)"
    )
    if cpus >= SPEEDUP_MIN_CPUS:
        assert speedup >= 2.0, (
            f"parameterized sweep only {speedup:.2f}x faster on {cpus} CPUs"
        )
