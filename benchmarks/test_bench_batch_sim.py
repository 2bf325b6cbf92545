"""Batch engine — vectorised sweep and feed-forward shots vs serial, parity.

The batch engine's contract: the service's batched execution is
bit-identical to the frozen serial engine (``tests/serial_engine.py``, run
through ``conftest.serial_reference``) for every ``(seed, circuit)`` while executing a homogeneous parameter sweep (one gate
structure, many angles) as a handful of stacked matmuls instead of
per-circuit evolutions, and a feed-forward (``c_if``) circuit's shots as one
batch instead of one statevector per shot.

The >= 3x speedup assertion is gated on available CPUs, mirroring
``test_bench_parallel_eval``: on a starved single-core container BLAS and
the Python loop fight for the same core and the measured ratio is noise
(the bench still asserts parity and reports the ratio).
"""

import os
import time

import numpy as np

from repro.quantum import library
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.execution import ExecutionService

SWEEP = 64
QUBITS = 5
LAYERS = 6
SHOTS = 384
SEED = 8282
#: Cores needed before the 3x wall-clock assertion is meaningful.
SPEEDUP_MIN_CPUS = 4
#: Teleported-state angles and shots of the feed-forward case.
TELEPORT_THETAS = (0.4, 1.0, 2.5)
TELEPORT_SHOTS = 1024


def _sweep_circuits() -> list[QuantumCircuit]:
    """One ansatz, SWEEP points of its scan knob.

    The body angles are shared across the sweep (it is the *same* ansatz at
    every point), so the engine applies each body gate to all rows with one
    stacked matmul; only the swept ``ry`` diverges into per-point rows.
    """
    rng = np.random.default_rng(SEED)
    body = [
        [float(rng.uniform(0, 2 * np.pi)) for _ in range(2 * QUBITS)]
        for _ in range(LAYERS)
    ]
    circuits = []
    for point in range(SWEEP):
        qc = QuantumCircuit(QUBITS, QUBITS)
        for angles in body:
            for q in range(QUBITS):
                qc.ry(angles[2 * q], q)
                qc.rz(angles[2 * q + 1], q)
            for q in range(QUBITS - 1):
                qc.cx(q, q + 1)
        qc.ry(2 * np.pi * point / SWEEP, 0)  # the scan knob
        qc.measure_all()
        circuits.append(qc)
    return circuits


def _counts(result, n):
    return [result.get_counts(i) for i in range(n)]


def test_bench_batch_sweep_cold_cache(once, serial_reference):
    circuits = _sweep_circuits()

    start = time.perf_counter()
    serial = [c for c, _ in serial_reference(None, circuits, SHOTS, SEED)]
    serial_time = time.perf_counter() - start

    batch_svc = ExecutionService()
    start = time.perf_counter()
    batch = once(
        lambda: batch_svc.run(circuits, shots=SHOTS, seed=SEED).result()
    )
    batch_time = time.perf_counter() - start

    # Parity always: the batch sweep is bit-identical to serial, per unit.
    assert _counts(batch, SWEEP) == serial

    # The whole cold sweep took the vectorised path, in one structure group.
    stats = batch_svc.stats()
    assert stats["simulations_batched"] == SWEEP
    assert stats["batch_groups"] == 1
    assert stats["cache_misses"] == (
        stats["simulations"] + stats["simulations_deduped"]
    )

    speedup = serial_time / max(1e-9, batch_time)
    cpus = os.cpu_count() or 1
    print()
    print(
        f"cold {SWEEP}-point sweep: serial {serial_time:.3f}s, "
        f"batch {batch_time:.3f}s -> {speedup:.2f}x ({cpus} CPUs)"
    )
    if cpus >= SPEEDUP_MIN_CPUS:
        assert speedup >= 3.0, (
            f"batch engine only {speedup:.2f}x faster on {cpus} CPUs"
        )


def test_bench_batch_feed_forward_cold_cache(once, serial_reference):
    circuits = [library.teleportation(theta) for theta in TELEPORT_THETAS]

    start = time.perf_counter()
    serial = serial_reference(None, circuits, TELEPORT_SHOTS, SEED, memory=True)
    serial_time = time.perf_counter() - start

    batch_svc = ExecutionService()
    start = time.perf_counter()
    batch = once(
        lambda: batch_svc.run(
            circuits, shots=TELEPORT_SHOTS, seed=SEED, memory=True
        ).result()
    )
    batch_time = time.perf_counter() - start

    # Parity always: every shot's record matches the serial per-shot loop.
    for i, (counts, memory) in enumerate(serial):
        assert batch.get_counts(i) == counts
        assert batch.get_memory(i) == memory

    # Every teleport shot-batched: none took the serial route.
    stats = batch_svc.stats()
    assert stats["simulations"] == len(circuits)
    assert stats["simulations_batched"] == stats["simulations"]

    speedup = serial_time / max(1e-9, batch_time)
    cpus = os.cpu_count() or 1
    print()
    print(
        f"cold teleport x{len(circuits)} at {TELEPORT_SHOTS} shots: serial "
        f"{serial_time:.3f}s, batch {batch_time:.3f}s -> {speedup:.2f}x "
        f"({cpus} CPUs)"
    )
    if cpus >= SPEEDUP_MIN_CPUS:
        assert speedup >= 3.0, (
            f"feed-forward batching only {speedup:.2f}x faster on {cpus} CPUs"
        )
