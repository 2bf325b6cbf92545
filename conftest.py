"""Fixtures shared by the test suite and the benchmarks."""

import pytest

from repro.quantum.execution import ExecutionService, resolve_backend


@pytest.fixture
def serial_reference():
    """The serial engine's ``(counts, memory)`` per circuit of a batch.

    Calls ``backend.execute_circuit`` directly with the seed the service
    derives for each batch index, so no cache, planner or pool is involved.
    """

    def run(backend, circuits, shots, seed, memory=False):
        target = resolve_backend(backend)
        return [
            target.execute_circuit(
                qc, shots, ExecutionService._effective_seed(seed, index), memory
            )
            for index, qc in enumerate(circuits)
        ]

    return run
