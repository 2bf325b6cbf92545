"""Fixtures shared by the test suite and the benchmarks."""

import numpy as np
import pytest

from repro.quantum.execution import ExecutionService, resolve_backend
from tests.serial_engine import simulate_counts


@pytest.fixture
def serial_reference():
    """The frozen serial engine's ``(counts, memory)`` per circuit of a batch.

    Runs :func:`tests.serial_engine.simulate_counts` under the backend's
    noise model with the seed the service derives for each batch index, so
    no cache, planner or batch engine is involved.  It is the stock
    ``execute_circuit`` semantics, whatever the backend's class.
    """

    def run(backend, circuits, shots, seed, memory=False):
        target = resolve_backend(backend)
        return [
            simulate_counts(
                qc,
                shots,
                np.random.default_rng(ExecutionService._effective_seed(seed, index)),
                noise=target.noise_model,
                memory=memory,
            )
            for index, qc in enumerate(circuits)
        ]

    return run
