"""Cold vs warm transpilation through the content-addressed stage.

The cold path runs the full pass stack (decompose, layout, route, peephole);
the warm path restores the transpiled circuit from the cache tiers.  The gap
between the two is exactly what the stage buys every repeated eval, report,
or experiment run — the same numbers `repro transpile --explain` itemises
per pass.
"""

import pytest

from repro.quantum.execution import ExecutionService, get_backend
from repro.quantum.library import qft, random_circuit


@pytest.fixture
def service(tmp_path):
    return ExecutionService(cache_dir=tmp_path)


def test_bench_transpile_cold(benchmark, service):
    """Pass-manager runs, never a cache hit: each round lowers a distinct
    circuit (fresh generator seed), so the stage cannot memoise."""
    backend = get_backend("fake_falcon")
    circuits = iter(
        random_circuit(4, depth=8, seed=i) for i in range(1_000_000)
    )

    def cold():
        return service.transpile(next(circuits), backend=backend)

    lowered = benchmark(cold)
    assert lowered.num_qubits == backend.coupling_map.num_qubits
    assert service.stats()["transpile_cache_hits"] == 0


def test_bench_transpile_warm(benchmark, service):
    """Every timed round is a cache hit on the same lowered circuit."""
    backend = get_backend("fake_falcon")
    circuit = qft(4)
    reference = service.transpile(circuit, backend=backend)

    def warm():
        return service.transpile(circuit, backend=backend)

    lowered = benchmark(warm)
    assert lowered.instructions == reference.instructions
    assert service.stats()["transpiles"] == 1  # only the priming run
