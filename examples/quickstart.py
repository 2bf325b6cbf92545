"""Quickstart: the three layers of the library in ~60 lines.

1. the quantum SDK (circuits, simulators, devices),
2. the multi-agent code-generation pipeline,
3. the QEC agent attaching error correction to a run.

Run:  python examples/quickstart.py
"""

from repro.agents import Orchestrator, QECAgent
from repro.llm import make_model, synthesize
from repro.quantum import QuantumCircuit, default_service, get_backend, transpile
from repro.utils.tables import format_histogram


def layer_1_quantum_sdk() -> None:
    print("=" * 70)
    print("Layer 1: the quantum SDK")
    qc = QuantumCircuit(2, 2)
    qc.h(0)
    qc.cx(0, 1)
    qc.measure([0, 1], [0, 1])
    service = default_service()
    job = service.run(qc, backend=get_backend("ideal"), shots=1000, seed=7)
    print(format_histogram(
        job.result().get_counts(), title="Bell pair on the ideal simulator"
    ))

    backend = get_backend("fake_brisbane")
    tqc = transpile(qc, backend=backend)
    noisy = service.run(tqc, backend=backend, shots=1000, seed=7)
    print(format_histogram(
        noisy.result().get_counts(), title="Same circuit on noisy FakeBrisbane"
    ))


def layer_2_multi_agent() -> None:
    print("=" * 70)
    print("Layer 2: multi-agent code generation (generate -> analyze -> repair)")
    orchestrator = Orchestrator(
        model=make_model(fine_tuned=True, prompt_style="scot"), max_passes=3
    )
    reference = synthesize("bell", {}, "correct")
    artifact = orchestrator.run_episode(
        "Create a Bell state (the Phi+ EPR pair) on two qubits, measure both "
        "qubits, and run the circuit on a simulator.",
        reference_code=reference,
        seed=3,
    )
    print("Episode transcript:")
    print(artifact.log.render())
    print(f"\nAccepted: {artifact.accepted} "
          f"(passes used: {artifact.refinement.passes_used})")
    print("Final generated program:")
    print(artifact.code)


def layer_3_qec() -> None:
    print("=" * 70)
    print("Layer 3: the QEC agent (decoder generation + corrected execution)")
    backend = get_backend("fake_brisbane")
    agent = QECAgent(distance=3, shots=200)
    application = agent.apply(backend, allow_simulated_lattice=True)
    print(
        f"Generated a distance-3 surface-code decoder for '{backend.name}'.\n"
        f"Noise suppression factor: {application.suppression_factor:.3f} "
        f"(average qubit lifetime x{application.lifetime_gain:.1f})."
    )
    stats = default_service().stats()
    print(
        f"\nExecution service saw all of the above: "
        f"{stats.get('simulations', 0)} simulations, "
        f"{stats.get('cache_hits', 0)} cache hits — including the QEC "
        "memory experiment, which runs on the 'qec_memory' backend.\n"
        "Tip: set REPRO_CACHE_DIR=.repro-cache (or pass "
        "ExecutionService(cache_dir=...)) and a second run of this script "
        "is served from the persistent cache with zero simulations."
    )


if __name__ == "__main__":
    layer_1_quantum_sdk()
    layer_2_multi_agent()
    layer_3_qec()
