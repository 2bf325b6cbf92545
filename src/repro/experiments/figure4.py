"""Figure 4 — QEC on the constant Deutsch-Jozsa oracle.

Paper: "Figure 4 shows an example of the constant Deutsch-Jozsa oracle under
a quantum noise environment, with and without the use of our framework.  We
expect the circuit to yield the |000> state...  Due to the fact that we
cannot directly alter physical qubits on IBM devices with corrections, we
simulated our results for (c) using a lower error probability than IBM
Brisbane, corresponding to the new error rate after QEC."

Reproduction:

* (a) the generated decoder's correction behaviour (suppression factor from a
  memory experiment at Brisbane's physical error rate);
* (b) the DJ circuit transpiled and run on FakeBrisbane's noise model;
* (c) the same circuit run with every error probability scaled by the QEC
  suppression factor — exactly the paper's methodology.
"""

from __future__ import annotations

from repro.agents.qec_agent import QECAgent
from repro.experiments.common import ExperimentResult
from repro.quantum.execution import default_service, get_backend
from repro.quantum.library import deutsch_jozsa
from repro.quantum.transpiler import transpile
from repro.utils.tables import format_histogram

EXPECTED = "000"


def _probability(counts: dict[str, int], key: str) -> float:
    total = sum(counts.values())
    return counts.get(key, 0) / total if total else 0.0


def run(
    num_qubits: int = 3,
    shots: int = 4096,
    seed: int = 9,
    distance: int = 3,
) -> ExperimentResult:
    experiment = ExperimentResult(
        "figure4", "QEC on the constant Deutsch-Jozsa oracle (FakeBrisbane)"
    )
    backend = get_backend("fake_brisbane")
    service = default_service()
    circuit = deutsch_jozsa(num_qubits, "constant0")

    # Content-addressed transpile stage: a repeat of this driver (same
    # process or a warm disk cache) performs zero transpiles.  The result
    # holds no execution counters, which depend on the cache tier;
    # `repro report` prints the service's ledger on stdout.
    transpiled = transpile(circuit, backend=backend)
    # (b) noisy device run.
    noisy_counts = (
        service.run(transpiled, backend=backend, shots=shots, seed=seed)
        .result()
        .get_counts()
    )

    # (a) + (c): the QEC agent generates the decoder and corrected backend.
    agent = QECAgent(distance=distance, shots=300, seed=seed)
    application = agent.apply(backend, allow_simulated_lattice=True)
    corrected_counts = (
        service.run(
            transpiled,
            backend=application.corrected_backend,
            shots=shots,
            seed=seed,
        )
        .result()
        .get_counts()
    )
    p_corrected = _probability(corrected_counts, EXPECTED)
    p_noisy = _probability(noisy_counts, EXPECTED)

    experiment.add(
        "P(|000>) on noisy Brisbane (b)", None, 100.0 * p_noisy,
        note=f"{shots} shots",
    )
    experiment.add(
        "P(|000>) after QEC corrections (c)", None, 100.0 * p_corrected,
        note=f"noise scaled x{application.suppression_factor:.3f}",
    )
    experiment.add(
        "error probability reduction", None,
        100.0 * ((1 - p_noisy) - (1 - p_corrected)) / max(1e-9, 1 - p_noisy),
        note="relative shrink of non-|000> mass",
    )
    experiment.add(
        "average qubit lifetime gain", None, application.lifetime_gain,
        unit="x", note=f"d={distance} surface code via MWPM",
    )
    experiment.extras.append(
        "(a) decoder generated for topology 'brisbane' "
        f"(simulated lattice fallback: {application.decoder.simulated_lattice}; "
        "heavy-hex is not a fully-connected lattice — paper Section V-E)."
    )
    experiment.extras.append(
        format_histogram(noisy_counts, title="(b) noisy Brisbane counts")
    )
    experiment.extras.append(
        format_histogram(corrected_counts, title="(c) QEC-corrected counts")
    )
    return experiment


def main() -> None:
    print(run().render())


if __name__ == "__main__":
    main()
