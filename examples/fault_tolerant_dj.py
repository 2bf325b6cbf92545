"""Fault-tolerant Deutsch-Jozsa: the paper's Figure-4 scenario as a script.

Generates the DJ circuit, runs it on the noisy Brisbane-class device, asks
the QEC agent for a decoder, and compares the measurement histograms before
and after error correction — including the decoder trace on a sampled
syndrome (Figure 2's view of the same machinery).

Run:  python examples/fault_tolerant_dj.py
"""

import numpy as np

from repro.agents import QECAgent
from repro.qec.syndrome import sample_memory
from repro.quantum import default_service, get_backend, transpile
from repro.quantum.library import deutsch_jozsa
from repro.utils.tables import format_histogram

SHOTS = 4096
SEED = 9


def main() -> None:
    backend = get_backend("fake_brisbane")
    service = default_service()
    circuit = deutsch_jozsa(3, "constant0")
    transpiled = transpile(circuit, backend=backend)
    print(f"DJ constant oracle: {circuit.size()} ops -> "
          f"{transpiled.size()} after transpilation for {backend.name}")

    noisy = (
        service.run(transpiled, backend=backend, shots=SHOTS, seed=SEED)
        .result()
        .get_counts()
    )
    print()
    print(format_histogram(noisy, title="(b) noisy Brisbane run — expect |000>"))

    agent = QECAgent(distance=3, shots=300, seed=SEED)
    application = agent.apply(backend, allow_simulated_lattice=True)
    print(
        f"\nQEC agent: d={application.distance} surface code, physical error "
        f"rate {application.physical_error_rate:.4f}, suppression factor "
        f"{application.suppression_factor:.3f} "
        f"(lifetime x{application.lifetime_gain:.1f})"
    )

    # A peek inside the decoder (Figure 2): one noisy syndrome history.
    code = application.decoder.code
    history = sample_memory(
        code, rounds=3, p_data=application.physical_error_rate * 4,
        p_meas=application.physical_error_rate * 4,
        rng=np.random.default_rng(SEED), error_type="x",
    )
    result = application.decoder.decoder_x.decode(history)
    print(
        f"sampled syndrome: {len(history.detection_events)} detection events "
        f"-> corrections on data qubits "
        f"{sorted(int(q) for q in np.flatnonzero(result.correction))}"
    )

    corrected = (
        service.run(
            transpiled,
            backend=application.corrected_backend,
            shots=SHOTS,
            seed=SEED,
        )
        .result()
        .get_counts()
    )
    print()
    print(format_histogram(corrected, title="(c) after QEC corrections"))

    p_before = noisy.get("000", 0) / SHOTS
    p_after = corrected.get("000", 0) / SHOTS
    print(
        f"\nP(|000>): {p_before:.3f} -> {p_after:.3f}  "
        f"(error mass shrank {(p_after - p_before) / (1 - p_before):.0%})"
    )


if __name__ == "__main__":
    main()
