"""Agent #3 — the QEC decoder generation agent.

Paper Section III-A / IV-B: after code generation, this agent consumes the
target device topology, generates a surface-code decoder for it, and attaches
error correction to the program run.  "This is applied after the code has
been generated and does not alter its semantics, only applying a fixed set of
operations on the physical qubits immediately before measurement."

Mechanically (mirroring the paper's own Figure-4 methodology, which could not
apply corrections on IBM hardware either and *simulated* the corrected run):

1. generate the decoder for the device topology (or raise
   :class:`~repro.errors.TopologyError` for non-lattice devices unless the
   simulated-lattice fallback is enabled);
2. measure the decoder's logical-error suppression factor on a memory
   experiment at the device's physical error rate;
3. re-run the circuit on the device noise model *scaled by that factor* —
   "corresponding to the new error rate after QEC".
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.agents.base import Agent, AgentMessage
from repro.errors import TopologyError
from repro.qec.decoder_gen import GeneratedDecoder, generate_decoder
from repro.qec.experiments import qec_suppression_factor
from repro.quantum.backend import Backend, NoisySimulator
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.execution import default_service, resolve_backend


@dataclass
class QECApplication:
    """Everything the QEC agent produced for one program."""

    decoder: GeneratedDecoder
    suppression_factor: float
    physical_error_rate: float
    corrected_backend: Backend
    distance: int

    @property
    def lifetime_gain(self) -> float:
        """Average-qubit-lifetime extension factor (paper Section IV-B)."""
        return 1.0 / max(self.suppression_factor, 1e-9)


class QECAgent(Agent):
    """Generates decoders and produces QEC-corrected execution backends."""

    name = "qec"

    def __init__(
        self,
        distance: int = 3,
        decoder: str = "mwpm",
        rounds: int | None = None,
        shots: int = 200,
        seed: int = 7,
    ) -> None:
        self.distance = distance
        self.decoder_kind = decoder
        self.rounds = rounds
        self.shots = shots
        self.seed = seed

    # -- main API -----------------------------------------------------------------

    def apply(
        self,
        backend: Backend | str,
        allow_simulated_lattice: bool = True,
    ) -> QECApplication:
        """Generate a decoder for the backend's device and derive the
        QEC-corrected backend.

        ``backend`` may be a :class:`Backend` instance or a registry name
        (``"fake_brisbane"``, an alias, ...) resolved via
        :func:`repro.quantum.execution.get_backend`.

        Raises:
            TopologyError: when the device cannot host the surface code and
                the simulated-lattice fallback is disabled.
        """
        backend = resolve_backend(backend)
        if backend.coupling_map is None:
            raise TopologyError(
                f"backend '{backend.name}' has no coupling map; the QEC agent "
                "needs a physical device topology"
            )
        if backend.noise_model is None or backend.noise_model.is_trivial:
            raise TopologyError(
                f"backend '{backend.name}' is noiseless; QEC has nothing to "
                "correct"
            )
        generated = generate_decoder(
            backend.coupling_map,
            distance=self.distance,
            decoder=self.decoder_kind,
            allow_simulated_lattice=allow_simulated_lattice,
        )
        p_phys = self._physical_error_rate(backend)
        factor = qec_suppression_factor(
            generated.code,
            generated.decoder_x,
            p_data=p_phys,
            rounds=self.rounds,
            shots=self.shots,
            seed=self.seed,
        )
        corrected = NoisySimulator(
            noise_model=backend.noise_model.scaled(factor),
            coupling_map=backend.coupling_map,
            name=f"{backend.name}+qec(d={self.distance})",
            num_qubits=backend.num_qubits,
        )
        corrected.basis_gates = backend.basis_gates
        return QECApplication(
            decoder=generated,
            suppression_factor=factor,
            physical_error_rate=p_phys,
            corrected_backend=corrected,
            distance=self.distance,
        )

    def run_with_qec(
        self,
        circuit: QuantumCircuit,
        backend: Backend | str,
        shots: int = 1024,
        seed: int | None = None,
    ) -> tuple[dict[str, int], QECApplication]:
        """Convenience wrapper: apply QEC then run on the corrected backend."""
        application = self.apply(backend)
        job = default_service().run(
            circuit, backend=application.corrected_backend, shots=shots, seed=seed
        )
        return job.result().get_counts(), application

    def _physical_error_rate(self, backend: Backend) -> float:
        """Representative physical rate: the 2-qubit gate depolarizing p."""
        model = backend.noise_model
        assert model is not None
        channel = model.channel_for("cx", (0, 1))
        if channel is not None:
            return channel.error_probability
        channel = model.channel_for("x", (0,))
        if channel is not None:
            return channel.error_probability
        readout = model.readout_for(0)
        if readout is not None:
            return max(readout.p1_given_0, readout.p0_given_1)
        raise TopologyError("could not infer a physical error rate from the model")

    # -- message protocol ---------------------------------------------------------------

    def handle(self, message: AgentMessage) -> AgentMessage:
        backend = message.metadata.get("backend")
        if backend is None:
            raise TopologyError("QEC agent message needs metadata['backend']")
        application = self.apply(backend)
        return AgentMessage(
            sender=self.name,
            kind="qec",
            content=(
                f"decoder for {application.decoder.device_name}: suppression "
                f"{application.suppression_factor:.4f}, lifetime x"
                f"{application.lifetime_gain:.1f}"
            ),
            metadata={"application": application},
        )
