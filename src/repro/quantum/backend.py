"""Backend abstraction: run circuits, get jobs, read results.

Mirrors the modern Qiskit primitive of ``backend.run(circuit, shots=...)``
returning a job whose ``result()`` exposes ``get_counts()``.  Backends with a
coupling map *reject* circuits that use uncoupled qubit pairs — generated code
must transpile first, reproducing a realistic failure mode of LLM-written
Qiskit programs.

``Backend.run`` is a compatibility shim over the unified execution subsystem
(:mod:`repro.quantum.execution`): it routes through the shared
:class:`~repro.quantum.execution.service.ExecutionService`, so legacy call
sites get the content-addressed result cache and its counters for free.  New
code should prefer ``get_backend(name)`` + ``service.run(...)``.
``Backend.execute_circuit``, the uncached single-circuit primitive, runs
:func:`repro.quantum.batchsim.run_circuit`, the one simulation engine.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from typing import TYPE_CHECKING

from repro.errors import BackendError
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.noise import NoiseModel
from repro.quantum.simulator import MAX_DENSE_QUBITS
from repro.quantum.topology import CouplingMap

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from repro.quantum.execution.jobs import ExecutionJob


class Result:
    """Execution results for one or more circuits."""

    def __init__(
        self,
        counts_list: list[dict[str, int]],
        memory_list: list[list[str] | None],
        backend_name: str,
        shots: int,
        seed: int | None,
    ) -> None:
        self._counts_list = counts_list
        self._memory_list = memory_list
        self.backend_name = backend_name
        self.shots = shots
        self.seed = seed
        self.success = True

    def get_counts(self, index: int = 0) -> dict[str, int]:
        """Counts for circuit ``index`` (bitstring -> frequency)."""
        try:
            return dict(self._counts_list[index])
        except IndexError as exc:
            raise BackendError(
                f"result has {len(self._counts_list)} circuit(s), "
                f"index {index} out of range"
            ) from exc

    def get_memory(self, index: int = 0) -> list[str]:
        """Per-shot bitstrings; requires ``memory=True`` at run time."""
        try:
            mem = self._memory_list[index]
        except IndexError as exc:
            raise BackendError(
                f"result has {len(self._memory_list)} circuit(s), "
                f"index {index} out of range"
            ) from exc
        if mem is None:
            raise BackendError("run with memory=True to record per-shot results")
        return list(mem)

    def get_probabilities(self, index: int = 0) -> dict[str, float]:
        counts = self.get_counts(index)
        total = sum(counts.values())
        return {k: v / total for k, v in counts.items()}

    def __repr__(self) -> str:
        return (
            f"Result(backend='{self.backend_name}', circuits="
            f"{len(self._counts_list)}, shots={self.shots})"
        )


class Backend:
    """Base class for simulated execution targets."""

    def __init__(
        self,
        name: str,
        num_qubits: int,
        coupling_map: CouplingMap | None = None,
        noise_model: NoiseModel | None = None,
        basis_gates: tuple[str, ...] | None = None,
        max_shots: int = 1_000_000,
        max_active_qubits: int = MAX_DENSE_QUBITS,
    ) -> None:
        self.name = name
        self.num_qubits = num_qubits
        self.coupling_map = coupling_map
        self.noise_model = noise_model
        self.basis_gates = basis_gates
        self.max_shots = max_shots
        #: Dense-simulation cap on *touched* qubits; device width may exceed
        #: it because transpiled circuits live on physical indices.
        self.max_active_qubits = max_active_qubits

    # -- validation ------------------------------------------------------------

    def _validate_circuit(self, circuit: QuantumCircuit) -> None:
        if not isinstance(circuit, QuantumCircuit):
            raise BackendError(
                f"backend.run expects a QuantumCircuit, got {type(circuit).__name__}"
            )
        touched = {q for inst in circuit for q in inst.qubits}
        # Only *touched* qubits are checked against the device width: a wide
        # declared register with no instructions (or instructions confined to
        # low indices) is executable anywhere, so an empty circuit must not
        # fall back to comparing its declared width against the device.
        if touched:
            highest = max(touched)
            if highest >= self.num_qubits:
                raise BackendError(
                    f"circuit uses qubit {highest} but backend "
                    f"'{self.name}' has {self.num_qubits} qubits"
                )
        if len(touched) > self.max_active_qubits:
            raise BackendError(
                f"backend '{self.name}' simulates at most "
                f"{self.max_active_qubits} active qubits densely; circuit "
                f"touches {len(touched)}"
            )
        if self.coupling_map is not None:
            for inst in circuit:
                if inst.name == "barrier" or len(inst.qubits) < 2:
                    continue
                for a, b in itertools.combinations(inst.qubits, 2):
                    if not self.coupling_map.are_coupled(a, b):
                        raise BackendError(
                            f"'{inst.name}' on qubits {inst.qubits} violates the "
                            f"coupling map of '{self.name}'; run "
                            "transpile(circuit, backend=...) first"
                        )
        if self.basis_gates is not None:
            for inst in circuit:
                if inst.name in ("measure", "reset", "barrier"):
                    continue
                if inst.name not in self.basis_gates:
                    raise BackendError(
                        f"gate '{inst.name}' is not in the basis "
                        f"{self.basis_gates} of '{self.name}'; run "
                        "transpile(circuit, backend=...) first"
                    )

    def validate_batch(
        self, circuits: Sequence[QuantumCircuit], shots: int
    ) -> None:
        """Validate a batch submission (used by the ExecutionService)."""
        if not circuits:
            raise BackendError("backend.run called with no circuits")
        if not 0 < shots <= self.max_shots:
            raise BackendError(
                f"shots must be in 1..{self.max_shots}, got {shots}"
            )
        for qc in circuits:
            self._validate_circuit(qc)

    # -- execution ----------------------------------------------------------------

    def execute_circuit(
        self,
        circuit: QuantumCircuit,
        shots: int,
        seed: int | None = None,
        memory: bool = False,
    ) -> tuple[dict[str, int], list[str] | None]:
        """Low-level single-circuit simulation (no validation, no caching).

        This is the primitive the :class:`ExecutionService` runs for a
        SERIAL unit; it hands the circuit and the backend's noise model to
        :func:`repro.quantum.batchsim.run_circuit`, the one simulation
        engine, and nothing else.
        """
        from repro.quantum.batchsim import run_circuit

        return run_circuit(circuit, shots, seed, self.noise_model, memory)

    def run(
        self,
        circuits: QuantumCircuit | Sequence[QuantumCircuit],
        shots: int = 1024,
        seed: int | None = None,
        memory: bool = False,
    ) -> "ExecutionJob":
        """Execute one circuit or a list of circuits; returns a finished job.

        Compatibility shim: delegates to the shared
        :class:`~repro.quantum.execution.service.ExecutionService`, so repeated
        deterministic runs are served from the result cache.  Validation
        errors raise here, exactly as before; the returned job is already
        finished.
        """
        from repro.quantum.execution.service import default_service

        return default_service().run(
            circuits, backend=self, shots=shots, seed=seed, memory=memory
        )

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name='{self.name}', qubits={self.num_qubits})"


#: Nominal width of simulators without a coupling map: any qubit index below
#: this is accepted as long as the touched-qubit count stays dense-simulable.
UNCONSTRAINED_WIDTH = 4096


class LocalSimulator(Backend):
    """Ideal, fully-connected statevector simulator (the default target)."""

    def __init__(self, noise_model: NoiseModel | None = None) -> None:
        super().__init__(
            name="local_simulator",
            num_qubits=UNCONSTRAINED_WIDTH,
            coupling_map=None,
            noise_model=noise_model,
        )


class NoisySimulator(Backend):
    """A simulator with an explicit noise model and optional connectivity."""

    def __init__(
        self,
        noise_model: NoiseModel,
        coupling_map: CouplingMap | None = None,
        name: str = "noisy_simulator",
        num_qubits: int | None = None,
    ) -> None:
        if num_qubits is None:
            num_qubits = (
                coupling_map.num_qubits
                if coupling_map is not None
                else UNCONSTRAINED_WIDTH
            )
        super().__init__(
            name=name,
            num_qubits=num_qubits,
            coupling_map=coupling_map,
            noise_model=noise_model,
        )


#: Published Brisbane-class calibration magnitudes (median values).
BRISBANE_1Q_ERROR = 2.5e-4
BRISBANE_2Q_ERROR = 7.5e-3
BRISBANE_READOUT_ERROR = 1.3e-2


class FakeBrisbane(Backend):
    """A 127-qubit Eagle-class device: heavy-hex coupling + calibrated noise.

    Dense simulation obviously cannot hold 127 qubits; the backend accepts
    circuits up to :data:`MAX_DENSE_QUBITS` wide and validates their layout
    against the first qubits of the heavy-hex map, which is how the paper's
    Figure-4(b) experiment uses the device (a 3-qubit Deutsch–Jozsa circuit
    placed on a Brisbane line).
    """

    def __init__(self) -> None:
        noise = NoiseModel.uniform_depolarizing(
            p_1q=BRISBANE_1Q_ERROR,
            p_2q=BRISBANE_2Q_ERROR,
            p_readout=BRISBANE_READOUT_ERROR,
        )
        super().__init__(
            name="fake_brisbane",
            num_qubits=127,
            coupling_map=CouplingMap.brisbane(),
            noise_model=noise,
            basis_gates=("id", "rz", "sx", "x", "cx", "measure", "reset", "barrier"),
        )


class FakeFalcon(Backend):
    """A 5-qubit Falcon-class device with T-shaped connectivity.

    Topology (matching IBM Lima/Belem): ``0-1, 1-2, 1-3, 3-4``.
    """

    def __init__(self) -> None:
        noise = NoiseModel.uniform_depolarizing(
            p_1q=3.0e-4, p_2q=1.0e-2, p_readout=2.0e-2
        )
        super().__init__(
            name="fake_falcon",
            num_qubits=5,
            coupling_map=CouplingMap([(0, 1), (1, 2), (1, 3), (3, 4)], name="falcon-t"),
            noise_model=noise,
            basis_gates=("id", "rz", "sx", "x", "cx", "measure", "reset", "barrier"),
        )
