"""Dense statevector representation and evolution.

States are flat complex vectors of length ``2**n`` in little-endian qubit
order: bit ``i`` of the basis index is qubit ``i``.  Bitstring keys returned by
:meth:`Statevector.probabilities_dict` put qubit 0 rightmost, matching Qiskit's
convention, so generated code graded against Qiskit-style references behaves
identically.  Evolution runs batchsim's loop, so states and shots agree.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Sequence

import numpy as np

from repro.errors import SimulationError
from repro.quantum.circuit import QuantumCircuit

_ATOL = 1e-10


class Statevector:
    """An immutable-by-convention dense quantum state."""

    def __init__(self, data: Sequence[complex] | np.ndarray) -> None:
        arr = np.asarray(data, dtype=np.complex128).reshape(-1)
        n = arr.size.bit_length() - 1
        if 2**n != arr.size:
            raise SimulationError(
                f"statevector length {arr.size} is not a power of two"
            )
        norm = np.linalg.norm(arr)
        if norm < _ATOL:
            raise SimulationError("statevector has zero norm")
        if abs(norm - 1.0) > 1e-8:
            arr = arr / norm
        self._data = arr
        self._num_qubits = n

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero_state(cls, num_qubits: int) -> "Statevector":
        data = np.zeros(2**num_qubits, dtype=np.complex128)
        data[0] = 1.0
        return cls(data)

    @classmethod
    def from_label(cls, label: str) -> "Statevector":
        """Build a product state from a label like ``'010'`` or ``'+-0'``.

        The leftmost character is the highest-indexed qubit (Qiskit order).
        Supported characters: ``0 1 + - r l`` (r/l are the ±i Y eigenstates).
        """
        single = {
            "0": np.array([1, 0], dtype=np.complex128),
            "1": np.array([0, 1], dtype=np.complex128),
            "+": np.array([1, 1], dtype=np.complex128) / math.sqrt(2),
            "-": np.array([1, -1], dtype=np.complex128) / math.sqrt(2),
            "r": np.array([1, 1j], dtype=np.complex128) / math.sqrt(2),
            "l": np.array([1, -1j], dtype=np.complex128) / math.sqrt(2),
        }
        state = np.array([1.0], dtype=np.complex128)
        for ch in label:  # leftmost char is the most significant qubit
            if ch not in single:
                raise SimulationError(f"unknown state label character '{ch}'")
            state = np.kron(state, single[ch])
        return cls(state)

    @classmethod
    def from_circuit(cls, circuit: QuantumCircuit) -> "Statevector":
        """Evolve |0...0> through a circuit's unitary instructions.

        Trailing measurements are ignored (they are the common
        ``measure_all`` idiom); mid-circuit measure/reset raise
        :class:`SimulationError` because the result would not be a pure state,
        and so does a classically conditioned gate.
        """
        trimmed = circuit.remove_final_measurements()
        for inst in trimmed:
            if inst.name in ("measure", "reset"):
                raise SimulationError(
                    "Statevector.from_circuit cannot simulate mid-circuit "
                    f"'{inst.name}'; use a backend with shots instead"
                )
        return cls.zero_state(circuit.num_qubits).evolve(trimmed)

    # -- properties -----------------------------------------------------------

    @property
    def data(self) -> np.ndarray:
        return self._data.copy()

    @property
    def num_qubits(self) -> int:
        return self._num_qubits

    def __len__(self) -> int:
        return self._data.size

    # -- evolution --------------------------------------------------------------

    def evolve(self, circuit: QuantumCircuit) -> "Statevector":
        """Return the state after applying every unitary instruction.

        Runs batchsim's evolution loop, the one ideal groups run, on a single
        row started from this state's amplitudes.
        """
        # batchsim imports this module at load time.
        from repro.quantum.batchsim.engine import evolve_rows

        if circuit.num_qubits != self._num_qubits:
            raise SimulationError(
                f"circuit acts on {circuit.num_qubits} qubits, state has "
                f"{self._num_qubits}"
            )
        return evolve_rows([circuit], self._data)[0]

    # -- measurement statistics ---------------------------------------------------

    def probabilities(self, qargs: Sequence[int] | None = None) -> np.ndarray:
        """Probability vector over all (or a subset of) qubits.

        With ``qargs`` the result is the marginal over those qubits, indexed
        little-endian in ``qargs`` order.
        """
        probs = np.abs(self._data) ** 2
        if qargs is None:
            return probs
        n = self._num_qubits
        if len(set(qargs)) != len(qargs) or not all(0 <= q < n for q in qargs):
            raise SimulationError(
                f"qargs {list(qargs)} must be distinct qubits of a {n}-qubit state"
            )
        if list(qargs) == list(range(n)):
            # Every outcome is a bin of its own, and bincount would return
            # each weight as 0.0 + weight: the probabilities themselves.
            return probs
        indices = np.arange(2**n)
        sub = np.zeros_like(indices)
        for pos, q in enumerate(qargs):
            sub |= ((indices >> q) & 1) << pos
        # bincount adds the weights in index order, one at a time, as
        # np.add.at does: the marginal is the same to the last bit.
        return np.bincount(sub, weights=probs, minlength=2 ** len(qargs))

    def probabilities_dict(
        self, qargs: Sequence[int] | None = None, atol: float = 1e-12
    ) -> dict[str, float]:
        qargs = list(qargs) if qargs is not None else list(range(self._num_qubits))
        probs = self.probabilities(qargs)
        width = len(qargs)
        return {
            format(i, f"0{width}b"): float(p)
            for i, p in enumerate(probs)
            if p > atol
        }

    def sample_counts(
        self, shots: int, rng: np.random.Generator, qargs: Sequence[int] | None = None
    ) -> dict[str, int]:
        """Sample measurement outcomes; returns bitstring -> count."""
        qargs = list(qargs) if qargs is not None else list(range(self._num_qubits))
        probs = self.probabilities(qargs)
        probs = probs / probs.sum()
        outcomes = rng.multinomial(shots, probs)
        width = len(qargs)
        return {
            format(i, f"0{width}b"): int(c)
            for i, c in enumerate(outcomes)
            if c > 0
        }

    # -- comparisons / algebra ----------------------------------------------------

    def inner(self, other: "Statevector") -> complex:
        """The inner product <self|other>."""
        if other.num_qubits != self._num_qubits:
            raise SimulationError("statevector sizes differ")
        return complex(np.vdot(self._data, other._data))

    def fidelity(self, other: "Statevector") -> float:
        return abs(self.inner(other)) ** 2

    def equiv(self, other: "Statevector", atol: float = 1e-8) -> bool:
        """True when the states are equal up to global phase."""
        return self.fidelity(other) > 1.0 - atol

    def expectation_value(self, pauli: str) -> float:
        """Expectation of a Pauli string like ``'ZZI'``.

        Leftmost character acts on the highest-indexed qubit (Qiskit order).
        """
        if len(pauli) != self._num_qubits:
            raise SimulationError(
                f"Pauli string length {len(pauli)} != {self._num_qubits} qubits"
            )
        paulis = QuantumCircuit(self._num_qubits)
        for pos, ch in enumerate(reversed(pauli.upper())):
            if ch not in "IXYZ":
                raise SimulationError(f"unknown Pauli character '{ch}'")
            if ch != "I":
                paulis.append(ch.lower(), [pos])
        return float(np.real(np.vdot(self._data, self.evolve(paulis)._data)))

    def global_phase_aligned(self) -> "Statevector":
        """Return the state with its first nonzero amplitude made real-positive."""
        idx = int(np.argmax(np.abs(self._data) > _ATOL))
        phase = cmath.phase(complex(self._data[idx]))
        return Statevector(self._data * cmath.exp(-1j * phase))

    def __repr__(self) -> str:
        return f"Statevector(num_qubits={self._num_qubits})"
