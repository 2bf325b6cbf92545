"""Dense statevector representation and evolution.

States are flat complex vectors of length ``2**n`` in little-endian qubit
order: bit ``i`` of the basis index is qubit ``i``.  Bitstring keys returned by
:meth:`Statevector.probabilities_dict` put qubit 0 rightmost, matching Qiskit's
convention, so generated code graded against Qiskit-style references behaves
identically.
"""

from __future__ import annotations

import cmath
import functools
import math
from collections.abc import Sequence

import numpy as np

from repro.errors import SimulationError
from repro.quantum.circuit import QuantumCircuit

_ATOL = 1e-10


def apply_matrix(
    state: np.ndarray,
    matrix: np.ndarray,
    targets: Sequence[int],
    num_qubits: int,
) -> np.ndarray:
    """Apply a ``2^k x 2^k`` unitary to ``targets`` of an ``n``-qubit state.

    The matrix convention is little-endian in instruction order: the *first*
    qubit in ``targets`` is the least-significant bit of the matrix index.
    Returns a new flat state vector.
    """
    k = len(targets)
    if matrix.shape != (2**k, 2**k):
        raise SimulationError(
            f"matrix shape {matrix.shape} does not match {k} target qubit(s)"
        )
    forward, inverse = _axis_orders(tuple(targets), num_qubits, 0)
    tensor = state.reshape([2] * num_qubits).transpose(forward)
    mat_view = matrix @ tensor.reshape(2**k, -1)
    return mat_view.reshape([2] * num_qubits).transpose(inverse).reshape(-1)


@functools.lru_cache(maxsize=1024)
def _axis_orders(
    targets: tuple[int, ...], num_qubits: int, lead: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """``(forward, inverse)`` transpose orders for a gate on ``targets``.

    The tensor has ``lead`` batch axes, then one axis per qubit: axis
    ``lead + j`` is qubit ``num_qubits - 1 - j``.  The row index after
    ``reshape(2**k, -1)`` treats the first axis after the batch axes as its
    MSB, and the matrices treat ``targets[0]`` as the LSB, so ``forward``
    moves the *reversed* target axes right behind the batch axes and keeps
    every other axis in order; ``inverse`` puts them back.  That is the
    permutation a move-axes call derives, so the view, the GEMM shape and
    every output bit are unchanged; caching it saves re-deriving it on each
    gate, which cost more than the small matmuls themselves.
    """
    src_axes = tuple(lead + num_qubits - 1 - t for t in reversed(targets))
    rest = tuple(a for a in range(lead, lead + num_qubits) if a not in src_axes)
    forward = tuple(range(lead)) + src_axes + rest
    inverse = [0] * len(forward)
    for position, axis in enumerate(forward):
        inverse[axis] = position
    return forward, tuple(inverse)


class Statevector:
    """An immutable-by-convention dense quantum state."""

    def __init__(self, data: Sequence[complex] | np.ndarray) -> None:
        arr = np.asarray(data, dtype=np.complex128).reshape(-1)
        n = int(round(math.log2(arr.size)))
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
        :class:`SimulationError` because the result would not be a pure state.
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
        """Return the state after applying every unitary instruction."""
        if circuit.num_qubits != self._num_qubits:
            raise SimulationError(
                f"circuit acts on {circuit.num_qubits} qubits, state has "
                f"{self._num_qubits}"
            )
        state = self._data.copy()
        for inst in circuit:
            if inst.name == "barrier":
                continue
            if not inst.is_unitary:
                raise SimulationError(
                    f"evolve() only handles unitary gates, found '{inst.name}'"
                )
            state = apply_matrix(state, inst.matrix(), inst.qubits, self._num_qubits)
        return Statevector(state)

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
        from repro.quantum import gates as _g

        if len(pauli) != self._num_qubits:
            raise SimulationError(
                f"Pauli string length {len(pauli)} != {self._num_qubits} qubits"
            )
        mats = {"I": _g.I_MATRIX, "X": _g.X_MATRIX, "Y": _g.Y_MATRIX, "Z": _g.Z_MATRIX}
        state = self._data.copy()
        for pos, ch in enumerate(reversed(pauli.upper())):
            if ch not in mats:
                raise SimulationError(f"unknown Pauli character '{ch}'")
            if ch != "I":
                state = apply_matrix(state, mats[ch], [pos], self._num_qubits)
        return float(np.real(np.vdot(self._data, state)))

    def global_phase_aligned(self) -> "Statevector":
        """Return the state with its first nonzero amplitude made real-positive."""
        idx = int(np.argmax(np.abs(self._data) > _ATOL))
        phase = cmath.phase(complex(self._data[idx]))
        return Statevector(self._data * cmath.exp(-1j * phase))

    def __repr__(self) -> str:
        return f"Statevector(num_qubits={self._num_qubits})"
