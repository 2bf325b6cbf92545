"""Pauli string algebra.

A :class:`PauliString` is an n-qubit Pauli operator with a phase in
{+1, +i, -1, -i} tracked as an exponent of i (mod 4).  Qubit 0 is the first
character of the *internal* tuple; ``from_label`` accepts Qiskit-style labels
where the leftmost character is the highest-indexed qubit.

These are the building blocks for stabilizer codes: code definitions,
commutation checks, syndrome computation, and logical-operator bookkeeping all
reduce to PauliString operations.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from repro.errors import QECError

_PAULIS = ("I", "X", "Y", "Z")

# Single-qubit multiplication table: (a, b) -> (product, i-phase exponent).
# E.g. X*Y = iZ -> ("Z", 1); Y*X = -iZ -> ("Z", 3).
_MUL: dict[tuple[str, str], tuple[str, int]] = {
    ("I", "I"): ("I", 0), ("I", "X"): ("X", 0), ("I", "Y"): ("Y", 0), ("I", "Z"): ("Z", 0),
    ("X", "I"): ("X", 0), ("X", "X"): ("I", 0), ("X", "Y"): ("Z", 1), ("X", "Z"): ("Y", 3),
    ("Y", "I"): ("Y", 0), ("Y", "X"): ("Z", 3), ("Y", "Y"): ("I", 0), ("Y", "Z"): ("X", 1),
    ("Z", "I"): ("Z", 0), ("Z", "X"): ("Y", 1), ("Z", "Y"): ("X", 3), ("Z", "Z"): ("I", 0),
}


class PauliString:
    """An n-qubit Pauli operator with phase i^k."""

    __slots__ = ("paulis", "phase_exp")

    def __init__(self, paulis: Sequence[str], phase_exp: int = 0) -> None:
        paulis = tuple(p.upper() for p in paulis)
        for p in paulis:
            if p not in _PAULIS:
                raise QECError(f"invalid Pauli character '{p}'")
        self.paulis = paulis
        self.phase_exp = phase_exp % 4

    # -- constructors --------------------------------------------------------

    @classmethod
    def identity(cls, num_qubits: int) -> "PauliString":
        return cls(("I",) * num_qubits)

    @classmethod
    def from_label(cls, label: str) -> "PauliString":
        """Parse a Qiskit-style label like ``'-iXZI'`` (leftmost = qubit n-1)."""
        phase_exp = 0
        body = label
        if body.startswith("-i"):
            phase_exp, body = 3, body[2:]
        elif body.startswith("+i") or body.startswith("i"):
            phase_exp, body = 1, body.lstrip("+")[1:]
        elif body.startswith("-"):
            phase_exp, body = 2, body[1:]
        elif body.startswith("+"):
            body = body[1:]
        return cls(tuple(reversed(body)), phase_exp)

    @classmethod
    def single(cls, num_qubits: int, qubit: int, pauli: str) -> "PauliString":
        """A single Pauli on one qubit of an n-qubit identity."""
        if not 0 <= qubit < num_qubits:
            raise QECError(f"qubit {qubit} out of range for {num_qubits} qubits")
        paulis = ["I"] * num_qubits
        paulis[qubit] = pauli.upper()
        return cls(paulis)

    @classmethod
    def from_sparse(
        cls, num_qubits: int, entries: Iterable[tuple[int, str]]
    ) -> "PauliString":
        """Build from (qubit, pauli) pairs, e.g. ``[(0, 'X'), (3, 'X')]``."""
        paulis = ["I"] * num_qubits
        for qubit, pauli in entries:
            if not 0 <= qubit < num_qubits:
                raise QECError(f"qubit {qubit} out of range")
            if paulis[qubit] != "I":
                raise QECError(f"duplicate entry for qubit {qubit}")
            paulis[qubit] = pauli.upper()
        return cls(paulis)

    # -- properties -----------------------------------------------------------

    @property
    def num_qubits(self) -> int:
        return len(self.paulis)

    @property
    def weight(self) -> int:
        """Number of non-identity positions."""
        return sum(1 for p in self.paulis if p != "I")

    @property
    def phase(self) -> complex:
        return (1, 1j, -1, -1j)[self.phase_exp]

    def support(self) -> tuple[int, ...]:
        return tuple(q for q, p in enumerate(self.paulis) if p != "I")

    def x_bits(self) -> np.ndarray:
        """Boolean vector: positions carrying an X component (X or Y)."""
        return np.array([p in ("X", "Y") for p in self.paulis], dtype=bool)

    def z_bits(self) -> np.ndarray:
        """Boolean vector: positions carrying a Z component (Z or Y)."""
        return np.array([p in ("Z", "Y") for p in self.paulis], dtype=bool)

    # -- algebra ---------------------------------------------------------------

    def commutes_with(self, other: "PauliString") -> bool:
        """True when the operators commute (phases are irrelevant)."""
        if other.num_qubits != self.num_qubits:
            raise QECError("Pauli strings act on different qubit counts")
        anti = 0
        for a, b in zip(self.paulis, other.paulis):
            if a != "I" and b != "I" and a != b:
                anti += 1
        return anti % 2 == 0

    def __mul__(self, other: "PauliString") -> "PauliString":
        if other.num_qubits != self.num_qubits:
            raise QECError("Pauli strings act on different qubit counts")
        phase = self.phase_exp + other.phase_exp
        out = []
        for a, b in zip(self.paulis, other.paulis):
            prod, extra = _MUL[(a, b)]
            out.append(prod)
            phase += extra
        return PauliString(out, phase)

    def tensor(self, other: "PauliString") -> "PauliString":
        return PauliString(
            self.paulis + other.paulis, self.phase_exp + other.phase_exp
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PauliString):
            return NotImplemented
        return self.paulis == other.paulis and self.phase_exp == other.phase_exp

    def __hash__(self) -> int:
        return hash((self.paulis, self.phase_exp))

    def to_label(self) -> str:
        prefix = ("", "i", "-", "-i")[self.phase_exp]
        return prefix + "".join(reversed(self.paulis))

    def __repr__(self) -> str:
        return f"PauliString('{self.to_label()}')"


def syndrome_of(error: PauliString, checks: Sequence[PauliString]) -> tuple[int, ...]:
    """Syndrome bits: 1 where ``error`` anticommutes with a check."""
    return tuple(0 if error.commutes_with(c) else 1 for c in checks)
