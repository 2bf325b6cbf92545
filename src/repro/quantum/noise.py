"""Noise channels and noise models for Monte-Carlo trajectory simulation.

The noisy simulator runs one trajectory per shot: after each gate, the noise
model may inject a Pauli (or damping) operation on the touched qubits, and each
measurement may flip its recorded bit.  This is the standard stochastic
unravelling of Pauli channels and is exactly how the paper's Figure-4
experiment treats device noise (per-gate depolarizing + readout error for IBM
Brisbane, then a reduced effective rate after QEC).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class PauliNoise:
    """A stochastic Pauli channel on one qubit.

    Attributes map Pauli label -> probability; the identity fires with the
    remaining probability mass.
    """

    p_x: float = 0.0
    p_y: float = 0.0
    p_z: float = 0.0

    def __post_init__(self) -> None:
        total = self.p_x + self.p_y + self.p_z
        if min(self.p_x, self.p_y, self.p_z) < 0 or total > 1.0 + 1e-12:
            raise ValueError(f"invalid Pauli channel probabilities {self}")

    @classmethod
    def depolarizing(cls, p: float) -> "PauliNoise":
        """Single-qubit depolarizing channel with error probability ``p``."""
        return cls(p / 3, p / 3, p / 3)

    @classmethod
    def bit_flip(cls, p: float) -> "PauliNoise":
        return cls(p_x=p)

    @classmethod
    def phase_flip(cls, p: float) -> "PauliNoise":
        return cls(p_z=p)

    @property
    def error_probability(self) -> float:
        return self.p_x + self.p_y + self.p_z

    def sample(self, rng: np.random.Generator) -> str | None:
        """Draw one Pauli ('x'|'y'|'z') or None for identity."""
        r = rng.random()
        if r < self.p_x:
            return "x"
        if r < self.p_x + self.p_y:
            return "y"
        if r < self.p_x + self.p_y + self.p_z:
            return "z"
        return None

    def scaled(self, factor: float) -> "PauliNoise":
        """Return the channel with all error probabilities multiplied."""
        return PauliNoise(self.p_x * factor, self.p_y * factor, self.p_z * factor)


@dataclass(frozen=True)
class ReadoutError:
    """Classical readout confusion: P(read 1|state 0) and P(read 0|state 1)."""

    p1_given_0: float = 0.0
    p0_given_1: float = 0.0

    @classmethod
    def symmetric(cls, p: float) -> "ReadoutError":
        return cls(p, p)

    def apply(self, bit: int, rng: np.random.Generator) -> int:
        flip_p = self.p1_given_0 if bit == 0 else self.p0_given_1
        if rng.random() < flip_p:
            return 1 - bit
        return bit

    def apply_rows(self, bits: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
        """:meth:`apply` per row, ``uniforms[s]`` being the draw for ``bits[s]``."""
        flip_p = np.where(bits == 0, self.p1_given_0, self.p0_given_1)
        return np.where(uniforms < flip_p, 1 - bits, bits)


@dataclass
class NoiseModel:
    """Maps instruction names (and optionally qubits) to error channels.

    Channel lookup order for a gate on qubits ``qs``:

    1. a channel registered for ``(name, qs)`` exactly,
    2. a channel registered for ``name`` on all qubits,
    3. no noise.

    Two-or-more-qubit gates apply the sampled channel *independently per
    touched qubit*, the standard approximation for trajectory simulators.
    """

    _all_qubit: dict[str, PauliNoise] = field(default_factory=dict)
    _local: dict[tuple[str, tuple[int, ...]], PauliNoise] = field(default_factory=dict)
    readout: ReadoutError | None = None
    #: readout error per specific qubit; falls back to `readout`.
    _local_readout: dict[int, ReadoutError] = field(default_factory=dict)

    def add_all_qubit_error(self, noise: PauliNoise, gate_names: list[str] | str) -> None:
        names = [gate_names] if isinstance(gate_names, str) else list(gate_names)
        for name in names:
            self._all_qubit[name.lower()] = noise

    def add_local_error(
        self, noise: PauliNoise, gate_name: str, qubits: list[int]
    ) -> None:
        self._local[(gate_name.lower(), tuple(qubits))] = noise

    def add_readout_error(self, error: ReadoutError, qubit: int | None = None) -> None:
        if qubit is None:
            self.readout = error
        else:
            self._local_readout[int(qubit)] = error

    def channel_for(self, name: str, qubits: tuple[int, ...]) -> PauliNoise | None:
        local = self._local.get((name.lower(), qubits))
        if local is not None:
            return local
        return self._all_qubit.get(name.lower())

    def readout_for(self, qubit: int) -> ReadoutError | None:
        return self._local_readout.get(qubit, self.readout)

    def fingerprint(self) -> str:
        """Stable content hash of every channel in the model.

        Used by the execution result cache: two backends with byte-identical
        noise (e.g. repeated ``FakeBrisbane()`` constructions) share cache
        entries, while a scaled model (QEC-corrected backends) never collides
        with its parent.
        """
        from repro.utils.rng import stable_hash

        payload = (
            tuple(sorted(self._all_qubit.items())),
            tuple(sorted(self._local.items())),
            self.readout,
            tuple(sorted(self._local_readout.items())),
        )
        return f"{stable_hash('noise', payload):016x}"

    @property
    def is_trivial(self) -> bool:
        return (
            not self._all_qubit
            and not self._local
            and self.readout is None
            and not self._local_readout
        )

    def scaled(self, factor: float) -> "NoiseModel":
        """Return a copy with every error probability multiplied by ``factor``.

        This is how the Figure-4(c) experiment models the effect of QEC: the
        decoder's logical error rate divided by the physical rate gives the
        suppression factor applied to the device noise model.
        """
        out = NoiseModel()
        out._all_qubit = {k: v.scaled(factor) for k, v in self._all_qubit.items()}
        out._local = {k: v.scaled(factor) for k, v in self._local.items()}
        if self.readout is not None:
            out.readout = ReadoutError(
                self.readout.p1_given_0 * factor, self.readout.p0_given_1 * factor
            )
        out._local_readout = {
            q: ReadoutError(e.p1_given_0 * factor, e.p0_given_1 * factor)
            for q, e in self._local_readout.items()
        }
        return out

    @classmethod
    def uniform_depolarizing(
        cls,
        p_1q: float,
        p_2q: float,
        p_readout: float = 0.0,
        one_qubit_gates: tuple[str, ...] = (
            "id", "x", "y", "z", "h", "s", "sdg", "t", "tdg", "sx", "sxdg",
            "rx", "ry", "rz", "p", "u",
        ),
        two_qubit_gates: tuple[str, ...] = (
            "cx", "cy", "cz", "ch", "csx", "swap", "iswap", "crx", "cry",
            "crz", "cp", "rxx", "ryy", "rzz",
        ),
    ) -> "NoiseModel":
        """Standard device-style model: depolarizing on gates + readout error."""
        model = cls()
        if p_1q > 0:
            model.add_all_qubit_error(PauliNoise.depolarizing(p_1q), list(one_qubit_gates))
        if p_2q > 0:
            model.add_all_qubit_error(PauliNoise.depolarizing(p_2q), list(two_qubit_gates))
        if p_readout > 0:
            model.readout = ReadoutError.symmetric(p_readout)
        return model
