"""Reference implementations of the quantum algorithms in the paper's test
suite (Section III-B): basic circuits, the well-known intermediate algorithms
(Deutsch–Jozsa, Bernstein–Vazirani, Grover, QFT), and the advanced topics
(teleportation, quantum walk, annealing-style evolution, phase estimation).

These circuits serve two roles: they are the *reference answers* the
evaluation suite grades generated code against, and they are the templates the
simulated LLM's knowledge base synthesises from.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import CircuitError
from repro.quantum.circuit import QuantumCircuit


def bell_pair(measure: bool = False) -> QuantumCircuit:
    """The |Phi+> Bell state on two qubits."""
    qc = QuantumCircuit(2, 2 if measure else 0, name="bell")
    qc.h(0)
    qc.cx(0, 1)
    if measure:
        qc.measure([0, 1], [0, 1])
    return qc


def ghz_state(num_qubits: int, measure: bool = False) -> QuantumCircuit:
    """The n-qubit GHZ state (|0...0> + |1...1>)/sqrt(2)."""
    if num_qubits < 2:
        raise CircuitError("GHZ state needs at least 2 qubits")
    qc = QuantumCircuit(num_qubits, num_qubits if measure else 0, name="ghz")
    qc.h(0)
    for q in range(num_qubits - 1):
        qc.cx(q, q + 1)
    if measure:
        qc.measure(list(range(num_qubits)), list(range(num_qubits)))
    return qc


def qft(num_qubits: int, do_swaps: bool = True) -> QuantumCircuit:
    """Quantum Fourier transform.

    Convention matches Qiskit: qubit ``n-1`` is the most significant, and with
    ``do_swaps`` the output bit order equals the input order.
    """
    if num_qubits < 1:
        raise CircuitError("QFT needs at least 1 qubit")
    qc = QuantumCircuit(num_qubits, name=f"qft-{num_qubits}")
    for target in range(num_qubits - 1, -1, -1):
        qc.h(target)
        for control in range(target - 1, -1, -1):
            angle = math.pi / (2 ** (target - control))
            qc.cp(angle, control, target)
    if do_swaps:
        for q in range(num_qubits // 2):
            qc.swap(q, num_qubits - 1 - q)
    return qc


def inverse_qft(num_qubits: int, do_swaps: bool = True) -> QuantumCircuit:
    """Inverse quantum Fourier transform."""
    inv = qft(num_qubits, do_swaps).inverse()
    inv.name = f"iqft-{num_qubits}"
    return inv


def dj_oracle(num_qubits: int, kind: str, pattern: int | None = None) -> QuantumCircuit:
    """A Deutsch–Jozsa oracle on ``num_qubits`` inputs plus one ancilla.

    Args:
        kind: ``'constant0'`` (f=0), ``'constant1'`` (f=1) or ``'balanced'``.
        pattern: for balanced oracles, a nonzero bitmask b with
            f(x) = parity(x & b); defaults to all-ones.
    """
    oracle = QuantumCircuit(num_qubits + 1, name=f"dj-oracle-{kind}")
    if kind == "constant0":
        return oracle
    if kind == "constant1":
        oracle.x(num_qubits)
        return oracle
    if kind == "balanced":
        mask = pattern if pattern is not None else (1 << num_qubits) - 1
        if not 0 < mask < (1 << num_qubits):
            raise CircuitError(f"balanced oracle pattern {mask} out of range")
        for q in range(num_qubits):
            if (mask >> q) & 1:
                oracle.cx(q, num_qubits)
        return oracle
    raise CircuitError(f"unknown Deutsch-Jozsa oracle kind '{kind}'")


def deutsch_jozsa(
    num_qubits: int, kind: str = "balanced", pattern: int | None = None
) -> QuantumCircuit:
    """Full Deutsch–Jozsa circuit; measuring all zeros means f is constant."""
    qc = QuantumCircuit(num_qubits + 1, num_qubits, name=f"dj-{kind}")
    qc.x(num_qubits)
    for q in range(num_qubits + 1):
        qc.h(q)
    qc.compose(dj_oracle(num_qubits, kind, pattern))
    for q in range(num_qubits):
        qc.h(q)
    qc.measure(list(range(num_qubits)), list(range(num_qubits)))
    return qc


def bernstein_vazirani(secret: str) -> QuantumCircuit:
    """Bernstein–Vazirani: recover the secret string in one query.

    ``secret`` is a bitstring whose leftmost character is the highest-indexed
    qubit (Qiskit convention); the measured result equals ``secret``.
    """
    n = len(secret)
    if n == 0 or any(c not in "01" for c in secret):
        raise CircuitError(f"invalid secret bitstring '{secret}'")
    qc = QuantumCircuit(n + 1, n, name="bv")
    qc.x(n)
    for q in range(n + 1):
        qc.h(q)
    for q, bit in enumerate(reversed(secret)):
        if bit == "1":
            qc.cx(q, n)
    for q in range(n):
        qc.h(q)
    qc.measure(list(range(n)), list(range(n)))
    return qc


def _phase_flip_on(qc: QuantumCircuit, bitstring: str) -> None:
    """Apply a phase of -1 to one computational basis state (n = 1..3)."""
    n = qc.num_qubits
    zeros = [q for q in range(n) if bitstring[n - 1 - q] == "0"]
    for q in zeros:
        qc.x(q)
    if n == 1:
        qc.z(0)
    elif n == 2:
        qc.cz(0, 1)
    elif n == 3:
        qc.ccz(0, 1, 2)
    else:
        raise CircuitError("phase flip oracle supports 1..3 qubits")
    for q in zeros:
        qc.x(q)


def grover_oracle(num_qubits: int, marked: list[str]) -> QuantumCircuit:
    """Phase oracle flipping the sign of each marked basis state."""
    if not 1 <= num_qubits <= 3:
        raise CircuitError("grover_oracle supports 1..3 qubits")
    oracle = QuantumCircuit(num_qubits, name="grover-oracle")
    for state in marked:
        if len(state) != num_qubits or any(c not in "01" for c in state):
            raise CircuitError(f"invalid marked state '{state}'")
        _phase_flip_on(oracle, state)
    return oracle


def grover_diffuser(num_qubits: int) -> QuantumCircuit:
    """Inversion about the mean."""
    qc = QuantumCircuit(num_qubits, name="grover-diffuser")
    for q in range(num_qubits):
        qc.h(q)
    _phase_flip_on(qc, "0" * num_qubits)
    for q in range(num_qubits):
        qc.h(q)
    return qc


def grover(
    num_qubits: int, marked: list[str], iterations: int | None = None
) -> QuantumCircuit:
    """Grover search over ``num_qubits`` qubits for the marked states."""
    if not marked:
        raise CircuitError("grover needs at least one marked state")
    if iterations is None:
        n_states = 2**num_qubits
        angle = math.asin(math.sqrt(len(set(marked)) / n_states))
        iterations = max(1, int(round(math.pi / (4 * angle) - 0.5)))
    qc = QuantumCircuit(num_qubits, num_qubits, name="grover")
    for q in range(num_qubits):
        qc.h(q)
    oracle = grover_oracle(num_qubits, marked)
    diffuser = grover_diffuser(num_qubits)
    for _ in range(iterations):
        qc.compose(oracle)
        qc.compose(diffuser)
    qc.measure(list(range(num_qubits)), list(range(num_qubits)))
    return qc


def teleportation(
    theta: float = 1.0, phi: float = 0.5, lam: float = 0.0
) -> QuantumCircuit:
    """Quantum teleportation of the state U(theta, phi, lam)|0>.

    Qubit 0 holds the message, qubits 1-2 share a Bell pair; classical bits
    0-1 carry the Bell measurement and conditioned corrections restore the
    state on qubit 2, which is measured into classical bit 2.
    """
    qc = QuantumCircuit(3, 3, name="teleport")
    qc.u(theta, phi, lam, 0)
    qc.h(1)
    qc.cx(1, 2)
    qc.cx(0, 1)
    qc.h(0)
    qc.measure(0, 0)
    qc.measure(1, 1)
    qc.append("x", [2], condition=(1, 1))
    qc.append("z", [2], condition=(0, 1))
    qc.measure(2, 2)
    return qc


def superdense_coding(bits: str) -> QuantumCircuit:
    """Superdense coding of two classical bits over one Bell pair.

    ``bits`` is two characters, most significant first; the measurement
    result reproduces ``bits``.
    """
    if len(bits) != 2 or any(c not in "01" for c in bits):
        raise CircuitError(f"superdense coding needs 2 bits, got '{bits}'")
    qc = QuantumCircuit(2, 2, name="superdense")
    qc.h(0)
    qc.cx(0, 1)
    # Encoding on qubit 0: after Bell decoding, the X flip lands in clbit 1
    # (the displayed high bit) and the Z phase in clbit 0 (the low bit).
    if bits[0] == "1":
        qc.x(0)
    if bits[1] == "1":
        qc.z(0)
    qc.cx(0, 1)
    qc.h(0)
    qc.measure([0, 1], [0, 1])
    return qc


def phase_estimation(phase: float, num_counting: int = 3) -> QuantumCircuit:
    """Estimate ``phase`` of the eigenvalue e^{2 pi i phase} of a P gate.

    The target qubit is prepared in |1> (the P-gate eigenstate); counting
    qubits are measured and the most likely outcome is
    ``round(phase * 2**num_counting)``.
    """
    if num_counting < 1:
        raise CircuitError("phase estimation needs >= 1 counting qubit")
    n = num_counting
    qc = QuantumCircuit(n + 1, n, name="qpe")
    qc.x(n)
    for q in range(n):
        qc.h(q)
    for q in range(n):
        qc.cp(2 * math.pi * phase * (2**q), q, n)
    iqft = inverse_qft(n)
    qc.compose(iqft, qubits=list(range(n)))
    qc.measure(list(range(n)), list(range(n)))
    return qc


def quantum_walk_cycle(steps: int, measure: bool = True) -> QuantumCircuit:
    """Discrete-time quantum walk on a 4-cycle.

    Qubits 0-1 are the position register, qubit 2 the coin.  Each step
    applies a Hadamard coin flip, then a coin-controlled increment/decrement
    of the position modulo 4.
    """
    if steps < 1:
        raise CircuitError("quantum walk needs >= 1 step")
    qc = QuantumCircuit(3, 2 if measure else 0, name=f"qwalk-{steps}")
    coin, p0, p1 = 2, 0, 1
    for _ in range(steps):
        qc.h(coin)
        # coin = 1: position += 1 (mod 4)
        qc.ccx(coin, p0, p1)
        qc.cx(coin, p0)
        # coin = 0: position -= 1 (mod 4)
        qc.x(coin)
        qc.cx(coin, p0)
        qc.ccx(coin, p0, p1)
        qc.x(coin)
    if measure:
        qc.measure([p0, p1], [0, 1])
    return qc


def tfim_annealing(
    num_qubits: int,
    steps: int = 5,
    total_time: float = 2.0,
    coupling: float = 1.0,
    field: float = 1.0,
) -> QuantumCircuit:
    """Trotterized quantum-annealing schedule for a transverse-field Ising chain.

    Interpolates H(s) = (1-s) * field * sum X_i + s * coupling * sum Z_i Z_{i+1}
    over ``steps`` first-order Trotter slices, starting from the ground state
    of the driver (|+...+>).  This is the circuit-model analogue of quantum
    annealing referenced by the paper's advanced test tier.
    """
    if num_qubits < 2:
        raise CircuitError("annealing chain needs >= 2 qubits")
    if steps < 1:
        raise CircuitError("annealing needs >= 1 Trotter step")
    dt = total_time / steps
    qc = QuantumCircuit(num_qubits, num_qubits, name="tfim-anneal")
    for q in range(num_qubits):
        qc.h(q)
    for k in range(steps):
        s = (k + 1) / steps
        for q in range(num_qubits - 1):
            qc.rzz(2 * s * coupling * dt, q, q + 1)
        for q in range(num_qubits):
            qc.rx(2 * (1 - s) * field * dt, q)
    qc.measure(list(range(num_qubits)), list(range(num_qubits)))
    return qc


def random_circuit(
    num_qubits: int, depth: int, seed: int = 0, measure: bool = False
) -> QuantumCircuit:
    """A random circuit for fuzzing the simulator and transpiler."""
    if num_qubits < 1 or depth < 1:
        raise CircuitError("random circuit needs >= 1 qubit and depth")
    rng = np.random.default_rng(seed)
    one_q = ["h", "x", "y", "z", "s", "t", "sx"]
    qc = QuantumCircuit(num_qubits, num_qubits if measure else 0, name="random")
    for _ in range(depth):
        for q in range(num_qubits):
            choice = rng.random()
            if choice < 0.5:
                qc.append(str(rng.choice(one_q)), [q])
            elif choice < 0.7:
                qc.append(
                    str(rng.choice(["rx", "ry", "rz"])),
                    [q],
                    params=[float(rng.uniform(0, 2 * math.pi))],
                )
            elif num_qubits >= 2:
                partner = int(rng.integers(num_qubits))
                if partner != q:
                    qc.append(str(rng.choice(["cx", "cz"])), [q, partner])
    if measure:
        qc.measure(list(range(num_qubits)), list(range(num_qubits)))
    return qc


# The parameterized (variational) workload family — QAOA and the
# hardware-efficient ansatz — lives in :mod:`repro.quantum.variational`;
# re-exported here so this module stays the one-stop catalogue of reference
# circuits.  Unlike the builders above these return unbound templates: call
# ``.bind({...})`` (or hand them to ``repro.quantum.variational.minimize``)
# before execution.
from repro.quantum.variational.ansatz import (  # noqa: E402, F401
    hardware_efficient_ansatz,
    qaoa_ansatz,
)
