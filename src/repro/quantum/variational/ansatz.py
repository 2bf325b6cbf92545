"""Parameterized ansatz builders (QAOA and hardware-efficient).

Both builders return *templates*: circuits whose rotation angles are
:class:`~repro.quantum.parameters.Parameter` symbols, discovered in a stable
first-appearance order by ``circuit.parameters``.  Bind a mapping to get a
concrete executable point; a whole sweep of bindings shares one structure
fingerprint and so one batch-planner group.  Transpiling a bound point
lowers its template once only where the template lowers symbolically: the
default and fake-device bases resynthesise ``rx``/``ry``, which needs
concrete angles, so there each point is lowered on its own.

Modeled on qiskit-terra's ``QAOAAnsatz``/``EfficientSU2`` shapes, reduced to
this SDK's gate set: the QAOA cost layer uses ``rzz`` per edge and the mixer
``rx`` per qubit; the hardware-efficient form alternates ``ry`` rotation
layers with a linear ``cx`` entangling chain.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

from repro.errors import CircuitError
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.parameters import Parameter

Edge = tuple[int, int]


def _check_edges(num_qubits: int, edges: Sequence[Edge]) -> tuple[Edge, ...]:
    out: list[Edge] = []
    for edge in edges:
        try:
            a, b = edge
        except (TypeError, ValueError) as exc:
            raise CircuitError(f"edge {edge!r} is not a pair") from exc
        a, b = int(a), int(b)
        if a == b:
            raise CircuitError(f"self-loop edge ({a}, {b}) in graph")
        if not (0 <= a < num_qubits and 0 <= b < num_qubits):
            raise CircuitError(
                f"edge ({a}, {b}) out of range for {num_qubits} qubit(s)"
            )
        out.append((a, b))
    if not out:
        raise CircuitError("graph has no edges")
    return tuple(out)


def qaoa_ansatz(
    num_qubits: int,
    edges: Sequence[Edge],
    reps: int = 1,
    measure: bool = True,
) -> QuantumCircuit:
    """The QAOA ansatz for a MaxCut-style graph problem.

    Layer ``k`` applies the cost unitary ``rzz(gamma_k)`` on every edge, then
    the mixer ``rx(beta_k)`` on every qubit, over a uniform-superposition
    start.  Parameters are ``gamma_0, beta_0, gamma_1, beta_1, ...`` in
    discovery order.
    """
    if num_qubits < 2:
        raise CircuitError("QAOA ansatz needs at least 2 qubits")
    if reps < 1:
        raise CircuitError(f"reps must be >= 1, got {reps}")
    edges = _check_edges(num_qubits, edges)
    qc = QuantumCircuit(
        num_qubits, num_qubits if measure else 0, name=f"qaoa-{num_qubits}q-p{reps}"
    )
    for q in range(num_qubits):
        qc.h(q)
    for k in range(reps):
        gamma = Parameter(f"gamma_{k}")
        beta = Parameter(f"beta_{k}")
        for a, b in edges:
            qc.rzz(gamma, a, b)
        for q in range(num_qubits):
            qc.rx(beta, q)
    if measure:
        qc.measure(list(range(num_qubits)), list(range(num_qubits)))
    return qc


def hardware_efficient_ansatz(
    num_qubits: int,
    reps: int = 2,
    measure: bool = True,
) -> QuantumCircuit:
    """Alternating ``ry`` rotation layers and a linear ``cx`` chain.

    ``reps`` entangling blocks sit between ``reps + 1`` rotation layers;
    parameters are ``theta_<layer>_<qubit>`` in discovery order, so the
    template has ``(reps + 1) * num_qubits`` independent angles.
    """
    if num_qubits < 1:
        raise CircuitError("ansatz needs at least 1 qubit")
    if reps < 0:
        raise CircuitError(f"reps must be >= 0, got {reps}")
    qc = QuantumCircuit(
        num_qubits, num_qubits if measure else 0, name=f"hea-{num_qubits}q-r{reps}"
    )
    for layer in range(reps + 1):
        for q in range(num_qubits):
            qc.ry(Parameter(f"theta_{layer}_{q}"), q)
        if layer < reps:
            for q in range(num_qubits - 1):
                qc.cx(q, q + 1)
    if measure:
        qc.measure(list(range(num_qubits)), list(range(num_qubits)))
    return qc


def maxcut_cut_size(bits: str, edges: Sequence[Edge]) -> int:
    """Number of cut edges for one measured bitstring.

    ``bits`` uses the counts-key convention: clbit ``c`` (= qubit ``c`` after
    ``measure_all``-style wiring) is the character at position
    ``len(bits) - 1 - c`` (clbit 0 rightmost).
    """
    width = len(bits)
    cut = 0
    for a, b in edges:
        if bits[width - 1 - a] != bits[width - 1 - b]:
            cut += 1
    return cut


def maxcut_energy(edges: Sequence[Edge]) -> Callable[[dict[str, int]], float]:
    """The MaxCut objective as an energy over measured counts.

    Returns ``counts -> -E[cut size]`` (negated so *minimizing* the energy
    maximizes the expected cut), suitable for
    :func:`repro.quantum.variational.optimize.minimize`.
    """
    frozen = tuple((int(a), int(b)) for a, b in edges)

    def energy(counts: dict[str, int]) -> float:
        total = sum(counts.values())
        if total == 0:
            raise CircuitError("empty counts; cannot evaluate energy")
        acc = 0.0
        for bits, hits in counts.items():
            acc += hits * maxcut_cut_size(bits, frozen)
        return -acc / total

    return energy
