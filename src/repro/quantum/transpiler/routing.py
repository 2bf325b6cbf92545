"""Layout selection and SWAP routing against a coupling map.

The router is a greedy shortest-path inserter: for each two-qubit gate whose
operands are not adjacent on the device, it walks the logical qubit along the
shortest physical path (inserting SWAPs and permuting the layout) until the
pair is coupled.  This is the classic "basic swap" strategy — not optimal, but
deterministic and easy to reason about, which matters more here because routed
circuits feed noise experiments where gate count changes the error budget.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.errors import TranspilerError
from repro.quantum.circuit import Instruction, QuantumCircuit
from repro.quantum.topology import CouplingMap
from repro.utils.graphs import bfs


class Layout:
    """Bidirectional logical<->physical qubit mapping."""

    def __init__(self, logical_to_physical: dict[int, int]) -> None:
        self._l2p = dict(logical_to_physical)
        self._p2l = {p: l for l, p in self._l2p.items()}
        if len(self._p2l) != len(self._l2p):
            raise TranspilerError(f"layout is not injective: {logical_to_physical}")

    @classmethod
    def trivial(cls, num_qubits: int) -> "Layout":
        return cls({i: i for i in range(num_qubits)})

    @classmethod
    def from_sequence(cls, physical: Sequence[int]) -> "Layout":
        return cls({l: p for l, p in enumerate(physical)})

    def physical(self, logical: int) -> int:
        return self._l2p[logical]

    def logical(self, physical: int) -> int | None:
        return self._p2l.get(physical)

    def swap_physical(self, p1: int, p2: int) -> None:
        """Update the mapping after a SWAP on physical qubits p1, p2."""
        l1, l2 = self._p2l.get(p1), self._p2l.get(p2)
        if l1 is not None:
            self._l2p[l1] = p2
        if l2 is not None:
            self._l2p[l2] = p1
        self._p2l = {p: l for l, p in self._l2p.items()}

    def to_dict(self) -> dict[int, int]:
        return dict(self._l2p)

    def copy(self) -> "Layout":
        return Layout(self._l2p)


def dense_layout(circuit: QuantumCircuit, cmap: CouplingMap) -> Layout:
    """Pick physical qubits by BFS from the highest-degree device qubit.

    Keeps interacting logical qubits physically close without solving the
    full placement problem.  The search walks ``cmap.graph``, a copy, whose
    neighbour order can differ from the map's own.
    """
    n = circuit.num_qubits
    if n > cmap.num_qubits:
        raise TranspilerError(
            f"circuit needs {n} qubits, device has {cmap.num_qubits}"
        )
    graph = cmap.graph
    start = max(graph, key=lambda q: len(graph[q]))
    chosen = list(bfs(graph, start))[:n]
    if len(chosen) < n:
        raise TranspilerError("device graph is disconnected; cannot place circuit")
    # Assign the most-active logical qubits to the best-connected physical ones.
    activity = [0] * n
    for inst in circuit:
        if len(inst.qubits) >= 2:
            for q in inst.qubits:
                activity[q] += 1
    logical_order = sorted(range(n), key=lambda q: -activity[q])
    mapping = {l: p for l, p in zip(logical_order, chosen)}
    return Layout(mapping)


def route(
    instructions: list[Instruction],
    layout: Layout,
    cmap: CouplingMap,
) -> tuple[list[Instruction], Layout]:
    """Insert SWAPs so every 2-qubit gate acts on coupled physical qubits.

    Input instructions are on *logical* qubits; output instructions are on
    *physical* qubits.  Returns the routed list and the final layout.

    Raises:
        TranspilerError: for gates wider than 2 qubits (decompose first).
    """
    routed: list[Instruction] = []
    layout = layout.copy()
    for inst in instructions:
        if inst.name == "barrier":
            routed.append(
                Instruction("barrier", tuple(layout.physical(q) for q in inst.qubits))
            )
            continue
        if len(inst.qubits) > 2:
            raise TranspilerError(
                f"route() requires <= 2-qubit gates, got '{inst.name}' on "
                f"{len(inst.qubits)} qubits; run decomposition first"
            )
        if len(inst.qubits) == 2:
            a_log, b_log = inst.qubits
            a_phys, b_phys = layout.physical(a_log), layout.physical(b_log)
            if not cmap.are_coupled(a_phys, b_phys):
                path = cmap.shortest_path(a_phys, b_phys)
                # Walk qubit a along the path until adjacent to b.
                for step in path[1:-1]:
                    routed.append(Instruction("swap", (a_phys, step)))
                    layout.swap_physical(a_phys, step)
                    a_phys = step
        routed.append(
            Instruction(
                inst.name,
                tuple(layout.physical(q) for q in inst.qubits),
                inst.clbits,
                inst.params,
                inst.condition,
            )
        )
    return routed, layout
