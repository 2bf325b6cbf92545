"""Transpiler: ZYZ synthesis, decomposition correctness, routing, passes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import unitary_group

from repro.errors import TranspilerError
from repro.quantum.circuit import Instruction, QuantumCircuit
from repro.quantum.gates import GATE_SPECS, gate_matrix
from repro.quantum.statevector import Statevector
from repro.quantum.topology import CouplingMap
from repro.quantum.transpiler import (
    DEFAULT_BASIS,
    Layout,
    cancel_adjacent_inverses,
    decompose_to_basis,
    dense_layout,
    merge_rotations,
    optimize,
    route,
    transpile,
    zyz_angles,
)
from repro.quantum.library import ghz_state, grover, random_circuit
from tests.serial_engine import apply_matrix


class TestZYZ:
    @given(seed=st.integers(min_value=0, max_value=100_000))
    @settings(max_examples=60, deadline=None)
    def test_random_unitaries_roundtrip(self, seed):
        u = unitary_group.rvs(2, random_state=np.random.default_rng(seed))
        theta, phi, lam = zyz_angles(u)
        v = gate_matrix("u", (theta, phi, lam))
        ratio = u @ v.conj().T
        assert np.allclose(ratio, ratio[0, 0] * np.eye(2), atol=1e-8)

    @pytest.mark.parametrize("name", ["x", "y", "z", "h", "s", "t", "sx"])
    def test_named_gates_roundtrip(self, name):
        u = gate_matrix(name)
        theta, phi, lam = zyz_angles(u)
        v = gate_matrix("u", (theta, phi, lam))
        ratio = u @ v.conj().T
        assert np.allclose(ratio, ratio[0, 0] * np.eye(2), atol=1e-9)

    def test_identity_gives_zero_angles(self):
        theta, phi, lam = zyz_angles(np.eye(2))
        assert abs(theta) < 1e-9 and abs(phi + lam) < 1e-9

    def test_wrong_shape(self):
        with pytest.raises(TranspilerError):
            zyz_angles(np.eye(4))


def _sequence_equals_gate(seq, name, params, n):
    """Check an instruction sequence implements a gate up to global phase."""
    rng = np.random.default_rng(0)
    state = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    state /= np.linalg.norm(state)
    ref = apply_matrix(state, gate_matrix(name, params), list(range(n)), n)
    got = state
    for inst in seq:
        got = apply_matrix(got, gate_matrix(inst.name, inst.params), list(inst.qubits), n)
    return abs(np.vdot(ref, got)) > 1 - 1e-8


ALL_GATES = sorted({s.name for s in GATE_SPECS.values()})


class TestDecomposition:
    @pytest.mark.parametrize("name", ALL_GATES)
    @pytest.mark.parametrize("basis", [("u", "cx"), ("rz", "sx", "x", "cx")])
    def test_every_gate_into_both_bases(self, name, basis):
        spec = GATE_SPECS[name]
        params = tuple(0.41 * (i + 1) for i in range(spec.num_params))
        inst = Instruction(name, tuple(range(spec.num_qubits)), params=params)
        seq = decompose_to_basis([inst], basis)
        for out in seq:
            assert out.name in basis, f"{out.name} not in {basis}"
        assert _sequence_equals_gate(seq, name, params, spec.num_qubits)

    def test_basis_must_contain_cx(self):
        with pytest.raises(TranspilerError):
            decompose_to_basis([], ("u",))

    def test_measure_and_barrier_pass_through(self):
        insts = [
            Instruction("measure", (0,), (0,)),
            Instruction("barrier", (0, 1)),
        ]
        assert decompose_to_basis(insts, ("u", "cx")) == insts


class TestPasses:
    def test_cancel_self_inverse_pair(self):
        insts = [Instruction("h", (0,)), Instruction("h", (0,))]
        assert cancel_adjacent_inverses(insts) == []

    def test_cancel_hermitian_pair(self):
        insts = [Instruction("s", (0,)), Instruction("sdg", (0,))]
        assert cancel_adjacent_inverses(insts) == []

    def test_cancel_across_disjoint_wires(self):
        insts = [
            Instruction("h", (0,)),
            Instruction("x", (1,)),
            Instruction("h", (0,)),
        ]
        remaining = cancel_adjacent_inverses(insts)
        assert [i.name for i in remaining] == ["x"]

    def test_no_cancel_through_shared_wire(self):
        insts = [
            Instruction("h", (0,)),
            Instruction("cx", (0, 1)),
            Instruction("h", (0,)),
        ]
        assert len(cancel_adjacent_inverses(insts)) == 3

    def test_cascading_cancellation(self):
        insts = [
            Instruction("h", (0,)),
            Instruction("x", (0,)),
            Instruction("x", (0,)),
            Instruction("h", (0,)),
        ]
        assert cancel_adjacent_inverses(insts) == []

    def test_merge_rotations(self):
        insts = [
            Instruction("rz", (0,), params=(0.3,)),
            Instruction("rz", (0,), params=(0.4,)),
        ]
        merged = merge_rotations(insts)
        assert len(merged) == 1
        assert merged[0].params[0] == pytest.approx(0.7)

    def test_merge_to_identity_drops(self):
        insts = [
            Instruction("rz", (0,), params=(0.3,)),
            Instruction("rz", (0,), params=(-0.3,)),
        ]
        assert merge_rotations(insts) == []

    def test_zero_rotation_dropped(self):
        insts = [Instruction("rx", (0,), params=(0.0,))]
        assert merge_rotations(insts) == []

    def test_merge_partner_searched_once_per_instruction(self, monkeypatch):
        """Regression: the pass used to run the backwards partner search
        twice per mergeable instruction (once to test, once to use) —
        quadratic work doubled for nothing.  Pin the call count."""
        from repro.quantum.transpiler import passes

        calls = []
        real = passes._find_merge_partner
        monkeypatch.setattr(
            passes, "_find_merge_partner",
            lambda out, inst: calls.append(inst) or real(out, inst),
        )
        insts = [
            Instruction("rz", (0,), params=(0.3,)),
            Instruction("rz", (0,), params=(0.4,)),
            Instruction("cx", (0, 1)),
            Instruction("rz", (0,), params=(0.5,)),
        ]
        merged = merge_rotations(insts)
        # Eligible searches: the 2nd rz (out non-empty) and the 4th rz.
        # The 1st rz sees an empty ``out``; the cx is not mergeable.
        assert len(calls) == 2
        assert [i.name for i in merged] == ["rz", "cx", "rz"]

    def test_merge_rotations_output_unchanged_regression(self):
        """The single-search fix must not change what the pass emits: pin
        the exact output on streams covering every branch — merge, merge to
        identity, zero-angle drop, commuting past disjoint wires, blocked by
        a shared wire, and conditioned instructions left untouched."""
        stream = [
            Instruction("rz", (0,), params=(0.3,)),
            Instruction("x", (1,)),                      # disjoint: skipped over
            Instruction("rz", (0,), params=(0.4,)),      # merges -> rz(0.7)
            Instruction("cx", (0, 1)),                   # shared wire: blocks
            Instruction("rz", (0,), params=(0.5,)),
            Instruction("rz", (0,), params=(-0.5,)),     # merge to identity
            Instruction("rx", (1,), params=(0.0,)),      # zero angle: dropped
            Instruction("rz", (0,), params=(0.2,), condition=(0, 1)),
            Instruction("rz", (0,), params=(0.6,)),      # blocked by condition
        ]
        merged = merge_rotations(stream)
        assert [
            (i.name, i.qubits, i.params, i.condition) for i in merged
        ] == [
            # The merge lands at the *first* rotation's position, ahead of
            # the disjoint x it commuted past.
            ("rz", (0,), (pytest.approx(0.7),), None),
            ("x", (1,), (), None),
            ("cx", (0, 1), (), None),
            ("rz", (0,), (0.2,), (0, 1)),
            ("rz", (0,), (0.6,), None),
        ]

    def test_optimize_preserves_semantics(self):
        qc = random_circuit(3, depth=10, seed=4)
        before = Statevector.from_circuit(qc)
        optimized = optimize(qc.instructions, level=2)
        qc2 = qc.copy_empty()
        qc2._instructions = optimized
        after = Statevector.from_circuit(qc2)
        assert before.equiv(after)


class TestLayoutAndRouting:
    def test_trivial_layout(self):
        layout = Layout.trivial(3)
        assert layout.physical(2) == 2

    def test_layout_not_injective(self):
        with pytest.raises(TranspilerError):
            Layout({0: 1, 1: 1})

    def test_swap_updates_mapping(self):
        layout = Layout.trivial(2)
        layout.swap_physical(0, 1)
        assert layout.physical(0) == 1
        assert layout.physical(1) == 0

    def test_route_inserts_swaps_on_linear_chain(self):
        cmap = CouplingMap.linear(3)
        insts = [Instruction("cx", (0, 2))]
        routed, final = route(insts, Layout.trivial(3), cmap)
        names = [i.name for i in routed]
        assert "swap" in names
        for inst in routed:
            if len(inst.qubits) == 2:
                assert cmap.are_coupled(*inst.qubits)

    def test_route_rejects_three_qubit_gates(self):
        cmap = CouplingMap.linear(3)
        with pytest.raises(TranspilerError):
            route([Instruction("ccx", (0, 1, 2))], Layout.trivial(3), cmap)

    def test_dense_layout_places_all(self):
        qc = ghz_state(4)
        layout = dense_layout(qc, CouplingMap.grid(3, 3))
        placed = {layout.physical(q) for q in range(4)}
        assert len(placed) == 4


class TestTranspile:
    def test_no_coupling_map_keeps_width(self):
        qc = ghz_state(3, measure=True)
        out = transpile(qc, basis_gates=DEFAULT_BASIS)
        assert out.num_qubits == 3
        for inst in out:
            if inst.name not in ("measure", "barrier", "reset"):
                assert inst.name in DEFAULT_BASIS

    def test_semantics_preserved_through_routing(self, simulator):
        qc = grover(3, ["101"])
        cmap = CouplingMap.linear(5)
        out = transpile(qc, coupling_map=cmap)
        counts = simulator.run(out, shots=2000, seed=5).result().get_counts()
        assert max(counts, key=counts.get) == "101"

    def test_layout_metadata_recorded(self):
        qc = ghz_state(3, measure=True)
        out = transpile(qc, coupling_map=CouplingMap.grid(2, 2))
        assert set(out.metadata["layout"].keys()) == {0, 1, 2}
        assert "final_layout" in out.metadata

    def test_explicit_initial_layout(self):
        qc = QuantumCircuit(2, 2)
        qc.cx(0, 1)
        qc.measure([0, 1], [0, 1])
        out = transpile(qc, coupling_map=CouplingMap.linear(4), initial_layout=[3, 2])
        assert out.metadata["layout"] == {0: 3, 1: 2}

    def test_initial_layout_length_mismatch(self):
        qc = QuantumCircuit(2)
        with pytest.raises(TranspilerError):
            transpile(qc, coupling_map=CouplingMap.linear(4), initial_layout=[0])

    def test_initial_layout_out_of_device(self):
        qc = QuantumCircuit(2)
        qc.cx(0, 1)
        with pytest.raises(TranspilerError, match="outside the device"):
            transpile(qc, coupling_map=CouplingMap.linear(4), initial_layout=[0, 9])

    def test_circuit_larger_than_device(self):
        qc = QuantumCircuit(5)
        qc.h(0)
        with pytest.raises(TranspilerError):
            transpile(qc, coupling_map=CouplingMap.linear(3))

    def test_optimization_level_zero_skips_peephole(self):
        qc = QuantumCircuit(1)
        qc.h(0)
        qc.h(0)
        out0 = transpile(qc, basis_gates=("h", "cx"), optimization_level=0)
        out1 = transpile(qc, basis_gates=("h", "cx"), optimization_level=1)
        assert out0.size() == 2
        assert out1.size() == 0
