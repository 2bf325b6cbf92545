"""Bit-identity of the PassManager pipeline against the pre-refactor transpile.

``_legacy_transpile`` below is a pinned, verbatim copy of the monolithic
``transpile()`` body this repo shipped before the pass-manager refactor
(plus the pre-existing ``optimize()`` level semantics, which are unchanged).
The refactor's acceptance criterion is that the new pipeline produces
bit-identical circuits for every optimization level; the one sanctioned
difference is the explicit ``DropBarriers`` pass (level >= 1), whose
counts-parity is proven separately — barriers draw nothing in either
sampler, noisy or ideal.
"""

import math

import pytest

from repro.errors import TranspilerError
from repro.quantum import library
from repro.quantum.analysis import circuit_facts, structural_errors
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.execution import ExecutionService, get_backend
from repro.quantum.topology import CouplingMap
from repro.quantum.transpiler import (
    DEFAULT_BASIS,
    Layout,
    decompose_to_basis,
    dense_layout,
    drop_barriers,
    optimize,
    route,
    transpile_core,
)


def _legacy_transpile(
    circuit,
    backend=None,
    coupling_map=None,
    basis_gates=None,
    initial_layout=None,
    optimization_level=1,
):
    """The pre-refactor pipeline, pinned (including its missing
    ``final_layout`` on the no-coupling-map path)."""
    facts = circuit_facts(circuit)
    if facts.structurally_defective:
        first = structural_errors(facts)[0]
        raise TranspilerError(
            f"circuit is structurally defective: [{first.code}] {first.message}"
        )
    if backend is not None:
        if coupling_map is None:
            coupling_map = backend.coupling_map
        if basis_gates is None:
            basis_gates = backend.basis_gates
    basis = tuple(basis_gates) if basis_gates is not None else DEFAULT_BASIS

    instructions = decompose_to_basis(circuit.instructions, basis)

    if coupling_map is None:
        out = QuantumCircuit(
            circuit.num_qubits, circuit.num_clbits, name=f"{circuit.name}_t"
        )
        out._instructions = optimize(instructions, optimization_level)
        out.metadata = dict(circuit.metadata)
        out.metadata["layout"] = {i: i for i in range(circuit.num_qubits)}
        return out

    if circuit.num_qubits > coupling_map.num_qubits:
        raise TranspilerError(
            f"circuit needs {circuit.num_qubits} qubits, coupling map has "
            f"{coupling_map.num_qubits}"
        )
    if initial_layout is not None:
        if len(initial_layout) != circuit.num_qubits:
            raise TranspilerError(
                f"initial_layout has {len(initial_layout)} entries for a "
                f"{circuit.num_qubits}-qubit circuit"
            )
        for phys in initial_layout:
            if not 0 <= phys < coupling_map.num_qubits:
                raise TranspilerError(
                    f"initial_layout entry {phys} is outside the device "
                    f"(0..{coupling_map.num_qubits - 1})"
                )
        layout = Layout.from_sequence(list(initial_layout))
    else:
        layout = dense_layout(circuit, coupling_map)

    routed, final_layout = route(instructions, layout, coupling_map)
    routed = decompose_to_basis(routed, basis)
    routed = optimize(routed, optimization_level)

    out = QuantumCircuit(
        coupling_map.num_qubits, circuit.num_clbits, name=f"{circuit.name}_t"
    )
    out._instructions = routed
    out.metadata = dict(circuit.metadata)
    out.metadata["layout"] = layout.to_dict()
    out.metadata["final_layout"] = final_layout.to_dict()
    return out


def _new_transpile(circuit, backend=None, coupling_map=None, basis_gates=None,
                   initial_layout=None, optimization_level=1):
    """The refactored core, resolved the same way the service does."""
    from repro.quantum.transpiler import resolve_lowering

    coupling_map, basis = resolve_lowering(backend, coupling_map, basis_gates)
    return transpile_core(
        circuit, coupling_map, basis, initial_layout, optimization_level
    )


def _measure_interleaved():
    qc = QuantumCircuit(2, 2, name="interleaved")
    qc.rz(0.4, 0)
    qc.rz(0.6, 0)
    qc.h(1)
    qc.measure(0, 0)
    qc.rx(0.3, 0)
    qc.rx(-0.3, 0)
    qc.measure(1, 1)
    return qc


def _conditioned():
    qc = QuantumCircuit(2, 2, name="conditioned")
    qc.h(0)
    qc.measure(0, 0)
    qc.append("x", [1], condition=(0, 1))
    qc.append("rz", [1], params=(0.25,), condition=(0, 1))
    qc.measure(1, 1)
    return qc


def _barrier_circuit():
    qc = QuantumCircuit(3, 3, name="barriered")
    qc.h(0)
    qc.barrier()
    qc.cx(0, 1)
    qc.barrier(0, 1)
    qc.cx(1, 2)
    qc.rz(0.7, 2)
    qc.barrier()
    qc.rz(-0.7, 2)
    qc.measure_all()
    return qc


BARRIER_FREE = [
    library.ghz_state(3, measure=True),
    library.qft(3),
    library.grover(3, ["101"]),
    library.bell_pair(measure=True),
    _measure_interleaved(),
    _conditioned(),
]

TARGETS = [
    dict(),
    dict(coupling_map=CouplingMap.linear(5)),
    dict(backend="fake_falcon"),
    dict(coupling_map=CouplingMap.linear(5), initial_layout=[4, 3, 2]),
    dict(basis_gates=("u", "cx")),
]


def _resolve_target(target: dict) -> dict:
    resolved = dict(target)
    if isinstance(resolved.get("backend"), str):
        resolved["backend"] = get_backend(resolved["backend"])
    return resolved


class TestBitIdentityWithLegacy:
    @pytest.mark.parametrize("level", [0, 1, 2])
    @pytest.mark.parametrize("target_index", range(len(TARGETS)))
    @pytest.mark.parametrize(
        "circuit", BARRIER_FREE, ids=lambda c: c.name
    )
    def test_barrier_free_circuits_identical(
        self, circuit, target_index, level
    ):
        target = _resolve_target(TARGETS[target_index])
        if (
            "initial_layout" in target
            and len(target["initial_layout"]) != circuit.num_qubits
        ):
            pytest.skip("layout width does not match this circuit")
        old = _legacy_transpile(circuit, optimization_level=level, **target)
        new = _new_transpile(circuit, optimization_level=level, **target)
        assert new.instructions == old.instructions
        assert new.num_qubits == old.num_qubits
        assert new.num_clbits == old.num_clbits
        assert new.name == old.name
        assert new.metadata["layout"] == old.metadata["layout"]
        if "final_layout" in old.metadata:
            assert new.metadata["final_layout"] == old.metadata["final_layout"]
        else:
            # The satellite fix: the no-coupling-map path now records the
            # identity final layout instead of omitting the key.
            assert new.metadata["final_layout"] == {
                i: i for i in range(circuit.num_qubits)
            }

    def test_level_zero_keeps_barriers_identically(self):
        qc = _barrier_circuit()
        old = _legacy_transpile(qc, optimization_level=0)
        new = _new_transpile(qc, optimization_level=0)
        assert new.instructions == old.instructions
        assert any(i.name == "barrier" for i in new.instructions)

    @pytest.mark.parametrize("level", [1, 2])
    def test_drop_barriers_is_the_only_divergence(self, level):
        qc = _barrier_circuit()
        old = _legacy_transpile(qc, optimization_level=level)
        new = _new_transpile(qc, optimization_level=level)
        assert all(i.name != "barrier" for i in new.instructions)
        # Stripping barriers from the legacy stream and re-running its own
        # peephole stack reproduces the new stream exactly.
        relegacy = _legacy_transpile(qc, optimization_level=level)
        stripped = [i for i in relegacy.instructions if i.name != "barrier"]
        assert new.instructions == optimize(stripped, level)
        assert old.metadata["layout"] == new.metadata["layout"]

    @pytest.mark.parametrize("message", [
        "outside the device",
        "entries for a",
        "coupling map has",
    ])
    def test_error_messages_match_legacy(self, message):
        qc = library.ghz_state(3, measure=True)
        cases = {
            "outside the device": dict(
                coupling_map=CouplingMap.linear(5), initial_layout=[0, 1, 9]
            ),
            "entries for a": dict(
                coupling_map=CouplingMap.linear(5), initial_layout=[0, 1]
            ),
            "coupling map has": dict(coupling_map=CouplingMap.linear(2)),
        }
        kwargs = cases[message]
        with pytest.raises(TranspilerError, match=message) as old_err:
            _legacy_transpile(qc, **kwargs)
        with pytest.raises(TranspilerError, match=message) as new_err:
            _new_transpile(qc, **kwargs)
        assert str(new_err.value) == str(old_err.value)


class TestObservationalEquivalence:
    """Transpiled output is observationally equivalent to its input:
    bit-identical counts under a fixed seed, across optimization levels,
    on the serial engine and through the (batching) execution service."""

    @pytest.fixture(params=["serial", "service"])
    def sample(self, request, serial_reference):
        """``sample(circuit, shots, seed, backend=None) -> counts``."""

        def run(qc, shots, seed, backend=None):
            if request.param == "serial":
                return serial_reference(backend, [qc], shots, seed)[0][0]
            # A fresh service per call, so every circuit is simulated.
            return ExecutionService().run(
                qc, backend=backend, shots=shots, seed=seed
            ).result().get_counts()

        return run

    @pytest.mark.parametrize(
        "circuit",
        [c for c in BARRIER_FREE if c.num_clbits],
        ids=lambda c: c.name,
    )
    def test_counts_match_input_across_levels(self, sample, circuit):
        reference = sample(circuit, 512, 77)
        for level in (0, 1, 2):
            lowered = _new_transpile(circuit, optimization_level=level)
            counts = sample(lowered, 512, 77)
            assert counts == reference, f"level {level} diverged"

    def test_routed_counts_match_across_levels(self, sample):
        circuit = library.grover(3, ["101"])
        cmap = CouplingMap.linear(5)
        baseline = None
        for level in (0, 1, 2):
            lowered = _new_transpile(
                circuit, coupling_map=cmap, optimization_level=level
            )
            counts = sample(lowered, 512, 5)
            if baseline is None:
                baseline = counts
            else:
                assert counts == baseline, f"level {level} diverged"

    def test_barrier_drop_preserves_noisy_counts(self, sample):
        """Barriers draw nothing — even per-instruction noise trajectories
        are unchanged when they disappear, so counts stay bit-identical.

        The comparison isolates exactly the barrier removal: the same
        level-0 lowering with and without its barrier directives (level 1
        would *also* let rotations cancel across the former boundaries,
        which legitimately changes the noise-draw schedule).
        """
        qc = _barrier_circuit()
        backend = get_backend("fake_falcon")
        kept = _new_transpile(qc, optimization_level=0)
        assert any(i.name == "barrier" for i in kept.instructions)
        dropped = QuantumCircuit(
            kept.num_qubits, kept.num_clbits, name=kept.name
        )
        dropped._instructions = drop_barriers(kept.instructions)
        dropped.metadata = dict(kept.metadata)
        assert all(i.name != "barrier" for i in dropped.instructions)
        counts_kept = sample(kept, 400, 13, backend)
        counts_dropped = sample(dropped, 400, 13, backend)
        assert counts_kept == counts_dropped

    @pytest.mark.parametrize("seed", range(8))
    def test_fuzzed_circuits_counts_match_across_levels(self, sample, seed):
        """Seed-fuzzed circuits (random 1q/2q gate soup): every level's
        lowering samples bit-identical counts to the raw circuit."""
        circuit = library.random_circuit(3, depth=8, seed=seed, measure=True)
        reference = sample(circuit, 256, seed)
        for level in (0, 1, 2):
            lowered = _new_transpile(circuit, optimization_level=level)
            counts = sample(lowered, 256, seed)
            assert counts == reference, f"seed {seed} level {level} diverged"

    def test_conditioned_rotation_merge_respects_conditions(self):
        qc = _conditioned()
        for level in (0, 1, 2):
            lowered = _new_transpile(qc, optimization_level=level)
            conditioned = [
                i for i in lowered.instructions if i.condition is not None
            ]
            assert conditioned, "conditions must survive transpilation"
            assert all(i.condition == (0, 1) for i in conditioned)


def test_mergeable_rotations_actually_merge():
    qc = QuantumCircuit(1, 1, name="merge")
    qc.rz(0.5, 0)
    qc.rz(0.25, 0)
    qc.measure(0, 0)
    lowered = _new_transpile(qc, basis_gates=("rz", "sx", "cx"))
    rz_angles = [
        i.params[0] for i in lowered.instructions if i.name == "rz"
    ]
    assert rz_angles == [pytest.approx(0.75)]
    assert math.isclose(rz_angles[0], 0.75)
