"""Unit coverage for the static circuit analysis subsystem.

Facts extraction (one walk, no matrices), coded diagnostics, the cheap
``structural_errors`` subset, and the execution service's pre-flight
(``validate="off"|"warn"|"strict"``).
"""

import warnings

import pytest

from repro.errors import (
    BackendError,
    SimulationError,
    TranspilerError,
    ValidationError,
)
from repro.quantum import batchsim
from repro.quantum.analysis import (
    DIAGNOSTIC_CODES,
    ERROR,
    INFO,
    WARNING,
    CircuitAnalysis,
    Diagnostic,
    analyze_circuit,
    circuit_facts,
    structural_errors,
    structure_fingerprint,
)
from repro.quantum.circuit import Instruction, QuantumCircuit
from repro.quantum.execution import (
    VALIDATE_MODES,
    ExecutionService,
    stats_scope,
    validate_from_env,
)
from repro.quantum.noise import NoiseModel
from repro.quantum.simulator import trajectory_draw_plan
from repro.quantum.transpiler import transpile


def bell() -> QuantumCircuit:
    qc = QuantumCircuit(2, 2)
    qc.h(0)
    qc.cx(0, 1)
    qc.measure([0, 1], [0, 1])
    return qc


def bad_qubit_circuit() -> QuantumCircuit:
    """QA101: a gate referencing qubit 5 of a 2-qubit circuit (builder
    bypassed — the public API refuses to construct this)."""
    qc = QuantumCircuit(2, 2)
    qc.h(0)
    qc._instructions.append(Instruction("x", (5,)))
    return qc


def dangling_conditional_circuit() -> QuantumCircuit:
    """QA102: a conditional on a clbit no measurement ever writes."""
    qc = QuantumCircuit(2, 2)
    qc.h(0)
    qc.append("x", [1], condition=(0, 1))
    return qc


def bad_clbit_circuit() -> QuantumCircuit:
    """QA103: a measurement into clbit 7 of a 2-clbit circuit."""
    qc = QuantumCircuit(2, 2)
    qc.h(0)
    qc._instructions.append(Instruction("measure", (0,), (7,)))
    return qc


def unknown_gate_circuit() -> QuantumCircuit:
    """QA104: an instruction whose gate has no registered matrix."""
    qc = QuantumCircuit(1, 1)
    qc._instructions.append(Instruction("bogus", (0,)))
    qc.measure(0, 0)
    return qc


# ---------------------------------------------------------------------------
# CircuitFacts


class TestCircuitFacts:
    def test_mirrors_circuit_accessors(self):
        qc = bell()
        facts = circuit_facts(qc)
        assert facts.num_qubits == qc.num_qubits
        assert facts.num_clbits == qc.num_clbits
        assert facts.num_instructions == len(qc)
        assert facts.size == qc.size()
        assert facts.depth == qc.depth()
        assert facts.gate_counts == {"h": 1, "cx": 1, "measure": 2}

    def test_depth_matches_on_wire_structures(self):
        qc = QuantumCircuit(3, 3)
        qc.h(0)
        qc.cx(0, 1)
        qc.barrier()
        qc.measure(0, 0)
        qc.append("x", [2], condition=(0, 1))
        qc.measure([1, 2], [1, 2])
        assert circuit_facts(qc).depth == qc.depth()

    def test_dataflow_sets(self):
        qc = QuantumCircuit(4, 3)
        qc.h(0)
        qc.measure(0, 1)
        qc.append("x", [1], condition=(1, 1))
        facts = circuit_facts(qc)
        assert facts.touched_qubits == {0, 1}
        assert facts.measured_qubits == {0}
        assert facts.written_clbits == {1}
        assert facts.read_clbits == {1}
        assert facts.unused_qubits == (2, 3)
        assert facts.num_conditionals == 1
        assert not facts.structurally_defective

    def test_empty_circuit(self):
        facts = circuit_facts(QuantumCircuit(3))
        assert facts.depth == 0 and facts.size == 0
        assert facts.unused_qubits == (0, 1, 2)
        assert not facts.has_measurements

    def test_gates_after_measure_recorded(self):
        qc = QuantumCircuit(2, 2)
        qc.h(0)
        qc.measure(0, 0)
        qc.x(0)
        facts = circuit_facts(qc)
        assert facts.gates_after_measure == ((2, 0),)
        assert not facts.is_fast_path(None)

    def test_fast_path_and_trajectory_eligibility(self):
        facts = circuit_facts(bell())
        assert facts.is_fast_path(None)
        assert facts.is_fast_path(NoiseModel())  # trivial noise
        noisy = NoiseModel.uniform_depolarizing(
            p_1q=1e-3, p_2q=1e-2, p_readout=1e-2
        )
        assert not facts.is_fast_path(noisy)
        # Trajectory eligibility is the draw plan's call: it depends on the
        # noise model, so it is not a fact of the circuit alone.
        assert trajectory_draw_plan(bell(), noisy) == [1, 2, 2, 2]
        assert trajectory_draw_plan(dangling_conditional_circuit(), noisy) is None

    def test_reset_disqualifies_fast_path(self):
        qc = QuantumCircuit(1, 1)
        qc.h(0)
        qc.reset(0)
        qc.measure(0, 0)
        facts = circuit_facts(qc)
        assert facts.has_reset and not facts.is_fast_path(None)
        # Resets don't block trajectories.
        assert trajectory_draw_plan(qc, None) == [0, 1, 1]

    def test_defect_records(self):
        assert circuit_facts(bad_qubit_circuit()).bad_qubit_refs == ((1, 5),)
        assert circuit_facts(bad_clbit_circuit()).bad_clbit_writes == ((1, 7),)
        reads = circuit_facts(dangling_conditional_circuit()).conditional_reads
        assert len(reads) == 1
        read = reads[0]
        assert (read.index, read.clbit, read.value) == (1, 0, 1)
        assert not read.written_before
        for builder in (
            bad_qubit_circuit, dangling_conditional_circuit, bad_clbit_circuit
        ):
            assert circuit_facts(builder()).structurally_defective

    def test_conditional_after_write_is_not_dangling(self):
        qc = QuantumCircuit(2, 2)
        qc.h(0)
        qc.measure(0, 0)
        qc.append("x", [1], condition=(0, 1))
        facts = circuit_facts(qc)
        assert facts.conditional_reads[0].written_before
        assert facts.never_written_reads == ()
        assert not facts.structurally_defective

    def test_fingerprint_opt_in(self):
        qc = bell()
        assert circuit_facts(qc).structure_fingerprint is None
        fact_fp = circuit_facts(qc, fingerprint=True).structure_fingerprint
        assert fact_fp == structure_fingerprint(qc)

    def test_fingerprint_parameter_invariant_structure_sensitive(self):
        def rotated(angle):
            qc = QuantumCircuit(1, 1)
            qc.rx(angle, 0)
            qc.measure(0, 0)
            return qc

        assert structure_fingerprint(rotated(0.1)) == structure_fingerprint(
            rotated(2.9)
        )
        other = QuantumCircuit(1, 1)
        other.h(0)
        other.measure(0, 0)
        assert structure_fingerprint(other) != structure_fingerprint(
            rotated(0.1)
        )


# ---------------------------------------------------------------------------
# Diagnostics


class TestDiagnostics:
    def test_code_table_banding(self):
        for code, (severity, description) in DIAGNOSTIC_CODES.items():
            assert severity == {"1": ERROR, "2": WARNING, "3": INFO}[code[2]]
            assert description
        assert set(DIAGNOSTIC_CODES) == {
            "QA101", "QA102", "QA103", "QA104", "QA105",
            "QA201", "QA202", "QA203", "QA204", "QA301",
        }

    def test_render_eq_hash(self):
        d = Diagnostic("QA101", 3, "qubit 5 out of range")
        assert d.render() == "QA101 error      @3  qubit 5 out of range"
        assert d.is_error
        assert d == Diagnostic("QA101", 3, "qubit 5 out of range")
        assert d != Diagnostic("QA101", 4, "qubit 5 out of range")
        assert len({d, Diagnostic("QA101", 3, "qubit 5 out of range")}) == 1
        assert "QA101" in repr(d)
        assert Diagnostic("QA301", None, "stats").render().startswith(
            "QA301 info       @-"
        )

    def test_unknown_code_rejected(self):
        with pytest.raises(KeyError):
            Diagnostic("QA999", None, "nope")

    def test_structural_errors_per_code(self):
        assert [
            d.code for d in structural_errors(circuit_facts(bad_qubit_circuit()))
        ] == ["QA101"]
        assert [
            d.code
            for d in structural_errors(
                circuit_facts(dangling_conditional_circuit())
            )
        ] == ["QA102"]
        assert [
            d.code for d in structural_errors(circuit_facts(bad_clbit_circuit()))
        ] == ["QA103"]
        assert structural_errors(circuit_facts(bell())) == []

    def test_out_of_range_conditional_is_qa102(self):
        qc = QuantumCircuit(1, 1)
        qc.measure(0, 0)
        qc.append("x", [0], condition=(9, 1))
        found = structural_errors(circuit_facts(qc))
        assert [d.code for d in found] == ["QA102"]
        assert "out of range" in found[0].message


class TestAnalyzeCircuit:
    def codes(self, circuit, **kwargs):
        return [d.code for d in analyze_circuit(circuit, **kwargs).diagnostics]

    def test_clean_circuit_is_ok_with_stats(self):
        analysis = analyze_circuit(bell())
        assert analysis.ok
        assert self.codes(bell()) == ["QA301"]
        stats = analysis.diagnostics[-1]
        assert "width 2q/2c" in stats.message
        assert analysis.facts.structure_fingerprint in stats.message

    @pytest.mark.parametrize(
        "builder,code",
        [
            (bad_qubit_circuit, "QA101"),
            (dangling_conditional_circuit, "QA102"),
            (bad_clbit_circuit, "QA103"),
            (unknown_gate_circuit, "QA104"),
        ],
    )
    def test_each_error_detector(self, builder, code):
        analysis = analyze_circuit(builder())
        assert not analysis.ok
        assert code in [d.code for d in analysis.errors]

    def test_non_unitary_custom_gate_is_qa104(self, monkeypatch):
        from repro.quantum import gates

        spec = gates.GateSpec(
            "lossy", 1, 0, lambda: [[0.5, 0.0], [0.0, 0.5]]
        )
        monkeypatch.setitem(gates.GATE_SPECS, "lossy", spec)
        qc = QuantumCircuit(1, 1)
        qc.append("lossy", [0])
        qc.measure(0, 0)
        assert "QA104" in self.codes(qc)

    def test_unused_qubits_aggregated_and_capped(self):
        qc = QuantumCircuit(12, 1)
        qc.h(0)
        qc.measure(0, 0)
        warns = analyze_circuit(qc).warnings
        assert [d.code for d in warns] == ["QA201"]
        assert "11 declared qubit(s) never used" in warns[0].message
        assert "(+3 more)" in warns[0].message  # 11 unused, 8 listed

    def test_gate_after_measure_warning(self):
        qc = QuantumCircuit(1, 1)
        qc.h(0)
        qc.measure(0, 0)
        qc.x(0)
        assert "QA202" in self.codes(qc)

    def test_unreachable_conditional_warning(self):
        qc = QuantumCircuit(2, 2)
        qc.append("x", [0], condition=(0, 1))  # reads 0, written later
        qc.h(0)
        qc.measure(0, 0)
        qc.measure(1, 1)
        assert "QA203" in self.codes(qc)

    def test_conditional_on_zero_before_write_not_flagged(self):
        # Testing for 0 before any write is well-defined (bit starts at 0).
        qc = QuantumCircuit(2, 2)
        qc.append("x", [0], condition=(0, 0))
        qc.measure([0, 1], [0, 1])
        assert "QA203" not in self.codes(qc)

    def test_over_wide_warning_only_with_cap(self):
        qc = QuantumCircuit(3, 3)
        for q in range(3):
            qc.h(q)
        qc.measure([0, 1, 2], [0, 1, 2])
        assert "QA204" not in self.codes(qc)
        assert "QA204" in self.codes(qc, max_qubits=2)
        assert "QA204" not in self.codes(qc, max_qubits=3)

    def test_supplied_facts_are_reused(self):
        qc = bell()
        facts = circuit_facts(qc, fingerprint=True)
        analysis = analyze_circuit(qc, facts=facts)
        assert analysis.facts is facts

    def test_analysis_views(self):
        analysis = analyze_circuit(bad_qubit_circuit())
        assert isinstance(analysis, CircuitAnalysis)
        assert analysis.errors and not analysis.ok
        assert all(d.severity == ERROR for d in analysis.errors)
        assert all(d.severity == WARNING for d in analysis.warnings)


# ---------------------------------------------------------------------------
# Engine agreement: the analyzer's QA1xx is exactly what the engines refuse


class TestEngineAgreement:
    @pytest.mark.parametrize(
        "builder",
        [bad_qubit_circuit, dangling_conditional_circuit, bad_clbit_circuit],
    )
    def test_simulator_refuses_structural_errors(self, builder):
        with pytest.raises(SimulationError, match=r"\[QA10[123]\]"):
            batchsim.run_circuit(builder(), 16, 1, None, False)

    @pytest.mark.parametrize(
        "builder",
        [bad_qubit_circuit, dangling_conditional_circuit, bad_clbit_circuit],
    )
    def test_transpiler_refuses_structural_errors(self, builder):
        with pytest.raises(TranspilerError, match=r"\[QA10[123]\]"):
            transpile(builder())


# ---------------------------------------------------------------------------
# Service pre-flight


class TestServicePreflight:
    def test_validate_mode_checked(self):
        with pytest.raises(BackendError, match="validate"):
            ExecutionService(validate="paranoid")
        for mode in VALIDATE_MODES:
            service = ExecutionService(validate=mode)
            assert service.stats()["validate"] == mode

    def test_off_mode_counts_nothing(self):
        # With validation off the defect reaches the simulator, which
        # raises its own (analyzer-agreeing) error; no pre-flight counters.
        service = ExecutionService(validate="off")
        with pytest.raises(SimulationError, match=r"\[QA102\]"):
            service.run(dangling_conditional_circuit(), shots=16, seed=1)
        stats = service.stats()
        assert stats["programs_validated"] == 0
        assert stats["rejected_static"] == 0

    def test_strict_rejects_before_any_simulation(self):
        service = ExecutionService(validate="strict")
        with stats_scope() as scope:
            with pytest.raises(ValidationError) as excinfo:
                service.run(dangling_conditional_circuit(), shots=16, seed=1)
        assert "QA102" in str(excinfo.value)
        assert [d.code for d in excinfo.value.diagnostics] == ["QA102"]
        scoped = scope.as_dict()
        assert scoped["programs_validated"] == 1
        assert scoped["rejected_static"] == 1
        assert scoped["simulations"] == 0
        stats = service.stats()
        assert stats["rejected_static"] == 1
        assert stats["simulations"] == 0

    def test_strict_passes_clean_circuits(self):
        service = ExecutionService(validate="strict")
        counts = service.run(bell(), shots=64, seed=7).result().get_counts()
        assert sum(counts.values()) == 64
        stats = service.stats()
        assert stats["programs_validated"] == 1
        assert stats["rejected_static"] == 0

    def test_strict_mixed_batch_counts_defective_only(self):
        service = ExecutionService(validate="strict")
        with pytest.raises(ValidationError, match="1 of 3"):
            service.run(
                [bell(), dangling_conditional_circuit(), bell()],
                shots=16,
                seed=1,
            )
        stats = service.stats()
        assert stats["programs_validated"] == 3
        assert stats["rejected_static"] == 1
        assert stats["simulations"] == 0

    def test_warn_mode_warns_and_proceeds(self):
        service = ExecutionService(validate="warn")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(SimulationError, match=r"\[QA102\]"):
                service.run(
                    dangling_conditional_circuit(), shots=16, seed=1
                )
        assert any("QA102" in str(w.message) for w in caught)
        stats = service.stats()
        assert stats["programs_validated"] == 1
        assert stats["rejected_static"] == 0

    def test_warn_mode_silent_on_clean(self):
        service = ExecutionService(validate="warn")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            service.run(bell(), shots=16, seed=1)
        assert caught == []

    def test_validate_from_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_VALIDATE", raising=False)
        assert validate_from_env() == "off"
        assert validate_from_env(default="warn") == "warn"
        monkeypatch.setenv("REPRO_VALIDATE", "STRICT")
        assert validate_from_env() == "strict"
        monkeypatch.setenv("REPRO_VALIDATE", "  ")
        assert validate_from_env() == "off"

    def test_validation_error_is_importable_from_errors(self):
        from repro import errors

        assert issubclass(ValidationError, errors.QuantumError)
        plain = ValidationError("boom")
        assert plain.diagnostics == ()
