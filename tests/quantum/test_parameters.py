"""Symbolic parameters and late binding: semantics, bit-identity, caching.

The contract under test (ISSUE 9): one parameterized *template* plus N
bindings must behave exactly like N concretely-built circuits — bit-identical
instructions and counts, on the serial engine and through the service — while
costing one structure fingerprint, one transpilation and one batch-planner
group.
"""

import math
import pickle

import numpy as np
import pytest

from repro.errors import (
    CircuitError,
    GateError,
    QasmError,
    TranspilerError,
    ValidationError,
)
from repro.quantum import batchsim
from repro.quantum.analysis import (
    DIAGNOSTIC_CODES,
    analyze_circuit,
    circuit_facts,
    structure_fingerprint,
    unbound_parameter_errors,
)
from repro.quantum.analysis import facts as facts_module
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.execution import ExecutionService, circuit_fingerprint
from repro.quantum.parameters import (
    BoundProvenance,
    Parameter,
    ParameterExpression,
    bind_parameter,
    is_symbolic,
    params_from_json,
    params_to_json,
)
from repro.quantum.qasm import circuit_to_qasm, qasm_to_circuit

ROTATION_BASIS = ("ry", "rz", "cx", "h", "measure")


def sweep_template(num_qubits: int = 3) -> QuantumCircuit:
    """An entangled template with one free angle used across several gates."""
    theta = Parameter("theta")
    qc = QuantumCircuit(num_qubits, num_qubits, name="sweep")
    qc.h(0)
    for q in range(num_qubits - 1):
        qc.cx(q, q + 1)
    qc.ry(theta, 0)
    qc.rz(theta / 2, 1)
    qc.ry(2 * theta - 0.5, num_qubits - 1)
    qc.measure(list(range(num_qubits)), list(range(num_qubits)))
    return qc


def concrete_sweep(value: float, num_qubits: int = 3) -> QuantumCircuit:
    """The same circuit built directly from a concrete float."""
    qc = QuantumCircuit(num_qubits, num_qubits, name="sweep")
    qc.h(0)
    for q in range(num_qubits - 1):
        qc.cx(q, q + 1)
    qc.ry(value, 0)
    qc.rz(value / 2, 1)
    qc.ry(2 * value - 0.5, num_qubits - 1)
    qc.measure(list(range(num_qubits)), list(range(num_qubits)))
    return qc


# Sweep points chosen to include values whose derived expressions are NOT
# representable prettily (0.1 * k accumulates binary error) — bit-identity
# must hold anyway because bind replays the identical float ops.
SWEEP_POINTS = [0.1 * k - 1.7 for k in range(8)] + [0.0, math.pi, -2.5]


class TestParameterSemantics:
    def test_identifier_names_only(self):
        for bad in ("", "2theta", "a-b", "a b", "pi"):
            with pytest.raises(CircuitError):
                Parameter(bad)

    def test_name_based_equality_and_hash(self):
        assert Parameter("theta") == Parameter("theta")
        assert hash(Parameter("theta")) == hash(Parameter("theta"))
        assert Parameter("theta") != Parameter("phi")

    def test_expression_arithmetic_replays_same_float_ops(self):
        theta = Parameter("theta")
        expr = (theta / 3 + 1.1) * 7 - 0.3
        for v in SWEEP_POINTS:
            assert expr.bind_value(v) == (v / 3 + 1.1) * 7 - 0.3

    def test_right_hand_forms(self):
        theta = Parameter("theta")
        assert (2 - theta).bind_value(0.75) == 2 - 0.75
        assert (-theta).bind_value(0.75) == -0.75
        assert (+theta).bind_value(0.75) == 0.75
        assert (3 * theta).bind_value(0.2) == 3 * 0.2

    def test_symbolic_times_symbolic_rejected(self):
        theta, phi = Parameter("theta"), Parameter("phi")
        with pytest.raises(CircuitError):
            theta * phi
        with pytest.raises(CircuitError):
            theta + phi
        with pytest.raises(CircuitError):
            theta / 0

    def test_float_coercion_raises_qa105(self):
        with pytest.raises(CircuitError, match=r"\[QA105\]"):
            float(Parameter("theta"))
        with pytest.raises(CircuitError, match=r"\[QA105\]"):
            float(Parameter("theta") * 2)

    def test_is_symbolic_and_root_parameter(self):
        theta = Parameter("theta")
        assert is_symbolic(theta)
        assert is_symbolic(theta + 1)
        assert not is_symbolic(1.5)
        assert (theta + 1).parameter == theta

    def test_coefficients_affine_presentation(self):
        theta = Parameter("theta")
        coeff, offset = ((theta * 2 + 1) / 4).coefficients()
        assert coeff == pytest.approx(0.5)
        assert offset == pytest.approx(0.25)

    def test_pickle_round_trip(self):
        theta = Parameter("theta")
        expr = theta / 2 + 0.75
        assert pickle.loads(pickle.dumps(theta)) == theta
        clone = pickle.loads(pickle.dumps(expr))
        assert isinstance(clone, ParameterExpression)
        assert clone == expr
        assert clone.bind_value(1.25) == expr.bind_value(1.25)

    def test_params_json_round_trip(self):
        theta = Parameter("theta")
        params = (0.5, theta, theta * 3 - 1.0)
        decoded = params_from_json(params_to_json(params))
        assert decoded == params
        assert decoded[2].bind_value(0.2) == params[2].bind_value(0.2)

    def test_params_json_rejects_malformed(self):
        with pytest.raises(ValueError):
            params_from_json([{"wrong": "shape"}])

    def test_bind_parameter_helper(self):
        theta = Parameter("theta")
        assert bind_parameter(theta / 2, {"theta": 1.0}) == 0.5
        assert bind_parameter(0.25, {"theta": 1.0}) == 0.25
        with pytest.raises(CircuitError):
            bind_parameter(theta, {})


class TestCircuitBinding:
    def test_parameters_discovery_order_and_dedup(self):
        qc = sweep_template()
        assert [p.name for p in qc.parameters] == ["theta"]
        assert qc.num_parameters == 1
        assert qc.is_parameterized()
        assert not concrete_sweep(0.5).is_parameterized()

    def test_multi_parameter_first_appearance_order(self):
        a, b = Parameter("alpha"), Parameter("beta")
        qc = QuantumCircuit(2)
        qc.rz(b, 0)
        qc.ry(a, 1)
        qc.rz(b / 2, 1)
        assert [p.name for p in qc.parameters] == ["beta", "alpha"]

    @pytest.mark.parametrize("value", SWEEP_POINTS)
    def test_bind_bit_identical_to_concrete_build(self, value):
        bound = sweep_template().bind({"theta": value})
        concrete = concrete_sweep(value)
        assert list(bound) == list(concrete)

    def test_bind_validation(self):
        qc = sweep_template()
        with pytest.raises(CircuitError, match="missing"):
            qc.bind({})
        with pytest.raises(CircuitError, match="unknown"):
            qc.bind({"theta": 0.5, "phi": 1.0})
        qc.bind({"theta": 0.5, "phi": 1.0}, allow_unused=True)
        with pytest.raises(CircuitError, match="non-finite"):
            qc.bind({"theta": math.inf})
        with pytest.raises(CircuitError, match="not a number"):
            qc.bind({"theta": "soon"})

    def test_bind_accepts_parameter_keys(self):
        theta = Parameter("theta")
        qc = QuantumCircuit(1)
        qc.ry(theta, 0)
        assert qc.bind({theta: 0.5})._instructions[0].params == (0.5,)

    def test_provenance_stamped_and_not_copied(self):
        template = sweep_template()
        bound = template.bind({"theta": 0.5})
        provenance = bound._bound_from
        assert isinstance(provenance, BoundProvenance)
        assert provenance.template is template
        assert provenance.matches(bound)
        assert provenance.mapping == {"theta": 0.5}
        # A structural copy is a new circuit: provenance must not leak to it,
        # where later mutation would silently desynchronise template & copy.
        assert bound.copy()._bound_from is None

    def test_unbound_matrix_and_execution_guards(self):
        qc = QuantumCircuit(1)
        qc.ry(Parameter("theta"), 0)
        with pytest.raises(GateError, match=r"\[QA105\]"):
            qc._instructions[0].matrix()


class TestAnalysisLayer:
    def test_qa105_registered_as_error(self):
        severity, _ = DIAGNOSTIC_CODES["QA105"]
        assert severity == "error"

    def test_unbound_parameter_errors_stream(self):
        qc = sweep_template()
        diags = unbound_parameter_errors(qc)
        assert diags and all(d.code == "QA105" for d in diags)
        assert all("theta" in d.message for d in diags)
        assert unbound_parameter_errors(qc.bind({"theta": 0.3})) == []

    def test_analyze_circuit_does_not_emit_qa105(self):
        # Unbound templates are legitimate *static* artifacts: QA105 is an
        # execution-boundary refusal, not a lint of the template itself.
        analysis = analyze_circuit(sweep_template())
        assert not any(d.code == "QA105" for d in analysis.diagnostics)

    def test_facts_record_parameter_signature(self):
        facts = circuit_facts(sweep_template())
        assert facts.parameters == ("theta",)
        assert facts.is_parameterized
        bound_facts = circuit_facts(sweep_template().bind({"theta": 0.3}))
        assert bound_facts.parameters == ()

    def test_bound_circuits_share_template_structure_fingerprint(self):
        template = sweep_template()
        fp = structure_fingerprint(template)
        points = [template.bind({"theta": v}) for v in (0.1, 0.2, 0.3)]
        assert {structure_fingerprint(qc) for qc in points} == {fp}

    def test_result_cache_keys_distinguish_bindings(self):
        template = sweep_template()
        a = circuit_fingerprint(template.bind({"theta": 0.1}))
        b = circuit_fingerprint(template.bind({"theta": 0.2}))
        a2 = circuit_fingerprint(template.bind({"theta": 0.1}))
        assert a != b
        assert a == a2


class TestExecutionRefusal:
    @pytest.mark.parametrize("validate", ["off", "warn", "strict"])
    def test_unbound_rejected_in_every_validate_mode(self, validate):
        svc = ExecutionService(validate=validate)
        with svc.stats_scope() as scope:
            with pytest.raises(ValidationError, match=r"unbound symbolic"):
                svc.run(sweep_template(), backend="ideal", shots=16, seed=1)
        assert scope.get("rejected_unbound") == 1
        assert svc.stats()["rejected_unbound"] == 1

    def test_mixed_batch_counts_each_offender(self):
        svc = ExecutionService()
        batch = [sweep_template(), concrete_sweep(0.3), sweep_template()]
        with pytest.raises(ValidationError, match="2 of 3"):
            svc.run(batch, backend="ideal", shots=16, seed=1)
        assert svc.stats()["rejected_unbound"] == 2

    def test_bound_circuit_passes_preflight(self):
        svc = ExecutionService(validate="strict")
        bound = sweep_template().bind({"theta": 0.4})
        counts = (
            svc.run(bound, backend="ideal", shots=64, seed=5)
            .result()
            .get_counts()
        )
        assert sum(counts.values()) == 64


class TestExecutionParity:
    @pytest.mark.parametrize("entry", ["run", "thread"])
    def test_counts_bit_identical_to_concrete(
        self, entry, run_via, serial_reference
    ):
        template = sweep_template()
        points = SWEEP_POINTS[:6]
        bound = [template.bind({"theta": v}) for v in points]
        concrete = [concrete_sweep(v) for v in points]
        want = serial_reference("ideal", concrete, 256, 11)
        assert serial_reference("ideal", bound, 256, 11) == want
        svc = ExecutionService()
        res_bound = run_via(
            entry, svc, bound, backend="ideal", shots=256, seed=11
        ).result()
        for i, (counts, _) in enumerate(want):
            assert res_bound.get_counts(i) == counts

    def test_sweep_costs_one_transpile_and_one_batch_group(self):
        svc = ExecutionService()
        template = sweep_template()
        points = [0.05 * k for k in range(100)]
        with svc.stats_scope() as scope:
            lowered = [
                svc.transpile(
                    template.bind({"theta": v}), basis_gates=ROTATION_BASIS
                )
                for v in points
            ]
            job = svc.run(lowered, backend="ideal", shots=32, seed=3)
        counts = scope.as_dict()
        assert counts["transpiles"] == 1
        assert counts["transpile_cache_hits"] == len(points) - 1
        assert counts["batch_groups"] == 1
        assert counts["simulations_batched"] == len(points)
        # The sweep is bit-identical to 100 concretely-built circuits pushed
        # through the same stages on a fresh service.
        reference_svc = ExecutionService()
        reference = reference_svc.run(
            [
                reference_svc.transpile(
                    concrete_sweep(v), basis_gates=ROTATION_BASIS
                )
                for v in points
            ],
            backend="ideal", shots=32, seed=3,
        ).result()
        swept = job.result()
        for i in range(len(points)):
            assert swept.get_counts(i) == reference.get_counts(i)

    def test_bound_fast_path_commutes_with_direct_transpile(self):
        svc = ExecutionService()
        template = sweep_template()
        v = 0.1 * 3  # deliberately not representable as a clean literal
        via_template = svc.transpile(
            template.bind({"theta": v}), basis_gates=ROTATION_BASIS
        )
        direct = ExecutionService().transpile(
            concrete_sweep(v), basis_gates=ROTATION_BASIS
        )
        assert list(via_template) == list(direct)

    def test_default_basis_falls_back_per_point_but_stays_correct(self):
        # The default basis has no ry, so the symbolic template cannot be
        # lowered once (ZYZ resynthesis needs concrete angles).  The service
        # must negative-cache the template and transpile each point — slower,
        # never wrong.
        svc = ExecutionService()
        template = sweep_template()
        points = (0.3, 0.7)
        with svc.stats_scope() as scope:
            outs = [svc.transpile(template.bind({"theta": v})) for v in points]
        assert scope.get("transpiles") == 2
        for v, out in zip(points, outs):
            reference = ExecutionService().transpile(concrete_sweep(v))
            assert list(out) == list(reference)

    def test_symbolic_template_transpile_refused_without_basis_support(self):
        svc = ExecutionService()
        qc = QuantumCircuit(1)
        qc.ry(Parameter("theta"), 0)
        with pytest.raises(TranspilerError, match="symbolic"):
            svc.transpile(qc)


def random_template(rng: np.random.Generator) -> QuantumCircuit:
    """A random template over every instruction kind the facts walk reads:
    symbolic and concrete rotations, entanglers, measures, resets,
    barriers and conditionals, so routing facts vary between templates."""
    num_qubits = int(rng.integers(1, 5))
    num_clbits = int(rng.integers(1, 4))
    symbols = [Parameter(f"p{i}") for i in range(int(rng.integers(1, 4)))]
    qc = QuantumCircuit(num_qubits, num_clbits, name="random")
    for i, symbol in enumerate(symbols):
        qc.rz(symbol * 0.5 + i, int(rng.integers(num_qubits)))
    for _ in range(int(rng.integers(1, 12))):
        roll = rng.random()
        qubit = int(rng.integers(num_qubits))
        symbol = symbols[int(rng.integers(len(symbols)))]
        if roll < 0.3:
            qc.ry(symbol / 3, qubit)
        elif roll < 0.45 and num_qubits > 1:
            qc.cx(qubit, (qubit + 1) % num_qubits)
        elif roll < 0.55:
            qc.h(qubit)
        elif roll < 0.65:
            qc.measure(qubit, int(rng.integers(num_clbits)))
        elif roll < 0.72:
            qc.reset(qubit)
        elif roll < 0.8:
            qc.barrier()
        elif roll < 0.9:
            qc.append("x", [qubit], condition=(int(rng.integers(num_clbits)), 1))
        else:
            qc.rx(float(rng.uniform(-3, 3)), qubit)
    return qc


@pytest.fixture
def facts_walks(monkeypatch):
    """Every circuit ``shared_facts`` walks with ``circuit_facts``."""
    walked = []
    original = facts_module.circuit_facts

    def counting(circuit, *args, **kwargs):
        walked.append(circuit)
        return original(circuit, *args, **kwargs)

    monkeypatch.setattr(facts_module, "circuit_facts", counting)
    return walked


class TestPerTemplateWork:
    """Per-template work (facts, bind plan, QA105 scan) is done once per
    template and trusted only while the bound circuit is unchanged."""

    def test_planner_facts_of_bound_circuits_equal_a_fresh_walk(self):
        rng = np.random.default_rng(2400)
        for _ in range(80):
            template = random_template(rng)
            shared = None
            for _ in range(3):
                bound = template.bind({
                    p.name: float(rng.uniform(-3, 3))
                    for p in template.parameters
                })
                facts = batchsim.make_unit(0, bound, None, 1, 8).facts
                assert facts == circuit_facts(bound)
                assert shared is None or facts is shared
                shared = facts

    def test_analyzer_facts_of_bound_circuits_equal_a_fresh_walk(self):
        rng = np.random.default_rng(2401)
        for _ in range(40):
            template = random_template(rng)
            bound = template.bind({
                p.name: float(rng.uniform(-3, 3)) for p in template.parameters
            })
            fresh = circuit_facts(bound.copy(), fingerprint=True)
            assert analyze_circuit(bound).facts == fresh
            assert fresh.structure_fingerprint == structure_fingerprint(template)

    @pytest.mark.parametrize("validate", ["off", "warn", "strict"])
    def test_sweep_through_the_service_walks_each_template_once(
        self, facts_walks, validate
    ):
        templates = [sweep_template(), sweep_template(4)]
        svc = ExecutionService(validate=validate)
        for k in range(6):
            batch = [t.bind({"theta": 0.1 * k + j}) for t in templates
                     for j in range(3)]
            svc.run(batch, backend="ideal", shots=16, seed=k).result()
        assert [id(qc) for qc in facts_walks] == [id(t) for t in templates]

    def test_appending_after_bind_falls_back_to_the_full_walk(self, facts_walks):
        bound = sweep_template().bind({"theta": 0.4})
        bound.h(0)  # a gate after the final measurements
        facts = batchsim.make_unit(0, bound, None, 1, 8).facts
        assert facts_walks == [bound]
        assert facts == circuit_facts(bound)
        assert facts.gate_counts["h"] == 2 and facts.gates_after_measure

    def test_symbolic_gate_appended_after_bind_is_refused(self):
        bound = sweep_template().bind({"theta": 0.4})
        assert unbound_parameter_errors(bound) == []
        bound.ry(Parameter("phi"), 0)
        (diag,) = unbound_parameter_errors(bound)
        assert diag.code == "QA105" and diag.index == len(bound) - 1
        svc = ExecutionService(validate="off")
        with svc.stats_scope() as scope:
            with pytest.raises(ValidationError, match="QA105"):
                svc.run(bound, backend="ideal", shots=16, seed=1)
        assert scope.get("rejected_unbound") == 1
        assert scope.get("simulations") == 0

    def test_bind_plan_and_facts_follow_template_growth(self):
        template = sweep_template()
        before = template.bind({"theta": 0.1})
        batchsim.make_unit(0, before, None, 1, 8)  # memoises the facts
        template.rx(Parameter("phi") * 2, 1)
        with pytest.raises(CircuitError, match="missing values.*phi"):
            template.bind({"theta": 0.1})
        bound = template.bind({"theta": 0.1, "phi": 0.25})
        assert bound._instructions[-1].params == (0.5,)
        assert not bound.is_parameterized()
        assert bound._bound_from.names == ("theta", "phi")
        facts = batchsim.make_unit(0, bound, None, 1, 8).facts
        assert facts == circuit_facts(bound) and facts.gate_counts["rx"] == 1
        # The circuit bound before the growth no longer matches its template.
        assert batchsim.make_unit(0, before, None, 1, 8).facts == circuit_facts(
            before
        )


class TestQasmRoundTrip:
    def test_parameterized_gates_round_trip(self):
        qc = sweep_template()
        text = circuit_to_qasm(qc)
        assert "ry(theta) q[0];" in text
        assert "rz(0.5*theta) q[1];" in text
        back = qasm_to_circuit(text)
        assert [p.name for p in back.parameters] == ["theta"]
        for v in (0.3, -1.25):
            assert list(back.bind({"theta": v})) == list(qc.bind({"theta": v}))

    def test_expression_forms_parse(self):
        text = (
            'OPENQASM 2.0;\ninclude "qelib1.inc";\n'
            "qreg q[1];\n"
            "rz(2.0*theta-1.5) q[0];\n"
            "ry(-theta) q[0];\n"
            "rz(theta/4+pi) q[0];\n"
        )
        qc = qasm_to_circuit(text)
        bound = qc.bind({"theta": 0.8})
        assert bound._instructions[0].params == (2.0 * 0.8 - 1.5,)
        assert bound._instructions[1].params == (-0.8,)
        assert bound._instructions[2].params == (0.8 / 4 + math.pi,)

    def test_symbolic_products_rejected(self):
        text = (
            'OPENQASM 2.0;\ninclude "qelib1.inc";\n'
            "qreg q[1];\n"
            "rz(theta*phi) q[0];\n"
        )
        with pytest.raises(QasmError):
            qasm_to_circuit(text)
