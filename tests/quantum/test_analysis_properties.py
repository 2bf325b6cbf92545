"""Property tests for the static analyzer against the live engines.

The analyzer's contract is *agreement*: a circuit it calls clean executes; a
circuit it flags with a ``QA1xx`` error makes the engines raise; its facts
are deterministic; and turning the pre-flight on (``validate="strict"``)
never changes the results of clean circuits, which stay those of the serial
engine.  The
planner-routing property is the regression guard for the facts dedupe: the
batch planner's classification must be exactly predictable from each unit's
:class:`CircuitFacts` and the draw plan of its compacted circuit.
"""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.quantum import batchsim
from repro.quantum.analysis import analyze_circuit, circuit_facts
from repro.quantum.backend import Backend, LocalSimulator
from repro.quantum.circuit import Instruction, QuantumCircuit
from repro.quantum.execution import ExecutionService
from repro.quantum.noise import NoiseModel
from repro.quantum.simulator import MAX_DENSE_QUBITS, trajectory_draw_plan

# Gate pool for random structure generation: (method, n_params).
_ONE_Q = [("h", 0), ("x", 0), ("s", 0), ("t", 0), ("rx", 1), ("ry", 1), ("rz", 1)]
_TWO_Q = [("cx", 0), ("cz", 0), ("crx", 1), ("swap", 0)]


def random_circuit(
    rng: np.random.Generator, num_qubits: int, depth: int
) -> QuantumCircuit:
    qc = QuantumCircuit(num_qubits, num_qubits)
    for _ in range(depth):
        if num_qubits > 1 and rng.random() < 0.3:
            name, n_params = _TWO_Q[rng.integers(len(_TWO_Q))]
            a, b = rng.choice(num_qubits, size=2, replace=False)
            args = [int(a), int(b)]
        else:
            name, n_params = _ONE_Q[rng.integers(len(_ONE_Q))]
            args = [int(rng.integers(num_qubits))]
        params = [float(rng.uniform(0, 2 * np.pi)) for _ in range(n_params)]
        getattr(qc, name)(*params, *args)
    qc.measure_all()
    return qc


def noisy_backend(p: float = 0.02, readout: float = 0.01) -> Backend:
    return Backend(
        name="analysis-noisy",
        num_qubits=8,
        noise_model=NoiseModel.uniform_depolarizing(p, 2 * p, readout),
    )


def mutate(qc: QuantumCircuit, rng: np.random.Generator) -> QuantumCircuit:
    """Inject structural variety: conditionals, resets, mid-measures."""
    out = qc.copy()
    roll = rng.random()
    if roll < 0.25:
        out.reset(int(rng.integers(out.num_qubits)))
        out.measure_all()
    elif roll < 0.5:
        out.measure(0, 0)
        out.append("x", [0], condition=(0, 1))
        out.measure_all()
    elif roll < 0.75:
        out.measure(0, 0)
        out.x(0)  # gate after measure
        out.measure_all()
    return out


def break_circuit(
    qc: QuantumCircuit, rng: np.random.Generator
) -> tuple[QuantumCircuit, str]:
    """Inject one structural defect; returns (circuit, expected QA code)."""
    out = qc.copy()
    kind = int(rng.integers(3))
    if kind == 0:
        out._instructions.insert(
            int(rng.integers(len(out._instructions) + 1)),
            Instruction("x", (out.num_qubits + int(rng.integers(3)),)),
        )
        return out, "QA101"
    if kind == 1:
        out._instructions.append(
            Instruction(
                "x", (0,), condition=(out.num_clbits + int(rng.integers(3)), 1)
            )
        )
        return out, "QA102"
    out._instructions.append(
        Instruction(
            "measure", (0,), (out.num_clbits + int(rng.integers(3)),)
        )
    )
    return out, "QA103"


class TestCleanMeansExecutable:
    def test_analyzer_clean_circuits_execute(self):
        rng = np.random.default_rng(101)
        backend = LocalSimulator()
        for trial in range(25):
            qc = mutate(
                random_circuit(rng, int(rng.integers(1, 5)),
                               int(rng.integers(1, 8))),
                rng,
            )
            analysis = analyze_circuit(qc)
            assert analysis.ok, [d.render() for d in analysis.errors]
            counts, _ = backend.execute_circuit(qc, 32, seed=trial)
            assert sum(counts.values()) == 32

    def test_strict_service_accepts_every_clean_circuit(self):
        rng = np.random.default_rng(102)
        workload = [
            mutate(random_circuit(rng, 3, int(rng.integers(2, 7))), rng)
            for _ in range(8)
        ]
        service = ExecutionService(validate="strict")
        try:
            result = service.run(workload, shots=16, seed=5).result()
            assert all(
                sum(result.get_counts(i).values()) == 16
                for i in range(len(workload))
            )
            assert service.stats()["rejected_static"] == 0
        finally:
            service.shutdown()


class TestFlaggedMeansRefused:
    def test_every_injected_defect_is_caught_and_refused(self):
        rng = np.random.default_rng(201)
        backend = LocalSimulator()
        for trial in range(25):
            base = random_circuit(rng, int(rng.integers(1, 4)),
                                  int(rng.integers(1, 6)))
            broken, code = break_circuit(base, rng)
            analysis = analyze_circuit(broken)
            assert code in [d.code for d in analysis.errors], (
                f"trial {trial}: analyzer missed injected {code}"
            )
            with pytest.raises(SimulationError, match=r"\[QA10[123]\]"):
                backend.execute_circuit(broken, 16, seed=trial)

    def test_non_unitary_gate_only_strict_preflight_refuses(self, monkeypatch):
        # The engines *cannot* refuse QA104 themselves: ``Statevector``
        # renormalises on construction, so a scaled-identity gate silently
        # yields plausible counts on every path.  The strict pre-flight is
        # the only line of defense, which is exactly why the analyzer
        # checks unitarity.
        from repro.errors import ValidationError
        from repro.quantum import gates

        lossy = gates.GateSpec("lossy", 1, 0, lambda: np.eye(2) * 0.7)
        monkeypatch.setitem(gates.GATE_SPECS, "lossy", lossy)
        qc = QuantumCircuit(1, 1)
        qc.append("lossy", [0])
        qc.measure(0, 0)
        assert "QA104" in [d.code for d in analyze_circuit(qc).errors]
        counts, _ = LocalSimulator().execute_circuit(qc, 16, seed=0)
        assert sum(counts.values()) == 16  # silently renormalised
        service = ExecutionService(validate="strict")
        try:
            with pytest.raises(ValidationError, match="QA104"):
                service.run(qc, shots=16, seed=0)
            assert service.stats()["simulations"] == 0
        finally:
            service.shutdown()


class TestDeterminism:
    def test_facts_and_analysis_are_deterministic(self):
        rng_a = np.random.default_rng(301)
        rng_b = np.random.default_rng(301)
        for _ in range(15):
            qc_a = mutate(random_circuit(rng_a, 3, 6), rng_a)
            qc_b = mutate(random_circuit(rng_b, 3, 6), rng_b)
            facts_a = circuit_facts(qc_a, fingerprint=True)
            facts_b = circuit_facts(qc_b, fingerprint=True)
            assert facts_a == facts_b
            assert facts_a == circuit_facts(qc_a, fingerprint=True)
            assert [
                (d.code, d.index, d.message)
                for d in analyze_circuit(qc_a).diagnostics
            ] == [
                (d.code, d.index, d.message)
                for d in analyze_circuit(qc_b).diagnostics
            ]


class TestStrictIsInert:
    @pytest.mark.parametrize("entry", ["run", "submit"])
    def test_strict_vs_off_bit_identical(self, entry, serial_reference):
        rng = np.random.default_rng(401)
        base = random_circuit(rng, 3, 5)
        workload = [base] + [
            mutate(random_circuit(rng, 2, int(rng.integers(2, 6))), rng)
            for _ in range(4)
        ]
        want = serial_reference(
            noisy_backend(), workload, 64, 401, memory=True
        )
        strict = ExecutionService(validate="strict")
        off = ExecutionService(validate="off")
        try:
            for service in (strict, off):
                got = getattr(service, entry)(
                    workload, backend=noisy_backend(), shots=64, seed=401,
                    memory=True,
                ).result(timeout=60)
                for i, (counts, mem) in enumerate(want):
                    assert got.get_counts(i) == counts
                    assert got.get_memory(i) == mem
            assert strict.stats()["programs_validated"] == len(workload)
            assert off.stats()["programs_validated"] == 0
        finally:
            strict.shutdown()
            off.shutdown()


class TestPlannerRoutingMatchesFacts:
    """Regression for the facts dedupe: routing is a pure function of the
    facts and, for the shot-batched route, of the compacted draw plan."""

    def predicted_kind(self, unit, noise) -> str:
        facts = unit.facts
        if max(1, len(facts.touched_qubits)) > MAX_DENSE_QUBITS:
            return batchsim.SERIAL
        if facts.structurally_defective:
            return batchsim.SERIAL
        if facts.is_fast_path(noise):
            return batchsim.IDEAL
        if trajectory_draw_plan(unit.compacted, noise) is not None:
            return batchsim.SHOTS
        return batchsim.SERIAL

    def assigned_kinds(self, backend, units) -> dict[int, str]:
        groups = batchsim.plan(backend, units)
        assigned = {}
        for group in groups:
            for unit in group.units:
                assert unit.index not in assigned, "unit planned twice"
                assigned[unit.index] = group.kind
        return assigned

    @pytest.mark.parametrize("seed", [501, 502, 503])
    def test_randomized_routing_agrees(self, seed):
        rng = np.random.default_rng(seed)
        backend = noisy_backend() if seed % 2 else LocalSimulator()
        units = []
        for index in range(12):
            qc = mutate(
                random_circuit(rng, int(rng.integers(1, 4)),
                               int(rng.integers(1, 7))),
                rng,
            )
            if rng.random() < 0.2:
                qc, _ = break_circuit(qc, rng)
            units.append(batchsim.make_unit(index, qc, None, seed + index, 32))
        assigned = self.assigned_kinds(backend, units)
        for unit in units:
            want = self.predicted_kind(unit, backend.noise_model)
            assert assigned[unit.index] == want, (
                f"unit {unit.index}: planner chose {assigned[unit.index]}, "
                f"facts predict {want}"
            )

    def test_over_wide_and_defective_route_serial(self):
        wide = QuantumCircuit(MAX_DENSE_QUBITS + 1, 1)
        for q in range(MAX_DENSE_QUBITS + 1):
            wide.h(q)
        wide.measure(0, 0)
        broken, _ = break_circuit(
            random_circuit(np.random.default_rng(0), 2, 3),
            np.random.default_rng(0),
        )
        backend = Backend(name="wide", num_qubits=MAX_DENSE_QUBITS + 2)
        units = [
            batchsim.make_unit(0, wide, None, 1, 8),
            batchsim.make_unit(1, broken, None, 2, 8),
        ]
        assigned = self.assigned_kinds(backend, units)
        assert assigned == {0: batchsim.SERIAL, 1: batchsim.SERIAL}

    def test_unit_facts_match_fresh_extraction(self):
        rng = np.random.default_rng(601)
        for _ in range(10):
            qc = mutate(random_circuit(rng, 3, 5), rng)
            unit = batchsim.make_unit(0, qc, None, 1, 16)
            assert unit.facts == circuit_facts(qc)


class TestDefectiveBatchParity:
    @pytest.mark.parametrize("entry", ["run", "submit"])
    def test_service_and_serial_engine_raise_the_same_error(
        self, entry, serial_reference
    ):
        """A defective unit in a batch workload fails with the serial
        engine's canonical message, on either entry point."""
        rng = np.random.default_rng(701)
        broken, code = break_circuit(random_circuit(rng, 2, 4), rng)
        workload = [random_circuit(rng, 2, 3), broken]
        with pytest.raises(SimulationError) as serial:
            serial_reference(LocalSimulator(), workload, 16, 701)
        svc = ExecutionService()
        try:
            with pytest.raises(SimulationError) as batched:
                getattr(svc, entry)(workload, shots=16, seed=701).result(
                    timeout=60
                )
        finally:
            svc.shutdown()
        assert str(batched.value) == str(serial.value)
        assert f"[{code}]" in str(serial.value)
