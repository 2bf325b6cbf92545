"""The variational workload family: ansatz builders and the batched optimizer."""

import numpy as np
import pytest

from repro.cli import main
from repro.errors import CircuitError
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.execution import ExecutionService
from repro.quantum.library import qaoa_ansatz as library_qaoa_ansatz
from repro.quantum.variational import (
    OPTIMIZE_METHODS,
    VariationalResult,
    hardware_efficient_ansatz,
    maxcut_cut_size,
    maxcut_energy,
    minimize,
    qaoa_ansatz,
)

RING = [(0, 1), (1, 2), (2, 3), (3, 0)]


class TestQaoaAnsatz:
    def test_structure(self):
        qc = qaoa_ansatz(4, RING, reps=2)
        names = [inst.name for inst in qc]
        assert names[:4] == ["h"] * 4
        assert names.count("rzz") == 2 * len(RING)
        assert names.count("rx") == 2 * 4
        assert names.count("measure") == 4
        assert [p.name for p in qc.parameters] == [
            "gamma_0", "beta_0", "gamma_1", "beta_1",
        ]

    def test_measure_flag(self):
        qc = qaoa_ansatz(3, [(0, 1), (1, 2)], measure=False)
        assert qc.num_clbits == 0
        assert all(inst.name != "measure" for inst in qc)

    def test_validation(self):
        with pytest.raises(CircuitError, match="at least 2"):
            qaoa_ansatz(1, [(0, 0)])
        with pytest.raises(CircuitError, match="reps"):
            qaoa_ansatz(3, [(0, 1)], reps=0)
        with pytest.raises(CircuitError, match="self-loop"):
            qaoa_ansatz(3, [(1, 1)])
        with pytest.raises(CircuitError, match="out of range"):
            qaoa_ansatz(3, [(0, 5)])
        with pytest.raises(CircuitError, match="no edges"):
            qaoa_ansatz(3, [])
        with pytest.raises(CircuitError, match="not a pair"):
            qaoa_ansatz(3, [(0, 1, 2)])

    def test_library_reexport(self):
        assert library_qaoa_ansatz is qaoa_ansatz


class TestHardwareEfficientAnsatz:
    def test_structure(self):
        qc = hardware_efficient_ansatz(3, reps=2)
        names = [inst.name for inst in qc]
        assert names.count("ry") == 3 * 3  # (reps + 1) rotation layers
        assert names.count("cx") == 2 * 2  # reps entangling chains
        assert qc.num_parameters == 9
        assert [p.name for p in qc.parameters][:3] == [
            "theta_0_0", "theta_0_1", "theta_0_2",
        ]

    def test_validation(self):
        with pytest.raises(CircuitError):
            hardware_efficient_ansatz(0)
        with pytest.raises(CircuitError):
            hardware_efficient_ansatz(2, reps=-1)


class TestMaxcutEnergy:
    def test_cut_size_uses_counts_bit_convention(self):
        # counts keys put clbit 0 rightmost: "01" = qubit 0 measured 1.
        assert maxcut_cut_size("01", [(0, 1)]) == 1
        assert maxcut_cut_size("11", [(0, 1)]) == 0
        assert maxcut_cut_size("0101", RING) == 4
        assert maxcut_cut_size("0011", RING) == 2

    def test_energy_is_negated_expectation(self):
        energy = maxcut_energy(RING)
        assert energy({"0101": 7}) == -4.0
        assert energy({"0101": 1, "0000": 1}) == -2.0
        with pytest.raises(CircuitError):
            energy({})


class TestMinimize:
    def test_deterministic_and_improving(self):
        ansatz = qaoa_ansatz(4, RING, reps=1)
        runs = [
            minimize(
                maxcut_energy(RING), ansatz, backend="ideal", shots=512,
                seed=7, maxiter=10, service=ExecutionService(),
            )
            for _ in range(2)
        ]
        first, second = runs
        assert isinstance(first, VariationalResult)
        assert first.history == second.history
        assert first.best_parameters == second.best_parameters
        assert first.best_value <= first.history[0]
        assert len(first.history) == 11
        # history tracks the best-so-far: monotone non-increasing.
        assert all(a >= b for a, b in zip(first.history, first.history[1:]))

    def test_each_iteration_is_one_batch(self):
        svc = ExecutionService()
        maxiter = 6
        result = minimize(
            maxcut_energy(RING), qaoa_ansatz(4, RING), backend="ideal",
            shots=128, seed=3, maxiter=maxiter, service=svc,
        )
        stats = svc.stats()
        # One batch for the initial point, one per iteration after that.
        assert stats["jobs_submitted"] == maxiter + 1
        assert stats["circuits_executed"] == result.evaluations
        assert result.evaluations == 1 + 2 * maxiter
        assert stats["transpiles"] == 0

    def test_whole_run_costs_one_transpile(self):
        svc = ExecutionService()
        basis = ("rx", "ry", "rz", "rzz", "h", "cx", "measure")
        ansatz = qaoa_ansatz(4, RING, reps=1)
        with svc.stats_scope() as scope:
            bound = [
                svc.transpile(ansatz.bind(point), basis_gates=basis)
                for point in (
                    {"gamma_0": 0.1 * k, "beta_0": 0.2 * k} for k in range(12)
                )
            ]
            svc.run(bound, backend="ideal", shots=64, seed=5).result()
        assert scope.get("transpiles") == 1
        assert scope.get("transpile_cache_hits") == 11
        assert scope.get("batch_groups") == 1

    def test_coordinate_descent(self):
        result = minimize(
            maxcut_energy(RING), qaoa_ansatz(4, RING), backend="ideal",
            shots=256, seed=1, maxiter=8, method="coordinate",
            service=ExecutionService(),
        )
        assert result.method == "coordinate"
        assert result.best_value <= result.history[0]

    def test_explicit_initial_point(self):
        result = minimize(
            maxcut_energy(RING), qaoa_ansatz(4, RING), backend="ideal",
            shots=128, seed=2, maxiter=2, initial=[0.4, -0.2],
            service=ExecutionService(),
        )
        assert result.iterations == 2

    def test_validation(self):
        ansatz = qaoa_ansatz(4, RING)
        energy = maxcut_energy(RING)
        with pytest.raises(CircuitError, match="unknown method"):
            minimize(energy, ansatz, method="adam")
        with pytest.raises(CircuitError, match="no parameters"):
            concrete = QuantumCircuit(1, 1)
            concrete.h(0)
            concrete.measure([0], [0])
            minimize(energy, concrete)
        with pytest.raises(CircuitError, match="no classical bits"):
            minimize(energy, qaoa_ansatz(4, RING, measure=False))
        with pytest.raises(CircuitError, match="parameter"):
            minimize(energy, ansatz, initial=[0.1])
        with pytest.raises(CircuitError, match="non-finite"):
            minimize(energy, ansatz, initial=[np.nan, 0.0])
        with pytest.raises(CircuitError, match="maxiter"):
            minimize(energy, ansatz, maxiter=-1)
        with pytest.raises(CircuitError, match="shots"):
            minimize(energy, ansatz, shots=0)
        # Unusable step gains are refused before the first batch runs.
        svc = ExecutionService()
        for method in OPTIMIZE_METHODS:
            for gains, refused in (
                ({"perturbation": 0.0}, "perturbation"),
                ({"perturbation": -0.2}, "perturbation"),
                ({"perturbation": float("inf")}, "perturbation"),
                ({"learning_rate": float("nan")}, "learning_rate"),
                ({"learning_rate": 0.0}, "learning_rate"),
                ({"learning_rate": -float("inf")}, "learning_rate"),
            ):
                with pytest.raises(CircuitError, match=f"{refused} must be finite"):
                    minimize(energy, ansatz, method=method, service=svc, **gains)
        assert svc.stats()["jobs_submitted"] == 0

    @pytest.mark.parametrize(
        "make, history, best_parameters",
        [
            (
                lambda: qaoa_ansatz(4, RING, reps=1),
                (-2.25, -2.25, -2.25, -2.6796875, -2.6796875, -2.6796875),
                {"gamma_0": 0.3797727644552793, "beta_0": -1.0230681294983301},
            ),
            (
                lambda: hardware_efficient_ansatz(4, reps=1),
                (
                    -3.4296875, -3.4296875, -3.5078125, -3.5625, -3.65625,
                    -3.6953125,
                ),
                {
                    "theta_0_0": 0.07998015215128937,
                    "theta_0_1": -1.3234411969921032,
                    "theta_0_2": 2.137317398836082,
                    "theta_0_3": 1.5203325325971921,
                    "theta_1_0": 0.1398463957254116,
                    "theta_1_1": -2.008382627429313,
                    "theta_1_2": -1.3056774959078616,
                    "theta_1_3": 1.441763838536479,
                },
            ),
        ],
        ids=["qaoa", "hea"],
    )
    def test_trajectory_pinned_at_a_fixed_seed(
        self, make, history, best_parameters
    ):
        # Every sampled count feeds the next SPSA step, so any drift in
        # binding, evolution or sampling moves these values.
        result = minimize(
            maxcut_energy(RING), make(), backend="ideal", shots=256, seed=11,
            maxiter=5, service=ExecutionService(),
        )
        assert result.history == history
        assert result.best_parameters == best_parameters
        assert result.evaluations == 11

    def test_methods_registry(self):
        assert OPTIMIZE_METHODS == ("spsa", "coordinate")


class TestCli:
    def test_variational_command(self, capsys):
        assert main([
            "variational", "--qubits", "4", "--iters", "4",
            "--shots", "128", "--seed", "3",
        ]) == 0
        out = capsys.readouterr().out
        assert "qaoa-4q-p1" in out
        assert "best expected cut" in out
        assert "gamma_0" in out

    def test_variational_hea_coordinate(self, capsys):
        assert main([
            "variational", "--ansatz", "hea", "--method", "coordinate",
            "--iters", "2", "--shots", "64", "--reps", "1",
        ]) == 0
        assert "hea-4q-r1" in capsys.readouterr().out

    def test_variational_unknown_backend(self, capsys):
        assert main(["variational", "--backend", "nope"]) == 2
        assert "error:" in capsys.readouterr().out

    @pytest.mark.parametrize("qubits", ["2", "1", "0"])
    def test_variational_refuses_rings_under_three_qubits(self, qubits, capsys):
        assert main(["variational", "--qubits", qubits, "--iters", "1"]) == 2
        out = capsys.readouterr().out
        assert out.startswith("error:") and "at least 3 qubits" in out
        assert "ring MaxCut" not in out
