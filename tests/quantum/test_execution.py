"""The unified execution subsystem: registry, job lifecycle, batching, cache."""

import threading

import pytest

from repro.errors import BackendError, SimulationError
from repro.quantum import batchsim
from repro.quantum.backend import Backend, FakeFalcon, LocalSimulator
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.execution import (
    BackendProvider,
    ExecutionService,
    JobStatus,
    ResultCache,
    ambient_seed,
    circuit_fingerprint,
    default_service,
    get_backend,
    list_backends,
    provider,
    resolve_backend,
    set_default_service,
)
from repro.quantum.library import bell_pair
from repro.quantum.noise import NoiseModel


def _tagged_circuit(tag: int, width: int = 3) -> QuantumCircuit:
    """A circuit whose deterministic output bitstring encodes ``tag``."""
    qc = QuantumCircuit(width, width)
    for bit in range(width):
        if (tag >> bit) & 1:
            qc.x(bit)
    qc.measure(list(range(width)), list(range(width)))
    return qc


class GatedBackend(Backend):
    """Backend whose simulation blocks until the test opens the gate."""

    def __init__(self) -> None:
        super().__init__(name="gated", num_qubits=8)
        self.gate = threading.Event()
        self.started = threading.Event()

    def execute_circuit(self, circuit, shots, seed=None, memory=False):
        self.started.set()
        assert self.gate.wait(10), "test gate never opened"
        return super().execute_circuit(circuit, shots, seed, memory)


class ExplodingBackend(Backend):
    def __init__(self) -> None:
        super().__init__(name="exploding", num_qubits=8)

    def execute_circuit(self, circuit, shots, seed=None, memory=False):
        raise SimulationError("boom")


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


class TestRegistry:
    def test_builtin_names(self):
        names = list_backends()
        assert {"local_simulator", "fake_brisbane", "fake_falcon"} <= set(names)

    def test_lookup_is_memoised(self):
        assert get_backend("fake_brisbane") is get_backend("fake_brisbane")

    def test_aliases_resolve_to_same_instance(self):
        assert get_backend("brisbane") is get_backend("fake_brisbane")
        assert get_backend("ideal") is get_backend("local_simulator")
        assert get_backend("falcon") is get_backend("fake_falcon")

    def test_lookup_is_case_insensitive(self):
        assert get_backend("Fake_Brisbane") is get_backend("fake_brisbane")

    def test_fresh_instance_bypasses_memo(self):
        assert get_backend("local_simulator", fresh=True) is not get_backend(
            "local_simulator"
        )

    def test_unknown_name_suggests_close_match(self):
        with pytest.raises(BackendError, match="fake_brisbane"):
            get_backend("fake_brisban")

    def test_unknown_name_lists_registered(self):
        with pytest.raises(BackendError, match="registered"):
            get_backend("definitely-not-a-backend")

    def test_register_factory_and_alias(self):
        registry = BackendProvider()
        registry.register("mine", LocalSimulator, aliases=("also-mine",))
        assert registry.get("mine") is registry.get("also-mine")
        assert registry.aliases_of("mine") == ["also-mine"]

    def test_register_instance(self):
        registry = BackendProvider()
        backend = LocalSimulator()
        registry.register("inst", backend)
        assert registry.get("inst") is backend

    def test_duplicate_registration_rejected(self):
        registry = BackendProvider()
        registry.register("mine", LocalSimulator)
        with pytest.raises(BackendError, match="already registered"):
            registry.register("mine", LocalSimulator)
        registry.register("mine", LocalSimulator, overwrite=True)

    def test_alias_collision_rejected_atomically(self):
        registry = BackendProvider()
        registry.register("a", LocalSimulator, aliases=("shared",))
        with pytest.raises(BackendError):
            registry.register("b", LocalSimulator, aliases=("fine", "shared"))
        # The rejected registration must leave no trace behind.
        assert "b" not in registry.names()
        with pytest.raises(BackendError):
            registry.resolve_name("fine")
        registry.register("b", LocalSimulator, aliases=("fine",))
        assert registry.get("fine") is registry.get("b")

    def test_unregister(self):
        registry = BackendProvider()
        registry.register("gone", LocalSimulator, aliases=("bye",))
        registry.unregister("gone")
        with pytest.raises(BackendError):
            registry.resolve_name("bye")

    def test_global_register_backend_roundtrip(self):
        from repro.quantum.execution import register_backend

        register_backend("test-temp-backend", LocalSimulator)
        try:
            assert get_backend("test-temp-backend").name == "local_simulator"
        finally:
            provider().unregister("test-temp-backend")

    def test_resolve_backend_coercions(self):
        backend = FakeFalcon()
        assert resolve_backend(backend) is backend
        assert resolve_backend(None).name == "local_simulator"
        assert resolve_backend("brisbane").name == "fake_brisbane"
        with pytest.raises(BackendError, match="expected a Backend"):
            resolve_backend(42)


# ---------------------------------------------------------------------------
# Job lifecycle
# ---------------------------------------------------------------------------


class TestJobLifecycle:
    def test_queued_running_done(self):
        backend = GatedBackend()
        service = ExecutionService(max_workers=1)
        try:
            job = service.submit(bell_pair(measure=True), backend=backend, shots=20)
            assert backend.started.wait(10)
            assert job.status() is JobStatus.RUNNING
            assert not job.done()
            backend.gate.set()
            result = job.result(timeout=10)
            assert job.status() is JobStatus.DONE
            assert job.done()
            assert sum(result.get_counts().values()) == 20
        finally:
            backend.gate.set()
            service.shutdown()

    def test_result_timeout_raises(self):
        backend = GatedBackend()
        service = ExecutionService(max_workers=1)
        try:
            job = service.submit(bell_pair(measure=True), backend=backend, shots=10)
            with pytest.raises(BackendError, match="did not finish"):
                job.result(timeout=0.05)
        finally:
            backend.gate.set()
            service.shutdown()

    def test_cancel_queued_job(self):
        backend = GatedBackend()
        service = ExecutionService(max_workers=1)
        try:
            blocker = service.submit(
                bell_pair(measure=True), backend=backend, shots=10
            )
            assert backend.started.wait(10)
            queued = service.submit(
                bell_pair(measure=True), backend=backend, shots=10
            )
            assert queued.status() is JobStatus.QUEUED
            assert queued.cancel()
            assert queued.status() is JobStatus.CANCELLED
            assert queued.cancelled()
            with pytest.raises(BackendError, match="cancelled"):
                queued.result(timeout=1)
            backend.gate.set()
            blocker.result(timeout=10)
            assert not blocker.cancel()  # terminal jobs cannot be cancelled
        finally:
            backend.gate.set()
            service.shutdown()

    def test_error_lifecycle(self):
        service = ExecutionService(max_workers=1)
        try:
            job = service.submit(
                bell_pair(measure=True), backend=ExplodingBackend(), shots=10
            )
            job.wait(10)
            assert job.status() is JobStatus.ERROR
            assert isinstance(job.error(), SimulationError)
            with pytest.raises(SimulationError, match="boom"):
                job.result(timeout=1)
        finally:
            service.shutdown()

    def test_job_ids_unique(self):
        service = ExecutionService(max_workers=2)
        try:
            jobs = [
                service.submit(bell_pair(measure=True), shots=10, seed=i)
                for i in range(4)
            ]
            assert len({job.job_id for job in jobs}) == 4
            for job in jobs:
                job.result(timeout=10)
        finally:
            service.shutdown()

    def test_submit_validates_eagerly(self):
        service = ExecutionService(max_workers=1)
        try:
            with pytest.raises(BackendError, match="shots"):
                service.submit(bell_pair(measure=True), shots=0)
            with pytest.raises(BackendError, match="no circuits"):
                service.submit([])
            with pytest.raises(BackendError, match="QuantumCircuit"):
                service.submit("not a circuit")
            bad = QuantumCircuit(3, 3)
            bad.cx(0, 2)  # uncoupled pair on the falcon T topology
            with pytest.raises(BackendError, match="transpile"):
                service.submit(bad, backend="fake_falcon")
        finally:
            service.shutdown()

    def test_backend_run_shim_returns_finished_job(self, simulator):
        job = simulator.run(bell_pair(measure=True), shots=50, seed=3)
        assert job.status() is JobStatus.DONE
        assert job.status() == "DONE"  # legacy string comparison still works
        assert sum(job.result().get_counts().values()) == 50


# ---------------------------------------------------------------------------
# Batching
# ---------------------------------------------------------------------------


class TestBatching:
    def test_batch_preserves_submission_order(self):
        service = ExecutionService(max_workers=4)
        try:
            tags = [5, 0, 7, 2, 6, 1]
            circuits = [_tagged_circuit(tag) for tag in tags]
            result = service.submit(circuits, shots=10, seed=1).result(timeout=30)
            for index, tag in enumerate(tags):
                expected = format(tag, "03b")
                assert result.get_counts(index) == {expected: 10}
        finally:
            service.shutdown()

    def test_batch_first_circuit_matches_single_run(self):
        service = ExecutionService(max_workers=2, use_cache=False)
        try:
            qc = bell_pair(measure=True)
            single = service.run(qc, shots=200, seed=11).result().get_counts()
            batched = service.submit([qc, _tagged_circuit(1)], shots=200, seed=11)
            assert batched.result(timeout=30).get_counts(0) == single
        finally:
            service.shutdown()

    def test_batch_result_metadata(self):
        service = ExecutionService(max_workers=2)
        try:
            job = service.submit(
                [_tagged_circuit(1), _tagged_circuit(2)],
                backend="local_simulator",
                shots=10,
                seed=2,
            )
            result = job.result(timeout=30)
            assert job.num_circuits == 2
            assert result.backend_name == "local_simulator"
            assert result.shots == 10
            assert result.seed == 2
        finally:
            service.shutdown()


# ---------------------------------------------------------------------------
# Cache
# ---------------------------------------------------------------------------


class TestCache:
    def test_repeat_run_hits_cache(self):
        service = ExecutionService(max_workers=1)
        try:
            qc = bell_pair(measure=True)
            first = service.run(qc, shots=100, seed=6).result().get_counts()
            second = service.run(qc, shots=100, seed=6).result().get_counts()
            assert first == second
            stats = service.stats()
            assert stats["simulations"] == 1
            assert stats["cache_hits"] == 1
            assert stats["cache_misses"] == 1
        finally:
            service.shutdown()

    def test_submit_fully_cached_batch_skips_pool(self):
        service = ExecutionService(max_workers=1)
        try:
            circuits = [_tagged_circuit(1), _tagged_circuit(2)]
            service.submit(circuits, shots=10, seed=3).result(timeout=30)
            job = service.submit(circuits, shots=10, seed=3)
            # No pool round-trip needed: the job completes inside submit().
            assert job.status() is JobStatus.DONE
            assert job.cache_hits == 2
            assert service.stats()["simulations"] == 2
        finally:
            service.shutdown()

    def test_cache_key_discriminates(self):
        service = ExecutionService(max_workers=1)
        try:
            qc = bell_pair(measure=True)
            service.run(qc, shots=100, seed=6)
            service.run(qc, shots=100, seed=7)      # different seed
            service.run(qc, shots=200, seed=6)      # different shots
            service.run(qc, shots=100, seed=6, memory=True)  # memory flag
            assert service.stats()["simulations"] == 4
            service.run(qc, backend="noisy", shots=100, seed=6)  # noisy backend
            assert service.stats()["simulations"] == 5
        finally:
            service.shutdown()

    def test_unseeded_runs_are_never_cached(self):
        service = ExecutionService(max_workers=1)
        try:
            qc = bell_pair(measure=True)
            service.run(qc, shots=50)
            service.run(qc, shots=50)
            stats = service.stats()
            assert stats["simulations"] == 2
            assert stats["cache_hits"] == 0
        finally:
            service.shutdown()

    def test_cached_memory_roundtrip(self):
        service = ExecutionService(max_workers=1)
        try:
            qc = bell_pair(measure=True)
            first = service.run(qc, shots=10, seed=4, memory=True).result()
            second = service.run(qc, shots=10, seed=4, memory=True).result()
            assert first.get_memory() == second.get_memory()
            assert service.stats()["cache_hits"] == 1
        finally:
            service.shutdown()

    def test_same_seed_identical_counts_across_services(self):
        qc = bell_pair(measure=True)
        a = ExecutionService(max_workers=1)
        b = ExecutionService(max_workers=1)
        try:
            counts_a = a.run(qc, shots=300, seed=9).result().get_counts()
            counts_b = b.run(qc, shots=300, seed=9).result().get_counts()
            assert counts_a == counts_b
        finally:
            a.shutdown()
            b.shutdown()

    def test_shim_shares_default_service_cache(self):
        service = ExecutionService(max_workers=1)
        set_default_service(service)
        try:
            qc = bell_pair(measure=True)
            a = LocalSimulator().run(qc, shots=100, seed=5).result().get_counts()
            b = LocalSimulator().run(qc, shots=100, seed=5).result().get_counts()
            assert a == b
            assert service.stats()["cache_hits"] == 1
            assert service.stats()["simulations"] == 1
        finally:
            set_default_service(None)

    def test_ambient_seed_makes_unseeded_runs_deterministic(self):
        service = ExecutionService(max_workers=1)
        try:
            qc = bell_pair(measure=True)
            with ambient_seed(12):
                first = service.run(qc, shots=100).result().get_counts()
            explicit = service.run(qc, shots=100, seed=12).result().get_counts()
            assert first == explicit
            assert service.stats()["cache_hits"] == 1
        finally:
            service.shutdown()

    def test_ambient_seed_keeps_successive_runs_independent(self):
        # Two unseeded runs inside one scope are *distinct* samples (a
        # program averaging over repeated runs must not see clones), while
        # replaying the scope reproduces the same sequence.
        service = ExecutionService(max_workers=1)
        try:
            qc = bell_pair(measure=True)
            with ambient_seed(12):
                first = service.run(qc, shots=60, memory=True).result()
                second = service.run(qc, shots=60, memory=True).result()
            with ambient_seed(12):
                replay = service.run(qc, shots=60, memory=True).result()
            assert first.get_memory() != second.get_memory()
            assert replay.get_memory() == first.get_memory()
        finally:
            service.shutdown()

    def test_lru_eviction(self):
        cache = ResultCache(maxsize=2)
        service = ExecutionService(max_workers=1, cache=cache)
        try:
            for tag in (1, 2, 3):
                service.run(_tagged_circuit(tag), shots=10, seed=1)
            assert len(cache) == 2
            service.run(_tagged_circuit(1), shots=10, seed=1)  # evicted -> miss
            assert service.stats()["simulations"] == 4
        finally:
            service.shutdown()

    def test_circuit_fingerprint_ignores_labels(self):
        a = _tagged_circuit(3)
        b = _tagged_circuit(3)
        b.name = "renamed"
        assert circuit_fingerprint(a) == circuit_fingerprint(b)
        assert circuit_fingerprint(a) != circuit_fingerprint(_tagged_circuit(4))


# ---------------------------------------------------------------------------
# Single-flight deduplication
# ---------------------------------------------------------------------------


class TestSingleFlight:
    def test_concurrent_identical_jobs_simulate_once(self):
        """Regression: two in-flight jobs with one cache key used to both
        simulate; the second must wait for the first's cache fill."""
        backend = GatedBackend()
        service = ExecutionService(max_workers=2)
        try:
            qc = bell_pair(measure=True)
            first = service.submit(qc, backend=backend, shots=30, seed=5)
            second = service.submit(qc, backend=backend, shots=30, seed=5)
            assert backend.started.wait(10)
            backend.gate.set()
            counts_a = first.result(timeout=30).get_counts()
            counts_b = second.result(timeout=30).get_counts()
            assert counts_a == counts_b
            stats = service.stats()
            assert stats["simulations"] == 1
            assert stats["simulations_deduped"] == 1
            assert first.deduped + second.deduped == 1
        finally:
            backend.gate.set()
            service.shutdown()

    def test_dedup_preserves_memory_payload(self):
        backend = GatedBackend()
        service = ExecutionService(max_workers=2)
        try:
            qc = bell_pair(measure=True)
            jobs = [
                service.submit(qc, backend=backend, shots=10, seed=2, memory=True)
                for _ in range(2)
            ]
            assert backend.started.wait(10)
            backend.gate.set()
            memories = [job.result(timeout=30).get_memory() for job in jobs]
            assert memories[0] == memories[1]
            assert service.stats()["simulations"] == 1
        finally:
            backend.gate.set()
            service.shutdown()

    def test_failed_leader_lets_followers_retry(self):
        service = ExecutionService(max_workers=2)
        try:
            qc = bell_pair(measure=True)
            job = service.submit(qc, backend=ExplodingBackend(), shots=10, seed=1)
            with pytest.raises(SimulationError):
                job.result(timeout=10)
            # The key must not be stuck in the in-flight table: a later run
            # of the same key on a working backend succeeds.
            ok = service.run(qc, shots=10, seed=1).result()
            assert sum(ok.get_counts().values()) == 10
        finally:
            service.shutdown()


# ---------------------------------------------------------------------------
# One execution flow: run() and submit() probe, plan, run groups, fill slots
# ---------------------------------------------------------------------------


def _mixed_submission() -> list[QuantumCircuit]:
    """One circuit per planner route, plus a duplicate.

    On an ideal backend the two rotated circuits and the duplicate form one
    IDEAL group, and the mid-circuit reset and the ``c_if`` circuit are SHOTS
    trajectories (its conditional ``x`` draws nothing).  On a noisy backend
    every circuit but the ``c_if`` one is a noisy SHOTS trajectory; the
    conditional ``x`` has a noise channel there, so that circuit takes the
    SERIAL route.
    """

    def rotated(theta: float) -> QuantumCircuit:
        qc = QuantumCircuit(2, 2)
        qc.h(0)
        qc.cx(0, 1)
        qc.ry(theta, 1)
        qc.measure([0, 1], [0, 1])
        return qc

    trajectory = QuantumCircuit(2, 2)
    trajectory.h(0)
    trajectory.measure(0, 0)
    trajectory.reset(0)
    trajectory.h(0)
    trajectory.cx(0, 1)
    trajectory.measure([0, 1], [0, 1])
    conditional = QuantumCircuit(2, 2)
    conditional.h(0)
    conditional.measure(0, 0)
    conditional.append("x", [1], condition=(0, 1))
    conditional.measure(1, 1)
    first = rotated(0.3)
    return [first, rotated(1.1), trajectory, conditional, first]


class TestOneFlow:
    @pytest.mark.parametrize("noisy", [False, True], ids=["ideal", "noisy"])
    def test_run_and_submit_match_each_other_and_serial_engine(
        self, noisy, serial_reference
    ):
        backend = (
            Backend(
                name="one-flow-noisy",
                num_qubits=4,
                noise_model=NoiseModel.uniform_depolarizing(0.02, 0.04, 0.01),
            )
            if noisy
            else LocalSimulator()
        )
        circuits = _mixed_submission()
        want = serial_reference(backend, circuits, 96, 5, memory=True)
        scopes = {}
        for entry in ("run", "submit"):
            service = ExecutionService(max_workers=2)
            try:
                with service.stats_scope() as scope:
                    result = getattr(service, entry)(
                        circuits, backend=backend, shots=96, seed=5, memory=True
                    ).result(timeout=60)
            finally:
                service.shutdown()
            got = [
                (result.get_counts(i), result.get_memory(i))
                for i in range(len(circuits))
            ]
            assert got == want, f"{entry} diverged from the serial engine"
            scopes[entry] = scope.as_dict()
        assert scopes["run"] == scopes["submit"]
        assert scopes["run"]["simulations"] == len(circuits)
        # Everything ran on the batch engine, except the c_if circuit under
        # noise, whose conditional gate draws.
        assert scopes["run"]["simulations_batched"] == (
            len(circuits) - 1 if noisy else len(circuits)
        )

    @pytest.mark.parametrize("entry", ["run", "submit"])
    def test_failed_units_leave_no_flight_behind(self, entry, monkeypatch):
        circuits = [bell_pair(measure=True), _tagged_circuit(3)]
        service = ExecutionService(max_workers=2)
        try:
            # SERIAL units whose backend raises.
            with pytest.raises(SimulationError, match="boom"):
                getattr(service, entry)(
                    circuits, backend=ExplodingBackend(), shots=10, seed=3
                ).result(timeout=10)

            # Batchable groups whose engine call raises.
            def explode(noise, group, memory):
                raise SimulationError("engine boom")

            monkeypatch.setattr(batchsim, "execute_group", explode)
            with pytest.raises(SimulationError, match="engine boom"):
                getattr(service, entry)(
                    circuits, shots=10, seed=3
                ).result(timeout=10)
        finally:
            service.shutdown()  # waits for every pool task
        assert service._inflight == {}

    @pytest.mark.parametrize("warm", ["run", "submit"])
    def test_entry_points_share_one_cache(self, warm):
        """Every route's cache fill is a hit for the other entry point."""
        circuits = _mixed_submission()
        cold = "submit" if warm == "run" else "run"
        service = ExecutionService(max_workers=2)
        try:
            first = getattr(service, warm)(
                circuits, shots=64, seed=8, memory=True
            ).result(timeout=60)
            with service.stats_scope() as scope:
                job = getattr(service, cold)(
                    circuits, shots=64, seed=8, memory=True
                )
                second = job.result(timeout=60)
        finally:
            service.shutdown()
        assert job.cache_hits == len(circuits)
        assert scope.get("simulations") == 0
        for i in range(len(circuits)):
            assert second.get_counts(i) == first.get_counts(i)
            assert second.get_memory(i) == first.get_memory(i)

    @pytest.mark.parametrize("entry", ["run", "submit"])
    def test_partial_hits_keep_their_slots(self, entry, serial_reference):
        """Hits interleaved with planned misses land at their own index."""
        circuits = _mixed_submission()
        hits = {1, 3}  # one IDEAL-group member and the c_if circuit
        # Same index, same derived seed: only the ``hits`` slots are warmed.
        warmup = [
            qc if i in hits else _tagged_circuit(i)
            for i, qc in enumerate(circuits)
        ]
        want = serial_reference(None, circuits, 64, 8, memory=True)
        service = ExecutionService(max_workers=2)
        try:
            service.run(warmup, shots=64, seed=8, memory=True)
            with service.stats_scope() as scope:
                job = getattr(service, entry)(
                    circuits, shots=64, seed=8, memory=True
                )
                result = job.result(timeout=60)
        finally:
            service.shutdown()
        assert job.cache_hits == len(hits)
        assert scope.get("simulations") == len(circuits) - len(hits)
        got = [
            (result.get_counts(i), result.get_memory(i))
            for i in range(len(circuits))
        ]
        assert got == want

    @pytest.mark.parametrize("entry", ["run", "submit"])
    def test_overridden_execute_circuit_takes_the_serial_route(
        self, entry, serial_reference
    ):
        """A backend with its own ``execute_circuit`` is never batched, even
        for circuits that would otherwise share one IDEAL group."""
        backend = GatedBackend()
        backend.gate.set()
        circuits = _mixed_submission()
        want = serial_reference(backend, circuits, 64, 2, memory=True)
        service = ExecutionService(max_workers=2)
        try:
            with service.stats_scope() as scope:
                result = getattr(service, entry)(
                    circuits, backend=backend, shots=64, seed=2, memory=True
                ).result(timeout=60)
        finally:
            service.shutdown()
        assert scope.get("simulations") == len(circuits)
        assert scope.get("simulations_batched") == 0
        assert scope.get("batch_groups") == 0
        got = [
            (result.get_counts(i), result.get_memory(i))
            for i in range(len(circuits))
        ]
        assert got == want


# ---------------------------------------------------------------------------
# Pipeline integration: repeated eval arm re-simulates nothing
# ---------------------------------------------------------------------------


class TestEvalIntegration:
    def test_repeat_eval_arm_issues_zero_duplicate_simulations(self):
        from repro.evalsuite import PipelineSettings, build_suite, evaluate
        from repro.llm.faults import ModelConfig

        service = ExecutionService(max_workers=2)
        set_default_service(service)
        try:
            tasks = build_suite()[:3]
            settings = PipelineSettings(
                ModelConfig("3b", fine_tuned=True), samples_per_task=1
            )
            first = evaluate(settings, tasks)
            second = evaluate(settings, tasks)
            assert first.execution_stats["simulations"] > 0
            assert second.execution_stats["simulations"] == 0
            assert second.execution_stats["cache_hits"] > 0
            assert second.accuracy() == first.accuracy()
        finally:
            set_default_service(None)

    def test_sandbox_reports_simulation_counters(self):
        from repro.agents.sandbox import run_code

        code = (
            "from repro.quantum import QuantumCircuit, LocalSimulator\n"
            "qc = QuantumCircuit(1, 1)\n"
            "qc.h(0)\n"
            "qc.measure(0, 0)\n"
            "counts = LocalSimulator().run(qc, shots=16).result().get_counts()\n"
        )
        service = ExecutionService(max_workers=1)
        set_default_service(service)
        try:
            first = run_code(code)
            assert first.ok
            assert first.simulations == 1
            second = run_code(code)  # ambient sandbox seed -> cache hit
            assert second.simulations == 0
            assert second.sim_cache_hits == 1
        finally:
            set_default_service(None)
