"""The unified execution subsystem: registry, jobs, batching, cache."""

import sys
import threading
import time

import pytest

from repro.errors import BackendError, SimulationError
from repro.quantum import batchsim
from repro.quantum.backend import Backend, FakeFalcon, LocalSimulator
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.execution import (
    BackendProvider,
    ExecutionService,
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


class WatchedBackend(Backend):
    """SERIAL-route backend that records, each time it runs a circuit, how
    many single-flight claims its service holds."""

    def __init__(self, service: ExecutionService) -> None:
        super().__init__(name="watched", num_qubits=8)
        self.service = service
        self.inflight: list[int] = []

    def execute_circuit(self, circuit, shots, seed=None, memory=False):
        self.inflight.append(len(self.service._inflight))
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
    def test_job_ids_unique(self):
        service = ExecutionService()
        jobs = [
            service.run(bell_pair(measure=True), shots=10, seed=i)
            for i in range(4)
        ]
        assert len({job.job_id for job in jobs}) == 4

    def test_run_validates_eagerly(self):
        service = ExecutionService()
        with pytest.raises(BackendError, match="shots"):
            service.run(bell_pair(measure=True), shots=0)
        with pytest.raises(BackendError, match="no circuits"):
            service.run([])
        with pytest.raises(BackendError, match="QuantumCircuit"):
            service.run("not a circuit")
        bad = QuantumCircuit(3, 3)
        bad.cx(0, 2)  # uncoupled pair on the falcon T topology
        with pytest.raises(BackendError, match="transpile"):
            service.run(bad, backend="fake_falcon")
        assert service.stats()["jobs_submitted"] == 0

    def test_backend_run_shim_returns_finished_job(self, simulator):
        job = simulator.run(bell_pair(measure=True), shots=50, seed=3)
        assert job.backend_name == simulator.name
        assert sum(job.result().get_counts().values()) == 50


# ---------------------------------------------------------------------------
# Batching
# ---------------------------------------------------------------------------


class TestBatching:
    def test_batch_preserves_submission_order(self):
        service = ExecutionService()
        tags = [5, 0, 7, 2, 6, 1]
        circuits = [_tagged_circuit(tag) for tag in tags]
        result = service.run(circuits, shots=10, seed=1).result()
        for index, tag in enumerate(tags):
            expected = format(tag, "03b")
            assert result.get_counts(index) == {expected: 10}

    def test_batch_first_circuit_matches_single_run(self):
        # A fresh service per call, so the batch simulates index 0 again.
        qc = bell_pair(measure=True)
        single = ExecutionService().run(qc, shots=200, seed=11)
        batched = ExecutionService().run(
            [qc, _tagged_circuit(1)], shots=200, seed=11
        )
        assert batched.result().get_counts(0) == single.result().get_counts()

    def test_batch_result_metadata(self):
        service = ExecutionService()
        with service.stats_scope() as scope:
            job = service.run(
                [_tagged_circuit(1), _tagged_circuit(2)],
                backend="local_simulator",
                shots=10,
                seed=2,
            )
        result = job.result()
        assert job.num_circuits == 2
        assert job.backend_name == result.backend_name == "local_simulator"
        assert scope.get("cache_hits") == scope.get("simulations_deduped") == 0
        assert result.shots == 10
        assert result.seed == 2


# ---------------------------------------------------------------------------
# Cache
# ---------------------------------------------------------------------------


class TestCache:
    def test_repeat_run_hits_cache(self):
        service = ExecutionService()
        qc = bell_pair(measure=True)
        first = service.run(qc, shots=100, seed=6).result().get_counts()
        second = service.run(qc, shots=100, seed=6).result().get_counts()
        assert first == second
        stats = service.stats()
        assert stats["simulations"] == 1
        assert stats["cache_hits"] == 1
        assert stats["cache_misses"] == 1

    def test_cache_key_discriminates(self):
        service = ExecutionService()
        qc = bell_pair(measure=True)
        service.run(qc, shots=100, seed=6)
        service.run(qc, shots=100, seed=7)      # different seed
        service.run(qc, shots=200, seed=6)      # different shots
        service.run(qc, shots=100, seed=6, memory=True)  # memory flag
        assert service.stats()["simulations"] == 4
        service.run(qc, backend="noisy", shots=100, seed=6)  # noisy backend
        assert service.stats()["simulations"] == 5

    def test_unseeded_runs_are_never_cached(self):
        service = ExecutionService()
        qc = bell_pair(measure=True)
        service.run(qc, shots=50)
        service.run(qc, shots=50)
        stats = service.stats()
        assert stats["simulations"] == 2
        assert stats["cache_hits"] == 0

    def test_cached_memory_roundtrip(self):
        service = ExecutionService()
        qc = bell_pair(measure=True)
        first = service.run(qc, shots=10, seed=4, memory=True).result()
        second = service.run(qc, shots=10, seed=4, memory=True).result()
        assert first.get_memory() == second.get_memory()
        assert service.stats()["cache_hits"] == 1

    def test_same_seed_identical_counts_across_services(self):
        qc = bell_pair(measure=True)
        a = ExecutionService()
        b = ExecutionService()
        counts_a = a.run(qc, shots=300, seed=9).result().get_counts()
        counts_b = b.run(qc, shots=300, seed=9).result().get_counts()
        assert counts_a == counts_b

    def test_shim_shares_default_service_cache(self):
        service = ExecutionService()
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
        service = ExecutionService()
        qc = bell_pair(measure=True)
        with ambient_seed(12):
            first = service.run(qc, shots=100).result().get_counts()
        explicit = service.run(qc, shots=100, seed=12).result().get_counts()
        assert first == explicit
        assert service.stats()["cache_hits"] == 1

    def test_ambient_seed_keeps_successive_runs_independent(self):
        # Two unseeded runs inside one scope are *distinct* samples (a
        # program averaging over repeated runs must not see clones), while
        # replaying the scope reproduces the same sequence.
        service = ExecutionService()
        qc = bell_pair(measure=True)
        with ambient_seed(12):
            first = service.run(qc, shots=60, memory=True).result()
            second = service.run(qc, shots=60, memory=True).result()
        with ambient_seed(12):
            replay = service.run(qc, shots=60, memory=True).result()
        assert first.get_memory() != second.get_memory()
        assert replay.get_memory() == first.get_memory()

    def test_lru_eviction(self):
        cache = ResultCache(maxsize=2)
        service = ExecutionService(cache=cache)
        for tag in (1, 2, 3):
            service.run(_tagged_circuit(tag), shots=10, seed=1)
        assert len(cache) == 2
        service.run(_tagged_circuit(1), shots=10, seed=1)  # evicted -> miss
        assert service.stats()["simulations"] == 4

    def test_circuit_fingerprint_ignores_labels(self):
        a = _tagged_circuit(3)
        b = _tagged_circuit(3)
        b.name = "renamed"
        assert circuit_fingerprint(a) == circuit_fingerprint(b)
        assert circuit_fingerprint(a) != circuit_fingerprint(_tagged_circuit(4))


# ---------------------------------------------------------------------------
# Single-flight deduplication
# ---------------------------------------------------------------------------


def _race(service, backend, callers, **kwargs):
    """Run one identical execution from ``callers`` threads at once.

    The first caller leads and blocks inside ``backend`` until every other
    caller has probed the cache and missed; then the gate opens.  Returns
    each caller's job, or the exception its ``run`` raised, and each
    caller's stats scope, opened around its call.
    """
    outcomes: list = [None] * callers
    scopes: list = [None] * callers
    misses = service.stats()["cache_misses"]

    def call(slot: int) -> None:
        with service.stats_scope() as scopes[slot]:
            try:
                outcomes[slot] = service.run(backend=backend, **kwargs)
            except Exception as exc:  # noqa: BLE001 - returned to the test
                outcomes[slot] = exc

    threads = [threading.Thread(target=call, args=(slot,)) for slot in range(callers)]
    threads[0].start()
    try:
        assert backend.started.wait(10)
        for thread in threads[1:]:
            thread.start()
        deadline = time.monotonic() + 10
        while service.stats()["cache_misses"] < misses + callers:
            assert time.monotonic() < deadline, "followers never probed"
            time.sleep(0.005)
    finally:
        backend.gate.set()
        for thread in threads:
            if thread.ident is not None:
                thread.join(10)
    assert not any(thread.is_alive() for thread in threads)
    return outcomes, scopes


class FlakyGatedBackend(GatedBackend):
    """Gated backend whose first simulation fails once the gate opens."""

    def __init__(self) -> None:
        super().__init__()
        self.calls = 0

    def execute_circuit(self, circuit, shots, seed=None, memory=False):
        self.calls += 1
        if self.calls == 1:
            self.started.set()
            assert self.gate.wait(10), "test gate never opened"
            raise SimulationError("boom")
        return super().execute_circuit(circuit, shots, seed, memory)


class TestSingleFlight:
    def test_concurrent_identical_jobs_simulate_once(self):
        """Regression: two in-flight jobs with one cache key used to both
        simulate; the second must wait for the first's cache fill."""
        service = ExecutionService()
        (first, second), scopes = _race(
            service, GatedBackend(), 2,
            circuits=bell_pair(measure=True), shots=30, seed=5,
        )
        assert first.result().get_counts() == second.result().get_counts()
        stats = service.stats()
        assert stats["simulations"] == 1
        assert stats["simulations_deduped"] == 1
        assert sum(scope.get("simulations_deduped") for scope in scopes) == 1

    def test_dedup_preserves_memory_payload(self):
        service = ExecutionService()
        jobs, _ = _race(
            service, GatedBackend(), 2,
            circuits=bell_pair(measure=True), shots=10, seed=2, memory=True,
        )
        memories = [job.result().get_memory() for job in jobs]
        assert memories[0] == memories[1]
        assert len(memories[0]) == 10
        assert service.stats()["simulations"] == 1

    def test_failed_leader_lets_followers_retry(self):
        service = ExecutionService()
        backend = FlakyGatedBackend()
        (leader, follower), _ = _race(
            service, backend, 2,
            circuits=bell_pair(measure=True), shots=10, seed=1,
        )
        # The leader's error raises from its own run; the follower, waiting
        # on the same key, observes an unfilled flight and simulates itself.
        assert isinstance(leader, SimulationError)
        assert sum(follower.result().get_counts().values()) == 10
        assert backend.calls == 2
        assert service.stats()["simulations_deduped"] == 0
        assert service._inflight == {}

    def test_contested_batch_unit_reruns_alone_when_its_owner_fails(
        self, monkeypatch, serial_reference
    ):
        """A batch-group unit whose key another thread leads waits for that
        owner; when the owner's engine call fails, the unit runs again as a
        one-unit group of its own kind."""
        qc = bell_pair(measure=True)
        service = ExecutionService()
        engine = batchsim.execute_group
        started, gate = threading.Event(), threading.Event()
        calls = []  # (caller, units) per engine call, in call order

        def owner_fails_first(noise, group, memory):
            calls.append((threading.current_thread().name, len(group.units)))
            if len(calls) == 1:
                started.set()
                assert gate.wait(10), "test gate never opened"
                raise SimulationError("owner boom")
            return engine(noise, group, memory)

        monkeypatch.setattr(batchsim, "execute_group", owner_fails_first)
        claim = service._try_lead
        contested = threading.Event()
        lost_claims = []

        def watched_claim(key):
            won = claim(key)
            if not won:
                lost_claims.append(key)
                contested.set()
            return won

        monkeypatch.setattr(service, "_try_lead", watched_claim)
        outcomes, scopes = {}, {}

        def call() -> None:
            name = threading.current_thread().name
            with service.stats_scope() as scopes[name]:
                try:
                    outcomes[name] = service.run(qc, shots=64, seed=3).result()
                except SimulationError as exc:
                    outcomes[name] = exc

        owner = threading.Thread(target=call, name="owner")
        follower = threading.Thread(target=call, name="follower")
        owner.start()
        try:
            assert started.wait(10)
            follower.start()
            assert contested.wait(10), "the follower never met the owner"
        finally:
            gate.set()
            for thread in (owner, follower):
                if thread.ident is not None:
                    thread.join(10)
        assert not owner.is_alive() and not follower.is_alive()
        assert isinstance(outcomes["owner"], SimulationError)
        want = serial_reference(None, [qc], 64, 3)[0][0]
        assert outcomes["follower"].get_counts() == want
        # One lost claim: the follower waited for the owner, then led alone.
        assert len(lost_claims) == 1
        assert calls == [("owner", 1), ("follower", 1)]
        counts = scopes["follower"].as_dict()
        assert counts["simulations"] == counts["simulations_batched"] == 1
        assert counts["batch_groups"] == 1
        assert counts["simulations_deduped"] == 0
        assert service._inflight == {}

    @pytest.mark.parametrize("route", ["batch", "serial"])
    def test_claimed_key_is_reprobed_before_it_runs(self, monkeypatch, route):
        """A key another thread fills between the probe-time miss and the
        claim is read from the cache, not simulated again."""
        qc = bell_pair(measure=True)
        service = ExecutionService()
        backend = (
            LocalSimulator() if route == "batch" else WatchedBackend(service)
        )
        fill = {"11": 64}
        plan = batchsim.plan

        def plan_then_fill(target, units):
            groups = plan(target, units)
            for unit in units:
                service.cache.put(unit.key, fill, None)
            return groups

        monkeypatch.setattr(batchsim, "plan", plan_then_fill)
        with service.stats_scope() as scope:
            result = service.run(qc, backend=backend, shots=64, seed=3).result()
        assert result.get_counts() == fill
        assert scope.get("simulations") == 0
        assert scope.get("simulations_deduped") == 1
        assert service._inflight == {}

    @pytest.mark.parametrize("route", ["batch", "serial"])
    def test_flights_release_only_after_their_fill(self, monkeypatch, route):
        """Every result is cached while its flight is still held, so a
        waiter woken by the release always finds the fill."""
        service = ExecutionService()
        backend = (
            LocalSimulator() if route == "batch" else WatchedBackend(service)
        )
        circuits = [_tagged_circuit(tag) for tag in (1, 2, 3)]
        put = service.cache.put
        held = []

        def watched_put(key, counts, memory, scopes=()):
            held.append(key in service._inflight)
            put(key, counts, memory, scopes)

        monkeypatch.setattr(service.cache, "put", watched_put)
        service.run(circuits, backend=backend, shots=16, seed=2)
        assert held == [True] * len(circuits)
        if route == "serial":
            # The SERIAL group claims every key before it runs its first
            # unit and releases them only once the group is done.
            assert backend.inflight == [len(circuits)] * len(circuits)
        assert service._inflight == {}

    @pytest.mark.parametrize("route", ["batch", "serial"])
    def test_overlapping_submissions_simulate_each_key_once(
        self, route, serial_reference
    ):
        """Eight threads submit prefixes of one list, so their key sets
        overlap, with a short switch interval: each distinct execution
        simulates once, every thread reads the serial engine's counts, and
        no flight is left behind."""
        circuits = [_tagged_circuit(tag) for tag in range(6)]
        service = ExecutionService()
        backend = (
            LocalSimulator() if route == "batch" else WatchedBackend(service)
        )
        want = serial_reference(backend, circuits, 32, 9)
        results, errors = {}, []

        def call(slot: int) -> None:
            try:
                results[slot] = service.run(
                    circuits[: 1 + slot % len(circuits)],
                    backend=backend, shots=32, seed=9,
                ).result()
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        threads = [
            threading.Thread(target=call, args=(slot,)) for slot in range(8)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        for slot, result in results.items():
            for index in range(1 + slot % len(circuits)):
                assert result.get_counts(index) == want[index][0]
        stats = service.stats()
        assert stats["simulations"] == len(circuits)
        assert stats["cache_misses"] == (
            stats["simulations"] + stats["simulations_deduped"]
        )
        assert service._inflight == {}

    def test_serial_group_keeps_the_units_run_before_a_failure(self):
        """A SERIAL unit that raises leaves the units before it cached."""
        good, bad = _tagged_circuit(1), _tagged_circuit(2)

        class PoisonedBackend(Backend):
            def __init__(self) -> None:
                super().__init__(name="poisoned", num_qubits=8)

            def execute_circuit(self, circuit, shots, seed=None, memory=False):
                if circuit is bad:
                    raise SimulationError("poisoned")
                return super().execute_circuit(circuit, shots, seed, memory)

        service = ExecutionService()
        backend = PoisonedBackend()
        with pytest.raises(SimulationError, match="poisoned"):
            service.run([good, bad], backend=backend, shots=16, seed=4)
        assert service._inflight == {}
        with service.stats_scope() as scope:
            service.run(
                [good, _tagged_circuit(5)], backend=backend, shots=16, seed=4
            )
        assert scope.get("cache_hits") == 1
        assert scope.get("simulations") == 1


# ---------------------------------------------------------------------------
# One execution flow: run() probes, plans, runs the groups, fills the slots
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
    @pytest.mark.parametrize("entry", ["run", "thread"])
    @pytest.mark.parametrize("noisy", [False, True], ids=["ideal", "noisy"])
    def test_run_matches_serial_engine(
        self, noisy, entry, run_via, serial_reference
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
        service = ExecutionService()
        with service.stats_scope() as scope:
            result = run_via(
                entry, service, circuits, backend=backend, shots=96, seed=5,
                memory=True,
            ).result()
        got = [
            (result.get_counts(i), result.get_memory(i))
            for i in range(len(circuits))
        ]
        assert got == want
        assert scope.get("simulations") == len(circuits)
        # Everything ran on the batch engine, except the c_if circuit under
        # noise, whose conditional gate draws.
        assert scope.get("simulations_batched") == (
            len(circuits) - 1 if noisy else len(circuits)
        )

    @pytest.mark.parametrize("entry", ["run", "thread"])
    def test_failed_units_leave_no_flight_behind(
        self, entry, run_via, monkeypatch
    ):
        circuits = [bell_pair(measure=True), _tagged_circuit(3)]
        service = ExecutionService()
        # SERIAL units whose backend raises.
        with pytest.raises(SimulationError, match="boom"):
            run_via(
                entry, service, circuits, backend=ExplodingBackend(),
                shots=10, seed=3,
            )

        # Batchable groups whose engine call raises.
        def explode(noise, group, memory):
            raise SimulationError("engine boom")

        monkeypatch.setattr(batchsim, "execute_group", explode)
        with pytest.raises(SimulationError, match="engine boom"):
            run_via(entry, service, circuits, shots=10, seed=3)
        assert service._inflight == {}

    @pytest.mark.parametrize("warm", ["run", "thread"])
    def test_entry_points_share_one_cache(self, warm, run_via):
        """Every route's cache fill is a hit for a run from the other
        calling thread."""
        circuits = _mixed_submission()
        cold = "thread" if warm == "run" else "run"
        service = ExecutionService()
        first = run_via(
            warm, service, circuits, shots=64, seed=8, memory=True
        ).result()
        with service.stats_scope() as scope:
            job = run_via(cold, service, circuits, shots=64, seed=8, memory=True)
            second = job.result()
        assert scope.get("cache_hits") == len(circuits)
        assert scope.get("simulations") == 0
        for i in range(len(circuits)):
            assert second.get_counts(i) == first.get_counts(i)
            assert second.get_memory(i) == first.get_memory(i)

    @pytest.mark.parametrize("entry", ["run", "thread"])
    def test_partial_hits_keep_their_slots(
        self, entry, run_via, serial_reference
    ):
        """Hits interleaved with planned misses land at their own index."""
        circuits = _mixed_submission()
        hits = {1, 3}  # one IDEAL-group member and the c_if circuit
        # Same index, same derived seed: only the ``hits`` slots are warmed.
        warmup = [
            qc if i in hits else _tagged_circuit(i)
            for i, qc in enumerate(circuits)
        ]
        want = serial_reference(None, circuits, 64, 8, memory=True)
        service = ExecutionService()
        service.run(warmup, shots=64, seed=8, memory=True)
        with service.stats_scope() as scope:
            job = run_via(
                entry, service, circuits, shots=64, seed=8, memory=True
            )
            result = job.result()
        assert scope.get("cache_hits") == len(hits)
        assert scope.get("simulations") == len(circuits) - len(hits)
        got = [
            (result.get_counts(i), result.get_memory(i))
            for i in range(len(circuits))
        ]
        assert got == want

    @pytest.mark.parametrize("entry", ["run", "thread"])
    def test_overridden_execute_circuit_takes_the_serial_route(
        self, entry, run_via, serial_reference
    ):
        """A backend with its own ``execute_circuit`` is never batched, even
        for circuits that would otherwise share one IDEAL group."""
        backend = GatedBackend()
        backend.gate.set()
        circuits = _mixed_submission()
        want = serial_reference(backend, circuits, 64, 2, memory=True)
        service = ExecutionService()
        with service.stats_scope() as scope:
            result = run_via(
                entry, service, circuits, backend=backend, shots=64, seed=2,
                memory=True,
            ).result()
        assert scope.get("simulations") == len(circuits)
        assert scope.get("simulations_batched") == 0
        assert scope.get("batch_groups") == 0
        got = [
            (result.get_counts(i), result.get_memory(i))
            for i in range(len(circuits))
        ]
        assert got == want

    def test_every_group_runs_on_the_calling_thread(self, monkeypatch):
        """Batch groups and SERIAL units alike run on whichever thread calls
        ``run``; the service hands no work to a thread of its own."""
        ran_on = []

        def recorded(route, engine_call):
            def call(*args, **kwargs):
                ran_on.append((route, threading.get_ident()))
                return engine_call(*args, **kwargs)

            return call

        monkeypatch.setattr(
            batchsim, "execute_group",
            recorded("group", batchsim.execute_group),
        )
        monkeypatch.setattr(
            batchsim, "run_circuit", recorded("serial", batchsim.run_circuit)
        )
        backend = Backend(
            name="one-flow-noisy",
            num_qubits=4,
            noise_model=NoiseModel.uniform_depolarizing(0.02, 0.04, 0.01),
        )
        callers, results = [], []

        def call_run():
            # A fresh service per call: a shared one would serve the second
            # call from its cache and run nothing.
            ran_on.clear()
            results.append(
                ExecutionService().run(
                    _mixed_submission(), backend=backend, shots=32, seed=4
                ).result()
            )
            callers.append((threading.get_ident(), list(ran_on)))

        call_run()
        thread = threading.Thread(target=call_run)
        thread.start()
        thread.join(60)
        assert not thread.is_alive()
        assert callers[0][0] != callers[1][0]
        for caller, routes in callers:
            # The noisy trajectories form batch groups; the noisy c_if
            # circuit takes the SERIAL route.
            assert {route for route, _ in routes} == {"group", "serial"}
            assert {ident for _, ident in routes} == {caller}
        first, second = results
        for i in range(len(_mixed_submission())):
            assert second.get_counts(i) == first.get_counts(i)


# ---------------------------------------------------------------------------
# Pipeline integration: repeated eval arm re-simulates nothing
# ---------------------------------------------------------------------------


class TestEvalIntegration:
    def test_repeat_eval_arm_issues_zero_duplicate_simulations(self):
        from repro.evalsuite import PipelineSettings, build_suite, evaluate
        from repro.llm.faults import ModelConfig

        service = ExecutionService()
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
            # Same thread, service and level: every verdict comes from the
            # analyzer's memo, so the repeat makes no lookup at all.
            stats = second.execution_stats
            assert stats["cache_hits"] + stats["cache_misses"] == 0
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
        service = ExecutionService()
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
