"""Distributed evaluation: end-to-end parity and fault injection.

Acceptance for the dispatch tentpole: ``evaluate`` with a localhost
``eval-worker`` produces **bit-identical** ``EvalResult``s (outcomes *and*
per-arm execution stats, bar the hit counters) to the ``workers=1`` serial
run — including under
injected faults: workers that die mid-chunk, return corrupt payloads,
double-complete a lease, or heartbeat and then vanish.  The coordinator must
requeue exactly once per fault and never fold an outcome twice.
"""

import base64
import pickle
import threading

import pytest

from repro.evalsuite.runner import (
    PipelineSettings,
    _run_task_chunk,
    distributed,
    evaluate,
)
from repro.evalsuite.suite import build_suite
from repro.llm.faults import ModelConfig
from repro.quantum.execution import ExecutionService, set_default_service
from repro.quantum.execution.dispatch import (
    DispatchClient,
    EvalCoordinator,
    run_chunk_payload,
    run_worker,
)
from tests.evalsuite.test_parallel_eval import outcome_key


@pytest.fixture
def fresh_service():
    """A cold shared service per test, restored afterwards."""
    service = ExecutionService()
    set_default_service(service)
    yield service
    set_default_service(None)


@pytest.fixture(scope="module")
def bank():
    return build_suite()[:3]


@pytest.fixture(scope="module")
def settings():
    return PipelineSettings(
        ModelConfig("3b", True), samples_per_task=1, label="dist"
    )


@pytest.fixture(scope="module")
def serial_reference(bank, settings):
    """The ground truth every distributed topology must reproduce, computed
    once on its own cold service."""
    service = ExecutionService()
    set_default_service(service)
    try:
        return evaluate(settings, bank, workers=1)
    finally:
        set_default_service(None)


def make_coordinator(tmp_path, **kwargs) -> EvalCoordinator:
    kwargs.setdefault("port", 0)
    kwargs.setdefault("fallback_workers", 0)  # force remote execution
    kwargs.setdefault("lease_timeout", 0.4)
    return EvalCoordinator(tmp_path / "store", **kwargs).start()


def evaluate_in_background(settings, bank, coordinator):
    """Kick off the coordinator-side evaluate; returns (thread, result box)."""
    box = {}

    def run():
        box["result"] = evaluate(settings, bank, coordinator=coordinator)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    return thread, box


#: Counters that depend on which chunks shared a thread: each thread keeps
#: its own semantic analyzers, so a chunk skips the lookups (all hits) of
#: programs an earlier chunk on its thread already graded.
THREAD_DEPENDENT_COUNTERS = ("cache_hits", "transpile_cache_hits")


def assert_identical(result, reference):
    def counters(stats):
        return {
            name: value
            for name, value in stats.items()
            if name not in THREAD_DEPENDENT_COUNTERS
        }

    assert outcome_key(result) == outcome_key(reference)
    assert counters(result.execution_stats) == counters(
        reference.execution_stats
    )
    assert result.label == reference.label
    assert result.accuracy() == reference.accuracy()


class TestParity:
    def test_localhost_worker_bit_identical_to_serial(
        self, tmp_path, fresh_service, bank, settings, serial_reference
    ):
        """The acceptance criterion: a real worker over real HTTP, results
        byte-for-byte equal to the serial runner — outcomes and stats.

        (One sequential worker: like the serial loop it executes chunks one
        at a time against one service, so even the miss/dedup split is
        reproduced exactly, not just the outcomes.)"""
        coordinator = make_coordinator(tmp_path)
        stop = threading.Event()
        worker = threading.Thread(
            target=run_worker,
            args=(coordinator.url,),
            kwargs=dict(
                workers=1, poll_interval=0.02, heartbeat_interval=0.1,
                stop=stop,
            ),
            daemon=True,
        )
        worker.start()
        try:
            result = evaluate(settings, bank, coordinator=coordinator)
        finally:
            stop.set()
            worker.join(timeout=10)
            coordinator.stop()
        assert_identical(result, serial_reference)
        status = coordinator.queue.status()
        assert status["done"] == status["total"] == len(bank)
        assert status["requeues"] == 0

    def test_local_fallback_when_no_worker_attaches(
        self, tmp_path, fresh_service, bank, settings, serial_reference
    ):
        """No fleet, no problem: the coordinator's own pool drains the queue
        after the grace period, bit-identical to serial."""
        coordinator = make_coordinator(
            tmp_path, fallback_workers=1, fallback_grace=0.05
        )
        try:
            result = evaluate(settings, bank, coordinator=coordinator)
        finally:
            coordinator.stop()
        assert_identical(result, serial_reference)

    def test_ambient_distribution_routes_through_coordinator(
        self, tmp_path, fresh_service, bank, settings, serial_reference
    ):
        coordinator = make_coordinator(
            tmp_path, fallback_workers=1, fallback_grace=0.05
        )
        try:
            with distributed(coordinator):
                result = evaluate(settings, bank)
        finally:
            coordinator.stop()
        assert_identical(result, serial_reference)
        assert coordinator.queue.status()["done"] == len(bank)

    def test_unpicklable_chunks_downgrade_to_local(
        self, tmp_path, fresh_service, bank, settings, serial_reference
    ):
        """A payload the dispatch transport cannot ship (closure checker)
        must run locally, not crash the evaluation."""
        import dataclasses

        bad_bank = list(bank)
        # A non-picklable item anywhere in the calls downgrades the run.
        bad_bank[0] = dataclasses.replace(
            bad_bank[0], checker=lambda namespace: True
        )
        coordinator = make_coordinator(tmp_path, fallback_workers=1)
        try:
            result = evaluate(settings, bad_bank, coordinator=coordinator)
        finally:
            coordinator.stop()
        # Nothing ever reached the queue: the run completed locally.
        assert coordinator.queue.status()["total"] == 0
        assert len(result.outcomes) == len(bank)


class TestFaultInjection:
    def test_worker_dies_mid_chunk_requeues_exactly_once(
        self, tmp_path, fresh_service, bank, settings, serial_reference
    ):
        """A worker leases a chunk and crashes: after lease expiry the chunk
        is requeued (exactly once) and a healthy worker completes the run
        with results still bit-identical to serial."""
        coordinator = make_coordinator(tmp_path, lease_timeout=0.3)
        thread, box = evaluate_in_background(settings, bank, coordinator)
        client = DispatchClient(coordinator.url)
        # The doomed worker takes one chunk to its grave.
        doomed = _lease_retrying(client, "doomed")
        dead_chunk = doomed["chunk"]
        # A healthy worker drains everything else — and, once the dead
        # worker's lease expires, its requeued chunk too.
        stop = threading.Event()
        healthy = threading.Thread(
            target=run_worker,
            args=(coordinator.url,),
            kwargs=dict(
                workers=1, poll_interval=0.02, heartbeat_interval=0.1,
                stop=stop, worker_id="healthy",
            ),
            daemon=True,
        )
        healthy.start()
        thread.join(timeout=60)
        stop.set()
        healthy.join(timeout=10)
        coordinator.stop()
        assert not thread.is_alive()
        assert_identical(box["result"], serial_reference)
        assert coordinator.queue.requeues == {dead_chunk: 1}
        # The dead worker's stale completion would now be rejected.
        assert client.complete(int(doomed["lease"]), b"zombie") is False

    def test_heartbeat_then_vanish_requeues_after_expiry(
        self, tmp_path, fresh_service, bank, settings, serial_reference
    ):
        """Heartbeats keep a lease alive; silence kills it."""
        coordinator = make_coordinator(tmp_path, lease_timeout=0.4)
        thread, box = evaluate_in_background(settings, bank, coordinator)
        client = DispatchClient(coordinator.url)
        flaky = _lease_retrying(client, "flaky")
        lease_id = int(flaky["lease"])
        # Prove heartbeats extend the lease well past its original deadline.
        import time

        for _ in range(4):
            time.sleep(0.2)
            assert client.heartbeat(lease_id, "flaky") is True
        assert coordinator.queue.status()["leased"] >= 1
        # ...then vanish without completing.  Finish the run with a healthy
        # worker; the vanished chunk comes back via expiry.
        stop = threading.Event()
        healthy = threading.Thread(
            target=run_worker,
            args=(coordinator.url,),
            kwargs=dict(
                workers=1, poll_interval=0.02, heartbeat_interval=0.1,
                stop=stop, worker_id="healthy",
            ),
            daemon=True,
        )
        healthy.start()
        thread.join(timeout=60)
        stop.set()
        healthy.join(timeout=10)
        coordinator.stop()
        assert_identical(box["result"], serial_reference)
        assert coordinator.queue.requeues == {int(flaky["chunk"]): 1}

    def test_corrupt_result_payload_is_rejected_and_requeued(
        self, tmp_path, fresh_service, bank, settings, serial_reference
    ):
        """A byzantine worker uploads garbage: the coordinator must reject
        it (HTTP 400), requeue the chunk exactly once, and fold only the
        healthy re-execution."""
        import json
        import urllib.error
        import urllib.request

        coordinator = make_coordinator(tmp_path, lease_timeout=5.0)
        thread, box = evaluate_in_background(settings, bank, coordinator)
        client = DispatchClient(coordinator.url)
        byzantine = _lease_retrying(client, "byzantine")
        lease_id = int(byzantine["lease"])
        body = json.dumps(
            {
                "lease": lease_id,
                "result": base64.b64encode(b"not a pickle").decode(),
            }
        ).encode()
        request = urllib.request.Request(
            f"{coordinator.url}/work/complete", data=body, method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(request, timeout=5)
        assert info.value.code == 400
        # The chunk went straight back to pending — no expiry wait needed.
        chunk = int(byzantine["chunk"])
        assert coordinator.queue.requeues == {chunk: 1}
        stop = threading.Event()
        healthy = threading.Thread(
            target=run_worker,
            args=(coordinator.url,),
            kwargs=dict(
                workers=1, poll_interval=0.02, heartbeat_interval=0.1,
                stop=stop, worker_id="healthy",
            ),
            daemon=True,
        )
        healthy.start()
        thread.join(timeout=60)
        stop.set()
        healthy.join(timeout=10)
        coordinator.stop()
        assert_identical(box["result"], serial_reference)
        assert coordinator.queue.requeues == {chunk: 1}

    def test_double_complete_folds_exactly_once(
        self, tmp_path, fresh_service, bank, settings, serial_reference
    ):
        """A worker retrying its completion (network flake, duplicate POST)
        must not double-count the outcome."""
        coordinator = make_coordinator(tmp_path, lease_timeout=10.0)
        thread, box = evaluate_in_background(settings, bank, coordinator)
        client = DispatchClient(coordinator.url)
        # Run every chunk by hand, completing each one twice.
        completed = 0
        while completed < len(bank):
            doc = client.lease("dup")
            if doc is None or doc.get("empty"):
                import time

                time.sleep(0.02)
                continue
            outcome = run_chunk_payload(base64.b64decode(doc["payload"]))
            assert client.complete(int(doc["lease"]), outcome, "dup") is True
            assert client.complete(int(doc["lease"]), outcome, "dup") is False
            completed += 1
        thread.join(timeout=60)
        coordinator.stop()
        assert_identical(box["result"], serial_reference)
        status = coordinator.queue.status()
        assert status["done"] == status["total"] == len(bank)
        assert status["requeues"] == 0

    def test_expired_then_both_complete_single_fold(self, tmp_path):
        """The classic split-brain: worker A's lease expires, worker B
        re-leases the chunk, then *both* complete.  Exactly one fold wins and
        the folded result is byte-identical either way (deterministic
        chunks)."""
        coordinator = make_coordinator(tmp_path, lease_timeout=0.2)
        try:
            queue = coordinator.queue
            payload = pickle.dumps((_double, (21,)))
            queue.add_chunks([payload])
            client = DispatchClient(coordinator.url)
            a = client.lease("worker-a")
            import time

            time.sleep(0.3)  # lease A expires
            b = client.lease("worker-b")
            assert b is not None and not b.get("empty")
            assert int(b["lease"]) > int(a["lease"])  # monotonic re-lease
            outcome = run_chunk_payload(payload)
            assert client.complete(int(b["lease"]), outcome) is True
            assert client.complete(int(a["lease"]), outcome) is False
            assert queue.status()["done"] == 1
            assert queue.requeues == {0: 1}
            # The HTTP layer folded the decoded outcome exactly once.
            assert queue.next_result(timeout=1) == (0, ("ok", 42))
        finally:
            coordinator.stop()


class TestRestartResume:
    def test_killed_coordinator_resumes_bit_identically_from_job_store(
        self, tmp_path, fresh_service, bank, settings, serial_reference
    ):
        """Acceptance for the job-store tentpole: a coordinator killed with
        queued *and* leased chunks (one outcome already persisted) is
        restarted over the same job store, and the resumed evaluation is
        bit-identical to the uninterrupted serial run — the persisted chunk
        re-folds from disk, the rest re-execute."""
        from repro.quantum.execution.dispatch import encode_chunk
        from repro.quantum.execution.jobstore import JobStore

        job_dir = tmp_path / "jobs"
        # The exact payloads evaluate() will build for this settings/bank.
        payloads = [
            encode_chunk(_run_task_chunk, (settings, task)) for task in bank
        ]
        digests = [JobStore.digest_of(p) for p in payloads]

        # --- first life: accept every chunk, complete exactly one ---------
        first = EvalCoordinator(
            tmp_path / "store1", fallback_workers=0, job_store=job_dir,
            lease_timeout=30.0,
        ).start()
        for digest, payload in zip(digests, payloads):
            first.job_store.record(digest, payload)
        first.queue.add_chunks(payloads)
        client = DispatchClient(first.url)
        # A real worker executes chunk 0 over HTTP and the outcome is
        # persisted (the folding loop writes the store *before* folding)...
        done = client.lease("worker-1")
        outcome = run_chunk_payload(base64.b64decode(done["payload"]))
        assert client.complete(int(done["lease"]), outcome, "worker-1")
        folded = first.queue.next_result(timeout=5)
        assert folded is not None and folded[0] == int(done["chunk"])
        first.job_store.complete(
            digests[folded[0]],
            pickle.dumps(folded[1], protocol=pickle.HIGHEST_PROTOCOL),
        )
        # ...a second chunk is mid-execution (leased, never completed)...
        leased = client.lease("worker-2")
        assert leased and not leased.get("empty")
        # ...and the coordinator dies: in-memory queue and leases vanish,
        # only the job store survives.
        first.stop()
        assert JobStore(job_dir).counts() == {"pending": 2, "done": 1}

        # --- second life: same job store, fresh everything else -----------
        second = make_coordinator(
            tmp_path, job_store=job_dir, fallback_workers=1,
            fallback_grace=0.05,
        )
        try:
            result = evaluate(settings, bank, coordinator=second)
        finally:
            second.stop()
        assert_identical(result, serial_reference)
        # Only the two unfinished chunks were ever queued for execution;
        # the completed one was restored from disk, not re-run.
        assert second.queue.status()["total"] == len(bank) - 1
        # A cleanly resumed run retires its records.
        assert len(JobStore(job_dir)) == 0


class TestChunkCodec:
    def test_failing_chunk_reraises_at_fold_time(self, tmp_path):
        from repro.quantum.execution.dispatch import decode_result, encode_chunk

        blob = run_chunk_payload(encode_chunk(_explode, ()))
        with pytest.raises(RuntimeError, match="boom"):
            decode_result(blob)

    def test_run_task_chunk_payload_roundtrip(self, fresh_service, bank, settings):
        """The real eval chunk survives the dispatch codec bit-identically."""
        from repro.quantum.execution.dispatch import decode_result, encode_chunk

        direct = _run_task_chunk(settings, bank[0])
        set_default_service(ExecutionService())  # cold again: same counters
        via_codec = decode_result(
            run_chunk_payload(encode_chunk(_run_task_chunk, (settings, bank[0])))
        )
        assert via_codec == direct


def _lease_retrying(client: DispatchClient, worker: str) -> dict:
    """Lease one chunk, waiting out the race with evaluate() queueing them."""
    import time

    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        document = client.lease(worker)
        if document is not None and not document.get("empty"):
            return document
        time.sleep(0.02)
    raise AssertionError("no chunk became leasable within 30s")


def _double(x):
    return x * 2


def _explode():
    raise RuntimeError("boom")
