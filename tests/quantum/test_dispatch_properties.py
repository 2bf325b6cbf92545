"""Property-based/fuzz harness for the dispatch protocol's lease queue.

Seeded ``random`` only (mirroring ``test_cache_properties.py``): arbitrary
interleavings of lease / heartbeat / complete / fail / clock-advance / add
operations must preserve the queue invariants the distributed eval engine's
determinism rests on —

* **no lost chunk** — every chunk is always in exactly one of
  pending / leased / done, and a drained queue has folded all of them;
* **no duplicate fold** — ``complete`` succeeds exactly once per chunk, no
  matter how many stale leases race it;
* **monotonic lease ids** — every lease ever issued has a strictly larger id
  than the one before.
"""

import random
import socket
import threading

import pytest

from repro.quantum.execution import WorkQueue

SEED = 20260728


def _dead_url() -> str:
    """A URL nothing listens on (bind an ephemeral port, then release it)."""
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return f"http://127.0.0.1:{port}"


def _rng(tag: str) -> random.Random:
    return random.Random(f"{SEED}:{tag}")


class FakeClock:
    """Deterministic, manually-advanced stand-in for ``time.monotonic``."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def make_queue(lease_timeout: float = 10.0) -> tuple[WorkQueue, FakeClock]:
    clock = FakeClock()
    return WorkQueue(lease_timeout=lease_timeout, clock=clock), clock


def payload(i: int) -> bytes:
    return f"chunk-{i}".encode()


def assert_partition(queue: WorkQueue) -> None:
    """Every chunk is in exactly one state and none has vanished."""
    status = queue.status()
    assert (
        status["pending"] + status["leased"] + status["done"]
        == status["total"]
    )
    # The internal state list is the ground truth the counters must match.
    states = list(queue._state)
    assert states.count("pending") == status["pending"]
    assert states.count("leased") == status["leased"]
    assert states.count("done") == status["done"]


class TestQueueFuzz:
    @pytest.mark.parametrize("round_tag", ["a", "b", "c", "d"])
    def test_random_op_sequences_preserve_invariants(self, round_tag):
        rng = _rng(f"ops-{round_tag}")
        queue, clock = make_queue(lease_timeout=rng.uniform(1.0, 20.0))
        live_leases: list[int] = []
        retired_leases: list[int] = []
        lease_ids_issued: list[int] = []
        queue.add_chunks([payload(i) for i in range(rng.randint(1, 8))])

        for _ in range(400):
            op = rng.choice(
                ["lease", "complete", "complete_stale", "heartbeat",
                 "fail", "advance", "add", "expire"]
            )
            if op == "lease":
                leased = queue.lease(f"w{rng.randint(0, 3)}")
                if leased is not None:
                    lease_id, index, blob = leased
                    assert blob == payload(index)
                    lease_ids_issued.append(lease_id)
                    live_leases.append(lease_id)
            elif op == "complete" and live_leases:
                lease_id = rng.choice(live_leases)
                if queue.complete(lease_id, b"result"):
                    live_leases.remove(lease_id)
                    retired_leases.append(lease_id)
            elif op == "complete_stale":
                # A lease id that was never issued, or one already retired:
                # folding it must always be rejected.
                stale = rng.choice(retired_leases) if (
                    retired_leases and rng.random() < 0.5
                ) else rng.randint(10_000, 20_000)
                assert queue.complete(stale, b"stale") is False
            elif op == "heartbeat" and live_leases:
                queue.heartbeat(rng.choice(live_leases))
            elif op == "fail" and live_leases:
                lease_id = rng.choice(live_leases)
                if queue.fail(lease_id):
                    live_leases.remove(lease_id)
                    retired_leases.append(lease_id)
            elif op == "advance":
                clock.advance(rng.uniform(0.0, queue.lease_timeout * 1.5))
            elif op == "add":
                start = queue.total
                queue.add_chunks(
                    [payload(start + i) for i in range(rng.randint(1, 3))]
                )
            elif op == "expire":
                queue.expire()
            # Expiry can retire any live lease at any moment; drop the ones
            # the queue no longer recognises (their completes must fail).
            for lease_id in list(live_leases):
                if lease_id not in queue._leases:
                    live_leases.remove(lease_id)
                    retired_leases.append(lease_id)
            assert_partition(queue)
            # Monotonic lease ids across the whole history.
            assert lease_ids_issued == sorted(set(lease_ids_issued))

        # Drain: lease + complete until everything folded exactly once.
        folded_chunks: list[int] = []
        while queue.done < queue.total:
            leased = queue.lease("drainer")
            if leased is None:
                clock.advance(queue.lease_timeout + 1)
                continue
            lease_id, index, _blob = leased
            assert queue.complete(lease_id, payload(index)) is True
            folded_chunks.append(index)
        assert_partition(queue)
        status = queue.status()
        assert status["pending"] == status["leased"] == 0
        assert status["done"] == status["total"]
        # Exactly-once: the drain folded each remaining chunk once, and no
        # chunk appears twice across the whole run.
        assert len(folded_chunks) == len(set(folded_chunks))

    def test_fuzzed_double_complete_never_double_folds(self):
        rng = _rng("double")
        queue, clock = make_queue(lease_timeout=5.0)
        queue.add_chunks([payload(i) for i in range(20)])
        folds = 0
        issued: list[int] = []
        while queue.done < queue.total:
            leased = queue.lease()
            if leased is None:
                clock.advance(6.0)
                continue
            lease_id, _index, _blob = leased
            issued.append(lease_id)
            # Sometimes let the lease expire before completing: the late
            # completion must then be rejected.
            expired = rng.random() < 0.3
            if expired:
                clock.advance(6.0)
            first = queue.complete(lease_id, b"r")
            assert first is (not expired)
            folds += int(first)
            # Every retry of an already-settled lease is rejected.
            for _ in range(rng.randint(1, 3)):
                assert queue.complete(lease_id, b"again") is False
        assert folds == queue.total == queue.done
        assert issued == sorted(set(issued))


class TestQueueEdges:
    def test_heartbeat_extends_lease(self):
        queue, clock = make_queue(lease_timeout=10.0)
        queue.add_chunks([payload(0)])
        lease_id, _, _ = queue.lease("w")
        clock.advance(8.0)
        assert queue.heartbeat(lease_id) is True
        clock.advance(8.0)  # would be past the original deadline
        assert queue.expire() == 0
        assert queue.complete(lease_id, b"r") is True

    def test_expired_lease_requeues_exactly_once(self):
        queue, clock = make_queue(lease_timeout=1.0)
        queue.add_chunks([payload(0)])
        lease_id, index, _ = queue.lease("w")
        clock.advance(2.0)
        assert queue.expire() == 1
        assert queue.expire() == 0  # idempotent: one expiry, one requeue
        assert queue.requeues == {index: 1}
        assert queue.heartbeat(lease_id) is False
        assert queue.complete(lease_id, b"late") is False
        release = queue.lease("w2")
        assert release is not None and release[0] > lease_id
        assert queue.complete(release[0], b"r") is True
        assert queue.status()["done"] == 1

    def test_fail_requeues_and_is_stale_safe(self):
        queue, _clock = make_queue()
        queue.add_chunks([payload(0)])
        lease_id, index, _ = queue.lease()
        assert queue.fail(lease_id) is True
        assert queue.fail(lease_id) is False  # already requeued
        assert queue.requeues == {index: 1}
        assert queue.status()["pending"] == 1

    def test_lease_on_empty_queue(self):
        queue, _clock = make_queue()
        assert queue.lease() is None
        assert queue.next_result(timeout=0.01) is None

    def test_rejects_nonpositive_lease_timeout(self):
        with pytest.raises(ValueError, match="lease_timeout"):
            WorkQueue(lease_timeout=0)

    def test_next_result_wakes_on_complete(self):
        queue, _clock = make_queue()
        queue.add_chunks([payload(0)])
        lease_id, index, _ = queue.lease()
        got = []

        def wait():
            got.append(queue.next_result(timeout=5.0))

        thread = threading.Thread(target=wait)
        thread.start()
        queue.complete(lease_id, b"r")
        thread.join(timeout=5)
        assert got == [(index, b"r")]

    def test_repr_and_status_agree(self):
        queue, _clock = make_queue()
        queue.add_chunks([payload(0), payload(1)])
        queue.lease()
        text = repr(queue)
        assert "total=2" in text and "leased=1" in text and "pending=1" in text


class TestTransportHardening:
    """The HTTP layer and worker client against dead servers and bad input."""

    def test_client_rejects_non_http_url(self):
        from repro.quantum.execution import DispatchClient

        with pytest.raises(ValueError, match="http"):
            DispatchClient("ftp://coordinator")

    def test_dead_coordinator_degrades_to_retryable_nothing(self):
        """Transport errors return None/False (the worker loop retries);
        only auth errors raise."""
        from repro.quantum.execution import DispatchClient

        client = DispatchClient(_dead_url(), timeout=0.5)
        assert client.lease("w") is None
        # Heartbeat distinguishes "request lost" (None — keep beating) from
        # an explicit "lease gone" (False): see _heartbeat_loop.
        assert client.heartbeat(1, "w") is None
        assert client.complete(1, b"r", "w") is False
        assert client.status() is None
        assert client.errors == 4
        assert "errors=4" in repr(client)

    def test_work_status_endpoint(self, tmp_path):
        from repro.quantum.execution import DispatchClient, EvalCoordinator
        from repro.quantum.execution.dispatch import encode_chunk

        with EvalCoordinator(tmp_path, fallback_workers=0) as coordinator:
            coordinator.queue.add_chunks([encode_chunk(_echo, (1,))])
            client = DispatchClient(coordinator.url)
            status = client.status()
            assert status == {
                "total": 1, "pending": 1, "leased": 0, "done": 0,
                "requeues": 0, "workers": 0, "lanes": {"": 1},
            }

    def test_malformed_work_requests_are_400(self, tmp_path):
        import json
        import urllib.error
        import urllib.request

        from repro.quantum.execution import EvalCoordinator

        with EvalCoordinator(tmp_path, fallback_workers=0) as coordinator:
            bad_bodies = [
                b"{ not json",
                b"[1, 2, 3]",  # json but not an object
                json.dumps({"worker": "w"}).encode(),  # heartbeat sans lease
            ]
            paths = ["/work/heartbeat", "/work/heartbeat", "/work/heartbeat"]
            for path, body in zip(paths, bad_bodies):
                request = urllib.request.Request(
                    f"{coordinator.url}{path}", data=body, method="POST"
                )
                with pytest.raises(urllib.error.HTTPError) as info:
                    urllib.request.urlopen(request, timeout=2)
                assert info.value.code == 400, body

    def test_unknown_post_path_is_404(self, tmp_path):
        import urllib.error
        import urllib.request

        from repro.quantum.execution import EvalCoordinator

        with EvalCoordinator(tmp_path, fallback_workers=0) as coordinator:
            request = urllib.request.Request(
                f"{coordinator.url}/work/nope", data=b"{}", method="POST"
            )
            with pytest.raises(urllib.error.HTTPError) as info:
                urllib.request.urlopen(request, timeout=2)
            assert info.value.code == 404

    def test_cache_routes_still_served_by_coordinator(self, tmp_path):
        """The coordinator is a full cache server too — one port, one token."""
        from repro.quantum.execution import (
            CacheKey,
            EvalCoordinator,
            RemoteResultCache,
        )

        key = CacheKey(
            circuit="ab" * 8, backend="b", shots=8, seed=1,
            noise="ideal", memory=False, engine=1,
        )
        with EvalCoordinator(tmp_path, fallback_workers=0) as coordinator:
            client = RemoteResultCache(coordinator.url)
            client.put(key, {"0": 8}, None)
            assert client.get(key) == ({"0": 8}, None)
            assert client.stats()["entries"] == 1

    def test_tokenless_coordinator_refuses_non_loopback_bind(self, tmp_path):
        """Leased chunks execute as code: an open work queue may only face
        this machine.  (Loopback without a token stays fine — tests and
        single-host runs — as does any bind with a token.)"""
        from repro.errors import BackendError
        from repro.quantum.execution import EvalCoordinator

        with pytest.raises(BackendError, match="non-loopback"):
            EvalCoordinator(tmp_path, host="0.0.0.0")
        with pytest.raises(BackendError, match="non-loopback"):
            EvalCoordinator(tmp_path, host="")  # "" binds INADDR_ANY too
        with EvalCoordinator(tmp_path, host="127.0.0.1") as coordinator:
            assert coordinator.queue.status()["total"] == 0

    def test_non_ascii_auth_header_is_401_not_a_crash(self, tmp_path):
        """Regression: compare_digest on str raises for non-ASCII input;
        the handler must answer 401, not dump a traceback and drop the
        connection."""
        import urllib.error
        import urllib.request

        from repro.quantum.execution import EvalCoordinator

        with EvalCoordinator(tmp_path, token="fleet-secret") as coordinator:
            request = urllib.request.Request(f"{coordinator.url}/work/status")
            request.add_header("Authorization", "Bearer café")
            with pytest.raises(urllib.error.HTTPError) as info:
                urllib.request.urlopen(request, timeout=2)
            assert info.value.code == 401

    def test_run_worker_validates_workers(self):
        from repro.quantum.execution import run_worker

        with pytest.raises(ValueError, match="workers"):
            run_worker("http://x:1", workers=0)

    def test_coordinator_rejects_negative_fallback_workers(self, tmp_path):
        """Regression: a negative pool size started no drain thread, so
        run_chunks waited forever for a local fallback that never ran."""
        from repro.quantum.execution import EvalCoordinator

        with pytest.raises(ValueError, match="fallback_workers"):
            EvalCoordinator(tmp_path, fallback_workers=-1)

    def test_worker_max_idle_exits_without_a_queue(self, tmp_path):
        from repro.quantum.execution import EvalCoordinator, run_worker

        with EvalCoordinator(tmp_path, fallback_workers=0) as coordinator:
            completed = run_worker(
                coordinator.url, workers=2, poll_interval=0.02, max_idle=0.2
            )
            assert completed == 0

    def test_fallback_chunk_outliving_lease_timeout_is_not_requeued(
        self, tmp_path
    ):
        """Regression: the local fallback heartbeats its lease, so a chunk
        slower than lease_timeout completes instead of being requeued and
        re-executed forever."""
        from repro.quantum.execution import EvalCoordinator
        from repro.quantum.execution.dispatch import encode_chunk

        with EvalCoordinator(
            tmp_path, fallback_workers=1, fallback_grace=0.01,
            lease_timeout=0.3,
        ) as coordinator:
            results = coordinator.run_chunks([encode_chunk(_slow_echo, (7,))])
            assert results == [7]
            assert coordinator.queue.requeues == {}

    def test_worker_chunk_outliving_lease_timeout_is_not_requeued(
        self, tmp_path
    ):
        """Regression: the worker paces heartbeats under the coordinator's
        advertised lease timeout, so a small --lease-timeout does not expire
        every lease before the first (default-interval) beat."""
        from repro.quantum.execution import EvalCoordinator, run_worker
        from repro.quantum.execution.dispatch import encode_chunk

        with EvalCoordinator(
            tmp_path, fallback_workers=0, lease_timeout=0.4
        ) as coordinator:
            coordinator.queue.add_chunks([encode_chunk(_slow_echo, (9,))])
            completed = run_worker(
                coordinator.url, workers=1, poll_interval=0.02,
                max_idle=0.5,  # default heartbeat_interval (5s) stays in play
            )
            assert completed == 1
            assert coordinator.queue.requeues == {}
            assert coordinator.queue.status()["done"] == 1

    def test_fallback_grace_is_honoured_before_any_worker_attaches(
        self, tmp_path
    ):
        """Regression: with no worker ever seen, the grace window counts
        from the start of the run — the coordinator must not start draining
        the queue locally ~instantly, or an attaching fleet would always
        find it empty."""
        import time

        from repro.quantum.execution import DispatchClient, EvalCoordinator
        from repro.quantum.execution.dispatch import (
            encode_chunk,
            run_chunk_payload,
        )

        with EvalCoordinator(
            tmp_path, fallback_workers=2, fallback_grace=30.0,
            lease_timeout=10.0,
        ) as coordinator:
            box = {}

            def run():
                box["results"] = coordinator.run_chunks(
                    [encode_chunk(_echo, (i,)) for i in range(3)]
                )

            thread = threading.Thread(target=run, daemon=True)
            thread.start()
            time.sleep(0.4)
            # Well past the old instant-start behaviour, nothing ran.
            assert coordinator.queue.status()["done"] == 0
            # A worker that attaches within the grace gets all the work.
            client = DispatchClient(coordinator.url)
            served = 0
            while served < 3:
                document = client.lease("fleet")
                if document is None or document.get("empty"):
                    time.sleep(0.02)
                    continue
                import base64

                outcome = run_chunk_payload(
                    base64.b64decode(document["payload"])
                )
                client.complete(int(document["lease"]), outcome, "fleet")
                served += 1
            thread.join(timeout=10)
            assert box["results"] == [0, 1, 2]

    def test_aborted_run_retires_its_chunks(self, tmp_path):
        """Regression: a run that re-raises a chunk error must not leave its
        unfinished chunks pending (the next run's workers would execute them
        for nothing) nor retain their payloads."""
        import base64
        import time

        from repro.quantum.execution import DispatchClient, EvalCoordinator
        from repro.quantum.execution.dispatch import (
            encode_chunk,
            run_chunk_payload,
        )

        with EvalCoordinator(
            tmp_path, fallback_workers=0, lease_timeout=10.0
        ) as coordinator:
            box = {}

            def run():
                try:
                    coordinator.run_chunks(
                        [encode_chunk(_boom, ()), encode_chunk(_echo, (5,))]
                    )
                except RuntimeError as exc:
                    box["error"] = exc

            thread = threading.Thread(target=run, daemon=True)
            thread.start()
            client = DispatchClient(coordinator.url)
            # Serve only the first (exploding) chunk; its fold aborts the run.
            while True:
                document = client.lease("fleet")
                if document is not None and not document.get("empty"):
                    break
                time.sleep(0.02)
            outcome = run_chunk_payload(base64.b64decode(document["payload"]))
            client.complete(int(document["lease"]), outcome, "fleet")
            thread.join(timeout=10)
            assert isinstance(box.get("error"), RuntimeError)
            # The never-run second chunk was retired, not left pending.
            status = coordinator.queue.status()
            assert status["pending"] == 0 and status["leased"] == 0
            assert status["done"] == status["total"] == 2
            assert client.lease("fleet").get("empty") is True
            # Payloads were released (a long-lived coordinator stays lean).
            assert all(p == b"" for p in coordinator.queue._payloads)

    def test_concurrent_run_chunks_each_get_their_own_results(
        self, tmp_path
    ):
        """Regression: two overlapping run_chunks calls used to steal each
        other's completions from the shared result stream and hang; each
        folding loop now consumes only its own chunks' completions
        (next_result(within=...)), so concurrent runs — two tenants
        sharing one coordinator — interleave safely."""
        from repro.quantum.execution import EvalCoordinator
        from repro.quantum.execution.dispatch import encode_chunk

        with EvalCoordinator(
            tmp_path, fallback_workers=1, fallback_grace=0.01,
            lease_timeout=5.0,
        ) as coordinator:
            results = [None, None]

            def run(slot, values):
                results[slot] = coordinator.run_chunks(
                    [encode_chunk(_echo, (v,)) for v in values]
                )

            threads = [
                threading.Thread(target=run, args=(0, [1, 2]), daemon=True),
                threading.Thread(target=run, args=(1, [3, 4]), daemon=True),
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
            assert results == [[1, 2], [3, 4]]

    def test_auth_rejection_on_complete_crashes_worker_loudly(
        self, tmp_path, monkeypatch
    ):
        """Regression: credentials revoked *mid-run* (the completion upload
        gets the 401, not the lease) must still crash run_worker, not kill
        one thread silently and report success."""
        from repro.errors import BackendError
        from repro.quantum.execution import EvalCoordinator, run_worker
        from repro.quantum.execution import dispatch as dispatch_mod

        with EvalCoordinator(
            tmp_path, fallback_workers=0, lease_timeout=5.0
        ) as coordinator:
            coordinator.queue.add_chunks(
                [dispatch_mod.encode_chunk(_echo, (1,))]
            )

            def revoked(self, lease_id, result, worker=""):
                raise BackendError("credentials revoked mid-run")

            monkeypatch.setattr(
                dispatch_mod.DispatchClient, "complete", revoked
            )
            with pytest.raises(BackendError, match="revoked"):
                run_worker(
                    coordinator.url, workers=1, poll_interval=0.02,
                    max_idle=5,
                )

    def test_run_chunks_skips_stragglers_from_an_aborted_run(self, tmp_path):
        """Regression: a completion belonging to an earlier run on the same
        coordinator must be dropped by the folding loop, not crash it."""
        from repro.quantum.execution import EvalCoordinator
        from repro.quantum.execution.dispatch import encode_chunk

        with EvalCoordinator(
            tmp_path, fallback_workers=1, fallback_grace=0.01,
            lease_timeout=5.0,
        ) as coordinator:
            queue = coordinator.queue
            # Simulate an aborted earlier run: its chunk completes after the
            # run stopped folding, leaving a stray entry in the result queue.
            queue.add_chunks([b"stale-payload"])
            lease_id, _index, _ = queue.lease("earlier-run")
            queue.complete(lease_id, ("ok", "stale"))
            results = coordinator.run_chunks(
                [encode_chunk(_echo, (1,)), encode_chunk(_echo, (2,))]
            )
            assert results == [1, 2]


def _echo(x):
    return x


def _slow_echo(x):
    import time

    time.sleep(1.0)
    return x


def _boom():
    raise RuntimeError("chunk exploded")
