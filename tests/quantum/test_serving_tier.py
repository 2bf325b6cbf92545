"""The multi-tenant serving tier: keys, quotas, lanes, job store, /metrics.

Covers the admission-control primitives in isolation (token bucket,
registry, job store) and the serving behavior end-to-end over real HTTP:
tenant API keys as bearer credentials, 429 + ``Retry-After`` on rate
limits, quota exhaustion mid-batch, fair-share lane scheduling, the
Prometheus ``/metrics`` exposition, and a killed coordinator resuming
bit-identically from its job store.
"""

import io
import json
import pickle
import re
import urllib.error
import urllib.request
from email.message import Message

import pytest

from repro.errors import BackendError
from repro.quantum.execution import (
    CacheKey,
    CacheServer,
    ExecutionService,
    JobStore,
    RemoteResultCache,
    Tenant,
    TenantRegistry,
    TokenBucket,
)
from repro.quantum.execution.dispatch import (
    DispatchClient,
    EvalCoordinator,
    WorkQueue,
    encode_chunk,
    run_chunk_payload,
)
from repro.quantum.execution.remote_cache import parse_retry_after
from repro.quantum.execution.scopes import COUNTERS
from repro.quantum.execution.tenants import load_tenants


def _key(tag: int = 0) -> CacheKey:
    return CacheKey(
        circuit=f"{tag:016x}",
        backend="local_simulator",
        shots=64,
        seed=7,
        noise="ideal",
        memory=False,
    )


def _fake_clock(start: float = 0.0):
    clock = [start]
    return clock, (lambda: clock[0])


def _tenant_file(tmp_path, entries) -> str:
    path = tmp_path / "tenants.json"
    path.write_text(json.dumps(entries), encoding="utf-8")
    return str(path)


def _raw(url: str, key: str | None = None, method: str = "GET", data=None):
    headers = {"Authorization": f"Bearer {key}"} if key else {}
    request = urllib.request.Request(url, data=data, method=method, headers=headers)
    return urllib.request.urlopen(request, timeout=5)


# -- the token bucket ------------------------------------------------------------------


class TestTokenBucket:
    def test_starts_full_and_admits_exactly_at_the_boundary(self):
        clock, tick = _fake_clock()
        bucket = TokenBucket(rate=1.0, burst=2.0, clock=tick)
        assert bucket.try_acquire() == 0.0
        assert bucket.try_acquire() == 0.0
        # Empty: the wait is the exact refill time of the deficit.
        assert bucket.try_acquire() == pytest.approx(1.0)
        # Exactly one token refilled — the boundary itself admits.
        clock[0] = 1.0
        assert bucket.try_acquire() == 0.0
        assert bucket.try_acquire() > 0.0

    def test_refill_is_capped_at_burst(self):
        clock, tick = _fake_clock()
        bucket = TokenBucket(rate=10.0, burst=3.0, clock=tick)
        clock[0] = 1e6
        assert bucket.peek() == 3.0

    def test_rejects_nonsense_parameters(self):
        with pytest.raises(ValueError, match="rate"):
            TokenBucket(rate=0.0, burst=1.0)
        with pytest.raises(ValueError, match="burst"):
            TokenBucket(rate=1.0, burst=0.5)


# -- the tenant registry ---------------------------------------------------------------


class TestTenantValidation:
    def test_name_charset_is_enforced(self):
        with pytest.raises(ValueError, match="name"):
            Tenant('evil"tenant', "k")
        with pytest.raises(ValueError, match="name"):
            Tenant("", "k")

    def test_key_priority_and_quotas_are_validated(self):
        with pytest.raises(ValueError, match="key"):
            Tenant("a", "")
        with pytest.raises(ValueError, match="priority"):
            Tenant("a", "k", priority=0)
        with pytest.raises(ValueError, match="max_bytes"):
            Tenant("a", "k", max_bytes=-1)
        with pytest.raises(ValueError, match="burst without rate"):
            Tenant("a", "k", burst=5.0)

    def test_registry_rejects_duplicate_names_and_keys(self):
        with pytest.raises(ValueError, match="duplicate tenant names"):
            TenantRegistry([Tenant("a", "k1"), Tenant("a", "k2")])
        with pytest.raises(ValueError, match="duplicate tenant API keys"):
            TenantRegistry([Tenant("a", "k"), Tenant("b", "k")])


class TestTenantFile:
    def test_loads_bare_list_and_wrapped_document(self, tmp_path):
        entries = [
            {"name": "alice", "key": "ka", "priority": 3, "max_bytes": 1000},
            {"name": "bob", "key": "kb", "rate_per_sec": 5, "burst": 10},
        ]
        bare = TenantRegistry.from_file(_tenant_file(tmp_path, entries))
        (tmp_path / "wrapped.json").write_text(json.dumps({"tenants": entries}))
        wrapped = TenantRegistry.from_file(tmp_path / "wrapped.json")
        for registry in (bare, wrapped):
            assert registry.names() == ["alice", "bob"]
            assert registry.priorities() == {"alice": 3, "bob": 1}

    def test_unknown_field_is_a_hard_error(self, tmp_path):
        """A typo like "max_byte" must refuse to load, not silently grant
        an unlimited quota."""
        path = _tenant_file(tmp_path, [{"name": "a", "key": "k", "max_byte": 1}])
        with pytest.raises(ValueError, match="unknown fields.*max_byte"):
            TenantRegistry.from_file(path)

    def test_invalid_json_and_wrong_shapes_are_errors(self, tmp_path):
        path = tmp_path / "tenants.json"
        path.write_text("{ not json")
        with pytest.raises(ValueError, match="not valid JSON"):
            TenantRegistry.from_file(path)
        path.write_text('"just a string"')
        with pytest.raises(ValueError, match="list of tenant objects"):
            TenantRegistry.from_file(path)

    def test_load_tenants_resolves_env_fallback(self, tmp_path, monkeypatch):
        path = _tenant_file(tmp_path, [{"name": "a", "key": "k"}])
        monkeypatch.delenv("REPRO_TENANT_FILE", raising=False)
        assert load_tenants(None) is None
        monkeypatch.setenv("REPRO_TENANT_FILE", path)
        assert len(load_tenants(None)) == 1
        # An explicit path wins over the environment.
        other = tmp_path / "other.json"
        other.write_text("[]")
        assert len(load_tenants(other)) == 0


class TestRegistryAdmission:
    def test_authenticate_matches_exactly_one_key(self):
        registry = TenantRegistry([Tenant("a", "ka"), Tenant("b", "kb")])
        assert registry.authenticate("Bearer ka").name == "a"
        assert registry.authenticate("Bearer kb").name == "b"
        assert registry.authenticate("Bearer nope") is None
        assert registry.authenticate("") is None
        # Non-ASCII input must not crash the comparison (it 401s upstream).
        assert registry.authenticate("Bearer käß☃") is None

    def test_throttle_rounds_retry_after_up_to_at_least_one(self):
        clock, tick = _fake_clock()
        registry = TenantRegistry(
            [
                Tenant("slow", "ks", rate_per_sec=0.25, burst=1, clock=tick),
                Tenant("fast", "kf", rate_per_sec=10.0, burst=1, clock=tick),
                Tenant("open", "ko", clock=tick),
            ],
            clock=tick,
        )
        slow, fast, unlimited = (
            registry.authenticate(f"Bearer {k}") for k in ("ks", "kf", "ko")
        )
        assert registry.throttle(slow) is None  # burst token
        assert registry.throttle(slow) == 4.0  # ceil(1 / 0.25)
        assert registry.throttle(fast) is None
        assert registry.throttle(fast) == 1.0  # 0.1s rounds up to the floor
        for _ in range(50):  # no bucket: never throttled
            assert registry.throttle(unlimited) is None
        snap = {row["name"]: row for row in registry.snapshot()}
        assert snap["slow"]["throttled"] == 1
        assert snap["open"]["throttled"] == 0

    def test_byte_quota_denies_then_stops_charging(self):
        registry = TenantRegistry([Tenant("a", "k", max_bytes=100)])
        tenant = registry.authenticate("Bearer k")
        assert registry.charge_bytes(tenant, 60) is True
        assert registry.charge_bytes(tenant, 41) is False  # would exceed
        assert registry.charge_bytes(tenant, 40) is True  # exact fit
        assert tenant.bytes_used == 100
        assert tenant.quota_denials == 1

    def test_chunk_quota_reserve_and_refund(self):
        registry = TenantRegistry([Tenant("a", "k", max_chunks=2)])
        tenant = registry.authenticate("Bearer k")
        assert registry.try_charge_chunk(tenant) is True
        assert registry.try_charge_chunk(tenant) is True
        assert registry.try_charge_chunk(tenant) is False
        registry.refund_chunk(tenant)
        assert registry.try_charge_chunk(tenant) is True
        assert tenant.chunks_used == 2
        assert tenant.quota_denials == 1


# -- tenant keys over real HTTP --------------------------------------------------------


class TestServerTenantAuth:
    def test_tenant_key_authenticates_cache_endpoints(self, tmp_path):
        registry = TenantRegistry([Tenant("alice", "secret-a")])
        with CacheServer(tmp_path, tenants=registry) as server:
            client = RemoteResultCache(server.url, token="secret-a")
            client.put(_key(), {"00": 40, "11": 24}, None)
            assert client.get(_key()) == ({"00": 40, "11": 24}, None)
            assert client.errors == 0
            assert registry.snapshot()[0]["requests"] == 2

    def test_unknown_key_is_401_and_raises_client_side(self, tmp_path):
        registry = TenantRegistry([Tenant("alice", "secret-a")])
        with CacheServer(tmp_path, tenants=registry) as server:
            with pytest.raises(BackendError, match="rejected credentials"):
                RemoteResultCache(server.url, token="wrong").get(_key())
            with pytest.raises(BackendError, match="rejected credentials"):
                RemoteResultCache(server.url, token="").get(_key())

    def test_admin_token_coexists_and_is_never_throttled(self, tmp_path):
        registry = TenantRegistry(
            [Tenant("alice", "secret-a", rate_per_sec=0.01, burst=1)]
        )
        with CacheServer(
            tmp_path, token="admin-token", tenants=registry
        ) as server:
            admin = RemoteResultCache(server.url, token="admin-token")
            for _ in range(5):  # far past any tenant's bucket
                admin.put(_key(), {"0": 64}, None)
            assert admin.throttles == 0
            assert admin.errors == 0
            # The tenant key still works alongside the admin token...
            tenant = RemoteResultCache(server.url, token="secret-a")
            assert tenant.get(_key()) is not None
            # ...and *is* rate limited.
            assert tenant.get(_key()) is None
            assert tenant.throttles == 1


class TestThrottleEdges:
    def test_rate_limit_429_carries_retry_after(self, tmp_path):
        registry = TenantRegistry(
            [Tenant("alice", "secret-a", rate_per_sec=0.5, burst=1)]
        )
        with CacheServer(tmp_path, tenants=registry) as server:
            _raw(f"{server.url}/stats", key="secret-a").close()  # burst token
            with pytest.raises(urllib.error.HTTPError) as info:
                _raw(f"{server.url}/stats", key="secret-a")
            assert info.value.code == 429
            assert int(info.value.headers["Retry-After"]) >= 1

    def test_client_honors_429_without_feeding_the_breaker(self, tmp_path):
        registry = TenantRegistry(
            [Tenant("alice", "secret-a", rate_per_sec=0.01, burst=1)]
        )
        with CacheServer(tmp_path, tenants=registry) as server:
            client = RemoteResultCache(server.url, token="secret-a")
            client.put(_key(), {"0": 64}, None)  # consumes the one token
            assert client.get(_key()) is None  # 429
            assert client.throttles == 1
            assert client.errors == 0  # a throttled server is healthy
            assert client._consecutive == 0  # breaker untouched
            assert client._offline() is True  # but the backoff is active
            requests_before = registry.snapshot()[0]["requests"]
            assert client.get(_key()) is None  # sat out: no network attempt
            assert registry.snapshot()[0]["requests"] == requests_before

    def test_byte_quota_429_has_no_retry_after(self, tmp_path):
        """Waiting refills a rate limit, not a quota — so the quota 429
        deliberately omits Retry-After and the client backs off briefly."""
        registry = TenantRegistry([Tenant("bob", "secret-b", max_bytes=10)])
        with CacheServer(tmp_path, tenants=registry) as server:
            body = json.dumps({"padding": "x" * 64}).encode()
            with pytest.raises(urllib.error.HTTPError) as info:
                _raw(
                    f"{server.url}/entry/{'0' * 32}",
                    key="secret-b",
                    method="PUT",
                    data=body,
                )
            assert info.value.code == 429
            assert info.value.headers.get("Retry-After") is None
            assert len(server.disk) == 0
            assert registry.snapshot()[0]["quota_denials"] == 1
            client = RemoteResultCache(server.url, token="secret-b")
            client.put(_key(), {"0": 64}, None)
            assert client.throttles == 1
            assert client.errors == 0

    def test_5xx_feeds_the_breaker_not_the_throttle_counter(self, monkeypatch):
        client = RemoteResultCache("http://127.0.0.1:9", offline_after=2)

        def unavailable(request, timeout=None):
            raise urllib.error.HTTPError(
                request.full_url, 503, "busy", Message(), io.BytesIO(b"")
            )

        monkeypatch.setattr(urllib.request, "urlopen", unavailable)
        assert client.get(_key()) is None
        assert client.get(_key()) is None
        assert client.errors == 2
        assert client.throttles == 0
        assert client._offline() is True

    def test_parse_retry_after_forms(self):
        assert parse_retry_after({"Retry-After": "5"}) == 5.0
        assert parse_retry_after({"Retry-After": "2.5"}) == 2.5
        assert parse_retry_after({"Retry-After": "-3"}) == 0.0
        # The HTTP-date form falls back to the client's default backoff.
        assert parse_retry_after({"Retry-After": "Fri, 08 Aug 2026"}) is None
        assert parse_retry_after({}) is None
        assert parse_retry_after(None) is None


# -- fair-share lanes ------------------------------------------------------------------


class TestFairShareLanes:
    def test_single_default_lane_is_strict_fifo(self):
        queue = WorkQueue()
        queue.add_chunks([b"%d" % i for i in range(5)])
        order = [queue.lease("w")[1] for _ in range(5)]
        assert order == [0, 1, 2, 3, 4]

    def test_weighted_round_robin_across_lanes(self):
        queue = WorkQueue()
        queue.set_lane_priority("alice", 2)
        queue.add_chunks([b"a%d" % i for i in range(4)], lane="alice")
        queue.add_chunks([b"b%d" % i for i in range(4)], lane="bob")
        served = [queue.lease("w")[2] for _ in range(8)]
        # Alice (weight 2) gets two chunks per turn, bob (weight 1) one.
        assert served == [b"a0", b"a1", b"b0", b"a2", b"a3", b"b1", b"b2", b"b3"]

    def test_small_job_is_not_starved_by_a_large_sweep(self):
        queue = WorkQueue()
        queue.add_chunks([b"big%d" % i for i in range(100)], lane="big")
        queue.add_chunks([b"s%d" % i for i in range(3)], lane="small")
        first_eight = [queue.lease("w")[2] for _ in range(8)]
        # The 3-chunk job fully drains within the first few leases instead
        # of waiting behind all 100 of the sweep's chunks.
        assert {b"s0", b"s1", b"s2"} <= set(first_eight)

    def test_requeued_chunk_returns_to_its_own_lane(self):
        queue = WorkQueue()
        queue.add_chunks([b"a0"], lane="alice")
        queue.add_chunks([b"b0", b"b1"], lane="bob")
        lease_id, index, payload = queue.lease("w")
        assert payload == b"a0"
        assert queue.fail(lease_id) is True
        status = queue.status()
        assert status["lanes"] == {"alice": 1, "bob": 2}
        # The rotation continues with bob; alice's retry comes back around.
        drained = [queue.lease("w")[2] for _ in range(3)]
        assert set(drained) == {b"a0", b"b0", b"b1"}

    def test_coordinator_applies_tenant_priorities_to_lanes(self, tmp_path):
        registry = TenantRegistry(
            [Tenant("alice", "ka", priority=3), Tenant("bob", "kb")]
        )
        coordinator = EvalCoordinator(
            tmp_path / "store", tenants=registry, fallback_workers=0
        )
        try:
            assert coordinator.queue._lane_priority == {"alice": 3, "bob": 1}
        finally:
            coordinator.stop()


# -- chunk quotas on the dispatch endpoints --------------------------------------------


class TestChunkQuota:
    def test_quota_exhaustion_mid_batch_leaves_the_queue_consistent(
        self, tmp_path
    ):
        registry = TenantRegistry([Tenant("carol", "kc", max_chunks=1)])
        coordinator = EvalCoordinator(
            tmp_path / "store", tenants=registry, fallback_workers=0
        ).start()
        try:
            payload = encode_chunk(_double, (21,))
            coordinator.queue.add_chunks([payload, payload], lane="carol")
            client = DispatchClient(coordinator.url, token="kc")
            first = client.lease("carol-worker")
            assert first and not first.get("empty")
            outcome = run_chunk_payload(payload)
            assert client.complete(int(first["lease"]), outcome) is True
            # The second lease hits the spent quota: 429, counted as a
            # throttle (never an error), and no chunk is lost or leased.
            assert client.lease("carol-worker") is None
            assert client.throttles == 1
            assert client.errors == 0
            assert client.pause_hint() > 0.0
            status = coordinator.queue.status()
            assert status == {
                "total": 2,
                "pending": 1,
                "leased": 0,
                "done": 1,
                "requeues": 0,
                "workers": 1,
                "lanes": {"carol": 1},
            }
        finally:
            coordinator.stop()

    def test_empty_queue_refunds_the_chunk_reservation(self, tmp_path):
        registry = TenantRegistry([Tenant("carol", "kc", max_chunks=1)])
        coordinator = EvalCoordinator(
            tmp_path / "store", tenants=registry, fallback_workers=0
        ).start()
        try:
            client = DispatchClient(coordinator.url, token="kc")
            for _ in range(3):  # repeated empty leases must not burn quota
                assert client.lease("carol-worker").get("empty") is True
            assert registry.snapshot()[0]["chunks_used"] == 0
        finally:
            coordinator.stop()

    def test_heartbeats_are_exempt_from_throttling(self, tmp_path):
        """A throttled tenant's heartbeats must still land: dropping them
        would expire healthy leases and turn a rate limit into requeues."""
        registry = TenantRegistry(
            [Tenant("dave", "kd", rate_per_sec=0.01, burst=1)]
        )
        coordinator = EvalCoordinator(
            tmp_path / "store", tenants=registry, fallback_workers=0
        ).start()
        try:
            coordinator.queue.add_chunks([encode_chunk(_double, (1,))])
            client = DispatchClient(coordinator.url, token="kd")
            leased = client.lease("dave-worker")  # consumes the one token
            assert leased and not leased.get("empty")
            # The rate bucket is empty, but heartbeats still succeed...
            for _ in range(3):
                assert client.heartbeat(int(leased["lease"])) is True
            assert client.throttles == 0
            # ...while a throttleable verb answers 429.
            assert client.status() is None
            assert client.throttles == 1
        finally:
            coordinator.stop()


# -- /metrics --------------------------------------------------------------------------

_SAMPLE_RE = re.compile(
    r"^[a-zA-Z_][a-zA-Z0-9_]*"
    r'(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})?'
    r" \S+$"
)


def _scrape(url: str, key: str) -> tuple[str, str]:
    with _raw(f"{url}/metrics", key=key) as response:
        return (
            response.read().decode("utf-8"),
            response.headers.get("Content-Type", ""),
        )


class TestMetricsEndpoint:
    def test_every_service_counter_and_tenant_is_exported(self, tmp_path):
        registry = TenantRegistry([Tenant("alice", "ka"), Tenant("bob", "kb")])
        service = ExecutionService()
        coordinator = EvalCoordinator(
            tmp_path / "store",
            tenants=registry,
            service=service,
            job_store=tmp_path / "jobs",
            fallback_workers=0,
        ).start()
        try:
            RemoteResultCache(coordinator.url, token="ka").put(
                _key(), {"0": 64}, None
            )
            body, content_type = _scrape(coordinator.url, "kb")
        finally:
            coordinator.stop()
        assert content_type.startswith("text/plain; version=0.0.4")
        # Every stats() counter is exported: numeric keys as gauges, the
        # string-valued ones as labels on the info sample.
        for stats_key, value in service.stats().items():
            if isinstance(value, (int, float)):
                assert f"repro_service_{stats_key}" in body
            else:
                assert f'{stats_key}="' in body
        # Registered counters carry their registry help as the HELP line.
        assert (
            f"# HELP repro_service_simulations {dict(COUNTERS)['simulations']}\n"
            in body
        )
        # Per-tenant counters, nonzero for the tenant that spoke.
        alice = re.search(
            r'^repro_tenant_requests_total\{tenant="alice"\} (\d+)$',
            body,
            re.MULTILINE,
        )
        assert alice is not None and int(alice.group(1)) >= 1
        assert 'repro_tenant_requests_total{tenant="bob"}' in body
        assert 'repro_tenant_priority{tenant="alice"} 1' in body
        # Store, queue, and job-store snapshots ride along.
        assert "repro_store_entries 1" in body
        assert "repro_work_pending 0" in body
        assert "repro_jobs_pending 0" in body

    def test_exposition_format_is_well_formed(self, tmp_path):
        registry = TenantRegistry([Tenant("alice", "ka")])
        with CacheServer(tmp_path, tenants=registry) as server:
            body, _ = _scrape(server.url, "ka")
        help_names = []
        for line in body.rstrip("\n").split("\n"):
            if line.startswith("# HELP "):
                help_names.append(line.split()[2])
            elif line.startswith("# TYPE "):
                assert line.split()[3] in ("gauge", "counter")
            else:
                assert _SAMPLE_RE.match(line), f"malformed sample: {line!r}"
        # One contiguous block per metric name — HELP appears exactly once.
        assert len(help_names) == len(set(help_names))

    def test_label_values_are_escaped(self):
        from repro.quantum.execution.metrics import (
            escape_label_value,
            render_samples,
        )

        assert escape_label_value('a"b\\c\nd') == 'a\\"b\\\\c\\nd'
        text = render_samples([("m", {"tenant": 'x"y'}, 1)])
        assert 'm{tenant="x\\"y"} 1' in text

    def test_metrics_stay_scrapeable_while_throttled(self, tmp_path):
        """The scrape endpoint is throttle-exempt: observability must not
        go dark exactly when a tenant is being limited."""
        registry = TenantRegistry(
            [Tenant("alice", "ka", rate_per_sec=0.01, burst=1)]
        )
        with CacheServer(tmp_path, tenants=registry) as server:
            _raw(f"{server.url}/stats", key="ka").close()  # spend the token
            with pytest.raises(urllib.error.HTTPError) as info:
                _raw(f"{server.url}/stats", key="ka")
            assert info.value.code == 429
            body, _ = _scrape(server.url, "ka")
            assert 'repro_tenant_throttled_total{tenant="alice"} 1' in body

    def test_bare_cache_server_serves_metrics_without_extras(self, tmp_path):
        with CacheServer(tmp_path) as server:
            with _raw(f"{server.url}/metrics") as response:
                body = response.read().decode("utf-8")
        assert "repro_store_entries 0" in body
        assert "repro_tenant_requests_total" not in body
        assert "repro_work_pending" not in body


# -- the job store ---------------------------------------------------------------------


def _outcome_bytes(value) -> bytes:
    return pickle.dumps(("ok", value), protocol=pickle.HIGHEST_PROTOCOL)


class TestJobStore:
    def test_record_complete_restore_roundtrip(self, tmp_path):
        store = JobStore(tmp_path / "jobs")
        payload = b"chunk-payload"
        digest = JobStore.digest_of(payload)
        assert re.fullmatch(r"[0-9a-f]{32}", digest)
        store.record(digest, payload, "alice")
        assert store.restore(digest) is None  # pending: nothing to serve
        assert store.pending() == [(digest, payload, "alice")]
        store.complete(digest, _outcome_bytes(42), "alice")
        assert store.restore(digest) == ("ok", 42)
        assert store.pending() == []
        assert store.counts() == {"pending": 0, "done": 1}
        store.forget([digest])
        assert len(store) == 0

    def test_record_never_demotes_a_done_outcome(self, tmp_path):
        store = JobStore(tmp_path / "jobs")
        digest = JobStore.digest_of(b"p")
        store.complete(digest, _outcome_bytes(1))
        store.record(digest, b"p")  # a restarted run re-records everything
        assert store.restore(digest) == ("ok", 1)

    def test_corrupt_records_are_discarded_not_raised(self, tmp_path):
        store = JobStore(tmp_path / "jobs")
        store.record(JobStore.digest_of(b"good"), b"good")
        torn = store.job_dir / f"{'f' * 32}.json"
        torn.write_text("{ torn mid-wri")
        assert len(store.pending()) == 1
        assert not torn.exists()  # quarantined on first read

    def test_restore_rejects_implausible_outcomes(self, tmp_path):
        """A record whose outcome does not unpickle to ("ok"|"err", v) is
        treated as pending — re-executed, never folded."""
        store = JobStore(tmp_path / "jobs")
        digest = JobStore.digest_of(b"p")
        store.complete(digest, pickle.dumps("not an outcome tuple"))
        assert store.restore(digest) is None
        store.complete(digest, b"\x00not a pickle")
        assert store.restore(digest) is None

    def test_write_failure_degrades_to_reexecution(self, tmp_path, monkeypatch):
        """Persistence is best-effort: a full disk must degrade to
        re-execution after restart, not fail the live run."""
        store = JobStore(tmp_path / "jobs")

        def disk_full(src, dst):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(
            "repro.quantum.execution.jobstore.os.replace", disk_full
        )
        store.record(JobStore.digest_of(b"p"), b"p")  # swallowed
        assert store.pending() == []
        assert list(store.job_dir.iterdir()) == []  # tmp file cleaned up


class TestRestartResume:
    def test_resumed_run_restores_done_chunks_and_executes_the_rest(
        self, tmp_path
    ):
        """The coordinator died with one outcome persisted and two chunks
        pending.  The restarted run must re-fold the stored outcome from
        disk (never re-executing it) and execute only the remainder."""
        job_dir = tmp_path / "jobs"
        payloads = [encode_chunk(_double, (i,)) for i in range(3)]
        first_life = JobStore(job_dir)
        for payload in payloads:
            first_life.record(JobStore.digest_of(payload), payload)
        # Chunk 1 completed before the kill; its outcome is on disk.
        first_life.complete(JobStore.digest_of(payloads[1]), _outcome_bytes(2))
        coordinator = EvalCoordinator(
            tmp_path / "store",
            job_store=job_dir,
            fallback_workers=1,
            fallback_grace=0.0,
        ).start()
        try:
            results = coordinator.run_chunks(payloads)
        finally:
            coordinator.stop()
        assert results == [0, 2, 4]
        # Only the two unfinished chunks were queued for execution.
        assert coordinator.queue.status()["total"] == 2
        # A cleanly completed run leaves no records behind.
        assert len(JobStore(job_dir)) == 0

    def test_stored_err_outcome_is_reserved_not_reexecuted(self, tmp_path):
        """A chunk that *failed* before the kill re-raises from the store on
        restart — deterministic chunks fail identically, so re-running would
        only waste the work — and the records stay for the next attempt."""
        job_dir = tmp_path / "jobs"
        payload = encode_chunk(_double, (1,))
        digest = JobStore.digest_of(payload)
        store = JobStore(job_dir)
        store.record(digest, payload)
        store.complete(
            digest,
            pickle.dumps(
                ("err", RuntimeError("boom")), protocol=pickle.HIGHEST_PROTOCOL
            ),
        )
        coordinator = EvalCoordinator(
            tmp_path / "store",
            job_store=job_dir,
            fallback_workers=1,
            fallback_grace=0.0,
        ).start()
        try:
            with pytest.raises(RuntimeError, match="boom"):
                coordinator.run_chunks([payload])
        finally:
            coordinator.stop()
        # The failed run kept its records: a later retry still restores.
        assert JobStore(job_dir).counts()["done"] == 1

    def test_run_without_job_store_leaves_no_files(self, tmp_path):
        coordinator = EvalCoordinator(
            tmp_path / "store", fallback_workers=1, fallback_grace=0.0
        ).start()
        try:
            assert coordinator.run_chunks(
                [encode_chunk(_double, (5,))]
            ) == [10]
        finally:
            coordinator.stop()
        assert not (tmp_path / "jobs").exists()


def _double(x):
    return x * 2
