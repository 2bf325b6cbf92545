"""The HTTP cache tier: server protocol, client hardening, service wiring."""

import json
import socket
import urllib.error
import urllib.request
from http.server import ThreadingHTTPServer

import pytest

from repro.quantum.execution import (
    CacheKey,
    CacheLimits,
    CacheServer,
    DiskResultCache,
    ExecutionService,
    RemoteResultCache,
    ResultCache,
)
from repro.quantum.execution.disk_cache import encode_entry, key_digest
from repro.quantum.execution.remote_cache import SERVE_POLL_INTERVAL
from repro.quantum.library import bell_pair


def _key(tag: int = 0) -> CacheKey:
    return CacheKey(
        circuit=f"{tag:016x}",
        backend="local_simulator",
        shots=64,
        seed=7,
        noise="ideal",
        memory=False,
        engine=1,
    )


def _dead_url() -> str:
    """A URL nothing listens on (bind an ephemeral port, then release it)."""
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return f"http://127.0.0.1:{port}"


class TestServerProtocol:
    def test_put_then_get_roundtrip(self, tmp_path):
        with CacheServer(tmp_path) as server:
            client = RemoteResultCache(server.url)
            client.put(_key(), {"00": 40, "11": 24}, None)
            assert client.get(_key()) == ({"00": 40, "11": 24}, None)
            assert client.get(_key(9)) is None  # miss: 404, not an error
            assert client.errors == 0

    def test_stats_endpoint(self, tmp_path):
        with CacheServer(tmp_path) as server:
            client = RemoteResultCache(server.url)
            client.put(_key(), {"0": 64}, None)
            stats = client.stats()
            assert stats is not None
            assert stats["entries"] == 1
            assert stats["bytes"] > 0

    def test_unknown_path_is_404(self, tmp_path):
        with CacheServer(tmp_path) as server:
            with pytest.raises(urllib.error.HTTPError) as info:
                urllib.request.urlopen(f"{server.url}/nope", timeout=2)
            assert info.value.code == 404

    def test_put_with_mismatched_digest_is_rejected(self, tmp_path):
        """Content-addressing is enforced server-side: an entry can never be
        planted under a digest that does not match its embedded key."""
        with CacheServer(tmp_path) as server:
            entry = encode_entry(_key(1), {"0": 64}, None)
            wrong = key_digest(_key(2))
            request = urllib.request.Request(
                f"{server.url}/entry/{wrong}",
                data=json.dumps(entry).encode(),
                method="PUT",
            )
            with pytest.raises(urllib.error.HTTPError) as info:
                urllib.request.urlopen(request, timeout=2)
            assert info.value.code == 400
            assert len(server.disk) == 0

    def test_put_with_garbage_body_is_rejected(self, tmp_path):
        with CacheServer(tmp_path) as server:
            request = urllib.request.Request(
                f"{server.url}/entry/{key_digest(_key())}",
                data=b"{ not json",
                method="PUT",
            )
            with pytest.raises(urllib.error.HTTPError) as info:
                urllib.request.urlopen(request, timeout=2)
            assert info.value.code == 400

    def test_download_refreshes_server_side_lru_order(self, tmp_path):
        """Regression: a GET must touch the entry's mtime, or server-side
        eviction would delete the fleet's most-downloaded entries first."""
        import os

        with CacheServer(
            tmp_path, limits=CacheLimits(max_entries=2)
        ) as server:
            client = RemoteResultCache(server.url)
            client.put(_key(1), {"0": 1}, None)
            client.put(_key(2), {"0": 2}, None)
            old = 1_000_000_000
            for tag in (1, 2):
                path = tmp_path / f"{key_digest(_key(tag))}.json"
                os.utime(path, (old + tag, old + tag))
            # Entry 1 is older on disk but hot: the fleet keeps fetching it.
            assert client.get(_key(1)) is not None
            client.put(_key(3), {"0": 3}, None)  # forces one eviction
            assert client.get(_key(1)) is not None  # hot entry survived
            assert client.get(_key(2)) is None  # cold one was the victim

    def test_server_limits_bound_the_store(self, tmp_path):
        with CacheServer(
            tmp_path, limits=CacheLimits(max_entries=2)
        ) as server:
            client = RemoteResultCache(server.url)
            for tag in range(5):
                client.put(_key(tag), {"0": tag}, None)
            assert len(server.disk) <= 2
            assert server.disk.evictions >= 3


class TestClientHardening:
    def test_dead_server_degrades_to_miss_never_error(self, tmp_path):
        client = RemoteResultCache(_dead_url(), timeout=0.5)
        assert client.get(_key()) is None
        client.put(_key(), {"0": 64}, None)  # must not raise
        assert client.errors == 2

    def test_offline_breaker_stops_hammering_a_dead_server(self, monkeypatch):
        attempts = []

        def exploding_urlopen(*args, **kwargs):
            attempts.append(1)
            raise urllib.error.URLError("connection refused")

        monkeypatch.setattr(urllib.request, "urlopen", exploding_urlopen)
        client = RemoteResultCache(
            "http://cache.invalid:1", offline_after=3, retry_interval=3600
        )
        for _ in range(20):
            assert client.get(_key()) is None
        # Only the first `offline_after` lookups went to the network; the
        # rest were served as instant local misses.
        assert len(attempts) == 3
        assert client.errors == 3

    def test_persistent_5xx_trips_the_breaker(self, monkeypatch):
        """Regression: a proxy answering 502 to everything must engage the
        offline breaker just like a dead socket — 4xx (a live server saying
        'miss') must not."""
        attempts = []

        def bad_gateway(url, *args, **kwargs):
            attempts.append(1)
            target = url.full_url if hasattr(url, "full_url") else url
            raise urllib.error.HTTPError(target, 502, "Bad Gateway", {}, None)

        monkeypatch.setattr(urllib.request, "urlopen", bad_gateway)
        client = RemoteResultCache(
            "http://cache.invalid:1", offline_after=3, retry_interval=3600
        )
        for _ in range(20):
            assert client.get(_key()) is None
        assert len(attempts) == 3

    def test_read_verification_rejects_foreign_entries(self, tmp_path):
        """A server file whose embedded key does not match the requested key
        (stale store, digest collision, tampering) must read as a miss."""
        with CacheServer(tmp_path) as server:
            client = RemoteResultCache(server.url)
            client.put(_key(1), {"0": 64}, None)
            # Re-address key 1's entry under key 2's digest, server-side.
            disk = DiskResultCache(tmp_path)
            src = disk.cache_dir / f"{key_digest(_key(1))}.json"
            dst = disk.cache_dir / f"{key_digest(_key(2))}.json"
            dst.write_bytes(src.read_bytes())
            assert client.get(_key(2)) is None
            assert client.get(_key(1)) is not None

    def test_read_verification_rejects_non_json(self, tmp_path):
        with CacheServer(tmp_path) as server:
            client = RemoteResultCache(server.url)
            (server.disk.cache_dir / f"{key_digest(_key())}.json").write_text(
                "][ garbage"
            )
            assert client.get(_key()) is None

    def test_rejects_non_http_url(self):
        with pytest.raises(ValueError, match="http"):
            RemoteResultCache("ftp://somewhere")

    def test_stats_counts_malformed_json_as_failure(self, monkeypatch):
        """Regression: a misbehaving proxy answering 200s full of HTML used
        to make stats() return None silently — indistinguishable from "no
        server".  It must count towards errors and the offline breaker."""
        import io

        class _HtmlResponse(io.BytesIO):
            def __init__(self):
                super().__init__(b"<html>proxy error</html>")

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

        attempts = []

        def html_urlopen(*args, **kwargs):
            attempts.append(1)
            return _HtmlResponse()

        monkeypatch.setattr(urllib.request, "urlopen", html_urlopen)
        client = RemoteResultCache(
            "http://cache.invalid:1", offline_after=3, retry_interval=3600
        )
        for _ in range(3):
            assert client.stats() is None
        assert client.errors == 3
        # Three malformed responses engaged the breaker like a dead socket:
        # the next get() is an instant local miss, no network attempt.
        before = len(attempts)
        assert client.get(_key()) is None
        assert len(attempts) == before

    def test_stats_still_none_and_quiet_on_dead_server(self):
        client = RemoteResultCache(_dead_url(), timeout=0.5)
        assert client.stats() is None
        assert client.errors == 1


class TestServerLifecycle:
    """close()/stop() in every state, and EADDRINUSE-free restarts."""

    def _reserved_port(self) -> int:
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        return port

    def test_start_stop_start_on_a_fixed_port(self, tmp_path):
        """Regression: stop() used to leave lifecycle edge cases (and a
        never-started server would deadlock in socketserver's shutdown);
        a back-to-back restart on the same fixed port must just work."""
        port = self._reserved_port()
        first = CacheServer(tmp_path / "a", port=port).start()
        RemoteResultCache(first.url).put(_key(), {"0": 64}, None)
        first.close()
        second = CacheServer(tmp_path / "b", port=port).start()
        try:
            client = RemoteResultCache(second.url)
            client.put(_key(1), {"0": 32}, None)
            assert client.get(_key(1)) is not None
            assert client.errors == 0
        finally:
            second.close()

    def test_stop_before_start_does_not_hang(self, tmp_path):
        server = CacheServer(tmp_path)
        server.stop()  # must return immediately, not deadlock

    def test_stop_is_idempotent_and_start_after_close_refuses(self, tmp_path):
        from repro.errors import BackendError

        server = CacheServer(tmp_path).start()
        server.stop()
        server.stop()
        server.close()
        with pytest.raises(BackendError, match="closed"):
            server.start()

    def test_serve_loops_poll_at_the_module_interval(
        self, tmp_path, monkeypatch
    ):
        """``stop()`` waits up to one poll of the serve loop, so every server
        polls at ``SERVE_POLL_INTERVAL``, not socketserver's 0.5 s default."""
        from repro.quantum.execution.dispatch import EvalCoordinator

        polled = []
        serve = ThreadingHTTPServer.serve_forever

        def recording(self, poll_interval=0.5):
            polled.append(poll_interval)
            serve(self, poll_interval)

        monkeypatch.setattr(ThreadingHTTPServer, "serve_forever", recording)
        for server in (
            CacheServer(tmp_path / "cache"),
            EvalCoordinator(tmp_path / "work", fallback_workers=0),
        ):
            server.start()
            server.stop()
        assert polled == [SERVE_POLL_INTERVAL, SERVE_POLL_INTERVAL]

    def test_socket_is_released_immediately(self, tmp_path):
        server = CacheServer(tmp_path).start()
        port = server.port
        server.close()
        # The listening socket is gone: binding the same port succeeds.
        probe = socket.socket()
        try:
            probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            probe.bind(("127.0.0.1", port))
        finally:
            probe.close()


class TestAuth:
    """Shared-token auth: every endpoint, wrong/missing token, env wiring."""

    def _get(self, url, token=None):
        request = urllib.request.Request(url)
        if token:
            request.add_header("Authorization", f"Bearer {token}")
        return urllib.request.urlopen(request, timeout=2)

    def test_missing_or_wrong_token_is_401_on_every_endpoint(self, tmp_path):
        """Cache routes *and* the work-dispatch routes layered on the same
        transport answer 401 to anything but the exact token."""
        import base64

        from repro.quantum.execution import EvalCoordinator

        with EvalCoordinator(
            tmp_path, token="fleet-secret", fallback_workers=0
        ) as server:
            endpoints = [
                ("GET", f"/entry/{key_digest(_key())}", None),
                ("PUT", f"/entry/{key_digest(_key())}",
                 json.dumps(encode_entry(_key(), {"0": 1}, None)).encode()),
                ("GET", "/stats", None),
                ("GET", "/metrics", None),
                ("GET", "/work/status", None),
                ("POST", "/work/lease", b'{"worker": "w"}'),
                ("POST", "/work/heartbeat", b'{"lease": 1}'),
                ("POST", "/work/complete",
                 json.dumps({"lease": 1, "result": base64.b64encode(
                     b"x").decode()}).encode()),
            ]
            for token in (None, "wrong-token"):
                for method, path, body in endpoints:
                    request = urllib.request.Request(
                        f"{server.url}{path}", data=body, method=method
                    )
                    if token:
                        request.add_header(
                            "Authorization", f"Bearer {token}"
                        )
                    with pytest.raises(urllib.error.HTTPError) as info:
                        urllib.request.urlopen(request, timeout=2)
                    assert info.value.code == 401, (token, method, path)
            # Nothing leaked into the store through any unauthorized route.
            assert len(server.disk) == 0

    def test_correct_token_roundtrips(self, tmp_path):
        with CacheServer(tmp_path, token="fleet-secret") as server:
            client = RemoteResultCache(server.url, token="fleet-secret")
            client.put(_key(), {"00": 32, "11": 32}, None)
            assert client.get(_key()) == ({"00": 32, "11": 32}, None)
            assert client.stats()["entries"] == 1
            assert client.errors == 0

    def test_client_auth_failure_raises_instead_of_miss(self, tmp_path):
        """Regression (satellite): a 401/403 must fail fast and loudly —
        not degrade to a silent miss, and not feed the offline breaker like
        a transient 5xx."""
        from repro.errors import BackendError

        with CacheServer(tmp_path, token="fleet-secret") as server:
            client = RemoteResultCache(server.url)  # no token at all
            with pytest.raises(BackendError, match="credentials"):
                client.get(_key())
            with pytest.raises(BackendError, match="credentials"):
                client.put(_key(), {"0": 1}, None)
            with pytest.raises(BackendError, match="REPRO_CACHE_TOKEN"):
                client.stats()
            # The breaker was never engaged: an auth failure is not an
            # offline server, and retries keep raising rather than being
            # served as instant local misses.
            assert client.errors == 0
            with pytest.raises(BackendError):
                client.get(_key())

    def test_env_token_wiring(self, tmp_path, monkeypatch):
        """REPRO_CACHE_TOKEN flows into clients built without an explicit
        token — including the service's remote tier."""
        monkeypatch.setenv("REPRO_CACHE_TOKEN", "fleet-secret")
        with CacheServer(tmp_path, token="fleet-secret") as server:
            client = RemoteResultCache(server.url)
            client.put(_key(), {"0": 64}, None)
            assert client.get(_key()) == ({"0": 64}, None)
            assert client.errors == 0

            service = ExecutionService(remote_url=server.url)
            assert service.cache.remote.token == "fleet-secret"
            counts = service.run(
                bell_pair(measure=True), shots=40, seed=3
            ).result()
            assert sum(counts.get_counts().values()) == 40
            assert service.stats()["cache_remote_errors"] == 0

    def test_explicit_token_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_TOKEN", "from-env")
        assert RemoteResultCache("http://x:1", token="explicit").token == (
            "explicit"
        )
        monkeypatch.delenv("REPRO_CACHE_TOKEN")
        assert RemoteResultCache("http://x:1").token is None

    def test_open_server_ignores_supplied_tokens(self, tmp_path):
        """A token-less server stays compatible with token-bearing clients
        (rolling out auth across a fleet worker-by-worker)."""
        with CacheServer(tmp_path) as server:
            client = RemoteResultCache(server.url, token="anything")
            client.put(_key(), {"0": 8}, None)
            assert client.get(_key()) == ({"0": 8}, None)
            assert client.errors == 0


class TestServiceWiring:
    def test_dead_server_never_fails_execution(self):
        service = ExecutionService(remote_url=_dead_url())
        service.cache.remote.timeout = 0.5
        counts = service.run(bell_pair(measure=True), shots=50, seed=4).result()
        assert sum(counts.get_counts().values()) == 50
        stats = service.stats()
        assert stats["simulations"] == 1
        assert stats["cache_remote_errors"] >= 1
        assert stats["cache_url"].startswith("http://127.0.0.1")

    def test_remote_hit_promotes_into_local_disk(self, tmp_path):
        """A downloaded entry is written through to the local disk tier, so
        the *next* process on this machine does not even need the network."""
        with CacheServer(tmp_path / "server") as server:
            seeder = ExecutionService(remote_url=server.url)
            counts = seeder.run(bell_pair(measure=True), shots=60, seed=2)
            counts = counts.result().get_counts()

            local_dir = tmp_path / "local"
            fleet = ExecutionService(
                cache_dir=local_dir, remote_url=server.url
            )
            fleet.run(bell_pair(measure=True), shots=60, seed=2)
            assert fleet.stats()["cache_remote_hits"] == 1

        # Server gone; the promoted local entry still serves the result.
        offline = ExecutionService(cache_dir=local_dir)
        replay = offline.run(bell_pair(measure=True), shots=60, seed=2).result()
        assert replay.get_counts() == counts
        assert offline.stats()["simulations"] == 0

    def test_prebuilt_cache_excludes_remote_url(self, tmp_path):
        from repro.errors import BackendError

        with pytest.raises(BackendError, match="not both"):
            ExecutionService(cache=ResultCache(), remote_url="http://x:1")

    def test_cache_limits_require_cache_dir(self):
        from repro.errors import BackendError

        with pytest.raises(BackendError, match="cache_dir"):
            ExecutionService(cache_limits=CacheLimits(max_bytes=1))

    def test_default_service_honours_cache_url_env(self, tmp_path, monkeypatch):
        from repro.quantum.execution import default_service, set_default_service

        with CacheServer(tmp_path) as server:
            monkeypatch.setenv("REPRO_CACHE_URL", server.url)
            monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "local"))
            monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "123456")
            set_default_service(None)
            try:
                service = default_service()
                assert service.stats()["cache_url"] == server.url
                assert service.cache.disk.limits == CacheLimits(max_bytes=123456)
            finally:
                set_default_service(None)
