"""Remote HTTP tier of the execution result cache — fleet-scale sharing.

A :class:`CacheServer` exposes one content-addressed
:class:`~repro.quantum.execution.disk_cache.DiskResultCache` directory over
plain HTTP (stdlib ``http.server``, no dependencies), and a
:class:`RemoteResultCache` is the matching ``urllib`` client that
:class:`~repro.quantum.execution.cache.ResultCache` layers *behind* the
memory and disk tiers.  A fleet of eval workers on different machines then
shares one warm store: the first worker to execute a deterministic circuit
pays for the simulation, every other worker — including freshly provisioned
ones with empty local caches — downloads the counts instead.

Protocol (three routes, all JSON):

* ``GET /entry/<digest>``  — one entry document, exactly the bytes the disk
  tier persists (404 on a miss);
* ``PUT /entry/<digest>``  — upload one entry; the server decodes it,
  re-derives the digest from the embedded key, and rejects any mismatch with
  400, so an uploader can never plant content under a foreign address;
* ``GET /stats``           — ``{"entries": n, "bytes": n, "evictions": n}``.

Client guarantees:

* **offline fallback** — every request carries a short timeout; a dead,
  unreachable, or misbehaving server degrades to a cache *miss* (get) or a
  silent no-op (put), never an error.  After a few consecutive failures the
  client stops calling out for a cooldown window, so a downed server costs a
  handful of timeouts, not one per execution;
* **auth failures are loud** — the one exception to "never an error": a 401/403
  raises :class:`~repro.errors.BackendError` immediately.  A wrong or missing
  token is a configuration bug, and silently degrading it to misses-forever
  would make a misconfigured fleet look like a permanently cold one;
* **key verification on read** — downloaded entries are decoded against the
  requested key with the same
  :func:`~repro.quantum.execution.disk_cache.decode_entry` check the disk
  tier applies, so a stale or corrupted server can only ever produce misses.

The server may be given :class:`~repro.quantum.execution.disk_cache.CacheLimits`
to bound its store — uploads then evict LRU entries exactly like a local put —
and a shared ``token``: every endpoint (cache *and* the work-dispatch routes
layered on this transport by :mod:`~repro.quantum.execution.dispatch`) then
requires ``Authorization: Bearer <token>`` and answers 401 otherwise.  Clients
take the token explicitly or from ``REPRO_CACHE_TOKEN``.

Multi-tenant serving (PR 10): a server may additionally carry a
:class:`~repro.quantum.execution.tenants.TenantRegistry`; each tenant's
API key is then accepted as a bearer credential alongside the admin
token, and every authenticated tenant request is charged against that
tenant's token-bucket rate limit and byte quota.  Over-limit requests
answer ``429`` (with ``Retry-After`` for rate limits), which the clients
honor with a *bounded backoff* distinct from the offline breaker: a
throttled server is healthy, so 429 never counts towards ``errors``.
``GET /metrics`` exports every service/store/tenant counter in
Prometheus text format.
"""

from __future__ import annotations

import hmac
import json
import os
import re
import threading
import time
import urllib.error
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import TYPE_CHECKING

from repro.errors import BackendError
from repro.quantum.execution.disk_cache import (
    CacheLimits,
    DiskResultCache,
    decode_entry,
    encode_entry,
    key_digest,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from repro.quantum.execution.cache import CacheKey

#: Environment variable holding the fleet's shared cache/work auth token.
CACHE_TOKEN_ENV = "REPRO_CACHE_TOKEN"
#: Per-request timeout; cache traffic is tiny, so slow means broken.
DEFAULT_TIMEOUT = 2.0
#: How often the serve loop checks for ``stop()``, which waits up to one
#: interval.  0.02 s stops servers at once and costs about 50 idle
#: ``select`` wake-ups a second.
SERVE_POLL_INTERVAL = 0.02


def resolve_token(token: str | None) -> str | None:
    """An explicit token wins; ``None`` falls back to ``REPRO_CACHE_TOKEN``;
    empty strings mean "open"."""
    if token is None:
        return os.environ.get(CACHE_TOKEN_ENV, "").strip() or None
    return token or None


def bearer_headers(token: str | None, **extra: str) -> dict[str, str]:
    """Request headers carrying the shared token (when one is set)."""
    if token:
        extra["Authorization"] = f"Bearer {token}"
    return extra


def raise_auth_error(kind: str, base_url: str, code: int) -> None:
    """The one loud failure of the fleet clients: credential rejection."""
    raise BackendError(
        f"{kind} at {base_url} rejected credentials (HTTP {code}); "
        f"pass a matching token or set {CACHE_TOKEN_ENV}"
    )
#: Consecutive failures before the client declares the server offline.
OFFLINE_AFTER = 3
#: How long an offline server is left alone before the next probe.
RETRY_INTERVAL = 30.0
#: Backoff applied to a 429 without a Retry-After header.
DEFAULT_THROTTLE_BACKOFF = 1.0
#: Ceiling on the backoff a server-sent Retry-After can impose.
MAX_THROTTLE_BACKOFF = 60.0


def parse_retry_after(headers) -> float | None:
    """Delay-seconds form of ``Retry-After``; None when absent/unparseable."""
    raw = headers.get("Retry-After") if headers is not None else None
    if raw is None:
        return None
    try:
        seconds = float(raw)
    except (TypeError, ValueError):
        return None  # HTTP-date form (or garbage) — fall back to the default
    return max(0.0, seconds)

_DIGEST = re.compile(r"/entry/([0-9a-f]{32})$")
#: Entry uploads beyond this size are rejected (a counts dict for any
#: realistic shot budget is far smaller; this bounds server memory).
MAX_ENTRY_BYTES = 16 * 1024 * 1024


class RemoteResultCache:
    """``urllib`` client for a :class:`CacheServer`; never raises on I/O.

    The one deliberate exception: an auth rejection (401/403) raises
    :class:`~repro.errors.BackendError` instead of degrading to a miss or
    feeding the offline breaker like a transient 5xx — a bad ``token`` must
    surface on the first request, not as a silently cold cache.  ``token``
    falls back to the ``REPRO_CACHE_TOKEN`` environment variable.
    """

    def __init__(
        self,
        base_url: str,
        timeout: float = DEFAULT_TIMEOUT,
        offline_after: int = OFFLINE_AFTER,
        retry_interval: float = RETRY_INTERVAL,
        token: str | None = None,
    ) -> None:
        if not base_url.startswith(("http://", "https://")):
            raise ValueError(
                f"remote cache URL must be http(s)://, got {base_url!r}"
            )
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.offline_after = offline_after
        self.retry_interval = retry_interval
        self.token = resolve_token(token)
        self.errors = 0
        self.throttles = 0
        self._consecutive = 0
        self._offline_until = 0.0
        self._lock = threading.Lock()

    def _headers(self, **extra: str) -> dict[str, str]:
        return bearer_headers(self.token, **extra)

    # -- store surface ---------------------------------------------------------------

    def get(self, key: "CacheKey") -> tuple[dict[str, int], list[str] | None] | None:
        """Fetch and verify one entry; any failure but auth is a miss."""
        if self._offline():
            return None
        request = urllib.request.Request(
            self._entry_url(key), method="GET", headers=self._headers()
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as response:
                body = response.read(MAX_ENTRY_BYTES + 1)
        except urllib.error.HTTPError as exc:
            code, retry_after = exc.code, parse_retry_after(exc.headers)
            exc.close()
            self._record_http_status(code, retry_after)
            return None
        except (urllib.error.URLError, OSError, TimeoutError):
            self._record_failure()
            return None
        self._record_success()
        if len(body) > MAX_ENTRY_BYTES:
            return None
        try:
            entry = json.loads(body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            return None
        return decode_entry(entry, key)

    def put(
        self, key: "CacheKey", counts: dict[str, int], memory: list[str] | None
    ) -> None:
        """Upload one entry, best-effort; failures but auth are swallowed."""
        if self._offline():
            return
        body = json.dumps(
            encode_entry(key, counts, memory), separators=(",", ":")
        ).encode("utf-8")
        request = urllib.request.Request(
            self._entry_url(key),
            data=body,
            method="PUT",
            headers=self._headers(**{"Content-Type": "application/json"}),
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as response:
                response.read()
        except urllib.error.HTTPError as exc:
            code, retry_after = exc.code, parse_retry_after(exc.headers)
            exc.close()
            self._record_http_status(code, retry_after)
        except (urllib.error.URLError, OSError, TimeoutError):
            self._record_failure()
        else:
            self._record_success()

    def stats(self) -> dict | None:
        """The server's ``/stats`` document, or ``None`` when unreachable.

        Failures are not silent: transport errors *and* a malformed (non-JSON)
        response body both count towards ``errors`` and the offline breaker,
        so a misbehaving proxy answering 200s full of HTML shows up in
        ``--exec-stats`` instead of being indistinguishable from "no stats".
        """
        request = urllib.request.Request(
            f"{self.base_url}/stats", headers=self._headers()
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as response:
                body = response.read()
        except urllib.error.HTTPError as exc:
            code, retry_after = exc.code, parse_retry_after(exc.headers)
            exc.close()
            self._record_http_status(code, retry_after)
            return None
        except (urllib.error.URLError, OSError, TimeoutError):
            self._record_failure()
            return None
        try:
            document = json.loads(body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            self._record_failure()
            return None
        self._record_success()
        return document

    # -- availability ----------------------------------------------------------------

    def _entry_url(self, key: "CacheKey") -> str:
        return f"{self.base_url}/entry/{key_digest(key)}"

    def _offline(self) -> bool:
        with self._lock:
            return time.monotonic() < self._offline_until

    def _record_http_status(self, code: int, retry_after: float | None = None) -> None:
        """4xx means the server is alive and spoke (a miss/rejection —
        nothing to retry); 5xx means it is broken and must count towards the
        offline breaker, or a dead proxy would cost one round-trip per
        execution forever.  401/403 is neither: the server is alive but the
        *client* is misconfigured, so raise rather than let an auth failure
        masquerade as a cold cache or trip the breaker like a transient 5xx.
        429 is a fourth thing — a healthy server asking this tenant to slow
        down — so it backs off for the advertised window (bounded) without
        ever counting as an error or feeding the breaker.
        """
        if code in (401, 403):
            self._raise_auth(code)
        if code == 429:
            self._record_throttle(retry_after)
        elif code >= 500:
            self._record_failure()
        else:
            self._record_success()

    def _raise_auth(self, code: int) -> None:
        raise_auth_error("remote cache", self.base_url, code)

    def _record_success(self) -> None:
        with self._lock:
            self._consecutive = 0

    def _record_failure(self) -> None:
        with self._lock:
            self.errors += 1
            self._consecutive += 1
            if self._consecutive >= self.offline_after:
                self._offline_until = time.monotonic() + self.retry_interval

    def _record_throttle(self, retry_after: float | None) -> None:
        """Bounded 429 backoff: sit out the advertised window, breaker untouched."""
        delay = DEFAULT_THROTTLE_BACKOFF if retry_after is None else retry_after
        delay = min(delay, MAX_THROTTLE_BACKOFF)
        with self._lock:
            self.throttles += 1
            self._consecutive = 0
            self._offline_until = max(
                self._offline_until, time.monotonic() + delay
            )

    def __repr__(self) -> str:
        return (
            f"RemoteResultCache(url='{self.base_url}', errors={self.errors}, "
            f"throttles={self.throttles})"
        )


#: Routes exempt from per-tenant rate limiting.  Heartbeats renew leases the
#: scheduler already granted — throttling them would expire leases and
#: requeue healthy work, turning a rate limit into a correctness hazard.
#: /metrics stays scrapeable precisely when a tenant is being throttled.
_THROTTLE_EXEMPT = frozenset({"/work/heartbeat", "/metrics"})


class _CacheRequestHandler(BaseHTTPRequestHandler):
    """Routes ``/entry/<digest>``, ``/stats``, ``/metrics`` onto a store."""

    disk: DiskResultCache  # set by the per-server subclass
    token: str | None = None  # shared fleet token; None leaves the server open
    tenants = None  # TenantRegistry | None; tenant keys as bearer credentials
    stats_source = None  # () -> dict, service stats for /metrics
    quiet = True
    protocol_version = "HTTP/1.1"

    def _authorized(self) -> bool:
        """Authenticate and admit the request; answers 401/429 on failure.

        Every route of every server built on this transport — the cache
        endpoints here and the ``/work`` dispatch endpoints layered on in
        :mod:`~repro.quantum.execution.dispatch` — calls this first, so no
        endpoint can be forgotten when one grows a new verb.

        Credentials are the shared admin ``token`` or any tenant API key
        (both constant-time; the tenant scan never exits early).  A matched
        tenant is then charged: one token off its rate bucket (429 +
        ``Retry-After`` when empty) and, for uploads, the declared body
        size off its byte quota (429 without ``Retry-After`` — waiting
        does not refill a quota).  The admin token is never throttled.
        """
        self.tenant = None
        if not self.token and self.tenants is None:
            return True
        supplied = self.headers.get("Authorization", "")
        # Compare as bytes: compare_digest on str raises TypeError for
        # non-ASCII input, which would crash the handler instead of 401ing.
        admin = bool(self.token) and hmac.compare_digest(
            supplied.encode("utf-8", "surrogateescape"),
            f"Bearer {self.token}".encode("utf-8", "surrogateescape"),
        )
        tenant = (
            self.tenants.authenticate(supplied) if self.tenants is not None else None
        )
        if admin:
            return True
        if tenant is None:
            self._send_json(401, {"error": "unauthorized"})
            return False
        self.tenant = tenant
        return self._admit(tenant)

    def _admit(self, tenant) -> bool:
        """Charge an authenticated tenant's limits; answers 429 when over."""
        registry = self.tenants
        registry.count_request(tenant)
        if self.path in _THROTTLE_EXEMPT:
            return True
        retry_after = registry.throttle(tenant)
        if retry_after is not None:
            self._send_json(
                429,
                {"error": "rate limited", "retry_after": retry_after},
                headers={"Retry-After": str(int(retry_after))},
            )
            return False
        if self.command == "PUT":
            try:
                length = max(0, int(self.headers.get("Content-Length", "0")))
            except ValueError:
                length = 0
            if not registry.charge_bytes(tenant, length):
                self._send_json(429, {"error": "byte quota exhausted"})
                return False
        return True

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        if not self._authorized():
            return
        if self.path == "/stats":
            self._send_json(
                200,
                {
                    "entries": len(self.disk),
                    "bytes": self.disk.size_bytes(),
                    "evictions": self.disk.evictions,
                },
            )
            return
        if self.path == "/metrics":
            self._send_metrics()
            return
        match = _DIGEST.search(self.path)
        if match is None:
            self._send_json(404, {"error": "unknown path"})
            return
        path = self.disk.cache_dir / f"{match.group(1)}.json"
        try:
            body = path.read_bytes()
        except OSError:
            self._send_json(404, {"error": "miss"})
            return
        # A download is a use: refresh the mtime so server-side LRU/age
        # eviction spares the fleet's hottest entries, not its coldest.
        self.disk._touch(path)
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_PUT(self) -> None:  # noqa: N802 - http.server API
        if not self._authorized():
            return
        match = _DIGEST.search(self.path)
        if match is None:
            self._send_json(404, {"error": "unknown path"})
            return
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            self._send_json(400, {"error": "bad content-length"})
            return
        if not 0 < length <= MAX_ENTRY_BYTES:
            self._send_json(400, {"error": "entry too large or empty"})
            return
        body = self.rfile.read(length)
        try:
            entry = json.loads(body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            self._send_json(400, {"error": "not json"})
            return
        # Content-addressing is enforced server-side: the digest re-derived
        # from the embedded key must match the upload path.
        if (
            not isinstance(entry, dict)
            or not isinstance(entry.get("key"), dict)
            or self._digest_of(entry) != match.group(1)
        ):
            self._send_json(400, {"error": "entry does not verify"})
            return
        evicted = self.disk.put_entry(entry)
        if evicted is None:
            self._send_json(400, {"error": "entry does not verify"})
            return
        if self.tenant is not None and evicted:
            # The uploads that pushed the store over its limits paid for the
            # evictions; attribute them so /metrics can name the tenant
            # churning a shared store.
            self.tenants.credit_evictions(self.tenant, evicted)
        self._send_json(200, {"stored": True, "evicted": evicted})

    @staticmethod
    def _digest_of(entry: dict) -> str | None:
        from repro.quantum.execution.cache import CacheKey

        try:
            return key_digest(CacheKey(**entry["key"]))
        except TypeError:
            return None

    def _send_metrics(self) -> None:
        """Serve the Prometheus exposition assembled from live snapshots."""
        from repro.quantum.execution.metrics import (
            METRICS_CONTENT_TYPE,
            serving_metrics,
        )

        source = self.stats_source
        if source is None:
            # Standalone servers export the process-default service, whose
            # counters the coordinator CLI already prints as --exec-stats.
            from repro.quantum.execution.service import default_service

            source = default_service().stats
        try:
            service_stats = source()
        except Exception:
            service_stats = None  # metrics must degrade, never 500 a scrape
        queue = getattr(self, "queue", None)
        body = serving_metrics(
            service_stats=service_stats,
            store=self.disk,
            queue_status=queue.status() if queue is not None else None,
            tenants=self.tenants,
            jobs=getattr(self, "job_store", None),
        ).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", METRICS_CONTENT_TYPE)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_json(
        self, status: int, payload: dict, headers: dict[str, str] | None = None
    ) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        if status >= 400:
            # Error paths (401 auth, 400 malformed) may leave the request
            # body unread; on a keep-alive connection those stale bytes
            # would be parsed as the next request.  Drop the connection so
            # a pooling client re-connects cleanly.
            self.send_header("Connection", "close")
            self.close_connection = True
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if not self.quiet:  # pragma: no cover - debugging aid
            super().log_message(format, *args)


class CacheServer:
    """A shared execution-result cache served over HTTP.

    ``port=0`` binds an ephemeral port (read it back from ``.port`` /
    ``.url``) — used by tests and by co-located fleets that publish the URL
    out-of-band.  ``start()`` serves from a daemon thread;
    :meth:`serve_forever` blocks (the CLI path).  A non-empty ``token``
    requires ``Authorization: Bearer <token>`` on every endpoint; a
    :class:`~repro.quantum.execution.tenants.TenantRegistry` additionally
    accepts (and rate-limits / quota-charges) per-tenant API keys.
    ``service`` pins the :class:`ExecutionService` whose counters
    ``/metrics`` exports; the default is the process-default service at
    scrape time.

    Subclasses may serve extra routes by overriding :attr:`handler_class`
    (a :class:`_CacheRequestHandler` subclass) and :meth:`_handler_attrs`
    (extra class attributes bound onto the per-server handler) — this is how
    :class:`~repro.quantum.execution.dispatch.EvalCoordinator` layers the
    work-distribution endpoints onto the same transport, auth included.
    """

    handler_class: type[_CacheRequestHandler] = _CacheRequestHandler

    def __init__(
        self,
        cache_dir: str | os.PathLike,
        host: str = "127.0.0.1",
        port: int = 0,
        limits: CacheLimits | None = None,
        quiet: bool = True,
        token: str | None = None,
        tenants=None,
        service=None,
    ) -> None:
        self.disk = DiskResultCache(cache_dir, limits=limits)
        self.token = token or None
        self.tenants = tenants

        handler = type(
            f"_Bound{self.handler_class.__name__}",
            (self.handler_class,),
            {
                "disk": self.disk,
                "quiet": quiet,
                "token": self.token,
                "tenants": tenants,
                "stats_source": service.stats if service is not None else None,
                **self._handler_attrs(),
            },
        )
        self._httpd = ThreadingHTTPServer((host, port), handler)
        self._httpd.daemon_threads = True
        self._thread: threading.Thread | None = None
        self._lifecycle = threading.Lock()
        self._serving = threading.Event()
        self._closed = False

    def _handler_attrs(self) -> dict:
        """Extra class attributes for the bound request handler (hook)."""
        return {}

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "CacheServer":
        """Serve in a background daemon thread; returns self for chaining."""
        if self._closed:
            raise BackendError("CacheServer is closed; construct a new one")
        self._thread = threading.Thread(
            target=self.serve_forever, name="repro-cache-server", daemon=True
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        self._serving.set()
        try:
            self._httpd.serve_forever(poll_interval=SERVE_POLL_INTERVAL)
        finally:
            self._serving.clear()

    def stop(self) -> None:
        """Stop serving, join the serve thread, and release the socket.

        Safe to call in every lifecycle state, exactly once effective:
        before ``start()`` (socketserver's ``shutdown()`` would block
        forever waiting for a ``serve_forever`` loop that never ran — the
        ``_serving`` event gates it), during serving (foreground or the
        daemon thread), after the loop already exited, and repeatedly.
        The listening socket is always closed, so a back-to-back restart
        on the same fixed port never hits ``EADDRINUSE``.
        """
        with self._lifecycle:
            if self._closed:
                return
            self._closed = True
        thread = self._thread
        if thread is not None and thread.is_alive():
            # start() was called but the loop may not have spun up yet;
            # wait for it so shutdown() has a loop to stop.
            self._serving.wait(timeout=5)
        if self._serving.is_set():
            self._httpd.shutdown()
        self._httpd.server_close()
        if thread is not None:
            thread.join(timeout=5)
        self._thread = None

    #: `close()` is the conventional name; `stop()` predates it.
    close = stop

    def __enter__(self) -> "CacheServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def __repr__(self) -> str:
        return f"CacheServer(url='{self.url}', entries={len(self.disk)})"
