"""Consistent-hash front router for a ``repro serve`` fleet.

The router is the single client-facing endpoint of a multi-replica
fleet.  It owns no simulation state: every compute request is parsed
*shape-only* (``lint=False`` — no diagnostics pass, no admission) just
far enough to compute its content-addressed identity
(:func:`repro.service.identity.request_digest`), and that digest is
placed on a consistent-hash ring over the ready replicas::

    client ──▶ router ──digest──▶ ring ──▶ owning replica
                  │                           │ coalesce + cache
                  │ owner busy / no digest    ▼
                  └────▶ least-loaded (+ X-Repro-Forwarded-From)

Because the ring key *is* the cache key *is* the single-flight key,
identical bodies always land on the same replica: the fleet computes
each distinct request once, and each replica's disk cache holds its
ring partition — coalescing and the warm cache become fleet-wide
properties instead of per-process ones.

Fallbacks keep the ring an optimization, not a constraint: bodies with
no computable digest (invalid JSON gets its canonical 400 from a
replica; job polls have no body) and hot keys whose owner is saturated
go to the least-loaded ready replica.  Off-ring placements carry
``X-Repro-Forwarded-From: <owner host:port>`` so the handling replica
pushes the computed blob back to the owner (peer-cache PUT) and the
ring converges back to all-hits.

Ring membership follows replica *readiness* (``/healthz``), polled in
the background: a warming, draining or dead replica leaves the ring
before clients see connection errors.  ``/healthz`` and ``/metrics``
on the router aggregate the whole fleet (per-replica labels plus
router-level counters).  Pure stdlib, one event loop, no threads.
"""

from __future__ import annotations

import asyncio
import bisect
import contextlib
import functools
import hashlib
import json
import logging
import re
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.service import routes as _routes
from repro.service.app import ServiceConfig
from repro.service.client import LoopThread
from repro.service.errors import NotFound, ServiceError
from repro.service.metrics import MetricsRegistry, merge_expositions
from repro.service.routes import (
    FORWARDED_FROM_HEADER,
    HttpRequest,
    Response,
    error_response,
    json_response,
)

__all__ = ["FrontRouter", "HashRing", "RouterConfig", "RouterThread"]

log = logging.getLogger("repro.service.router")

_EXPERIMENT_RE = re.compile(r"^/v1/experiments/(?P<eid>[A-Za-z0-9_\-]+)$")

#: Hop-by-hop headers never forwarded in either direction.
_HOP_HEADERS = {
    "connection", "keep-alive", "host", "content-length",
    "transfer-encoding", "te", "upgrade", "proxy-connection",
}


class HashRing:
    """Consistent-hash ring with virtual nodes.

    Each node (replica address) is hashed onto the ring ``vnodes``
    times; a key maps to the first vnode clockwise from its own hash.
    With ~64 vnodes per node the keyspace splits within a few percent
    of even, and removing one node only reassigns that node's share —
    the property that keeps a replica restart from invalidating the
    whole fleet's cache placement.
    """

    def __init__(self, vnodes: int = 64):
        self.vnodes = vnodes
        self.rebalances = 0
        self._nodes: frozenset[str] = frozenset()
        self._hashes: list[int] = []
        self._owners: list[str] = []

    @staticmethod
    def _hash(value: str) -> int:
        return int.from_bytes(
            hashlib.sha256(value.encode()).digest()[:8], "big"
        )

    @property
    def nodes(self) -> frozenset[str]:
        return self._nodes

    def set_nodes(self, nodes) -> bool:
        """Replace the membership; returns True when it changed."""
        new = frozenset(nodes)
        if new == self._nodes:
            return False
        points = sorted(
            (self._hash(f"{node}#{i}"), node)
            for node in new
            for i in range(self.vnodes)
        )
        self._nodes = new
        self._hashes = [h for h, _ in points]
        self._owners = [n for _, n in points]
        self.rebalances += 1
        return True

    def lookup(self, key: str) -> str | None:
        """The node owning ``key`` (None on an empty ring)."""
        if not self._hashes:
            return None
        idx = bisect.bisect_right(self._hashes, self._hash(key))
        if idx == len(self._hashes):
            idx = 0
        return self._owners[idx]


@dataclass(frozen=True)
class RouterConfig:
    """Tunables of one front router."""

    host: str = "127.0.0.1"
    port: int = 0
    #: Replica addresses (``host:port``) the router fronts.
    replicas: tuple[str, ...] = ()
    #: Seconds between background readiness probes.
    health_interval: float = 0.25
    #: Per-hop timeout for proxied requests (covers a cold simulation).
    timeout: float = 300.0
    #: In-flight requests on the ring owner beyond which a key is
    #: "hot" and spills to the least-loaded replica (off-ring, with a
    #: forwarded-from header).
    hot_threshold: int = 32
    #: Virtual nodes per replica on the hash ring.
    vnodes: int = 64
    #: Request-shape defaults — must match the replicas' ServiceConfig,
    #: or the router would compute different digests than the replicas
    #: cache under.
    defaults: ServiceConfig = field(default_factory=ServiceConfig)


class _ReplicaState:
    """What the router knows about one replica."""

    __slots__ = ("addr", "inflight", "name", "ready")

    def __init__(self, addr: str):
        self.addr = addr
        self.name = addr
        self.ready = False
        self.inflight = 0


class FrontRouter:
    """The fleet's front door: route, proxy, aggregate."""

    def __init__(
        self,
        config: RouterConfig,
        extra_metrics: Callable[[], str] | None = None,
    ):
        if not config.replicas:
            raise ValueError("router needs at least one replica address")
        self.config = config
        #: Extra exposition text appended to ``/metrics`` (the
        #: supervisor injects fleet restart counters through this).
        self.extra_metrics = extra_metrics
        self.ring = HashRing(config.vnodes)
        self.replicas = {a: _ReplicaState(a) for a in config.replicas}
        self.port: int | None = None
        self._server: asyncio.Server | None = None
        self._health_task: asyncio.Task | None = None
        self._conn_tasks: set[asyncio.Task] = set()
        self._started = 0.0

        m = self.metrics = MetricsRegistry()
        self.requests_total = m.counter(
            "repro_router_requests_total",
            "Requests handled by the front router, by route/status.",
            ("route", "status"),
        )
        self.routed_total = m.counter(
            "repro_router_routed_total",
            "Requests placed on their ring owner.",
        )
        self.forwarded_total = m.counter(
            "repro_router_forwarded_total",
            "Requests spilled off-ring (hot key or unready owner) with "
            "a forwarded-from header.",
        )
        self.unroutable_total = m.counter(
            "repro_router_unroutable_total",
            "Requests with no computable identity, sent least-loaded.",
        )
        self.job_fanout_total = m.counter(
            "repro_router_job_fanout_total",
            "Job polls fanned out to every replica.",
        )
        self.proxy_errors_total = m.counter(
            "repro_router_proxy_errors_total",
            "Upstream failures (refused, reset, timeout) answered 502.",
        )
        m.counter(
            "repro_router_ring_rebalances_total",
            "Ring membership changes observed by readiness polling.",
            fn=lambda: float(self.ring.rebalances),
        )
        m.gauge(
            "repro_router_ready_replicas",
            "Replicas currently in the ring.",
            fn=lambda: float(len(self.ring.nodes)),
        )
        m.gauge(
            "repro_router_replicas",
            "Replicas configured behind this router.",
            fn=lambda: float(len(self.replicas)),
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> int:
        self._server = await asyncio.start_server(
            functools.partial(
                _routes.serve_connection,
                handle=self._handle,
                tasks=self._conn_tasks,
                keep_alive=lambda: True,
            ),
            self.config.host, self.config.port,
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._started = time.time()
        await self._poll_readiness()  # seed the ring before serving
        self._health_task = asyncio.get_running_loop().create_task(
            self._health_loop()
        )
        log.info(
            "routing on http://%s:%d over %d replica(s): %s",
            self.config.host, self.port, len(self.replicas),
            ",".join(self.replicas),
        )
        return self.port

    async def stop(self) -> None:
        if self._health_task is not None:
            self._health_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._health_task
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        log.info("router stopped")

    @property
    def any_ready(self) -> bool:
        return bool(self.ring.nodes)

    # ------------------------------------------------------------------
    # Readiness polling -> ring membership
    # ------------------------------------------------------------------
    async def _probe(self, addr: str) -> dict[str, Any] | None:
        """One replica's /healthz payload, or None when unreachable."""
        try:
            status, _headers, body = await asyncio.wait_for(
                self._raw_hop(addr, "GET", "/healthz", {}, b""),
                timeout=5.0,
            )
        except (OSError, asyncio.TimeoutError):
            return None
        try:
            payload = json.loads(body)
        except (ValueError, UnicodeDecodeError):
            return None
        payload["_http_status"] = status
        return payload

    async def _poll_readiness(self) -> list[dict[str, Any] | None]:
        """Probe every replica, move the ring to the ready ones and
        return the probes' payloads (in replica order)."""
        payloads = await asyncio.gather(
            *(self._probe(a) for a in self.replicas)
        )
        ready = []
        for state, payload in zip(self.replicas.values(), payloads):
            was_ready = state.ready
            state.ready = (
                payload is not None and payload.get("_http_status") == 200
            )
            if payload is not None and payload.get("replica"):
                state.name = str(payload["replica"])
            if state.ready:
                ready.append(state.addr)
            if state.ready != was_ready:
                log.info(
                    "replica %s (%s) is now %s", state.name, state.addr,
                    "ready" if state.ready else "out of rotation",
                )
        if self.ring.set_nodes(ready):
            log.info(
                "ring rebalanced: %d/%d replica(s) in rotation",
                len(ready), len(self.replicas),
            )
        return payloads

    async def _health_loop(self) -> None:
        while True:
            await asyncio.sleep(self.config.health_interval)
            try:
                await self._poll_readiness()
            except Exception:  # pragma: no cover - defensive
                log.exception("readiness poll failed")

    # ------------------------------------------------------------------
    # Routing decisions
    # ------------------------------------------------------------------
    def _routing_digest(self, request: HttpRequest) -> str | None:
        """The request's content-addressed identity, or None.

        Shape-only parsing (``lint=False``): the router never rejects —
        anything unparsable routes least-loaded and gets its canonical
        error from a replica, so validation happens exactly once.
        """
        from repro.service.identity import request_digest

        try:
            if request.method == "POST" and request.path == "/v1/balance":
                spec, _ = _routes.parse_balance_request(
                    request.json(), self.config.defaults, lint=False
                )
                kind = (
                    "balance_batch" if "candidates" in spec else "balance"
                )
                return request_digest(kind, spec)
            m = _EXPERIMENT_RE.match(request.path)
            if request.method == "POST" and m:
                spec, _ = _routes.parse_experiment_request(
                    m.group("eid"), request.json(), self.config.defaults,
                    lint=False,
                )
                return request_digest("experiment", spec)
        except ServiceError:
            return None
        except Exception:  # pragma: no cover - defensive
            log.exception("identity computation crashed; routing unkeyed")
            return None
        return None

    def _least_loaded(self) -> _ReplicaState | None:
        ready = [s for s in self.replicas.values() if s.ready]
        if not ready:
            return None
        return min(ready, key=lambda s: s.inflight)

    def _place(
        self, request: HttpRequest
    ) -> tuple[_ReplicaState | None, str | None]:
        """(target replica, forwarded-from owner addr or None)."""
        is_compute = request.method == "POST" and (
            request.path == "/v1/balance"
            or request.path.startswith("/v1/experiments/")
        )
        if not is_compute:
            return self._least_loaded(), None
        digest = self._routing_digest(request)
        if digest is None:
            self.unroutable_total.inc()
            return self._least_loaded(), None
        owner_addr = self.ring.lookup(digest)
        if owner_addr is None:
            return None, None
        owner = self.replicas[owner_addr]
        if owner.ready and owner.inflight < self.config.hot_threshold:
            self.routed_total.inc()
            return owner, None
        # hot key (or owner dropped out between lookup and now): spill
        # to the least-loaded replica, telling it who the owner is so
        # the computed blob is pushed back onto the ring
        fallback = self._least_loaded()
        if fallback is None or fallback.addr == owner_addr:
            self.routed_total.inc()
            return owner if owner.ready else fallback, None
        self.forwarded_total.inc()
        return fallback, owner_addr

    # ------------------------------------------------------------------
    # Upstream proxying
    # ------------------------------------------------------------------
    async def _raw_hop(
        self,
        addr: str,
        method: str,
        path: str,
        headers: dict[str, str],
        body: bytes,
    ) -> tuple[int, dict[str, str], bytes]:
        """One upstream round trip (Connection: close framing)."""
        host, _, port = addr.rpartition(":")
        reader, writer = await asyncio.open_connection(host, int(port))
        try:
            head = [
                f"{method} {path} HTTP/1.1",
                f"Host: {addr}",
                "Connection: close",
                f"Content-Length: {len(body)}",
            ]
            head += [
                f"{k}: {v}"
                for k, v in headers.items()
                if k.lower() not in _HOP_HEADERS
            ]
            writer.write(("\r\n".join(head) + "\r\n\r\n").encode())
            writer.write(body)
            await writer.drain()

            status_line = await reader.readline()
            parts = status_line.decode("latin-1").split(None, 2)
            if len(parts) < 2 or not parts[1].isdigit():
                raise ConnectionError(
                    f"bad status line from {addr}: {status_line!r}"
                )
            status = int(parts[1])
            response_headers: dict[str, str] = {}
            while True:
                raw = await reader.readline()
                if raw in (b"\r\n", b"\n", b""):
                    break
                name, _, value = raw.decode("latin-1").partition(":")
                response_headers[name.strip().lower()] = value.strip()
            length = response_headers.get("content-length")
            if length is not None and length.isdigit():
                payload = await reader.readexactly(int(length))
            else:  # Connection: close — body runs to EOF
                chunks = []
                while True:
                    chunk = await reader.read(65536)
                    if not chunk:
                        break
                    chunks.append(chunk)
                payload = b"".join(chunks)
            return status, response_headers, payload
        finally:
            writer.close()
            with contextlib.suppress(ConnectionError, OSError):
                await writer.wait_closed()

    async def _proxy(
        self, state: _ReplicaState, request: HttpRequest,
        extra_headers: dict[str, str] | None = None,
    ) -> Response:
        headers = {
            k: v for k, v in request.headers.items()
            if k not in _HOP_HEADERS
        }
        headers["x-request-id"] = request.request_id
        if extra_headers:
            headers.update(extra_headers)
        state.inflight += 1
        try:
            status, up_headers, body = await asyncio.wait_for(
                self._raw_hop(
                    state.addr, request.method, request.path, headers,
                    request.body,
                ),
                timeout=self.config.timeout,
            )
        except (OSError, asyncio.TimeoutError, ConnectionError) as exc:
            self.proxy_errors_total.inc()
            log.warning(
                "upstream %s failed for %s %s: %s", state.addr,
                request.method, request.path, exc,
            )
            return json_response(
                502,
                {"error": {
                    "code": "bad-gateway",
                    "message": f"replica {state.name} failed mid-request; "
                    "retry",
                }},
                {"Retry-After": "1"},
            )
        finally:
            state.inflight -= 1
        out_headers = {
            k.title(): v for k, v in up_headers.items()
            if k not in _HOP_HEADERS
        }
        out_headers["X-Repro-Replica"] = state.name
        content_type = out_headers.pop("Content-Type", "application/json")
        return Response(status, body, content_type, out_headers)

    # ------------------------------------------------------------------
    # Aggregated fleet endpoints
    # ------------------------------------------------------------------
    async def _fleet_healthz(self) -> Response:
        # one probe pass moves the ring and renders the payload, so the
        # readiness reported is the ring the next request is placed on
        payloads = await self._poll_readiness()
        replicas: dict[str, Any] = {}
        ready = len(self.ring.nodes)
        for state, payload in zip(self.replicas.values(), payloads):
            if payload is None:
                replicas[state.name] = {
                    "status": "unreachable", "addr": state.addr,
                }
                continue
            del payload["_http_status"]
            payload["addr"] = state.addr
            replicas[state.name] = payload
        payload = {
            "status": "ok" if ready else "unavailable",
            "role": "router",
            "uptime_seconds": round(time.time() - self._started, 3),
            "fleet": {
                "replicas": len(self.replicas),
                "ready": ready,
                "ring_rebalances": self.ring.rebalances,
            },
            "replicas": replicas,
        }
        status = 200 if ready else 503
        return json_response(
            status, payload, {"Retry-After": "1"} if status == 503 else None
        )

    async def _fleet_metrics(self) -> Response:
        async def scrape(state: _ReplicaState) -> tuple[str, str]:
            try:
                status, _h, body = await asyncio.wait_for(
                    self._raw_hop(state.addr, "GET", "/metrics", {}, b""),
                    timeout=5.0,
                )
            except (OSError, asyncio.TimeoutError):
                return state.name, ""
            if status != 200:
                return state.name, ""
            return state.name, body.decode("utf-8", "replace")

        scraped = await asyncio.gather(
            *(scrape(s) for s in self.replicas.values())
        )
        text = merge_expositions(dict(scraped))
        text += self.metrics.render()
        if self.extra_metrics is not None:
            text += self.extra_metrics()
        return Response(
            200, text.encode(), "text/plain; version=0.0.4; charset=utf-8"
        )

    async def _fanout_job(self, request: HttpRequest) -> Response:
        """Job polls carry no routing identity: ask everyone.

        Job ids live in one replica's in-memory table; the first
        non-404 answer wins.  Replicas are few (a fleet is a handful
        of processes, not a datacenter), so N cheap GETs beat keeping
        a sticky job->replica map coherent across restarts.
        """
        self.job_fanout_total.inc()
        states = [s for s in self.replicas.values() if s.ready]
        if not states:
            states = list(self.replicas.values())
        results = await asyncio.gather(
            *(self._proxy(s, request) for s in states)
        )
        best: Response | None = None
        for state, response in zip(states, results):
            if response.status not in (404, 502):
                return response
            if best is None or (best.status == 502 and
                                response.status == 404):
                best = response
        return best if best is not None else json_response(
            503, {"error": {"code": "unavailable",
                            "message": "no replica answered"}},
            {"Retry-After": "1"},
        )

    # ------------------------------------------------------------------
    # HTTP handler
    # ------------------------------------------------------------------
    async def _handle(self, request: HttpRequest) -> Response:
        start = time.perf_counter()
        response, route = await self._dispatch(request)
        self.requests_total.inc(route=route, status=str(response.status))
        log.info(
            "rid=%s %s %s -> %d via %s in %.1f ms",
            request.request_id, request.method, request.path,
            response.status,
            response.headers.get("X-Repro-Replica", "router"),
            (time.perf_counter() - start) * 1e3,
        )
        return response

    async def _dispatch(self, request: HttpRequest) -> tuple[Response, str]:
        if request.method == "GET" and request.path == "/healthz":
            return await self._fleet_healthz(), "healthz"
        if request.method == "GET" and request.path == "/livez":
            return json_response(
                200, {"status": "alive", "role": "router"}
            ), "livez"
        if request.method == "GET" and request.path == "/metrics":
            return await self._fleet_metrics(), "metrics"
        if request.method == "GET" and request.path.startswith("/v1/jobs/"):
            return await self._fanout_job(request), "job"
        if (
            request.path == "/v1/cache"
            or request.path.startswith("/v1/cache/")
        ):
            # the peer-cache blob protocol is fleet-internal: never
            # proxy it for clients, who could otherwise read or poison
            # replica caches (pickled blobs) through the public port
            return error_response(
                NotFound(f"no route for {request.method} {request.path}")
            ), "cache"

        target, owner_addr = self._place(request)
        if target is None:
            return json_response(
                503,
                {"error": {
                    "code": "unavailable",
                    "message": "no ready replica; retry shortly",
                }},
                {"Retry-After": "1"},
            ), "proxy"
        extra = None
        if owner_addr is not None:
            extra = {FORWARDED_FROM_HEADER: owner_addr}
        return await self._proxy(target, request, extra), "proxy"


class RouterThread(LoopThread):
    """Run a :class:`FrontRouter` on a daemon thread (context manager).

    The fleet-testing sibling of
    :class:`repro.service.client.ServiceThread`: point it at one or
    more running replicas and talk to :attr:`client` from the calling
    thread.
    """

    role = "router"

    def __init__(
        self,
        config: RouterConfig,
        extra_metrics: Callable[[], str] | None = None,
    ):
        self.router = FrontRouter(config, extra_metrics=extra_metrics)
        super().__init__(self.router, self.router.stop)
