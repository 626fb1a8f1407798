"""Thin stdlib client for the simulation service, plus test harnesses.

:class:`ServiceClient` wraps ``http.client`` — one connection per
request, JSON in/out, no retries (retry policy belongs to callers; the
server's ``Retry-After`` header tells them when).  It also speaks the
fleet-internal blob endpoints the peer cache uses.

:class:`LoopThread` hosts one server object on a background event loop
so tests and benchmarks can exercise the real HTTP stack in-process;
:class:`ServiceThread` (a replica), ``RouterThread`` and
``FleetThread`` are its thin subclasses::

    with ServiceThread(ServiceConfig(port=0)) as service:
        response = service.client.balance(app="BT-MZ-32")
        assert response.status == 200
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import threading
import time
from collections.abc import Awaitable, Callable
from dataclasses import dataclass, field
from http.client import HTTPConnection
from typing import Any

from repro.service.app import ServiceApp, ServiceConfig
from repro.service.routes import PEER_SECRET_HEADER

__all__ = ["LoopThread", "ServiceClient", "ServiceResponse", "ServiceThread"]


@dataclass
class ServiceResponse:
    """Status, headers and body of one service reply."""

    status: int
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    def json(self) -> Any:
        return json.loads(self.body) if self.body else None

    @property
    def text(self) -> str:
        return self.body.decode()


class ServiceClient:
    """Blocking JSON client for one service endpoint."""

    def __init__(
        self, host: str = "127.0.0.1", port: int = 8080,
        timeout: float = 60.0,
    ):
        self.host = host
        self.port = port
        self.timeout = timeout

    def request(
        self, method: str, path: str, payload: dict[str, Any] | None = None,
        headers: dict[str, str] | None = None, raw: bytes | None = None,
    ) -> ServiceResponse:
        if raw is not None:
            body: bytes | None = raw
        else:
            body = (
                json.dumps(payload).encode() if payload is not None else None
            )
        conn = HTTPConnection(self.host, self.port, timeout=self.timeout)
        try:
            conn.request(method, path, body=body, headers=headers or {})
            raw = conn.getresponse()
            return ServiceResponse(
                status=raw.status,
                headers={k.title(): v for k, v in raw.getheaders()},
                body=raw.read(),
            )
        finally:
            conn.close()

    # ------------------------------------------------------------------
    def healthz(self) -> dict[str, Any]:
        return self.request("GET", "/healthz").json()

    def livez(self) -> dict[str, Any]:
        return self.request("GET", "/livez").json()

    def metrics(self) -> str:
        return self.request("GET", "/metrics").text

    def cache_get(
        self, key: str, secret: str | None = None
    ) -> ServiceResponse:
        """Fetch one framed cache blob (peer-cache wire protocol)."""
        headers = {}
        if secret is not None:
            headers[PEER_SECRET_HEADER] = secret
        return self.request("GET", f"/v1/cache/{key}", headers=headers)

    def cache_put(
        self, key: str, blob: bytes, secret: str | None = None
    ) -> ServiceResponse:
        """Store one framed cache blob (peer-cache wire protocol)."""
        headers = {"Content-Type": "application/octet-stream"}
        if secret is not None:
            headers[PEER_SECRET_HEADER] = secret
        return self.request(
            "PUT", f"/v1/cache/{key}", raw=blob, headers=headers,
        )

    def balance(self, **fields: Any) -> ServiceResponse:
        return self.request("POST", "/v1/balance", payload=fields)

    def experiment(self, eid: str, **fields: Any) -> ServiceResponse:
        return self.request("POST", f"/v1/experiments/{eid}", payload=fields)

    def job(self, job_id: str) -> ServiceResponse:
        return self.request("GET", f"/v1/jobs/{job_id}")

    def wait_job(
        self, job_id: str, timeout: float = 120.0, interval: float = 0.05
    ) -> dict[str, Any]:
        """Poll ``/v1/jobs/{id}`` until it reaches a terminal state."""
        deadline = time.monotonic() + timeout
        while True:
            response = self.job(job_id)
            if response.status != 200:
                raise RuntimeError(
                    f"job {job_id} poll failed: HTTP {response.status}"
                )
            job = response.json()["job"]
            if job["status"] in ("done", "failed"):
                return job
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job_id} still {job['status']} after {timeout}s"
                )
            time.sleep(interval)


class LoopThread:
    """Run one server object on a daemon thread (context manager).

    The server's event loop lives entirely on the background thread;
    the calling thread talks plain HTTP through :attr:`client`.  The
    server object has a ``start()`` coroutine that binds and returns
    its port, a ``port`` and a ``config.host``; ``drain`` is the
    coroutine that stops it.  A ``port=0`` config binds an ephemeral
    port, read back after startup.
    """

    #: Names the thread ("repro-<role>") and startup errors.
    role = "server"
    #: Seconds ``start()`` waits for the server to bind.
    start_timeout = 30.0
    #: Seconds ``stop()`` waits for the drain to finish.
    stop_timeout = 60.0

    def __init__(self, server: Any, drain: Callable[[], Awaitable[None]]):
        self._server = server
        self._drain = drain
        self._thread: threading.Thread | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None

    @property
    def port(self) -> int:
        assert self._server.port is not None, f"{self.role} not started"
        return self._server.port

    @property
    def client(self) -> ServiceClient:
        return ServiceClient(self._server.config.host, self.port)

    def start(self) -> LoopThread:
        self._thread = threading.Thread(
            target=self._run, name=f"repro-{self.role}", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=self.start_timeout):
            raise RuntimeError(
                f"{self.role} failed to start within "
                f"{self.start_timeout:g}s"
            )
        if self._startup_error is not None:
            raise RuntimeError(f"{self.role} failed to start") \
                from self._startup_error
        return self

    def _run(self) -> None:
        self._loop = asyncio.new_event_loop()
        asyncio.set_event_loop(self._loop)

        async def main() -> None:
            self._stop = asyncio.Event()
            try:
                await self._server.start()
            except BaseException as exc:
                self._startup_error = exc
                self._ready.set()
                raise
            self._ready.set()
            await self._stop.wait()
            await self._drain()

        try:
            self._loop.run_until_complete(main())
        except BaseException:
            pass  # startup errors are re-raised on the calling thread
        finally:
            self._loop.close()

    def stop(self) -> None:
        if (
            self._loop is not None
            and self._stop is not None
            and not self._loop.is_closed()
        ):
            with contextlib.suppress(RuntimeError):  # raced loop close
                self._loop.call_soon_threadsafe(self._stop.set)
        if self._thread is not None:
            self._thread.join(timeout=self.stop_timeout)

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()


class ServiceThread(LoopThread):
    """Run a :class:`ServiceApp` on a daemon thread (context manager).

    ``start()`` returns once ``/healthz`` would answer 200 (worker pool
    warm), so callers never observe the transient "warming" gap.
    """

    role = "service"
    #: Seconds ``start()`` waits for the worker pool to warm up.
    ready_timeout = 120.0

    def __init__(
        self, config: ServiceConfig | None = None, executor: Any = None
    ):
        self.app = ServiceApp(config, executor=executor)
        super().__init__(self.app, self.app.shutdown)

    def start(self) -> ServiceThread:
        super().start()
        deadline = time.monotonic() + self.ready_timeout
        while not self.app.ready and time.monotonic() < deadline:
            time.sleep(0.005)
        if not self.app.ready:
            raise RuntimeError("service never became ready (pool warmup)")
        return self
