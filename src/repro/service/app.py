"""`repro serve`: the asyncio simulation-as-a-service application.

Architecture (one process, inference-server shaped)::

    client ──HTTP──▶ parse/validate ──▶ lint gate (diagnostics)
                       │ 400 on bad input      │ 400 with diagnostics
                       ▼                       ▼
                 single-flight ──▶ ResultCache fast path (disk, ~100 µs)
                       │ followers await leader     │ hit: respond
                       ▼                            ▼ miss
                 admission control (bounded queue; 429 + Retry-After)
                       ▼
                 ProcessPoolExecutor workers (simulate, populate cache)

Everything except the simulations runs on one event loop; the pure,
deterministic trace-driven workload lives in worker processes that
share the content-addressed on-disk cache, so any result is computed
at most once per cache generation — across the service, the CLI *and*
parallel campaigns.

Graceful shutdown (SIGTERM/SIGINT): stop accepting connections, let
admitted jobs and in-flight requests finish, cancel idle keep-alive
readers, then shut the pool down.  Every request carries an
``X-Request-Id`` (client-provided or generated) that is echoed in the
response and stamped on every log line.
"""

from __future__ import annotations

import asyncio
import contextlib
import functools
import logging
import signal
import time
from collections.abc import Awaitable, Callable
from dataclasses import dataclass
from typing import Any

from repro.service import routes as _routes
from repro.service.coalesce import SingleFlight
from repro.service.errors import InternalError, ServiceError, ShuttingDown
from repro.service.jobs import Job, JobTable
from repro.service.metrics import MetricsRegistry
from repro.service.queue import AdmissionController
from repro.service.routes import HttpRequest, Response, error_response
from repro.service.workers import (
    SimulationPool,
    run_balance_batch_job,
    run_balance_job,
    run_experiment_job,
)

__all__ = ["ServiceApp", "ServiceConfig", "run_until_signalled"]

log = logging.getLogger("repro.service")

#: kind -> (pool job function, cache kind for the fast path).
_JOB_FNS = {
    "balance": run_balance_job,
    "balance_batch": run_balance_batch_job,
    "experiment": run_experiment_job,
}


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables of one service instance (see ``repro serve --help``)."""

    host: str = "127.0.0.1"
    port: int = 8080
    workers: int = 2
    #: Max admitted jobs (queued + running); beyond it requests get 429.
    queue_limit: int = 16
    #: Result-cache directory; ``None`` resolves to the default dir.
    cache_dir: str | None = None
    #: Defaults applied to requests that omit the field.
    iterations: int = 6
    base_compute: float = 0.02
    beta: float = 0.5
    #: How long finished async jobs stay pollable.
    job_ttl_seconds: float = 3600.0
    #: Sibling replicas (``host:port``, ...) probed read-through on a
    #: local cache miss before any simulation is admitted.
    peers: tuple[str, ...] = ()
    #: Fleet-shared secret gating the ``/v1/cache/{key}`` blob
    #: endpoints (``x-repro-peer-secret`` header).  The supervisor
    #: generates one per fleet; without it the endpoints only exist at
    #: all when ``peers`` is set, and replica ports must then not be
    #: exposed beyond the fleet host.
    peer_secret: str | None = None
    #: How long a draining replica keeps answering GETs (job polls,
    #: health) after its last admitted job finished, so 202-polling
    #: clients observe terminal states before the process exits.
    drain_linger: float = 0.0
    #: Display name in logs and fleet health ("replica-0", ...).
    replica_name: str | None = None


class ServiceApp:
    """Composition root: HTTP front-end + queue + pool + cache + metrics."""

    def __init__(self, config: ServiceConfig | None = None, executor=None):
        from repro.experiments.cache import ResultCache, default_cache_dir
        from repro.service.peercache import PeerResultCache

        self.config = config or ServiceConfig()
        cache_dir = self.config.cache_dir or str(default_cache_dir())
        self.cache = ResultCache(cache_dir)
        #: Read-through fleet layer over :attr:`cache`; None solo.
        self.peer_cache: PeerResultCache | None = (
            PeerResultCache(
                self.cache, self.config.peers,
                secret=self.config.peer_secret,
            )
            if self.config.peers else None
        )
        self.queue = AdmissionController(
            self.config.queue_limit, self.config.workers
        )
        self.flight = SingleFlight()
        self.pool = SimulationPool(self.config.workers, executor=executor)
        self.jobs = JobTable(self.config.job_ttl_seconds)
        self.metrics = MetricsRegistry()
        self._worker_cache: dict[str, int] = {}
        self._worker_engines: dict[str, float] = {}
        self._build_metrics()

        self.port: int | None = None
        self._server: asyncio.Server | None = None
        self._started = 0.0
        self._draining = False
        self._warm = False
        self._active_requests = 0
        self._conn_tasks: set[asyncio.Task] = set()
        self._job_tasks: set[asyncio.Task] = set()
        self._push_tasks: set[asyncio.Task] = set()

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def _cache_counter(self, key: str) -> float:
        return self.cache.stats().get(key, 0) + self._worker_cache.get(key, 0)

    def _engine_counter(self, key: str) -> float:
        from repro.netsim.enginestats import process_engine_stats

        return process_engine_stats()[key] + self._worker_engines.get(key, 0)

    def _engine_stats(self) -> dict[str, float]:
        from repro.netsim.enginestats import ENGINE_STAT_KEYS

        return {k: self._engine_counter(k) for k in ENGINE_STAT_KEYS}

    def _build_metrics(self) -> None:
        m = self.metrics
        self.requests_total = m.counter(
            "repro_service_requests_total",
            "HTTP requests served, by endpoint/method/status.",
            ("endpoint", "method", "status"),
        )
        self.request_seconds = m.histogram(
            "repro_service_request_seconds",
            "End-to-end request latency in seconds.",
            ("endpoint",),
        )
        m.gauge(
            "repro_service_queue_depth",
            "Admitted jobs currently queued or running.",
            fn=lambda: self.queue.depth,
        )
        m.gauge(
            "repro_service_queue_limit",
            "Admission limit; beyond it requests receive 429.",
            fn=lambda: self.queue.limit,
        )
        m.counter(
            "repro_service_queue_rejected_total",
            "Requests rejected with 429 by admission control.",
            fn=lambda: self.queue.rejected_total,
        )
        m.gauge(
            "repro_service_workers",
            "Size of the simulation worker pool.",
            fn=lambda: self.pool.workers,
        )
        m.gauge(
            "repro_service_workers_busy",
            "Workers currently executing a simulation job.",
            fn=lambda: self.pool.busy,
        )
        m.gauge(
            "repro_service_worker_utilization",
            "Busy workers / total workers.",
            fn=lambda: self.pool.busy / self.pool.workers,
        )
        self.simulations_total = m.counter(
            "repro_service_simulations_total",
            "Jobs actually executed by the worker pool (cache misses).",
            ("kind",),
        )
        self.coalesced_total = m.counter(
            "repro_service_coalesced_total",
            "Requests served by piggybacking on an identical in-flight "
            "computation (single-flight followers).",
            ("kind",),
        )
        self.fast_hits_total = m.counter(
            "repro_service_cache_fast_hits_total",
            "Requests answered from the result cache without a worker.",
            ("kind",),
        )
        for key, help_text in (
            ("hits", "Result-cache hits (front-end + workers)."),
            ("misses", "Result-cache misses, corrupt blobs included."),
            ("corrupt", "Result-cache misses caused by corrupt blobs."),
            ("stores", "Result-cache blobs written."),
        ):
            m.counter(
                f"repro_service_result_cache_{key}_total",
                help_text,
                fn=lambda key=key: self._cache_counter(key),
            )
        m.gauge(
            "repro_service_cache_hit_ratio",
            "Result-cache hits / lookups since start (0 when idle).",
            fn=self._hit_ratio,
        )
        m.gauge(
            "repro_service_cache_entries",
            "Blobs currently in the result-cache directory.",
            fn=lambda: self.cache.entry_count(),
        )
        for key, help_text in (
            ("des_runs", "World replays executed by the DES engine."),
            ("des_events", "Heap events processed by the DES engine."),
            ("des_seconds", "Wall seconds spent inside DES event loops."),
            ("compiled_compiles", "Worlds compiled by the replay kernel."),
            ("compiled_runs", "Compiled-kernel tape passes (scalar or "
             "batch)."),
            ("compiled_evaluations", "Frequency assignments priced by the "
             "compiled kernel."),
            ("compiled_instructions", "Instruction nodes evaluated by the "
             "compiled kernel."),
            ("compiled_seconds", "Wall seconds spent evaluating compiled "
             "tapes."),
            ("auto_fallbacks", "auto-engine runs routed back to the DES by "
             "the capability check."),
            ("batch_batches", "Batched sweep pricing passes "
             "(evaluate_assignments calls)."),
            ("batch_candidates", "Candidates priced across all batched "
             "sweeps."),
            ("batch_chunks", "Vectorised evaluate_many chunk passes issued "
             "by batched sweeps."),
            ("batch_fallback_candidates", "Batch candidates priced by "
             "per-candidate DES replays instead of vectorised lanes."),
        ):
            m.counter(
                f"repro_engine_{key}_total",
                help_text + " Front-end + worker processes.",
                fn=lambda key=key: self._engine_counter(key),
            )
        from repro.netsim.enginestats import engine_rates

        for rate in ("des_evals_per_second", "compiled_evals_per_second"):
            m.gauge(
                f"repro_engine_{rate}",
                "Cumulative world evaluations per wall second on this "
                "engine (0 when idle).",
                fn=lambda rate=rate: engine_rates(self._engine_stats())[rate],
            )
        self.jobs_total = m.counter(
            "repro_service_jobs_total",
            "Async jobs by kind and terminal outcome.",
            ("kind", "outcome"),
        )
        m.gauge(
            "repro_service_inflight_requests",
            "Requests currently being dispatched.",
            fn=lambda: self._active_requests,
        )
        m.gauge(
            "repro_service_ready",
            "1 when this replica should receive traffic (warm, not "
            "draining).",
            fn=lambda: 1.0 if self.ready else 0.0,
        )
        for key, help_text in (
            ("hits", "Local misses served by a sibling replica's cache "
             "(read-through)."),
            ("misses", "Read-through probes no peer could answer."),
            ("corrupt", "Peer blobs dropped by frame/digest verification."),
            ("errors", "Peer-cache transport failures (timeouts, refused "
             "connections, rejected pushes)."),
            ("pushes", "Blobs pushed back to their ring owner after a "
             "forwarded request."),
        ):
            m.counter(
                f"repro_service_peer_cache_{key}_total",
                help_text,
                fn=lambda key=key: float(
                    self.peer_cache.stats()[f"peer_{key}"]
                ) if self.peer_cache is not None else 0.0,
            )

    def _hit_ratio(self) -> float:
        hits = (
            self._cache_counter("hits")
            + self.fast_hits_total.value(kind="balance")
            + self.fast_hits_total.value(kind="balance_batch")
            + self.fast_hits_total.value(kind="experiment")
        )
        lookups = hits + self._cache_counter("misses")
        return hits / lookups if lookups else 0.0

    # ------------------------------------------------------------------
    # Core pipeline
    # ------------------------------------------------------------------
    def _cache_identity(self, kind: str, spec: dict[str, Any]):
        from repro.service.identity import cache_identity

        return cache_identity(kind, spec)

    def _cache_fetch(self, kind: str, cache_kind: str, payload: Any):
        """Blocking fast-path lookup (runs in a thread).

        Returns ``(value, source)``: source is ``"hit"`` for the local
        disk cache, ``"peer"`` for a read-through fill from a sibling
        replica, and the pair is ``(None, None)`` on a fleet-wide miss.
        """
        if self.peer_cache is not None:
            value, source = self.peer_cache.fetch(cache_kind, payload)
        else:
            value = self.cache.get(cache_kind, payload)
            source = "hit" if value is not None else None
        if value is None:
            return None, None
        if kind == "balance":
            return value.to_json(), source
        return value, source

    def _cache_store(self, cache_kind: str, payload: Any, value: Any) -> None:
        if cache_kind in ("service-exp", "balance-batch"):
            # scalar balance results are stored by the worker's Runner
            self.cache.put(cache_kind, payload, value)

    def _push_to_owner(self, key: str, owner: str) -> None:
        """Warm the ring owner after computing a forwarded request."""
        assert self.peer_cache is not None
        self.peer_cache.push(key, owner)

    async def perform(
        self,
        kind: str,
        spec: dict[str, Any],
        forward_origin: str | None = None,
    ):
        """Serve one compute request; returns ``(result, cache_state)``.

        ``cache_state`` is ``hit`` (served from local disk), ``peer``
        (read through a sibling replica's cache), ``miss`` (a worker
        simulated it) or ``coalesced`` (piggybacked on an identical
        in-flight request).  ``forward_origin`` is the ring owner's
        address when the front router served this request off-ring;
        a computed miss is then pushed back to the owner so the ring
        converges to all-hits.
        """
        if self._draining:
            raise ShuttingDown()
        cache_kind, payload = self._cache_identity(kind, spec)
        key = self.cache.key(cache_kind, payload)

        async def leader():
            found, source = await asyncio.to_thread(
                self._cache_fetch, kind, cache_kind, payload
            )
            if found is not None:
                self.fast_hits_total.inc(kind=kind)
                return found, source
            self.queue.acquire()
            start = time.perf_counter()
            try:
                job_spec = {**spec, "cache_dir": str(self.cache.cache_dir)}
                envelope = await self.pool.run(_JOB_FNS[kind], job_spec)
            finally:
                self.queue.release(time.perf_counter() - start)
            for counter, delta in envelope.get("cache", {}).items():
                self._worker_cache[counter] = (
                    self._worker_cache.get(counter, 0) + delta
                )
            for counter, delta in envelope.get("engines", {}).items():
                self._worker_engines[counter] = (
                    self._worker_engines.get(counter, 0) + delta
                )
            self.simulations_total.inc(kind=kind)
            result = envelope["result"]
            await asyncio.to_thread(
                self._cache_store, cache_kind, payload, result
            )
            if forward_origin and self.peer_cache is not None:
                # fire-and-forget: the response must not wait on a peer
                task = asyncio.get_running_loop().create_task(
                    asyncio.to_thread(
                        self._push_to_owner, key, forward_origin
                    )
                )
                self._push_tasks.add(task)
                task.add_done_callback(self._push_tasks.discard)
            return result, "miss"

        (result, state), led = await self.flight.do(key, leader)
        if not led:
            self.coalesced_total.inc(kind=kind)
            state = "coalesced"
        return result, state

    # ------------------------------------------------------------------
    # Async jobs
    # ------------------------------------------------------------------
    def submit_job(self, kind: str, spec: dict[str, Any]) -> Job:
        if self._draining:
            raise ShuttingDown()
        job = self.jobs.create(kind)
        task = asyncio.get_running_loop().create_task(
            self._run_job(job, kind, spec)
        )
        self._job_tasks.add(task)
        task.add_done_callback(self._job_tasks.discard)
        return job

    async def _run_job(self, job: Job, kind: str, spec: dict[str, Any]):
        self.jobs.mark_running(job)
        try:
            result, _state = await self.perform(kind, spec)
        except ServiceError as err:
            self.jobs.mark_failed(
                job, {**err.to_payload()["error"], "status": err.status}
            )
            self.jobs_total.inc(kind=kind, outcome="failed")
        except Exception:
            log.exception("job %s crashed", job.id)
            self.jobs.mark_failed(
                job, {"code": "internal", "message": "job crashed", "status": 500}
            )
            self.jobs_total.inc(kind=kind, outcome="failed")
        else:
            self.jobs.mark_done(job, result)
            self.jobs_total.inc(kind=kind, outcome="done")

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def draining(self) -> bool:
        return self._draining

    @property
    def ready(self) -> bool:
        """Whether this replica should receive traffic."""
        return self._warm and not self._draining

    def health_payload(self) -> dict[str, Any]:
        if self._draining:
            status = "draining"
        elif not self._warm:
            status = "warming"
        else:
            status = "ok"
        payload: dict[str, Any] = {
            "status": status,
            "uptime_seconds": round(time.time() - self._started, 3),
            "queue": self.queue.stats(),
            "workers": {"total": self.pool.workers, "busy": self.pool.busy},
            "jobs_pending": self.jobs.pending(),
            "cache_dir": str(self.cache.cache_dir),
        }
        if self.config.replica_name:
            payload["replica"] = self.config.replica_name
        if self.peer_cache is not None:
            payload["peers"] = list(self.config.peers)
            payload["peer_cache"] = self.peer_cache.stats()
        return payload

    # ------------------------------------------------------------------
    # HTTP handler
    # ------------------------------------------------------------------
    async def _dispatch(self, request: HttpRequest) -> Response:
        self._active_requests += 1
        start = time.perf_counter()
        endpoint = "unmatched"
        try:
            endpoint, handler, params = _routes.match_route(
                request.method, request.path
            )
            response = await handler(self, request, params)
        except ServiceError as err:
            response = error_response(err)
        except Exception:
            log.exception(
                "rid=%s %s %s crashed", request.request_id, request.method,
                request.path,
            )
            response = error_response(
                InternalError("unexpected server error; see server log")
            )
        finally:
            self._active_requests -= 1
        elapsed = time.perf_counter() - start
        self.requests_total.inc(
            endpoint=endpoint, method=request.method,
            status=str(response.status),
        )
        self.request_seconds.observe(elapsed, endpoint=endpoint)
        log.info(
            "rid=%s %s %s -> %d in %.1f ms%s",
            request.request_id, request.method, request.path,
            response.status, elapsed * 1e3,
            f" cache={response.headers['X-Cache']}"
            if "X-Cache" in response.headers else "",
        )
        return response

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> int:
        """Bind and start serving; returns the bound port.

        The socket accepts immediately, but ``/healthz`` answers 503
        ``warming`` until the worker pool is warm — the router keeps
        the replica out of the ring until the first simulation would
        not eat the pool-spawn latency.
        """
        self._server = await asyncio.start_server(
            functools.partial(
                _routes.serve_connection,
                handle=self._dispatch,
                tasks=self._conn_tasks,
                keep_alive=lambda: not self._draining,
            ),
            self.config.host, self.config.port,
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._started = time.time()
        log.info(
            "serving on http://%s:%d (workers=%d queue=%d cache=%s peers=%s)",
            self.config.host, self.port, self.config.workers,
            self.config.queue_limit, self.cache.cache_dir,
            ",".join(self.config.peers) or "-",
        )
        asyncio.get_running_loop().create_task(self._warmup())
        return self.port

    async def _warmup(self) -> None:
        """Spin the worker pool up, then flip readiness."""
        try:
            await asyncio.to_thread(self.pool.prewarm)
        except Exception:
            log.exception("worker-pool warmup failed; serving anyway")
        self._warm = True

    async def shutdown(self) -> None:
        """Graceful drain: finish everything admitted, then stop.

        Readiness flips to 503 ``draining`` immediately (the router
        stops routing here), new compute is rejected with 503 +
        ``Retry-After``, admitted jobs and in-flight requests run to
        completion, then the replica *lingers* for
        ``config.drain_linger`` seconds still answering GETs so
        202-polling clients observe their jobs' terminal states —
        only then does the listener close and the pool stop.
        """
        if self._draining:
            return
        self._draining = True
        if self._job_tasks:
            await asyncio.gather(*self._job_tasks, return_exceptions=True)
        await self.queue.drain()
        while self._active_requests > 0:
            await asyncio.sleep(0.02)
        if self.config.drain_linger > 0:
            log.info(
                "drained; lingering %.1fs for job polls",
                self.config.drain_linger,
            )
            await asyncio.sleep(self.config.drain_linger)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._push_tasks:
            await asyncio.gather(*self._push_tasks, return_exceptions=True)
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        await asyncio.to_thread(self.pool.shutdown)
        log.info("drained and stopped")

    async def run(self) -> int:
        """CLI entry: serve until SIGTERM/SIGINT, then drain."""
        return await run_until_signalled(self.start, self.shutdown)


async def run_until_signalled(
    start: Callable[[], Awaitable[Any]], drain: Callable[[], Awaitable[None]]
) -> int:
    """Await ``start()``, wait for SIGINT or SIGTERM, then ``drain()``.

    The ``repro serve`` entry of a replica and of a fleet supervisor.
    """
    await start()
    loop = asyncio.get_running_loop()
    stop = asyncio.Event()
    for sig in (signal.SIGINT, signal.SIGTERM):
        with contextlib.suppress(NotImplementedError):
            loop.add_signal_handler(sig, stop.set)
    await stop.wait()
    log.info("shutdown signal received; draining")
    await drain()
    return 0
