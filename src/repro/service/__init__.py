"""Simulation-as-a-service layer (``repro serve``).

An asyncio HTTP/JSON front-end over the power-aware load-balancing
simulator: bounded admission queue with explicit 429 backpressure,
single-flight coalescing of identical in-flight requests, a process
worker pool, and the content-addressed result cache shared with the
offline CLI and campaign runner.  Pure stdlib — no third-party server
dependencies.

Fleet mode (``repro serve --replicas N``) adds a supervisor that runs
N replica subprocesses on adjacent ports behind a consistent-hash
front router: identical request bodies hash to the same replica (so
coalescing and the warm cache are fleet-wide), replicas read through
each other's cache partitions over a verified blob protocol, and the
router's ``/healthz``/``/metrics`` aggregate the whole fleet.

The replica and the router share one HTTP runtime
(:mod:`repro.service.routes`: request parser, response writer and
keep-alive connection loop) and differ only in their request handler;
both ``repro serve`` entries run one signal-driven coroutine
(:func:`repro.service.app.run_until_signalled`).

Entry points:

- :class:`repro.service.app.ServiceApp` / ``repro serve`` — one replica
- :class:`repro.service.supervisor.Supervisor` — the fleet
  (``repro serve --replicas N``)
- :class:`repro.service.router.FrontRouter` — the consistent-hash door
- :class:`repro.service.client.ServiceClient` — a thin blocking client,
  also the peer cache's client for the blob endpoints
- :class:`repro.service.client.ServiceThread` /
  :class:`repro.service.router.RouterThread` /
  :class:`repro.service.supervisor.FleetThread` — test harnesses, thin
  subclasses of one event-loop thread,
  :class:`repro.service.client.LoopThread`
"""

from repro.service.app import ServiceApp, ServiceConfig
from repro.service.client import ServiceClient, ServiceResponse, ServiceThread
from repro.service.router import FrontRouter, HashRing, RouterConfig, RouterThread
from repro.service.supervisor import FleetConfig, FleetThread, Supervisor

__all__ = [
    "FleetConfig",
    "FleetThread",
    "FrontRouter",
    "HashRing",
    "RouterConfig",
    "RouterThread",
    "ServiceApp",
    "ServiceClient",
    "ServiceConfig",
    "ServiceResponse",
    "ServiceThread",
    "Supervisor",
]
