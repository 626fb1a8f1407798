"""Content-addressed request identity, shared by replica and router.

One validated request spec maps to exactly one ``(cache kind, payload)``
pair, and through :func:`repro.experiments.cache.cache_key` to one
SHA-256 digest.  That digest is simultaneously

* the result-cache blob name (disk and peer-cache protocol),
* the single-flight coalescing key inside one replica, and
* the consistent-hash ring key the front router places the request
  with (:mod:`repro.service.router`) — which is what makes coalescing
  and the warm cache *fleet-wide*: every identical body lands on the
  same replica, so the fleet computes it once.

Balance requests resolve their cells with
:func:`repro.service.workers.resolve_candidates` (the resolver the jobs
price with) and derive payloads from
:func:`repro.experiments.cache.cell_identity` (the function the Runner
keys on), so the service, the CLI and campaign workers all dedupe
through the same blobs.
"""

from __future__ import annotations

from typing import Any

__all__ = ["cache_identity", "request_digest"]


def cache_identity(kind: str, spec: dict[str, Any]) -> tuple[str, Any]:
    """(cache kind, payload) addressing this request's result.

    ``spec`` is a fully validated worker spec (defaults applied), as
    produced by :func:`repro.service.routes.parse_balance_request` /
    ``parse_experiment_request``.
    """
    from repro.experiments.cache import (
        batch_identity,
        cell_identity,
        platform_payload,
        trace_identity,
    )
    from repro.netsim.platform import MYRINET_LIKE
    from repro.service.workers import resolve_candidates

    platform = spec.get("platform") or platform_payload(MYRINET_LIKE)
    if kind in ("balance", "balance_batch"):
        trace = trace_identity(
            spec["app"], spec["iterations"], spec["base_compute"], platform
        )
        cells = [
            cell_identity(c.gear_set, c.algorithm, spec["beta"])
            for c in resolve_candidates(spec)
        ]
        if kind == "balance":
            return "report", {**trace, **cells[0]}
        # the assembled batch response; each candidate's report is
        # also stored under its own "report" identity by the worker,
        # so scalar requests still hit them
        return "balance-batch", batch_identity(trace, cells)
    payload = {
        "eid": spec["eid"],
        "iterations": spec["iterations"],
        "base_compute": spec["base_compute"],
        "beta": spec["beta"],
        "apps": list(spec["apps"]) if spec.get("apps") else None,
        "platform": platform,
    }
    return "service-exp", payload


def request_digest(kind: str, spec: dict[str, Any]) -> str:
    """The content-addressed cache key for a validated request spec."""
    from repro.experiments.cache import cache_key

    cache_kind, payload = cache_identity(kind, spec)
    return cache_key(cache_kind, payload)
