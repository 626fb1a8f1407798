"""HTTP surface of the simulation service: wire, validation, handlers.

The wire half is the one HTTP/1.1 runtime of the replica
(:mod:`repro.service.app`) and the front router
(:mod:`repro.service.router`): :func:`read_http_request` parses a
request, :func:`write_response` frames a reply and
:func:`serve_connection` runs one keep-alive connection, so both
servers answer malformed framing the same way and differ only in their
request handler.

Request lifecycle for the compute endpoints::

    parse JSON -> validate fields -> resolve gear set / platform
      -> lint gate (diagnostics engine, PR 2)
      -> cache fast path / single-flight / admission control (app.py)
      -> worker pool -> JSON response

Validation is strict — unknown body keys are rejected like typos in a
platform file — and the lint gate runs *before* any admission so a
malformed gear set or an unphysical β never burns a queue slot, let
alone a worker.

Response JSON is rendered with ``indent=2, sort_keys=True`` plus a
trailing newline: byte-identical to ``repro balance --json``, which is
the contract the round-trip tests pin.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import re
from collections.abc import Awaitable, Callable
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.service.errors import (
    Forbidden,
    LintRejected,
    NotFound,
    ServiceError,
    ValidationError,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.service.app import ServiceApp

__all__ = [
    "HttpRequest",
    "Response",
    "error_response",
    "json_response",
    "match_route",
    "read_http_request",
    "serve_connection",
    "write_response",
]

#: Cap accepted request bodies (a platform dict is < 1 KiB; 1 MiB is
#: generous and keeps a hostile client from ballooning the heap).
MAX_BODY_BYTES = 1 << 20

#: Set by the front router when a request is served off-ring (hot-key
#: or unhealthy-owner fallback).  The value is the ring owner's
#: ``host:port``; the handling replica pushes the computed blob there
#: so the ring converges back to all-hits.
FORWARDED_FROM_HEADER = "x-repro-forwarded-from"

#: Fleet-shared credential for the peer-cache blob endpoints.  The
#: supervisor generates one per fleet and hands it to every replica
#: (via ``REPRO_PEER_SECRET`` in the environment, never argv); cache
#: GET/PUT without a matching header is refused, so a client that can
#: reach a replica port still cannot read or poison cached blobs.
PEER_SECRET_HEADER = "x-repro-peer-secret"

_BALANCE_KEYS = {
    "app", "gears", "algorithm", "beta", "iterations", "base_compute",
    "platform", "strict", "async", "engine", "candidates", "power_cap",
}
_CANDIDATE_KEYS = {"gears", "algorithm"}
#: Cap per-request sweep size: bounds worker memory (each candidate is
#: one lane of the batched pricing pass) and response size.
MAX_CANDIDATES = 256
_EXPERIMENT_KEYS = {
    "iterations", "beta", "base_compute", "apps", "platform", "strict",
    "async", "engine",
}
_ITERATION_RANGE = (1, 10_000)

#: Reason phrases for every status the replica and the router send.
_REASONS = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 403: "Forbidden",
    404: "Not Found", 405: "Method Not Allowed", 413: "Payload Too Large",
    429: "Too Many Requests", 500: "Internal Server Error",
    502: "Bad Gateway", 503: "Service Unavailable",
}


@dataclass
class HttpRequest:
    """One parsed HTTP request."""

    method: str
    path: str
    headers: dict[str, str]
    body: bytes
    request_id: str

    def json(self) -> dict[str, Any]:
        """The body as a JSON object ({} when empty)."""
        if not self.body:
            return {}
        try:
            data = json.loads(self.body)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ValidationError(f"body is not valid JSON: {exc}") from None
        if not isinstance(data, dict):
            raise ValidationError(
                f"body must be a JSON object, got {type(data).__name__}"
            )
        return data


@dataclass
class Response:
    """One response ready for the wire."""

    status: int
    body: bytes
    content_type: str = "application/json"
    headers: dict[str, str] = field(default_factory=dict)


def json_response(
    status: int, payload: Any, headers: dict[str, str] | None = None
) -> Response:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    return Response(status, text.encode(), "application/json", headers or {})


def error_response(err: ServiceError) -> Response:
    return json_response(err.status, err.to_payload(), err.headers())


async def read_http_request(reader) -> HttpRequest | None:
    """Parse one HTTP/1.1 request off an asyncio stream.

    Returns ``None`` on clean EOF; raises :class:`ValidationError`
    (status 400, or 413 for oversized bodies) on malformed input.
    ``Content-Length`` must be ASCII digits (RFC 9110), not whatever
    ``int()`` accepts (``+5``, ``1_0``).  May raise
    ``asyncio.IncompleteReadError`` / ``ConnectionError`` on a
    mid-request disconnect, and ``ValueError`` for a line over the
    stream's limit.
    """
    import os

    line = await reader.readline()
    if not line:
        return None
    try:
        method, target, _version = line.decode("latin-1").split()
    except ValueError:
        raise ValidationError("malformed request line") from None
    headers: dict[str, str] = {}
    while True:
        raw = await reader.readline()
        if raw in (b"\r\n", b"\n", b""):
            break
        name, _, value = raw.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    length_text = headers.get("content-length", "0") or "0"
    if not (length_text.isascii() and length_text.isdigit()):
        raise ValidationError(f"bad Content-Length {length_text!r}")
    length = int(length_text)
    if length > MAX_BODY_BYTES:
        err = ValidationError(
            f"body of {length} bytes exceeds the "
            f"{MAX_BODY_BYTES}-byte limit"
        )
        err.status = 413
        raise err
    body = await reader.readexactly(length) if length else b""
    request_id = headers.get("x-request-id") or os.urandom(6).hex()
    return HttpRequest(
        method=method.upper(),
        path=target.split("?", 1)[0],
        headers=headers,
        body=body,
        request_id=request_id,
    )


async def write_response(
    writer: asyncio.StreamWriter, request: HttpRequest | None,
    response: Response, keep_alive: bool,
) -> None:
    """Frame one response; echoes the request id when there is one."""
    reason = _REASONS.get(response.status, "Unknown")
    headers = {
        "Content-Type": response.content_type,
        "Content-Length": str(len(response.body)),
        "Connection": "keep-alive" if keep_alive else "close",
        **response.headers,
    }
    if request is not None:
        headers.setdefault("X-Request-Id", request.request_id)
    head = [f"HTTP/1.1 {response.status} {reason}"]
    head += [f"{k}: {v}" for k, v in headers.items()]
    writer.write(("\r\n".join(head) + "\r\n\r\n").encode())
    writer.write(response.body)
    await writer.drain()


async def serve_connection(
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    handle: Callable[[HttpRequest], Awaitable[Response]],
    tasks: set[asyncio.Task],
    keep_alive: Callable[[], bool],
) -> None:
    """Serve requests off one connection until either side closes it.

    ``handle`` answers one request.  ``keep_alive()`` is asked after
    each response whether the server still keeps connections open (a
    client's ``Connection: close`` ends it regardless).  Malformed
    framing gets a 400 (413 for an oversized body) and closes the
    connection; a request cut short closes it without a reply.  The
    connection's task sits in ``tasks`` while it runs, so shutdown can
    cancel idle keep-alive readers.
    """
    task = asyncio.current_task()
    assert task is not None
    tasks.add(task)
    try:
        while True:
            try:
                request = await read_http_request(reader)
            except ValidationError as err:
                await write_response(writer, None, error_response(err), False)
                break
            except (asyncio.IncompleteReadError, ConnectionError):
                break
            except (asyncio.LimitOverrunError, ValueError):
                # a line over the stream's 64 KiB limit: answer 400,
                # not an unhandled-task traceback
                await write_response(
                    writer, None,
                    error_response(
                        ValidationError("malformed request framing")
                    ),
                    False,
                )
                break
            if request is None:
                break
            response = await handle(request)
            keep = (
                request.headers.get("connection", "").lower() != "close"
                and keep_alive()
            )
            await write_response(writer, request, response, keep)
            if not keep:
                break
    except (asyncio.CancelledError, ConnectionError):
        pass  # shutdown cancels idle keep-alive readers
    finally:
        tasks.discard(task)
        writer.close()
        with contextlib.suppress(ConnectionError, OSError):
            await writer.wait_closed()


# ----------------------------------------------------------------------
# Validation helpers
# ----------------------------------------------------------------------

def _check_keys(body: dict[str, Any], allowed: set[str], what: str) -> None:
    unknown = set(body) - allowed
    if unknown:
        raise ValidationError(
            f"unknown {what} field(s) {sorted(unknown)}; "
            f"allowed: {sorted(allowed)}"
        )


def _number(body: dict[str, Any], key: str, default: float) -> float:
    value = body.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{key!r} must be a number, got {value!r}")
    return float(value)


def _int(body: dict[str, Any], key: str, default: int,
         lo: int, hi: int) -> int:
    value = body.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{key!r} must be an integer, got {value!r}")
    if not (lo <= value <= hi):
        raise ValidationError(f"{key!r} must be in [{lo}, {hi}], got {value}")
    return value


def _engine(body: dict[str, Any]) -> str:
    """The replay-engine selector ("auto" default).

    Never part of cache identities or coalescing keys — both engines
    produce identical results, so the selector only changes *how* a
    miss is computed.
    """
    from repro.netsim.engines import ENGINE_NAMES

    value = body.get("engine", "auto")
    if value not in ENGINE_NAMES:
        raise ValidationError(
            f"'engine' must be one of {list(ENGINE_NAMES)}, got {value!r}"
        )
    return value


def _flag(body: dict[str, Any], key: str) -> bool:
    value = body.get(key, False)
    if not isinstance(value, bool):
        raise ValidationError(f"{key!r} must be a boolean, got {value!r}")
    return value


def _app_name(value: Any) -> str:
    from repro.apps.registry import parse_name

    if not isinstance(value, str):
        raise ValidationError(f"'app' must be a string, got {value!r}")
    try:
        parse_name(value)
    except ValueError as exc:
        raise ValidationError(str(exc)) from None
    return value


def _platform_dict(value: Any):
    """Validate + resolve an inline platform dict (None = reference)."""
    from repro.netsim.config import platform_from_dict

    if value is None:
        return None
    if not isinstance(value, dict):
        raise ValidationError(f"'platform' must be an object, got {value!r}")
    try:
        return platform_from_dict(value)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"bad platform: {exc}") from None


def _lint_gate(
    gear_set,
    beta: float,
    platform=None,
    strict: bool = False,
    power_cap: float | None = None,
    nproc: int | None = None,
):
    """Reject configurations the diagnostics engine flags (PR 2).

    ``strict`` lowers the rejection threshold from ERROR to WARNING —
    useful for gating production traffic on fully clean configs.  A
    ``power_cap`` (with the app's world size) additionally runs the PC
    feasibility pre-checks, so an unmeetable budget is a 400 before any
    admission rather than a degenerate all-fmin sweep after one.
    """
    from repro.diagnostics.engine import (
        lint_gear_set,
        lint_models,
        lint_platform,
        screen_power_cap,
    )
    from repro.diagnostics.model import Severity

    diagnostics = list(lint_gear_set(gear_set))
    diagnostics += lint_models(beta=beta, gear_set=gear_set)
    if platform is not None:
        diagnostics += lint_platform(platform)
    if power_cap is not None and nproc is not None:
        diagnostics += screen_power_cap(power_cap, nproc, gear_set)
    threshold = Severity.WARNING if strict else Severity.ERROR
    offending = [d for d in diagnostics if d.severity >= threshold]
    if offending:
        raise LintRejected(offending)


def _parse_candidates(
    body: dict[str, Any],
    default_gears: Any,
    default_algorithm: str,
    beta: float,
    platform: Any,
    strict: bool,
    power_cap: float | None = None,
    nproc: int | None = None,
    lint: bool = True,
) -> list[dict[str, Any]]:
    """Validate the opt-in ``"candidates"`` batch list.

    Each entry is an object with keys ⊆ {"gears", "algorithm"}; omitted
    keys inherit the request's top-level values.  Every candidate gear
    set passes the same lint gate as a scalar request — one bad sweep
    cell rejects the whole batch before any admission — and the grid as
    a whole passes the AS rules (duplicate cells are flagged, rejected
    under ``strict``).
    """
    from repro.service.workers import resolve_gear_set

    raw = body["candidates"]
    if not isinstance(raw, list) or not raw:
        raise ValidationError(
            "'candidates' must be a non-empty list of objects"
        )
    if len(raw) > MAX_CANDIDATES:
        raise ValidationError(
            f"'candidates' lists at most {MAX_CANDIDATES} entries, "
            f"got {len(raw)}"
        )
    out: list[dict[str, Any]] = []
    for i, cand in enumerate(raw):
        if not isinstance(cand, dict):
            raise ValidationError(
                f"candidates[{i}] must be an object, got {cand!r}"
            )
        _check_keys(cand, _CANDIDATE_KEYS, f"candidates[{i}]")
        gears = cand.get("gears", default_gears)
        try:
            gear_set = resolve_gear_set(gears)
        except ValueError as exc:
            raise ValidationError(f"candidates[{i}]: {exc}") from None
        algorithm = cand.get("algorithm", default_algorithm)
        if algorithm not in ("max", "avg"):
            raise ValidationError(
                f"candidates[{i}]: 'algorithm' must be 'max' or 'avg', "
                f"got {algorithm!r}"
            )
        if lint:
            _lint_gate(
                gear_set, beta, platform, strict=strict,
                power_cap=power_cap, nproc=nproc,
            )
        out.append({"gears": gears, "algorithm": algorithm})

    if lint:
        from repro.diagnostics.engine import lint_assignment
        from repro.diagnostics.model import Severity

        grid_diags = lint_assignment(
            resolve_gear_set(default_gears), grid=out, subject="candidates"
        )
        threshold = Severity.WARNING if strict else Severity.ERROR
        offending = [d for d in grid_diags if d.severity >= threshold]
        if offending:
            raise LintRejected(offending)
    return out


def parse_balance_request(
    body: dict[str, Any], defaults: Any, lint: bool = True
) -> tuple[dict[str, Any], bool]:
    """Validate a balance body into a worker spec; returns (spec, async).

    The spec is exactly what :func:`repro.service.workers.execute_balance`
    consumes, with the platform kept as a plain dict so it pickles to
    worker processes.  A body with a ``"candidates"`` list produces a
    batch spec (the spec carries the validated candidate list) for
    :func:`repro.service.workers.execute_balance_many`.

    ``lint=False`` skips the diagnostics gate (shape validation only):
    the front router parses every body purely to compute its routing
    identity and leaves rejection to the owning replica, so the gate
    runs once per request, not once per hop.
    """
    from repro.experiments.cache import platform_payload
    from repro.service.workers import resolve_gear_set

    _check_keys(body, _BALANCE_KEYS, "balance")
    if "app" not in body:
        raise ValidationError("'app' is required (e.g. \"BT-MZ-32\")")
    app_name = _app_name(body["app"])
    gears = body.get("gears", "uniform:6")
    try:
        gear_set = resolve_gear_set(gears)
    except ValueError as exc:
        raise ValidationError(str(exc)) from None
    algorithm = body.get("algorithm", "max")
    if algorithm not in ("max", "avg"):
        raise ValidationError(
            f"'algorithm' must be 'max' or 'avg', got {algorithm!r}"
        )
    beta = _number(body, "beta", defaults.beta)
    iterations = _int(
        body, "iterations", defaults.iterations, *_ITERATION_RANGE
    )
    base_compute = _number(body, "base_compute", defaults.base_compute)
    if base_compute <= 0:
        raise ValidationError(
            f"'base_compute' must be positive, got {base_compute}"
        )
    platform = _platform_dict(body.get("platform"))
    strict = _flag(body, "strict")

    # "power_cap" both gates admission (PC rules) and selects the
    # power-cap balancer in the worker: a capped request prices through
    # PowerCapAlgorithm and is cached under a cap-aware identity.
    # Capless requests carry no cap key at all, so their identities are
    # byte-identical to the pre-cap schema.
    power_cap = None
    if body.get("power_cap") is not None:
        power_cap = _number(body, "power_cap", 0.0)
        if power_cap <= 0:
            raise ValidationError(
                f"'power_cap' must be positive, got {power_cap}"
            )
    from repro.apps.registry import parse_name

    _family, nproc = parse_name(app_name)

    if lint:
        _lint_gate(
            gear_set, beta, platform, strict=strict,
            power_cap=power_cap, nproc=nproc,
        )

    spec: dict[str, Any] = {
        "app": app_name,
        "gears": gears,
        "algorithm": algorithm,
        "beta": beta,
        "iterations": iterations,
        "base_compute": base_compute,
        "engine": _engine(body),
    }
    if power_cap is not None:
        spec["power_cap"] = power_cap
    if platform is not None:
        spec["platform"] = platform_payload(platform)
    if "candidates" in body:
        spec["candidates"] = _parse_candidates(
            body, gears, algorithm, beta, platform, strict,
            power_cap=power_cap, nproc=nproc, lint=lint,
        )
    return spec, _flag(body, "async")


def parse_experiment_request(
    eid: str, body: dict[str, Any], defaults: Any, lint: bool = True
) -> tuple[dict[str, Any], bool]:
    """Validate an experiment body into a worker spec; (spec, async)."""
    from repro.experiments import EXPERIMENT_IDS
    from repro.experiments.cache import platform_payload

    if eid not in EXPERIMENT_IDS:
        raise NotFound(
            f"unknown experiment {eid!r}; see GET /v1/experiments"
        )
    _check_keys(body, _EXPERIMENT_KEYS, "experiment")
    beta = _number(body, "beta", defaults.beta)
    iterations = _int(
        body, "iterations", defaults.iterations, *_ITERATION_RANGE
    )
    base_compute = _number(body, "base_compute", defaults.base_compute)
    if base_compute <= 0:
        raise ValidationError(
            f"'base_compute' must be positive, got {base_compute}"
        )
    apps = body.get("apps")
    if apps is not None:
        if not isinstance(apps, list) or not apps:
            raise ValidationError(
                f"'apps' must be a non-empty list of instance names, "
                f"got {apps!r}"
            )
        apps = [_app_name(a) for a in apps]
    platform = _platform_dict(body.get("platform"))

    if lint:
        from repro.core.gears import uniform_gear_set

        _lint_gate(
            uniform_gear_set(6), beta, platform, strict=_flag(body, "strict")
        )

    spec: dict[str, Any] = {
        "eid": eid,
        "beta": beta,
        "iterations": iterations,
        "base_compute": base_compute,
        "apps": apps,
        "engine": _engine(body),
    }
    if platform is not None:
        spec["platform"] = platform_payload(platform)
    return spec, _flag(body, "async")


# ----------------------------------------------------------------------
# Handlers
# ----------------------------------------------------------------------

async def handle_healthz(
    app: "ServiceApp", request: HttpRequest, params: dict[str, str]
) -> Response:
    """Readiness: 200 only when the replica should receive traffic.

    503 with ``"status": "warming"`` until the worker pool is warm and
    ``"status": "draining"`` from the first drain signal on — the
    router and the supervisor key ring membership off this, so traffic
    stops *before* a dying replica starts eating connection resets.
    """
    payload = app.health_payload()
    status = 200 if payload["status"] == "ok" else 503
    headers = {"Retry-After": "1"} if status == 503 else None
    return json_response(status, payload, headers)


async def handle_livez(
    app: "ServiceApp", request: HttpRequest, params: dict[str, str]
) -> Response:
    """Liveness: 200 whenever the event loop answers at all.

    Deliberately still 200 while draining — the supervisor uses
    liveness to decide *restart*, readiness to decide *routing*; a
    draining replica is alive and must not be killed mid-drain.
    """
    return json_response(
        200, {"status": "alive", "draining": app.draining}
    )


async def handle_metrics(
    app: "ServiceApp", request: HttpRequest, params: dict[str, str]
) -> Response:
    return Response(
        200,
        app.metrics.render().encode(),
        "text/plain; version=0.0.4; charset=utf-8",
    )


async def handle_experiment_index(
    app: "ServiceApp", request: HttpRequest, params: dict[str, str]
) -> Response:
    from repro.experiments import EXPERIMENT_IDS

    return json_response(200, {"experiments": list(EXPERIMENT_IDS)})


async def handle_balance(
    app: "ServiceApp", request: HttpRequest, params: dict[str, str]
) -> Response:
    spec, is_async = parse_balance_request(request.json(), app.config)
    kind = "balance_batch" if "candidates" in spec else "balance"
    if is_async:
        job = app.submit_job(kind, spec)
        return json_response(
            202,
            {"job": {"id": job.id, "status": job.status,
                     "poll": f"/v1/jobs/{job.id}"}},
        )
    result, cache_state = await app.perform(
        kind, spec,
        forward_origin=request.headers.get(FORWARDED_FROM_HEADER),
    )
    return json_response(200, result, {"X-Cache": cache_state})


async def handle_experiment(
    app: "ServiceApp", request: HttpRequest, params: dict[str, str]
) -> Response:
    spec, is_async = parse_experiment_request(
        params["eid"], request.json(), app.config
    )
    if is_async:
        job = app.submit_job("experiment", spec)
        return json_response(
            202,
            {"job": {"id": job.id, "status": job.status,
                     "poll": f"/v1/jobs/{job.id}"}},
        )
    result, cache_state = await app.perform(
        "experiment", spec,
        forward_origin=request.headers.get(FORWARDED_FROM_HEADER),
    )
    return json_response(200, result, {"X-Cache": cache_state})


async def handle_job(
    app: "ServiceApp", request: HttpRequest, params: dict[str, str]
) -> Response:
    job = app.jobs.get(params["job_id"])
    if job is None:
        raise NotFound(f"no such job {params['job_id']!r} (expired or never "
                       "created)")
    return json_response(200, {"job": job.to_payload()})


# ----------------------------------------------------------------------
# Peer-cache blob protocol (fleet-internal).  Defence in depth: the
# front router refuses to route /v1/cache/* at all, a solo replica
# answers 404 as if the routes did not exist, and a fleet replica
# demands the shared secret — a reachable replica port alone is never
# enough to read or poison cached blobs (which are pickled on disk).
# ----------------------------------------------------------------------

def _peer_cache_gate(app: "ServiceApp", request: HttpRequest) -> None:
    """Authorize one peer-cache request, or raise 404/403."""
    import hmac

    secret = app.config.peer_secret
    if not secret and not app.config.peers:
        raise NotFound(f"no route for {request.method} {request.path}")
    if secret:
        given = request.headers.get(PEER_SECRET_HEADER, "")
        if not hmac.compare_digest(given.encode(), secret.encode()):
            raise Forbidden(
                "peer-cache endpoints require the fleet secret "
                f"({PEER_SECRET_HEADER} header)"
            )


async def handle_cache_get(
    app: "ServiceApp", request: HttpRequest, params: dict[str, str]
) -> Response:
    import asyncio

    from repro.service.peercache import valid_cache_key

    _peer_cache_gate(app, request)
    key = params["key"]
    if not valid_cache_key(key):
        raise ValidationError(f"malformed cache key {key!r}")
    blob = await asyncio.to_thread(app.cache.get_raw, key)
    if blob is None:
        raise NotFound(f"no blob {key!r}")
    return Response(200, blob, "application/octet-stream")


async def handle_cache_put(
    app: "ServiceApp", request: HttpRequest, params: dict[str, str]
) -> Response:
    import asyncio

    from repro.service.peercache import valid_cache_key

    _peer_cache_gate(app, request)
    key = params["key"]
    if not valid_cache_key(key):
        raise ValidationError(f"malformed cache key {key!r}")
    try:
        await asyncio.to_thread(app.cache.put_raw, key, request.body)
    except ValueError as exc:
        # a torn frame must never land on disk — reject loudly so the
        # pushing side counts it
        raise ValidationError(str(exc)) from None
    return json_response(200, {"stored": key, "bytes": len(request.body)})


#: (method, compiled path pattern, route name, handler).
ROUTES = (
    ("GET", re.compile(r"^/healthz$"), "healthz", handle_healthz),
    ("GET", re.compile(r"^/livez$"), "livez", handle_livez),
    ("GET", re.compile(r"^/metrics$"), "metrics", handle_metrics),
    ("POST", re.compile(r"^/v1/balance$"), "balance", handle_balance),
    ("GET", re.compile(r"^/v1/experiments$"), "experiments",
     handle_experiment_index),
    ("POST", re.compile(r"^/v1/experiments/(?P<eid>[A-Za-z0-9_\-]+)$"),
     "experiment", handle_experiment),
    ("GET", re.compile(r"^/v1/jobs/(?P<job_id>[A-Za-z0-9_\-]+)$"), "job",
     handle_job),
    ("GET", re.compile(r"^/v1/cache/(?P<key>[A-Za-z0-9_\-]+)$"), "cache-get",
     handle_cache_get),
    ("PUT", re.compile(r"^/v1/cache/(?P<key>[A-Za-z0-9_\-]+)$"), "cache-put",
     handle_cache_put),
)


def match_route(method: str, path: str):
    """Resolve ``(name, handler, params)``; raises 404/405 ServiceErrors."""
    path_matched = False
    for route_method, pattern, name, handler in ROUTES:
        m = pattern.match(path)
        if not m:
            continue
        path_matched = True
        if route_method == method:
            return name, handler, m.groupdict()
    if path_matched:
        err = ServiceError(f"method {method} not allowed on {path}")
        err.status = 405
        err.code = "method-not-allowed"
        raise err
    raise NotFound(f"no route for {method} {path}")
