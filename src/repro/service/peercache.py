"""Read-through HTTP peer cache between fleet replicas.

Every replica owns a private on-disk :class:`ResultCache` and exposes
its blobs over two internal endpoints (:mod:`repro.service.routes`)::

    GET /v1/cache/{digest}   -> the framed RPRC blob, verbatim (404 miss)
    PUT /v1/cache/{digest}   -> store a framed blob (400 if torn)

:class:`PeerResultCache` wraps the local cache with a read-through
layer: a local miss probes the sibling replicas before any simulation
is admitted, so one replica's warm result serves the whole fleet.  The
wire format *is* the disk format — ``RPRC\\x02`` magic plus a SHA-256
body digest — and it is re-verified on every read (sending side before
shipping, receiving side before unpickling or persisting), so a torn
write, truncated transfer or bit-rotten peer blob degrades to a miss,
never to corruption.

Failure model: peers are an optimization, never a dependency.  A 404
is a plain miss; any socket error, timeout, other non-200 status or
verification failure is counted (``peer_errors`` / ``peer_corrupt``)
and treated as a miss — the replica simply recomputes.  Push traffic
(warming the ring owner after a forwarded request) is likewise
fire-and-forget.

Authorization: the blob endpoints are fleet-internal.  The supervisor
generates a per-fleet secret and every replica requires it as the
``x-repro-peer-secret`` header (the framing digest alone cannot bind a
blob to its key, so an open PUT would let anyone poison pickled
results); every hop goes through
:meth:`~repro.service.client.ServiceClient.cache_get` /
:meth:`~repro.service.client.ServiceClient.cache_put` with the secret.
The front router refuses to proxy ``/v1/cache/*`` at all.
"""

from __future__ import annotations

import pickle
import re
from http.client import HTTPException
from typing import Any

from repro.experiments.cache import (
    _PROCESS_STATS,
    ResultCache,
    frame_blob,
    unframe_blob,
)
from repro.service.client import ServiceClient

__all__ = ["PeerResultCache", "valid_cache_key"]

#: Cache keys on the wire: ``{kind}-{sha256 hex}`` (kind may itself
#: contain dashes, e.g. ``balance-batch``).
_KEY_RE = re.compile(r"^[a-z][a-z0-9-]*-[0-9a-f]{64}$")


def valid_cache_key(key: str) -> bool:
    """Whether ``key`` is shaped like a content-addressed blob name."""
    return bool(_KEY_RE.match(key))


def _peer_client(addr: str, timeout: float) -> ServiceClient:
    """A client for one sibling replica at ``host:port``."""
    host, _, port = addr.rpartition(":")
    if not host or not port.isdigit():
        raise ValueError(f"peer address must be host:port, got {addr!r}")
    return ServiceClient(host, int(port), timeout=timeout)


class PeerResultCache:
    """A local :class:`ResultCache` with read-through to peers.

    ``fetch`` is the replica fast path: local disk first, then each
    configured peer in order.  A peer hit is re-framed-verified,
    unpickled, and *persisted locally* (atomic rename), so the next
    identical request is a plain local hit.
    """

    def __init__(
        self,
        local: ResultCache,
        peers: tuple[str, ...] | list[str],
        timeout: float = 2.0,
        secret: str | None = None,
    ):
        self.local = local
        self.timeout = timeout
        self.secret = secret or None
        self.clients = [_peer_client(p, timeout) for p in peers]
        self.peer_hits = 0
        self.peer_misses = 0
        self.peer_corrupt = 0
        self.peer_errors = 0
        self.peer_pushes = 0

    # ------------------------------------------------------------------
    def fetch(self, kind: str, payload: Any) -> tuple[Any | None, str | None]:
        """(value, source): source is ``"hit"`` (local), ``"peer"`` or
        ``None`` — a genuine fleet-wide miss."""
        value = self.local.get(kind, payload)
        if value is not None:
            return value, "hit"
        if not self.clients:
            return None, None
        key = self.local.key(kind, payload)
        value = self._fetch_from_peers(key)
        if value is None:
            return None, None
        return value, "peer"

    def _fetch_from_peers(self, key: str) -> Any | None:
        for client in self.clients:
            try:
                response = client.cache_get(key, secret=self.secret)
            except (OSError, HTTPException):
                self.peer_errors += 1
                continue
            if response.status == 404:
                continue
            if response.status != 200:
                self.peer_errors += 1
                continue
            blob = response.body
            body = unframe_blob(blob)
            if body is None:
                # truncated transfer or a lying peer: count, keep going
                self.peer_corrupt += 1
                _PROCESS_STATS["peer_corrupt"] += 1
                continue
            try:
                value = pickle.loads(body)
            except Exception:
                self.peer_corrupt += 1
                _PROCESS_STATS["peer_corrupt"] += 1
                continue
            self.peer_hits += 1
            _PROCESS_STATS["peer_hits"] += 1
            try:
                self.local.put_raw(key, blob)
            except (OSError, ValueError):
                pass  # read-through persistence is best-effort
            return value
        self.peer_misses += 1
        _PROCESS_STATS["peer_misses"] += 1
        return None

    # ------------------------------------------------------------------
    def push(self, key: str, addr: str) -> bool:
        """Warm ``addr`` (the ring owner) with the local blob for ``key``.

        Used after a forwarded request was computed off-ring: the
        handling replica ships the fresh blob back to the owner so the
        ring converges to all-hits.  Best-effort; failures only count.
        """
        blob = self.local.get_raw(key)
        if blob is None:
            return False
        try:
            response = _peer_client(addr, self.timeout).cache_put(
                key, blob, secret=self.secret
            )
        except (ValueError, OSError, HTTPException):
            self.peer_errors += 1
            return False
        if response.status == 200:
            self.peer_pushes += 1
            return True
        self.peer_errors += 1
        return False

    # ------------------------------------------------------------------
    def store_value(self, kind: str, payload: Any, value: Any) -> None:
        """Frame + persist locally (used by the front-end store path)."""
        body = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        self.local.put_raw(self.local.key(kind, payload), frame_blob(body))

    def stats(self) -> dict[str, int]:
        return {
            "peer_hits": self.peer_hits,
            "peer_misses": self.peer_misses,
            "peer_corrupt": self.peer_corrupt,
            "peer_errors": self.peer_errors,
            "peer_pushes": self.peer_pushes,
        }
