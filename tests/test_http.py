"""The HTTP runtime shared by the replica and the front router.

Both servers frame requests and errors through
``routes.serve_connection``, so one table of malformed requests runs
against a module-scoped replica and a module-scoped router in front of
it: every case must get the same answer from either, and the server
must still answer ``/livez`` afterwards.  A bounded Hypothesis fuzz of
request heads checks that no head gets a 5xx.  Raw sockets throughout:
``http.client`` refuses to send most of these requests.
"""

import contextlib
import socket
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.service import RouterConfig, RouterThread, ServiceConfig, ServiceThread


def _raw_http(port: int, data: bytes, timeout: float = 15.0) -> bytes:
    """Send ``data``, half-close, and read the reply until EOF."""
    with socket.create_connection(("127.0.0.1", port), timeout) as sock:
        # the server may answer and close before reading it all
        with contextlib.suppress(OSError):
            sock.sendall(data)
            sock.shutdown(socket.SHUT_WR)
        chunks = []
        while True:
            try:
                chunk = sock.recv(65536)
            except (ConnectionResetError, socket.timeout):
                break
            if not chunk:
                break
            chunks.append(chunk)
        return b"".join(chunks)


def _status(raw: bytes) -> int | None:
    """The reply's status code; None when the server closed silently."""
    if not raw:
        return None
    assert raw.startswith(b"HTTP/1.1 "), raw[:80]
    return int(raw.split(b" ", 2)[1])


def _head(line: bytes, *headers: bytes) -> bytes:
    return b"\r\n".join([line + b" HTTP/1.1", b"Host: t", *headers]) + b"\r\n\r\n"


def _post(body: bytes) -> bytes:
    length = b"Content-Length: %d" % len(body)
    return _head(b"POST /v1/balance", length) + body


@pytest.fixture(scope="module")
def replica(tmp_path_factory):
    cache = tmp_path_factory.mktemp("http-replica")
    config = ServiceConfig(port=0, cache_dir=str(cache))
    with ServiceThread(config, executor=ThreadPoolExecutor(2)) as svc:
        yield svc


@pytest.fixture(scope="module")
def router(replica):
    config = RouterConfig(replicas=(f"127.0.0.1:{replica.port}",))
    with RouterThread(config) as front:
        yield front


@pytest.fixture(params=["replica", "router"])
def server(request):
    return request.getfixturevalue(request.param)


#: (id, request bytes, expected status or None for a silent close,
#: bytes the reply must contain).
FRAMING_CASES = [
    ("bad-request-line", b"GARBAGE\r\n\r\n", 400, b"invalid-request"),
    ("non-numeric-length", _head(b"POST /v1/balance", b"Content-Length: ten"),
     400, b"invalid-request"),
    ("negative-length", _head(b"POST /v1/balance", b"Content-Length: -5"),
     400, b"invalid-request"),
    # int() accepts both; RFC 9110 allows digits only
    ("underscore-length",
     _head(b"GET /livez", b"Content-Length: 1_0") + b"0123456789",
     400, b"invalid-request"),
    ("signed-length", _head(b"GET /livez", b"Content-Length: +5") + b"hello",
     400, b"invalid-request"),
    ("oversized-body", _head(b"POST /v1/balance", b"Content-Length: 1048577"),
     413, b"invalid-request"),
    # one line past asyncio's 64 KiB readline limit
    ("oversized-header", _head(b"GET /livez", b"X-Big: " + b"a" * 70_000),
     400, b""),
    ("non-json-body", _post(b"{not json"), 400, b"invalid-request"),
    ("non-object-body", _post(b"[1, 2]"), 400, b"invalid-request"),
    ("non-utf8-body", _post(b"\x80"), 400, b"invalid-request"),
    ("truncated-body",
     _head(b"POST /v1/balance", b"Content-Length: 10") + b"abc", None, b""),
]


@pytest.mark.parametrize(
    "data, status, contains",
    [case[1:] for case in FRAMING_CASES],
    ids=[case[0] for case in FRAMING_CASES],
)
def test_framing(server, data, status, contains):
    raw = _raw_http(server.port, data)
    assert _status(raw) == status, raw[:200]
    assert contains in raw
    assert server.client.livez()["status"] == "alive"


_NO_NEWLINE = st.binary(max_size=48).map(lambda b: b.replace(b"\n", b""))
_REQUEST_LINES = st.one_of(
    st.builds(
        lambda *parts: b" ".join(parts),
        st.sampled_from([b"GET", b"POST", b"PUT", b"HEAD", b"BREW"]),
        # no valid compute request: a head carries no body, and an
        # empty experiment body would be a real simulation
        st.sampled_from([
            b"/livez", b"/healthz", b"/metrics", b"/v1/balance",
            b"/v1/jobs/x", b"/v1/cache/k", b"/v1/experiments/nope", b"*",
        ]),
        st.sampled_from([b"HTTP/1.1", b"HTTP/1.0", b"HTTP/9"]),
    ),
    _NO_NEWLINE,
)
_HEADER_NAMES = st.sampled_from([
    b"Host", b"Connection", b"Content-Length", b"Content-Type",
    b"Transfer-Encoding", b"X-Request-Id",
])
_HEADER_VALUES = st.sampled_from([
    b"0", b"5", b"-1", b"+5", b"1_0", b" 7 ", b"0x10", b"\xb2", b"close",
    b"chunked", b"99999999999999999999",
])


@given(
    line=_REQUEST_LINES,
    headers=st.lists(
        st.tuples(
            _HEADER_NAMES | _NO_NEWLINE, _HEADER_VALUES | _NO_NEWLINE
        ),
        max_size=5,
    ),
)
@settings(
    max_examples=50, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_fuzzed_heads_never_get_a_5xx(server, line, headers):
    head = b"\r\n".join([line] + [n + b": " + v for n, v in headers])
    status = _status(_raw_http(server.port, head + b"\r\n\r\n"))
    assert status is None or status < 500
    assert server.client.livez()["status"] == "alive"


def test_router_answers_a_dead_replica_with_502_bad_gateway(tmp_path):
    config = ServiceConfig(port=0, cache_dir=str(tmp_path / "c"))
    with ServiceThread(config, executor=ThreadPoolExecutor(2)) as replica:
        # no health tick after the startup probe: the stopped replica
        # stays on the ring and the proxied request meets a closed port
        front = RouterThread(RouterConfig(
            replicas=(f"127.0.0.1:{replica.port}",), health_interval=3600,
        ))
        with front:
            replica.stop()
            raw = _raw_http(front.port, _post(b'{"app": "CG-16"}'))
    assert raw.startswith(b"HTTP/1.1 502 Bad Gateway\r\n"), raw[:80]
    assert b"bad-gateway" in raw
