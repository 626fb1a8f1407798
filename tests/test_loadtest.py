"""Unit tests for the load generator (``benchmarks/loadtest.py``).

The generator is measurement harness for the service fleet, so it gets
the same treatment as product code: seeded determinism, report math,
and both driving modes exercised against a stdlib stub server (the
real-fleet integration lives in ``benchmarks/bench_loadtest.py``).
"""

from __future__ import annotations

import json
import random
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from benchmarks import loadtest
from benchmarks.loadtest import (
    OPEN_LOOP_SENDERS,
    LoadReport,
    RequestMix,
    Stage,
    _parse_stages,
    main,
    run_closed_loop,
    run_open_loop,
    schedule_arrivals,
)


class _StubHandler(BaseHTTPRequestHandler):
    """Answers every POST with a canned JSON body and an X-Cache header."""

    protocol_version = "HTTP/1.1"

    def do_POST(self):  # noqa: N802 (stdlib handler naming)
        length = int(self.headers.get("Content-Length", 0))
        body = self.rfile.read(length)
        self.server.seen.append(json.loads(body))  # type: ignore[attr-defined]
        reply = b'{"ok": true}'
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(reply)))
        self.send_header("X-Cache", "hit")
        self.end_headers()
        self.wfile.write(reply)

    def log_message(self, *args):  # silence per-request stderr noise
        pass


class _CountingHandler(_StubHandler):
    """Counts the connections the stub accepts (one setup each)."""

    def setup(self):
        with self.server.lock:  # type: ignore[attr-defined]
            self.server.connections += 1  # type: ignore[attr-defined]
        super().setup()


class _RejectingHandler(_StubHandler):
    """Answers every other POST with an instant 429, like a full queue."""

    def do_POST(self):  # noqa: N802 (stdlib handler naming)
        with self.server.lock:  # type: ignore[attr-defined]
            self.server.count += 1  # type: ignore[attr-defined]
            reject = self.server.count % 2 == 0  # type: ignore[attr-defined]
        if not reject:
            return super().do_POST()
        self.rfile.read(int(self.headers.get("Content-Length", 0)))
        self.send_response(429)
        self.send_header("Retry-After", "1")
        self.send_header("Content-Length", "0")
        self.end_headers()
        return None


@pytest.fixture()
def stub_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _StubHandler)
    server.seen = []  # type: ignore[attr-defined]
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()


def _url(server) -> str:
    host, port = server.server_address
    return f"http://{host}:{port}"


class TestRequestMix:
    def test_bodies_are_deterministic_per_seed(self):
        mix = RequestMix()
        a = [mix.body(random.Random(3)) for _ in range(5)]
        b = [mix.body(random.Random(3)) for _ in range(5)]
        assert a == b

    def test_kinds_shape_the_body(self):
        rng = random.Random(0)
        batch = RequestMix({"batch": 1.0}).body(rng)
        assert "candidates" in batch
        assert all(set(c) == {"gears"} for c in batch["candidates"])
        capped = RequestMix({"capped": 1.0}).body(rng)
        assert capped["power_cap"] > 0
        scalar = RequestMix({"scalar": 1.0}).body(rng)
        assert "candidates" not in scalar and "power_cap" not in scalar

    def test_parse_round_trips_weights(self):
        mix = RequestMix.parse("scalar=0.5, batch=0.5")
        assert mix.kinds == ["scalar", "batch"]
        assert mix.weights == [0.5, 0.5]

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown mix kind"):
            RequestMix({"chaos": 1.0})

    def test_all_zero_weights_rejected(self):
        with pytest.raises(ValueError, match="positive weight"):
            RequestMix({"scalar": 0.0})


class TestSchedule:
    def test_stage_parsing(self):
        stages = _parse_stages("3x20,5x50")
        assert stages == [Stage(3.0, 20.0), Stage(5.0, 50.0)]

    def test_arrival_count_and_monotone_times(self):
        arrivals = schedule_arrivals(
            [Stage(2.0, 10.0), Stage(1.0, 5.0)], RequestMix(), seed=1
        )
        assert len(arrivals) == 25
        times = [at for at, _ in arrivals]
        assert times == sorted(times)
        assert times[0] == 0.0
        assert times[-1] < 3.0

    def test_same_seed_same_bodies(self):
        stages = [Stage(1.0, 8.0)]
        first = schedule_arrivals(stages, RequestMix(), seed=9)
        second = schedule_arrivals(stages, RequestMix(), seed=9)
        assert first == second


class TestLoadReport:
    def _report(self, latencies_ms):
        report = LoadReport(mode="open", duration_s=1.0)
        for ms in latencies_ms:
            report.record(ms / 1e3, 200, "hit")
        return report

    def test_percentiles(self):
        report = self._report(list(range(1, 101)))
        assert report.percentile(50) == pytest.approx(50, abs=1)
        assert report.percentile(99) == pytest.approx(99, abs=1)
        assert report.percentile(100) == 100

    def test_empty_report_is_quiet(self):
        report = LoadReport(mode="open", duration_s=0.0)
        assert report.percentile(99) == 0.0
        assert report.throughput_rps == 0.0
        assert report.to_json()["latency_ms"]["max"] == 0.0

    def test_histogram_buckets(self):
        report = self._report([0.5, 3.0, 3.5, 150.0])
        histogram = report.histogram()
        assert histogram["le_1ms"] == 1
        assert histogram["le_5ms"] == 2
        assert histogram["le_200ms"] == 1
        assert sum(histogram.values()) == 4

    def test_status_zero_counts_as_error(self):
        report = LoadReport(mode="closed", duration_s=1.0)
        report.record(0.01, 200, "hit")
        report.record(0.01, 0, None)
        assert report.errors == 1
        assert report.statuses == {"200": 1, "0": 1}

    def test_only_2xx_replies_count_as_served(self):
        report = LoadReport(mode="closed", duration_s=2.0)
        report.record(0.004, 200, "hit")
        report.record(0.0001, 429, None)
        report.record(0.0002, 503, None)
        report.record(0.01, 0, None)
        assert report.requests == 4
        assert (report.ok, report.failed, report.errors) == (1, 3, 1)
        assert report.throughput_rps == pytest.approx(0.5)
        # the fast rejections never pull the latency sample down
        assert report.percentile(0) == pytest.approx(4.0)
        assert report.to_json()["failed"] == 3

    def test_render_mentions_the_headline_numbers(self):
        report = self._report([2.0, 4.0])
        text = report.render()
        assert "2 requests" in text
        assert "p99" in text


class TestDrivers:
    def test_open_loop_fires_the_whole_schedule(self, stub_server):
        report = run_open_loop(
            _url(stub_server), [Stage(0.5, 20.0)], seed=4
        )
        assert report.requests == 10
        assert report.errors == 0
        assert report.statuses == {"200": 10}
        assert report.cache_states == {"hit": 10}
        assert len(stub_server.seen) == 10

    def test_open_loop_times_requests_from_their_due_time(
        self, stub_server, monkeypatch
    ):
        # a generator that oversleeps sends late; the server answers at
        # once, so only timing from the due time shows the lag
        real_sleep = time.sleep
        monkeypatch.setattr(time, "sleep", lambda s: real_sleep(s + 0.2))
        report = run_open_loop(
            _url(stub_server), [Stage(0.3, 10.0)], seed=4
        )
        monkeypatch.undo()
        assert report.requests == report.ok == 3
        # arrivals at 0.1 s and 0.2 s sleep first; the one at 0 does not
        assert sorted(report.latencies_ms)[1] >= 200.0
        assert report.percentile(99) >= 200.0
        late = sorted(report.lateness_ms)
        assert late[0] < 100.0 and late[1] >= 200.0
        lateness = report.to_json()["lateness_ms"]
        assert lateness["max"] >= 200.0 and lateness["p99"] >= 200.0
        assert "sent late" in report.render()

    def test_open_loop_runs_on_a_fixed_sender_pool(self, monkeypatch):
        server = ThreadingHTTPServer(("127.0.0.1", 0), _CountingHandler)
        server.seen, server.connections = [], 0  # type: ignore[attr-defined]
        server.lock = threading.Lock()  # type: ignore[attr-defined]
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        started = []

        class CountingThread(threading.Thread):
            def start(self):
                started.append(self)
                super().start()

        class Threading:
            """The threading module as loadtest sees it, counting starts."""

            Thread = CountingThread

            def __getattr__(self, name):
                return getattr(threading, name)

        monkeypatch.setattr(loadtest, "threading", Threading())
        try:
            report = run_open_loop(_url(server), [Stage(1.0, 200.0)], seed=5)
        finally:
            monkeypatch.undo()
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
        assert not thread.is_alive()
        assert report.requests == report.ok == 200
        assert len(server.seen) == 200
        assert 0 < len(started) <= OPEN_LOOP_SENDERS < 200
        assert server.connections <= OPEN_LOOP_SENDERS

    def test_open_loop_counts_unreachable_as_errors(self):
        # nothing listens here: every arrival is an error, not a crash
        report = run_open_loop(
            "http://127.0.0.1:9", [Stage(0.2, 10.0)], timeout=0.5
        )
        assert report.requests == 2
        assert report.errors == 2

    def test_closed_loop_cycles_the_body_pool(self, stub_server):
        bodies = [{"app": f"CG-{n}"} for n in (8, 16)]
        report = run_closed_loop(
            _url(stub_server), bodies, concurrency=2, duration_s=0.4
        )
        assert report.errors == 0
        assert report.requests > 4
        assert report.throughput_rps > 0
        apps = {body["app"] for body in stub_server.seen}
        assert apps == {"CG-8", "CG-16"}

    def test_closed_loop_does_not_count_429_as_throughput(self):
        server = ThreadingHTTPServer(("127.0.0.1", 0), _RejectingHandler)
        server.seen, server.count = [], 0  # type: ignore[attr-defined]
        server.lock = threading.Lock()  # type: ignore[attr-defined]
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            report = run_closed_loop(
                _url(server), [{"app": "CG-8"}], concurrency=1,
                duration_s=0.3,
            )
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
        assert not thread.is_alive()
        assert report.statuses.get("429", 0) >= 1
        assert report.failed == report.statuses["429"]
        assert report.ok == report.statuses["200"] == len(server.seen)
        assert report.throughput_rps == pytest.approx(
            report.ok / report.duration_s
        )

    def test_cli_json_output(self, stub_server, capsys):
        code = main([
            "--url", _url(stub_server), "--mode", "open",
            "--stages", "0.3x10", "--seed", "2", "--json",
        ])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["requests"] == 3
        assert out["errors"] == 0
        assert out["mode"] == "open"

    def test_cli_closed_mode_text_output(self, stub_server, capsys):
        code = main([
            "--url", _url(stub_server), "--mode", "closed",
            "--duration", "0.3", "--concurrency", "2", "--bodies", "4",
        ])
        assert code == 0
        assert "closed loop:" in capsys.readouterr().out
