"""Tests of the benchmark harness itself (run: pytest perfbench -q).

Workloads run here at toy sizes; the properties checked are the ones
the measured runs rely on: seeded inputs, span coverage per workload,
digest identity with tracing on, and failure accounting.
"""

from __future__ import annotations

import json
import math
import random
import shutil
import subprocess
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

import serve
import spans
import workloads as W

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
#: per-layer metrics run.py adds itself
HARNESS_ADDS = {"harness.steal_pct"}

SMALL = {
    "table3-sweep": {
        "instances": ["CG-16", "IS-16"],
        "cells": 12,
        "capped_share": 0.25,
        "checks": 3,
        "min_units": 2,
    },
    "bigworld-mmap": {
        "app": "BT-MZ-64",
        "iterations": 2,
        "sessions": 2,
        "cells": 2,
        "min_units": 2,
    },
    "serve-mix": {
        "apps": ["CG-16", "IS-16"],
        "hot_per_app": 3,
        "callers": 2,
        "miss_share": 0.3,
        "candidates": 2,
        "launches": 1,
        "window": 8,
        "checks": 3,
    },
}


def _describe(cells):
    return [
        (c.gear_set.name, c.algorithm.name)
        for cs in (cells.values() if isinstance(cells, dict) else cells)
        for c in cs
    ]


class TestGenerators:
    def test_table3_cells_are_seeded(self):
        p = SMALL["table3-sweep"]
        a, b = W.table3_cells(1, p), W.table3_cells(1, p)
        assert _describe(a) == _describe(b)
        assert _describe(a) != _describe(W.table3_cells(2, p))
        kinds = {type(c.algorithm).__name__ for cs in a.values() for c in cs}
        assert kinds == {"MaxAlgorithm", "AvgAlgorithm", "PowerCapAlgorithm"}

    def test_bigworld_cells_are_seeded(self):
        p = SMALL["bigworld-mmap"]
        a = W.bigworld_cells(1, p)
        assert _describe(a) == _describe(W.bigworld_cells(1, p))
        assert _describe(a) != _describe(W.bigworld_cells(2, p))

    def test_serve_bodies_are_seeded(self):
        p = W.PARAMS["serve-mix"]
        hot = W.serve_hot_set(1, p)
        assert hot == W.serve_hot_set(1, p)
        assert hot != W.serve_hot_set(2, p)
        assert len({json.dumps(b, sort_keys=True) for b in hot}) == 60
        kinds = [W._kind(b) for b in hot]
        assert (kinds.count("scalar"), kinds.count("candidates")) == (36, 12)
        miss = [W.serve_miss_body(random.Random(7), "CG-32") for _ in range(2)]
        assert miss[0] == miss[1]
        assert W._kind(miss[0]) == "new-cell"


@pytest.fixture(scope="module")
def batch_runs(tmp_path_factory):
    """Each batch workload untraced and traced, at toy size.

    Seed 2: golden.json records seed 1 at full size only.
    """
    out = {}
    for name in ("table3-sweep", "bigworld-mmap"):
        for trace in (False, True):
            workdir = tmp_path_factory.mktemp(f"{name}-{int(trace)}")
            out[name, trace] = W.RUNNERS[name](2, 0.0, trace, SMALL[name], workdir)
    return out


@pytest.mark.parametrize("name", ["table3-sweep", "bigworld-mmap"])
class TestBatchWorkloads:
    def test_runs_clean(self, batch_runs, name):
        for trace in (False, True):
            res = batch_runs[name, trace]
            assert res["failed"] == 0, res["checks"]
            assert res["attempted"] > 0

    def test_declared_spans_fire_and_bypasses_read_zero(self, batch_runs, name):
        res = batch_runs[name, True]
        fired = set(res["fired"])
        assert W.EXERCISED[name] <= fired
        assert not W.BYPASSED[name] & fired
        assert res["layers"]["core.to_json_s"] > 0
        assert all(res["layers"][k] == 0 for k in W.SERVICE_LAYERS)
        if name == "table3-sweep":
            assert res["layers"]["experiments.cache_put_mib"] == 0
            assert res["layers"]["traces.store_mib"] == 0
        else:
            assert res["layers"]["netsim.des_runs"] == 0
            # one compile per session: the waste a persisted tape removes
            assert res["layers"]["netsim.compiles_per_world"] == 2

    def test_traced_and_untraced_digests_match(self, batch_runs, name):
        plain, traced = batch_runs[name, False], batch_runs[name, True]
        assert plain["digest"] == traced["digest"]
        assert any("traced and untraced" in c for c in traced["checks"])

    def test_every_per_layer_metric_reported(self, batch_runs, name):
        wanted = {m["name"] for m in SPEC["per_layer"]} - HARNESS_ADDS
        assert wanted <= set(batch_runs[name, True]["layers"])

    def test_end_to_end_metrics_present(self, batch_runs, name):
        metrics = batch_runs[name, False]["metrics"]
        assert set(metrics) == {
            "cells_per_s", "run_s", "peak_rss_mib", "latency_p50_ms",
            "latency_p99_ms", "throughput_rps",
        }
        assert all(v > 0 for v in metrics.values())


def test_check_rejects_one_perturbed_float():
    from repro.experiments.runner import Runner, RunnerConfig

    p = SMALL["table3-sweep"]
    runner = Runner(RunnerConfig())
    blobs = [
        W._canonical(r.to_json())
        for app, cands in W.table3_cells(3, p).items()
        for r in runner.balance_many(app, cands)
    ]
    clean = W.Outcome()
    W.check_table3(3, p, blobs, clean)
    assert clean.failed == 0 and clean.attempted == 3

    idx = W.table3_picks(3, p)[0][0]
    report = json.loads(blobs[idx])
    report["new_time_s"] = math.nextafter(report["new_time_s"], math.inf)
    blobs[idx] = W._canonical(report)
    perturbed = W.Outcome()
    W.check_table3(3, p, blobs, perturbed)
    assert perturbed.failed == 1


def test_golden_check_fails_when_stale():
    golden = W._golden()["bigworld-mmap"]
    params = dict(golden["params"], min_units=9)  # does not shape reports
    digests = list(golden["digests"])
    ok = W.Outcome()
    W.check_golden(golden["seed"], params, digests, ok)
    assert (ok.attempted, ok.failed) == (1, 0)

    for bad_params, bad_digests in (
        (params, digests[:-1] + ["0" * 64]),  # one report changed
        (SMALL["bigworld-mmap"], digests),  # resized, golden not redone
    ):
        out = W.Outcome()
        W.check_golden(golden["seed"], bad_params, bad_digests, out)
        assert (out.attempted, out.failed) == (1, 1)
    assert "golden.json stale" in out.checks[0]

    other = W.Outcome()
    W.check_golden(golden["seed"] + 1, SMALL["bigworld-mmap"], [], other)
    assert other.attempted == 0


class _Stub(BaseHTTPRequestHandler):
    """Answers every other POST with 429, the rest with 200."""

    protocol_version = "HTTP/1.1"
    calls = 0
    lock = threading.Lock()

    def do_POST(self):  # noqa: N802 - http.server naming
        self.rfile.read(int(self.headers["Content-Length"]))
        with self.lock:
            type(self).calls += 1
            status = 429 if self.calls % 2 else 200
        body = b"{}\n"
        self.send_response(status)
        self.send_header("Content-Length", str(len(body)))
        self.send_header("Retry-After", "1")
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


def test_client_counts_429_as_failed():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _Stub)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        replies, wall = serve.closed_loop(
            server.server_address[1], lambda c, i: ("k", b"{}"), 2, 0.3
        )
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    assert not thread.is_alive()
    ok = [r for r in replies if r.ok]
    assert {r.status for r in replies} == {200, 429}
    metrics, _notes, failed = W.summarize_replies(replies, wall, {"k": 1}, 4)
    assert failed == len(replies) - len(ok) > 0
    assert metrics["throughput_rps"] == pytest.approx(len(ok) / wall)


def test_serve_mix_small(tmp_path):
    res = W.serve_mix(1, 1.0, True, SMALL["serve-mix"], tmp_path)
    assert res["failed"] == 0, res["checks"]
    assert set(res["fired"]) == W.EXERCISED["serve-mix"]
    layers = res["layers"]
    wanted = {m["name"] for m in SPEC["per_layer"]} - HARNESS_ADDS
    assert wanted <= set(layers)
    assert layers["service.hit_ratio"] > 0
    assert layers["service.worker_compiled_s"] > 0
    assert all(layers[f"{k}_s"] == 0 for k in ("netsim.des", "core.assign"))
    assert res["metrics"]["throughput_rps"] > 0


def test_tracer_self_time_and_restore():
    class Box:
        @classmethod
        def outer(cls):
            return cls.inner() + 1

        @staticmethod
        def inner():
            return 1

    tracer = spans.Tracer()
    tracer.wrap(Box, "outer", "outer")
    tracer.wrap(Box, "inner", "inner")
    assert Box.outer() == 2
    tracer.uninstall()
    assert isinstance(Box.__dict__["outer"], classmethod)
    assert Box.outer() == 2 and len(tracer.spans) == 2
    (outer, o0, o1, _), (inner, i0, i1, parent) = tracer.spans
    assert (outer, inner, parent) == ("outer", "inner", 0)
    st = tracer.self_times()
    assert st["outer"] == pytest.approx((o1 - o0) - (i1 - i0))


def test_run_fails_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "table3-sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
