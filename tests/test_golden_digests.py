"""Cache-identity regression gate: pinned digests of a fixed cell set.

``golden_digests.json`` records the content-addressed names the caches
use for one small world: the ``"trace"`` blob, the ``.rpcs`` store the
mmap backend writes, ``"report"`` blobs for MAX and AVG over four
gear-set shapes plus one capped cell, the service's ``"balance-batch"``
(capless and capped) and one ``"service-exp"`` identity.

Every digest is recomputed two ways where both exist: from the blob
names a :class:`~repro.experiments.runner.Runner` actually writes, and
through :func:`repro.service.identity.request_digest` for the same
request body.  A mismatch means warm caches (disk, peer, fleet ring)
silently stop hitting — the file is never regenerated; a deliberate
identity change bumps ``CACHE_VERSION`` instead.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.core.algorithms import AvgAlgorithm, MaxAlgorithm
from repro.core.powercap import PowerCapAlgorithm
from repro.experiments.runner import Runner, RunnerConfig
from repro.service.identity import request_digest
from repro.service.workers import resolve_gear_set

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden_digests.json"

APP = "CG-32"
ITERATIONS = 2
CAP = 100.0

#: gear-set request values: spec strings and one custom [[f, V], ...]
GEARS = {
    "uniform:6": "uniform:6",
    "exponential:5": "exponential:5",
    "limited": "limited",
    "custom": [[1.2, 1.0], [1.8, 1.15], [2.3, 1.3]],
}
ALGORITHMS = {"max": MaxAlgorithm, "avg": AvgAlgorithm}


def report_cells() -> dict[str, tuple[object, str, float | None]]:
    """name -> (gears request value, algorithm, cap) of every report cell."""
    cells: dict[str, tuple[object, str, float | None]] = {}
    for gname, gears in GEARS.items():
        for alg in ALGORITHMS:
            cells[f"report/{gname}/{alg}"] = (gears, alg, None)
    cells[f"report/uniform:6/cap={CAP:g}"] = ("uniform:6", "max", CAP)
    return cells


def _blobs(root: pathlib.Path, pattern: str) -> set[str]:
    return {p.name for p in root.glob(pattern)}


def runner_digests(tmp: pathlib.Path) -> dict[str, str]:
    """The names a caching Runner writes for every pinned cell."""
    cache = tmp / "cache"
    runner = Runner(RunnerConfig(iterations=ITERATIONS, cache_dir=str(cache)))
    runner.trace(APP)
    (trace_blob,) = _blobs(cache, "trace-*.pkl")
    out = {"trace": trace_blob[: -len(".pkl")]}
    for name, (gears, alg, cap) in report_cells().items():
        algorithm = (
            PowerCapAlgorithm(cap) if cap is not None else ALGORITHMS[alg]()
        )
        before = _blobs(cache, "report-*.pkl")
        runner.balance(APP, resolve_gear_set(gears), algorithm)
        (blob,) = _blobs(cache, "report-*.pkl") - before
        out[name] = blob[: -len(".pkl")]

    store_cache = tmp / "store"
    Runner(
        RunnerConfig(
            iterations=ITERATIONS, storage="mmap", cache_dir=str(store_cache)
        )
    ).trace(APP)
    (store,) = _blobs(store_cache / "traces", "*.rpcs")
    out["trace_store"] = store
    return out


def service_digests() -> dict[str, str]:
    """The service's identities for the same requests (router view)."""
    from repro.service.app import ServiceConfig
    from repro.service.routes import (
        parse_balance_request,
        parse_experiment_request,
    )

    defaults = ServiceConfig()

    def balance(body: dict) -> str:
        spec, _ = parse_balance_request(
            {"app": APP, "iterations": ITERATIONS, **body}, defaults,
            lint=False,
        )
        kind = "balance_batch" if "candidates" in spec else "balance"
        return request_digest(kind, spec)

    out = {}
    for name, (gears, alg, cap) in report_cells().items():
        body = {"gears": gears, "algorithm": alg}
        if cap is not None:
            body["power_cap"] = cap
        out[name] = balance(body)
    candidates = [
        {"gears": "uniform:6", "algorithm": "max"},
        {"gears": "exponential:5", "algorithm": "avg"},
        {"gears": GEARS["custom"]},
    ]
    out["balance-batch/capless"] = balance({"candidates": candidates})
    out[f"balance-batch/cap={CAP:g}"] = balance(
        {"candidates": candidates, "power_cap": CAP}
    )
    spec, _ = parse_experiment_request(
        "fig3", {"iterations": ITERATIONS, "apps": [APP]}, defaults,
        lint=False,
    )
    out["service-exp/fig3"] = request_digest("experiment", spec)
    return out


@pytest.fixture(scope="module")
def golden() -> dict[str, str]:
    return json.loads(GOLDEN_PATH.read_text())["digests"]


@pytest.fixture(scope="module")
def via_runner(tmp_path_factory) -> dict[str, str]:
    return runner_digests(tmp_path_factory.mktemp("golden-digests"))


@pytest.fixture(scope="module")
def via_service() -> dict[str, str]:
    return service_digests()


def test_golden_file_covers_every_identity(golden, via_runner, via_service):
    assert set(golden) == set(via_runner) | set(via_service)


@pytest.mark.parametrize(
    "name", ["trace", "trace_store", *report_cells()]
)
def test_runner_writes_pinned_names(name, golden, via_runner):
    assert via_runner[name] == golden[name]


@pytest.mark.parametrize(
    "name",
    [
        *report_cells(),
        "balance-batch/capless",
        f"balance-batch/cap={CAP:g}",
        "service-exp/fig3",
    ],
)
def test_service_digests_are_pinned(name, golden, via_service):
    assert via_service[name] == golden[name]
