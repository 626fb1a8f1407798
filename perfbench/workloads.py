"""The benchmark's workloads: seeded inputs, timed units and checks.

Each workload runs in a fresh process started by ``run.py``::

    python perfbench/workloads.py <workload> --seed N --seconds S \\
        --trace 0|1 --launched T --workdir DIR
    python perfbench/workloads.py --probe <workload> --launched T

and prints one JSON result as its last stdout line.  A workload repeats
a *unit* of work until ``--seconds`` have passed.  Every unit of one run
prices the same seeded inputs, so their report digests must agree; with
``--trace 1`` units alternate untraced/traced, which gives the tracing
overhead and a traced-vs-untraced digest comparison inside one run.
The correctness checks run after the timed units.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import random
import resource
import shutil
import signal
import statistics
import sys
import threading
import time
from collections.abc import Callable
from pathlib import Path
from typing import Any

import numpy
from repro.apps.registry import TABLE3_INSTANCES, parse_name
from repro.core.algorithms import AvgAlgorithm, MaxAlgorithm
from repro.core.balancer import PowerAwareLoadBalancer
from repro.core.batchbalance import SweepCandidate
from repro.core.gears import (
    NOMINAL_FMAX,
    DiscreteGearSet,
    GearSet,
    exponential_gear_set,
    uniform_gear_set,
)
from repro.core.power import CpuPowerModel, CpuState
from repro.core.powercap import PowerCapAlgorithm, PowerCapBalancer
from repro.core.timemodel import BetaTimeModel
from repro.experiments.runner import Runner, RunnerConfig
from repro.netsim.enginestats import process_engine_stats
from repro.netsim.platform import MYRINET_LIKE

import serve
import spans

WORKLOADS = ("table3-sweep", "bigworld-mmap", "serve-mix")
DEFAULT_SEED = 1
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Sizes of one unit of work per workload (tests pass smaller ones).
PARAMS: dict[str, dict[str, Any]] = {
    "table3-sweep": {
        "instances": list(TABLE3_INSTANCES),
        "cells": 256,
        "capped_share": 0.25,
        "checks": 6,
        "min_units": 3,
    },
    "bigworld-mmap": {
        "app": "BT-MZ-4096",
        "iterations": 2,
        "sessions": 3,
        "cells": 8,
        "min_units": 2,
    },
    "serve-mix": {
        "apps": list(TABLE3_INSTANCES),
        "hot_per_app": 5,
        # one caller: with two, about half the requests queue behind the
        # other caller's at the single-threaded server, and the median
        # fell in the valley between the alone and the queued latencies
        "callers": 1,
        "miss_share": 0.05,
        "candidates": 4,
        "launches": 3,
        "window": 256,
        "checks": 6,
    },
}

#: Spans each workload must fire, and spans its design bypasses (these
#: must read zero).  ``service.request`` is the client-side span of one
#: HTTP request; spans cannot enter the spawned service workers.
EXERCISED = {
    "table3-sweep": {
        "netsim.des", "netsim.compile", "netsim.evaluate",
        "netsim.evaluate_many", "traces.compute_times",
        "traces.from_streams", "core.assign", "core.energy",
        "core.powercap_section", "core.plan", "core.to_json",
        "experiments.trace",
    },
    "bigworld-mmap": {
        "apps.generate", "traces.store_save", "traces.store_open",
        "netsim.compile", "netsim.evaluate", "netsim.evaluate_many",
        "traces.compute_times", "core.assign", "core.energy", "core.plan",
        "core.to_json", "experiments.trace", "experiments.cache_get",
        "experiments.cache_put",
    },
    "serve-mix": {"service.request"},
}
BYPASSED = {
    "table3-sweep": {
        "apps.generate", "traces.store_save", "traces.store_open",
        "experiments.cache_get", "experiments.cache_put",
        "service.request",
    },
    "bigworld-mmap": {
        "netsim.des", "traces.from_streams", "core.powercap_section",
        "service.request",
    },
    "serve-mix": set(spans.LAYER_SPANS),
}

_BETA = 0.5  # RunnerConfig and service default
#: Per-layer metrics only serve-mix measures; they read zero elsewhere.
SERVICE_LAYERS = (
    "service.hit_p50_ms", "service.miss_p50_ms", "service.hit_ratio",
    "service.server_mean_ms", "service.coalesced", "service.rejected",
    "service.worker_des_s", "service.worker_compiled_s",
)
#: bigworld parameters the recorded report digests depend on
GOLDEN_KEYS = ("app", "iterations", "sessions", "cells")
_MIB = float(1 << 20)


# ----------------------------------------------------------------------
# seeded inputs
# ----------------------------------------------------------------------
def _gear_set(rng: random.Random) -> GearSet:
    """A uniform or exponential set with random size and floor."""
    family = rng.choice(("uniform", "exponential"))
    n = rng.randint(3, 12)
    fmin = round(rng.uniform(0.8, 1.6), 3)
    factory = uniform_gear_set if family == "uniform" else exponential_gear_set
    # the name carries the floor, so cells with equal n stay distinct
    return DiscreteGearSet(factory(n, fmin=fmin).gears, f"{family}-{n}@{fmin:g}")


def _cap(rng: random.Random, nproc: int, gear_set: GearSet) -> float:
    """A budget inside the feasible band (above the all-fmin peak)."""
    model = CpuPowerModel()
    power = [model.power(g, CpuState.COMPUTE) for g in gear_set.gears]
    floor, ceiling = nproc * min(power), nproc * max(power)
    return round(floor + rng.uniform(0.05, 1.0) * (ceiling - floor), 3)


def table3_cells(seed: int, params: dict[str, Any]) -> dict[str, list]:
    """~256 cells per Table-3 instance: MAX/AVG plus capped cells.

    Every instance gets the same number of cells of each kind, in a
    seeded order, so a seed changes the cells but not an instance's cost.
    """
    rng = random.Random(f"table3-sweep:{seed}")
    n = params["cells"]
    capped = round(n * params["capped_share"])
    kinds = ["cap"] * capped + ["max"] * ((n - capped + 1) // 2)
    kinds += ["avg"] * (n - len(kinds))
    out: dict[str, list] = {}
    for app in params["instances"]:
        nproc = parse_name(app)[1]
        cells = []
        for kind in rng.sample(kinds, n):
            gear_set = _gear_set(rng)
            if kind == "cap":
                algorithm: Any = PowerCapAlgorithm(_cap(rng, nproc, gear_set))
            elif kind == "max":
                algorithm = MaxAlgorithm()
            else:
                algorithm = AvgAlgorithm()
            cells.append(SweepCandidate(gear_set, algorithm))
        out[app] = cells
    return out


def bigworld_cells(seed: int, params: dict[str, Any]) -> list[list]:
    """New MAX/AVG cells for each session of the big world."""
    rng = random.Random(f"bigworld-mmap:{seed}")
    return [
        [
            SweepCandidate(
                _gear_set(rng), rng.choice((MaxAlgorithm, AvgAlgorithm))()
            )
            for _ in range(params["cells"])
        ]
        for _ in range(params["sessions"])
    ]


def _gear_spec(rng: random.Random) -> str:
    return f"{rng.choice(('uniform', 'exponential'))}:{rng.randint(3, 8)}"


#: Kinds of the hot bodies of one app, in order (five per app by default).
HOT_KINDS = ("scalar", "candidates", "power_cap", "scalar", "scalar")


def serve_hot_set(seed: int, params: dict[str, Any]) -> list[dict]:
    """Distinct scalar, ``candidates`` and ``power_cap`` bodies, the same
    number of each kind on every app, so seeds change cells, not cost."""
    from repro.service.workers import resolve_gear_set

    rng = random.Random(f"serve-mix:{seed}")
    bodies: list[dict] = []
    seen: set[str] = set()
    for app in params["apps"]:
        for kind in HOT_KINDS[: params["hot_per_app"]]:
            while True:
                body: dict[str, Any] = {"app": app}
                if kind == "candidates":
                    grid = sorted(
                        {(_gear_spec(rng), rng.choice(("max", "avg")))
                         for _ in range(32)}
                    )
                    body["candidates"] = [
                        {"gears": g, "algorithm": a}
                        for g, a in rng.sample(grid, params["candidates"])
                    ]
                else:
                    body["gears"] = _gear_spec(rng)
                    body["algorithm"] = rng.choice(("max", "avg"))
                    if kind == "power_cap":
                        body["power_cap"] = _cap(
                            rng, parse_name(app)[1],
                            resolve_gear_set(body["gears"]),
                        )
                key = json.dumps(body, sort_keys=True)
                if key not in seen:
                    break
            seen.add(key)
            bodies.append(body)
    return bodies


def serve_miss_body(rng: random.Random, app: str) -> dict:
    """A never-seen scalar cell on a warmed app: new β or new gear set."""
    body: dict[str, Any] = {"app": app, "algorithm": rng.choice(("max", "avg"))}
    if rng.random() < 0.5:
        body["gears"] = _gear_spec(rng)
        body["beta"] = round(rng.uniform(0.3, 0.7), 6)
    else:
        fmin = round(rng.uniform(0.8, 1.6), 6)
        gears = uniform_gear_set(rng.randint(3, 8), fmin=fmin).gears
        body["gears"] = [[g.frequency, g.voltage] for g in gears]
    return body


def _kind(body: dict) -> str:
    if "candidates" in body:
        return "candidates"
    if "power_cap" in body:
        return "power_cap"
    return "new-cell" if "beta" in body or isinstance(body["gears"], list) else "scalar"


def _cells_in(body: dict) -> int:
    return len(body.get("candidates", ())) or 1


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
def _canonical(report_json: dict) -> bytes:
    return json.dumps(report_json, sort_keys=True).encode()


def _quantiles(values: list[float]) -> tuple[float, float, int]:
    """(p50, p99, samples beyond p99)."""
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v, 0
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    p99 = cuts[98]
    return cuts[49], p99, sum(1 for v in values if v > p99)


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Outcome:
    """Operation and check accounting shared by every workload."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.checks: list[str] = []

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
        self.checks.append(f"{'ok  ' if ok else 'FAIL'} {name} {detail}".rstrip())

    def guarded(self, fn: Callable[..., None], *args: Any) -> None:
        """Run a check function; an exception it raises is one failure."""
        try:
            fn(*args)
        except Exception as exc:
            self.check(f"{fn.__name__} raised {type(exc).__name__}: {exc}", False)


def _layer_metrics(tracer: spans.Tracer, units: int, fallbacks: float) -> dict:
    """Per-layer metrics, as means per traced unit (self times)."""
    st = tracer.self_times()
    calls = tracer.span_counts()
    n = max(units, 1)

    def s(name: str) -> float:
        return st.get(name, 0.0) / n

    def c(name: str) -> float:
        return calls.get(name, 0) / n

    worlds = len(tracer.worlds)
    return {
        "apps.generate_s": s("apps.generate"),
        "apps.events": tracer.counts.get("apps.events", 0.0) / n,
        "netsim.des_s": s("netsim.des"),
        "netsim.des_runs": c("netsim.des"),
        "netsim.compile_s": s("netsim.compile"),
        "netsim.compile_calls": c("netsim.compile"),
        "netsim.compiles_per_world": c("netsim.compile") / worlds if worlds else 0.0,
        "netsim.instructions": tracer.counts.get("netsim.instructions", 0.0) / n,
        "netsim.evaluate_s": s("netsim.evaluate"),
        "netsim.evaluate_many_s": s("netsim.evaluate_many"),
        "netsim.evaluate_many_rows": (
            tracer.counts.get("netsim.evaluate_many_rows", 0.0) / n
        ),
        "netsim.auto_fallbacks": fallbacks / n,
        "traces.compute_times_s": s("traces.compute_times"),
        "traces.from_streams_s": s("traces.from_streams"),
        "traces.store_save_s": s("traces.store_save"),
        "traces.store_open_s": s("traces.store_open"),
        "traces.store_mib": tracer.counts.get("traces.store_bytes", 0.0) / _MIB / n,
        "core.assign_s": s("core.assign"),
        "core.assign_calls": c("core.assign"),
        "core.energy_s": s("core.energy"),
        "core.powercap_section_s": s("core.powercap_section"),
        "core.plan_self_s": s("core.plan"),
        "core.to_json_s": s("core.to_json"),
        "experiments.trace_s": s("experiments.trace"),
        "experiments.cache_get_s": s("experiments.cache_get"),
        "experiments.cache_put_s": s("experiments.cache_put"),
        "experiments.cache_put_mib": (
            tracer.counts.get("experiments.cache_put_bytes", 0.0) / _MIB / n
        ),
        "harness.unattributed_s": s("harness.unit"),
        **dict.fromkeys(SERVICE_LAYERS, 0.0),
    }


# ----------------------------------------------------------------------
# batch workloads: a time-bounded loop of identical units
# ----------------------------------------------------------------------
def _run_units(
    prepare: Callable[[int], Any],
    price: Callable[[Any, Callable[[float, list[dict]], None]], None],
    seconds: float,
    min_units: int,
    trace: bool,
    outcome: Outcome,
    cells_per_unit: int,
    keep: set[int],
) -> dict[str, Any]:
    """Repeat units until ``seconds`` have passed (at least ``min_units``).

    ``prepare(i)`` builds unit ``i``'s inputs off the clock.
    ``price(inputs, emit)`` makes the unit's pricing calls, timing each
    one and handing ``emit(seconds, report JSONs)`` its outputs; the
    harness digests them between calls, off the clock, and keeps the
    serialised reports whose cell index is in ``keep``.  A unit's wall
    time is the sum of its calls.  With ``trace``, odd units run
    instrumented.
    """
    tracer = spans.Tracer()
    walls: list[tuple[float, bool]] = []
    calls: list[list[float]] = []  # per complete untraced unit
    digests: list[str] = []
    kept: dict[int, bytes] = {}
    cell_digests: list[str] = []
    fallbacks = 0.0
    start = time.perf_counter()
    step = 0.0  # duration of the last whole iteration
    i = 0
    # start a unit only if it should end within the budget
    while i < min_units or time.perf_counter() - start + step <= seconds:
        s0 = time.perf_counter()
        # each unit starts from a collected heap, as a fresh `repro`
        # process would; otherwise cyclic garbage of earlier units'
        # Runners (and the stores they map) lingers until a full
        # collection, and the peak RSS grew with the number of units
        gc.collect()
        traced = trace and i % 2 == 1
        inputs = prepare(i)
        unit_calls: list[float] = []
        cells: list[str] = []
        blobs: dict[int, bytes] = {}

        def emit(call_s: float, reports: list[dict]) -> None:
            unit_calls.append(call_s)
            mark = tracer.open("harness.digest") if traced else -1
            for report in reports:
                blob = _canonical(report)
                if len(cells) in keep:
                    blobs[len(cells)] = blob
                cells.append(hashlib.sha256(blob).hexdigest())
            if traced:
                tracer.close(mark)

        if traced:
            spans.instrument(tracer)
            before = process_engine_stats()["auto_fallbacks"]
            root = tracer.open("harness.unit")
        try:
            price(inputs, emit)
        except Exception as exc:  # the cells not emitted failed
            outcome.checks.append(f"FAIL unit {i}: {type(exc).__name__}: {exc}")
        if traced:
            tracer.close(root)
            tracer.uninstall()
            fallbacks += process_engine_stats()["auto_fallbacks"] - before
        del inputs
        i += 1
        outcome.attempted += cells_per_unit
        outcome.failed += cells_per_unit - len(cells)
        if len(cells) == cells_per_unit:
            walls.append((sum(unit_calls), traced))
            if not traced:
                calls.append(unit_calls)
            digests.append(hashlib.sha256("".join(cells).encode()).hexdigest())
            kept, cell_digests = blobs, cells
        step = time.perf_counter() - s0
    rss = _peak_rss_mib()
    outcome.check(
        "unit digests agree", len(set(digests)) == 1,
        f"({len(digests)} units{', traced and untraced' if trace else ''})",
    )
    plain = [w for w, t in walls if not t]
    result: dict[str, Any] = {
        "walls": plain,
        "calls": calls,
        "rss": rss,
        "kept": kept,
        "cell_digests": cell_digests,
        "digest": digests[-1] if digests else "",
    }
    if trace:
        traced_walls = [w for w, t in walls if t]
        layers = _layer_metrics(tracer, len(traced_walls), fallbacks)
        layers["harness.trace_overhead_pct"] = (
            100.0 * (statistics.median(traced_walls) / statistics.median(plain) - 1.0)
            if traced_walls and plain else 0.0
        )
        result["layers"] = layers
        result["fired"] = sorted(tracer.span_counts())
        result["span_tree"] = _span_tree(tracer)
    return result


def _span_tree(tracer: spans.Tracer) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive and self seconds (for the run file)."""
    st = tracer.self_times()
    out: dict[str, dict[str, float]] = {}
    for name, start, end, _parent in tracer.spans:
        row = out.setdefault(name, {"calls": 0, "total_s": 0.0})
        row["calls"] += 1
        row["total_s"] += end - start
    for name, row in out.items():
        row["self_s"] = st[name]
    return out


def _e2e(walls: list[float], calls: list[list[float]], cells: int,
         calls_per_unit: int, rss: float) -> tuple[dict[str, float], list[str]]:
    run_s = statistics.median(walls)
    flat = [c * 1000.0 for unit in calls for c in unit]
    _, p99, beyond = _quantiles(flat)
    # A unit makes one call per instance (session), and call sizes form
    # clusters; the pooled median falls in the gap between two clusters,
    # so it is taken per unit and then over the units.
    p50 = 1000.0 * statistics.median(statistics.median(u) for u in calls)
    metrics = {
        "cells_per_s": cells / run_s,
        "run_s": run_s,
        "peak_rss_mib": rss,
        "latency_p50_ms": p50,
        "latency_p99_ms": p99,
        "throughput_rps": calls_per_unit / run_s,
    }
    notes = [
        f"run_s is the median of {len(walls)} units of {cells} cells",
        f"latency over {len(flat)} calls; {beyond} beyond p99"
        + ("" if beyond >= 10 else " (fewer than 10: p99 is the slowest calls)"),
        "latency_p50_ms is the median over units of each unit's median call",
    ]
    return metrics, notes


def table3_sweep(seed: int, seconds: float, trace: bool, params: dict,
                 workdir: Path) -> dict[str, Any]:
    outcome = Outcome()
    n_cells = len(params["instances"]) * params["cells"]

    def price(cells: dict[str, list], emit: Callable) -> None:
        runner = Runner(RunnerConfig())
        for app, cands in cells.items():
            t0 = time.perf_counter()
            out = [r.to_json() for r in runner.balance_many(app, cands)]
            emit(time.perf_counter() - t0, out)

    picks = {idx for idx, *_ in table3_picks(seed, params)}
    res = _run_units(
        lambda i: table3_cells(seed, params),  # fresh objects every unit
        price, seconds, params["min_units"], trace, outcome, n_cells, picks,
    )
    outcome.guarded(check_table3, seed, params, res["kept"], outcome)
    return _finish("table3-sweep", res, outcome, n_cells, len(params["instances"]))


def _scalar_des(trace: Any, cand: SweepCandidate) -> Any:
    """One cell through the scalar pricing path on the DES."""
    time_model = BetaTimeModel(fmax=NOMINAL_FMAX, beta=_BETA)
    algorithm = cand.algorithm
    if isinstance(algorithm, PowerCapAlgorithm):
        return PowerCapBalancer(
            cand.gear_set, algorithm.cap, time_model=time_model,
            platform=MYRINET_LIKE, engine="des",
        ).balance_trace(trace)
    return PowerAwareLoadBalancer(
        cand.gear_set, algorithm, time_model=time_model,
        platform=MYRINET_LIKE, engine="des",
    ).balance_trace(trace, algorithm)


def table3_picks(seed: int, params: dict) -> list[tuple[int, str, int, Any]]:
    """The seeded check sample: (flat index, app, index in app, cell),
    spread evenly over MAX, AVG and capped cells."""
    cells = table3_cells(seed, params)
    flat = [(app, k, c) for app, cs in cells.items() for k, c in enumerate(cs)]
    rng = random.Random(f"table3-check:{seed}")
    by_kind: dict[str, list[int]] = {}
    for idx, (_app, _k, cand) in enumerate(flat):
        by_kind.setdefault(type(cand.algorithm).__name__, []).append(idx)
    per_kind = max(1, params["checks"] // len(by_kind))
    picks = sorted(
        idx for kind in sorted(by_kind) for idx in rng.sample(
            by_kind[kind], min(per_kind, len(by_kind[kind]))
        )
    )
    return [(idx, *flat[idx]) for idx in picks]


def check_table3(seed: int, params: dict, blobs: Any, outcome: Outcome) -> None:
    """Re-price the check sample through the scalar DES path, byte-exact.

    ``blobs`` maps (or indexes) cell index -> the timed run's report.
    """
    if not blobs:
        return
    traces: dict[str, Any] = {}
    for idx, app, k, cand in table3_picks(seed, params):
        if app not in traces:
            traces[app] = Runner(RunnerConfig(engine="des")).trace(app)
        got = _canonical(_scalar_des(traces[app], cand).to_json())
        outcome.check(
            f"scalar DES re-price {app}[{k}] {cand.algorithm.name}",
            got == blobs[idx],
        )


def bigworld_mmap(seed: int, seconds: float, trace: bool, params: dict,
                  workdir: Path) -> dict[str, Any]:
    outcome = Outcome()
    n_cells = params["sessions"] * params["cells"]
    kept: dict[str, Path] = {}

    def prepare(i: int) -> tuple[list[list], RunnerConfig]:
        # a fresh cache directory per unit: session 1 generates the world
        if "dir" in kept:
            shutil.rmtree(kept["dir"], ignore_errors=True)
        kept["dir"] = workdir / f"bigworld-{i}"
        config = RunnerConfig(
            iterations=params["iterations"], storage="mmap",
            cache_dir=str(kept["dir"]),
        )
        return bigworld_cells(seed, params), config

    def price(inputs: tuple[list[list], RunnerConfig], emit: Callable) -> None:
        sessions, config = inputs
        for cands in sessions:
            t0 = time.perf_counter()
            runner = Runner(config)
            out = [r.to_json() for r in runner.balance_many(params["app"], cands)]
            emit(time.perf_counter() - t0, out)

    res = _run_units(
        prepare, price, seconds, params["min_units"], trace, outcome, n_cells,
        set(range(n_cells)),
    )
    outcome.guarded(
        _check_bigworld, seed, params, res["kept"], res["cell_digests"],
        kept.get("dir"), outcome,
    )
    if "dir" in kept:
        shutil.rmtree(kept["dir"], ignore_errors=True)
    return _finish("bigworld-mmap", res, outcome, n_cells, params["sessions"])


def _golden() -> dict[str, Any]:
    with open(HERE / "golden.json", encoding="utf-8") as fh:
        return json.load(fh)


def _check_bigworld(seed: int, params: dict, blobs: dict[int, bytes],
                    cell_digests: list[str], cache_dir: Path | None,
                    outcome: Outcome) -> None:
    from repro.traces.columnar import ColumnarTrace

    if not blobs or cache_dir is None:
        return
    sessions = bigworld_cells(seed, params)
    flat = [c for cs in sessions for c in cs]
    idx = random.Random(f"bigworld-check:{seed}").randrange(len(flat))
    cand = flat[idx]
    (store,) = sorted((cache_dir / "traces").glob("*.rpcs"))
    trace = ColumnarTrace.open(store, mmap=True)
    trace.meta.setdefault("nproc", trace.nproc)
    report = PowerAwareLoadBalancer(
        cand.gear_set, cand.algorithm,
        time_model=BetaTimeModel(fmax=NOMINAL_FMAX, beta=_BETA),
        platform=MYRINET_LIKE,
    ).balance_trace(trace, cand.algorithm)
    outcome.check(
        f"scalar re-price of cell {idx} on the mapped store",
        _canonical(report.to_json()) == blobs[idx],
    )
    check_golden(seed, params, cell_digests, outcome)


def check_golden(seed: int, params: dict, cell_digests: list[str],
                 outcome: Outcome) -> None:
    """On the recorded seed, all report digests must equal golden.json's."""
    golden = _golden()["bigworld-mmap"]
    if seed != golden["seed"]:
        return
    stale = [k for k in GOLDEN_KEYS if params[k] != golden["params"][k]]
    if stale:
        outcome.check(
            f"golden.json stale: recorded for other {', '.join(stale)}", False
        )
        return
    outcome.check(
        "report digests match the recorded default-seed digests",
        cell_digests == golden["digests"],
    )


def _finish(name: str, res: dict, outcome: Outcome, cells: int,
            calls_per_unit: int) -> dict[str, Any]:
    out: dict[str, Any] = {
        "workload": name,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "checks": outcome.checks,
        "digest": res["digest"],
    }
    if res["walls"]:
        out["metrics"], out["notes"] = _e2e(
            res["walls"], res["calls"], cells, calls_per_unit, res["rss"]
        )
    out["unit_walls"] = res["walls"]
    for key in ("layers", "fired", "span_tree", "cell_digests"):
        if key in res:
            out[key] = res[key]
    return out


# ----------------------------------------------------------------------
# serve-mix: a closed loop against `repro serve`
# ----------------------------------------------------------------------
def _encode(body: dict) -> tuple[str, bytes]:
    key = json.dumps(body, sort_keys=True)
    return key, key.encode()


def expected_body(body: dict) -> bytes:
    """The bytes the service must answer, computed in this process."""
    from repro.service.app import ServiceConfig
    from repro.service.routes import parse_balance_request
    from repro.service.workers import execute_balance, execute_balance_many

    spec, _ = parse_balance_request(body, ServiceConfig())
    if "candidates" in spec:
        reports, _ = execute_balance_many(spec)
        payload: Any = {
            "count": len(reports), "results": [r.to_json() for r in reports]
        }
    else:
        payload = execute_balance(spec)[0].to_json()
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()


def summarize_replies(
    replies: list[serve.Reply], wall: float, cells: dict[str, int], window: int
) -> tuple[dict[str, float], list[str], int]:
    """End-to-end serve metrics over successful replies, plus the count
    of failed ones (non-2xx, 429 included, or transport errors)."""
    ok = [r for r in replies if r.ok]
    lat = [(r.end - r.start) * 1000.0 for r in ok]
    p50, p99, beyond = _quantiles(lat)
    ends = sorted(r.end for r in ok)
    start = min((r.start for r in replies), default=0.0)
    marks = [start] + ends[window - 1 :: window]
    spans_ = [b - a for a, b in zip(marks, marks[1:])]
    metrics = {
        "cells_per_s": sum(cells[r.key] for r in ok) / wall,
        "run_s": statistics.median(spans_) if spans_ else wall,
        "latency_p50_ms": p50,
        "latency_p99_ms": p99,
        "throughput_rps": len(ok) / wall,
    }
    notes = [
        f"{len(replies)} requests in {wall:.1f} s, {len(replies) - len(ok)} failed",
        f"latency over {len(ok)} successful requests; {beyond} beyond p99",
        f"run_s is the median time per {window} successful replies "
        f"({len(spans_)} windows)",
    ]
    return metrics, notes, len(replies) - len(ok)


def serve_mix(seed: int, seconds: float, trace: bool, params: dict,
              workdir: Path) -> dict[str, Any]:
    outcome = Outcome()
    hot = serve_hot_set(seed, params)
    hot_enc = [_encode(b) for b in hot]
    bodies = {key: body for (key, _), body in zip(hot_enc, hot)}
    cells = {key: _cells_in(body) for key, body in bodies.items()}
    callers = max(1, min(params["callers"], os.cpu_count() or 1))
    rngs = [random.Random(f"serve-mix:{seed}:caller{i}") for i in range(callers)]
    # every ``period``-th request of a caller is a never-seen cell, from
    # a seeded phase; they visit the apps round-robin from a seeded offset
    period = max(1, round(1.0 / params["miss_share"]))
    phase = [rng.randrange(period) for rng in rngs]
    apps = params["apps"]
    next_app = [rng.randrange(len(apps)) for rng in rngs]
    reference: dict[str, bytes] = {}
    mismatched: list[str] = []
    lock = threading.Lock()
    tracer = spans.Tracer() if trace else None

    def next_body(caller: int, seq: int) -> tuple[str, bytes]:
        rng = rngs[caller]
        if seq % period == phase[caller]:
            body = serve_miss_body(rng, apps[next_app[caller] % len(apps)])
            next_app[caller] += 1
            key, data = _encode(body)
            with lock:
                bodies[key] = body
                cells[key] = 1
            return key, data
        return rng.choice(hot_enc)

    def on_reply(reply: serve.Reply) -> None:
        if reply.ok:
            with lock:
                ref = reference.setdefault(reply.key, reply.body)
                if ref != reply.body:
                    mismatched.append(reply.key)
        reply.body = b""

    cache_dir = workdir / "serve-cache"
    server = serve.Server(str(ROOT), str(cache_dir), str(workdir / "serve.log"))
    setups: list[float] = []
    # client, server and worker share one CPU (the server inherits it):
    # a request then passes the CPU from process to process, instead of
    # waking an idle vCPU each time, and host steal lands on those
    # wake-ups (on a 2-vCPU guest, unpinned runs with 10-20% steal had
    # a 30-100% higher p50)
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(allowed)})
    try:
        for i in range(params["launches"]):
            if i:
                server.stop()
            setups.append(server.start())
        # untimed warm-up: every hot body once, in order (all misses)
        conn = serve.Connection(server.port)
        try:
            for key, data in hot_enc:
                reply = conn.send(key, data)
                outcome.attempted += 1
                if reply.ok:
                    reference[key] = reply.body
                else:
                    outcome.failed += 1
        finally:
            conn.close()
        before = server.metrics()
        replies, wall = serve.closed_loop(
            server.port, next_body, callers, seconds, on_reply
        )
        after = server.metrics()
        rss = server.peak_rss_mib()
    finally:
        server.stop()
        os.sched_setaffinity(0, allowed)

    metrics, notes, failed = summarize_replies(
        replies, wall, cells, params["window"]
    )
    outcome.attempted += len(replies)
    outcome.failed += failed
    outcome.check(
        "repeated bodies answered byte-identically",
        not mismatched, f"({len(mismatched)} mismatches)",
    )
    # client-side recomputation of a seeded sample (outside the clock)
    # one hot body of each kind, then hot and never-seen bodies alike
    rng = random.Random(f"serve-check:{seed}")
    kinds: dict[str, list[str]] = {}
    for key in sorted(reference):
        kinds.setdefault(_kind(bodies[key]), []).append(key)
    picks = [rng.choice(kinds[k]) for k in sorted(kinds)]
    rest = sorted(set(reference) - set(picks))
    picks += rng.sample(rest, max(0, min(params["checks"] - len(picks), len(rest))))

    def check_body(key: str) -> None:
        outcome.check(
            f"service body == execute_balance for {bodies[key]['app']} "
            f"{_kind(bodies[key])}",
            expected_body(bodies[key]) == reference[key],
        )

    for key in picks:
        outcome.guarded(check_body, key)

    metrics["peak_rss_mib"] = rss
    out: dict[str, Any] = {
        "workload": "serve-mix",
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "checks": outcome.checks,
        "setup_s": setups,
        "metrics": metrics,
        "notes": notes,
    }
    if tracer is not None:
        out["layers"] = _serve_layers(replies, before, after, tracer)
        out["fired"] = sorted(tracer.span_counts())
    return out


def _serve_layers(replies: list[serve.Reply], before: dict, after: dict,
                  tracer: spans.Tracer) -> dict[str, float]:
    """Client-side split by X-Cache plus /metrics deltas over the loop."""
    ok = [r for r in replies if r.ok]
    for r in ok:
        tracer.add_span("service.request", r.start, r.end)

    def p50(state: str) -> float:
        lat = [(r.end - r.start) * 1000.0 for r in ok if r.cache == state]
        return statistics.median(lat) if lat else 0.0

    def delta(name: str) -> float:
        return after.get(name, 0.0) - before.get(name, 0.0)

    count = delta("repro_service_request_seconds_count")
    layers = _layer_metrics(spans.Tracer(), 1, 0.0)
    layers.update({
        "service.hit_p50_ms": p50("hit"),
        "service.miss_p50_ms": p50("miss"),
        "service.hit_ratio": (
            sum(1 for r in ok if r.cache == "hit") / len(ok) if ok else 0.0
        ),
        "service.server_mean_ms": (
            1000.0 * delta("repro_service_request_seconds_sum") / count
            if count else 0.0
        ),
        "service.coalesced": delta("repro_service_coalesced_total"),
        "service.rejected": delta("repro_service_queue_rejected_total"),
        "service.worker_des_s": delta("repro_engine_des_seconds_total"),
        "service.worker_compiled_s": delta("repro_engine_compiled_seconds_total"),
    })
    # the spans are the client timings every run takes, recorded after
    # the loop: nothing is instrumented while it runs
    layers["harness.trace_overhead_pct"] = 0.0
    return layers


RUNNERS = {
    "table3-sweep": table3_sweep,
    "bigworld-mmap": bigworld_mmap,
    "serve-mix": serve_mix,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", nargs="?", choices=WORKLOADS)
    parser.add_argument("--probe", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--launched", type=float, required=True)
    parser.add_argument("--workdir", default=None)
    args = parser.parse_args(argv)
    # a terminated run still unwinds, so a started server gets stopped
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))

    # the first call into repro ends the set-up interval
    Runner(RunnerConfig())
    setup = time.monotonic() - args.launched
    if args.probe:
        print(json.dumps({"setup_s": [setup]}))
        return 0
    if args.workload is None:
        parser.error("a workload or --probe is required")
    workdir = Path(args.workdir or ROOT / ".perfbench" / "tmp")
    workdir.mkdir(parents=True, exist_ok=True)
    result = RUNNERS[args.workload](
        args.seed, args.seconds, bool(args.trace),
        PARAMS[args.workload], workdir,
    )
    if args.workload != "serve-mix":
        result["setup_s"] = [setup]
    result["params"] = PARAMS[args.workload]
    result["numpy"] = numpy.__version__
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
