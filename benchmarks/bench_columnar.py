"""Columnar trace storage at scale: generate → compile → price.

The scaling claim of the columnar path is that a large world never
exists as per-record Python objects: skeletons emit straight into
pooled numpy columns, the compiled engine lowers the columns to its
instruction tape, and ``evaluate_many`` prices a candidate grid in one
vectorised pass.  This benchmark walks a ``RANKS`` × ``CANDIDATES``
grid of BT-MZ worlds through all three stages, records wall time per
stage plus the process peak RSS, and asserts the ceilings recorded in
``benchmarks/baselines/scale.json``.

At the smallest size the columnar makespans are asserted bit-identical
to the record-path makespans — the correctness contract that lets the
bigger sizes skip the record path entirely (at the top of the grid the
per-record objects would dominate memory, which is the point).

Runs standalone in CI smoke mode (``--benchmark-disable``) via the
``_timed`` wall-clock ledger, like ``bench_replay.py``.
"""

from __future__ import annotations

import json
import os
import pathlib
import resource
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.apps import build_app
from repro.core.timemodel import BetaTimeModel
from repro.netsim.compiled import (
    CompiledReplayEngine,
    compile_columnar_world,
    compile_world,
)
from repro.netsim.platform import MYRINET_LIKE

FAMILY = "BT-MZ"
RANKS = (256, 1024, 4096)
CANDIDATES = 8
ITERATIONS = 2

BASELINE = json.loads(
    (pathlib.Path(__file__).parent / "baselines" / "scale.json").read_text()
)

#: Cross-test wall-clock ledger (tests run in file order).
_TIMINGS: dict[str, float] = {}

_WORLDS: dict[int, object] = {}


def _peak_rss_gb() -> float:
    """Process high-water-mark RSS in GiB (ru_maxrss is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024**2


def _timed(label: str, fn):
    """Run ``fn`` once, recording wall time (works with
    ``--benchmark-disable``, where ``benchmark.stats`` is unset)."""
    start = time.perf_counter()
    out = fn()
    elapsed = time.perf_counter() - start
    _TIMINGS[label] = min(_TIMINGS.get(label, elapsed), elapsed)
    return out


def _candidates(nproc: int) -> np.ndarray:
    rng = np.random.default_rng(2009 + nproc)
    return rng.uniform(0.8, 2.3, size=(CANDIDATES, nproc))


@pytest.mark.parametrize("nproc", RANKS)
def test_columnar_pipeline(benchmark, nproc):
    """One grid point: emit columns, compile, price ``CANDIDATES``."""
    engine = CompiledReplayEngine(MYRINET_LIKE, BetaTimeModel(fmax=2.3))

    def pipeline():
        app = build_app(f"{FAMILY}-{nproc}", iterations=ITERATIONS)
        trace = _timed(
            f"generate/{nproc}", lambda: app.columnar_trace()
        )
        program = _timed(
            f"compile/{nproc}", lambda: engine.compile_trace(trace)
        )
        makespans = _timed(
            f"evaluate/{nproc}",
            lambda: program.evaluate_many(_candidates(nproc))[
                "execution_time"
            ],
        )
        return trace, makespans

    trace, makespans = benchmark.pedantic(pipeline, rounds=1, iterations=1)
    assert makespans.shape == (CANDIDATES,)
    assert np.all(np.isfinite(makespans)) and np.all(makespans > 0)
    _WORLDS[nproc] = (trace, makespans)

    budget = BASELINE["acceptance"]["stage_seconds_max"][str(nproc)]
    for stage, ceiling in budget.items():
        spent = _TIMINGS[f"{stage}/{nproc}"]
        benchmark.extra_info[stage] = round(spent, 3)
        assert spent <= ceiling, (
            f"{stage} at {nproc} ranks took {spent:.2f}s "
            f"(ceiling {ceiling}s in baselines/scale.json)"
        )
    benchmark.extra_info["events"] = trace.total_records()
    benchmark.extra_info["column_mb"] = round(trace.nbytes() / 1024**2, 1)


def test_columnar_matches_record_path():
    """Smallest grid point: columnar ≡ record path, bit for bit."""
    nproc = RANKS[0]
    if nproc not in _WORLDS:  # standalone invocation of just this test
        app = build_app(f"{FAMILY}-{nproc}", iterations=ITERATIONS)
        trace = app.columnar_trace()
        engine = CompiledReplayEngine(MYRINET_LIKE, BetaTimeModel(fmax=2.3))
        makespans = engine.compile_trace(trace).evaluate_many(
            _candidates(nproc)
        )["execution_time"]
        _WORLDS[nproc] = (trace, makespans)
    trace, makespans = _WORLDS[nproc]

    app = build_app(f"{FAMILY}-{nproc}", iterations=ITERATIONS)
    programs = [list(p) for p in app.programs()]
    record_makespans = compile_world(
        programs, MYRINET_LIKE, BetaTimeModel(fmax=2.3)
    ).evaluate_many(_candidates(nproc))["execution_time"]
    assert np.array_equal(makespans, record_makespans), (
        "columnar pipeline diverged from the record path"
    )
    assert [view.records for view in trace] == programs


def test_memory_ceiling():
    """Whole-grid peak RSS stays under the recorded ceiling."""
    assert _WORLDS, "run the grid tests first (file order)"
    peak = _peak_rss_gb()
    ceiling = BASELINE["acceptance"]["peak_rss_gb_max"]
    assert peak <= ceiling, (
        f"peak RSS {peak:.2f} GiB exceeds the {ceiling} GiB ceiling "
        "in baselines/scale.json"
    )
    largest = max(_WORLDS)
    trace, _ = _WORLDS[largest]
    per_event = trace.nbytes() / trace.total_records()
    assert per_event <= BASELINE["acceptance"]["bytes_per_event_max"], (
        f"columns cost {per_event:.1f} B/event at {largest} ranks"
    )


# --------------------------------------------------------------------------
# Batch kernel: same-process ratio gates at the top of the grid
# --------------------------------------------------------------------------
#
# ``evaluate_many`` runs each dependency level of the tape as one numpy
# op, so a K-row grid must cost far less than K scalar replays even when
# the first call pays for the level schedule, and the bounded chunked
# sweep (one row per pass) must not pay a whole tape walk per row.  On
# a tape this wide ``evaluate`` runs the same pass with one lane, so the
# scalar side of these gates is the private walk (``_walk``).
# Both sides of each ratio run in this process, so a gate compares like
# with like on any host.

#: 8 scalar walks over (schedule build + one evaluate_many)
SCHEDULED_VS_SCALAR_MIN = 2.5
#: ``evaluate_assignments(chunk_size=1)`` over one ``evaluate_many``
CHUNKED_VS_ONE_PASS_MAX = 1.5


def _wall(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def test_batch_kernel_ratio_gates():
    """At 4096 ranks: the scheduled batch pass beats the scalar loop,
    and the one-row chunked sweep stays near the one-pass sweep."""
    nproc = RANKS[-1]
    if nproc in _WORLDS:
        trace = _WORLDS[nproc][0]
    else:  # standalone invocation of just this test
        app = build_app(f"{FAMILY}-{nproc}", iterations=ITERATIONS)
        trace = app.columnar_trace()
    model = BetaTimeModel(fmax=2.3)
    grid = _candidates(nproc)

    first_pass = scalar = float("inf")
    for _ in range(3):
        # a fresh program: its first evaluate_many builds the schedule
        program = compile_columnar_world(trace, MYRINET_LIKE, model)
        first_pass = min(
            first_pass, _wall(lambda: program.evaluate_many(grid))
        )
        scalar = min(
            scalar, _wall(lambda: [program._walk(row) for row in grid])
        )
    engine = CompiledReplayEngine(MYRINET_LIKE, model)
    program = engine.compile_trace(trace)
    program.evaluate_many(grid)  # the schedule exists from here on
    # paired samples, each side timed right after the other; the median
    # pair ratio shrugs off a stall that hits one side of one pair
    pairs = []
    for _ in range(9):
        one = _wall(lambda: program.evaluate_many(grid))
        pairs.append((one, _wall(
            lambda: engine.evaluate_assignments(trace, grid, chunk_size=1)
        )))
    one_pass = min(one for one, _ in pairs)
    chunked = min(chunk for _, chunk in pairs)
    speedup = scalar / first_pass
    chunk_ratio = float(np.median([chunk / one for one, chunk in pairs]))
    _REPORT["batch_kernel"] = {
        "ranks": nproc,
        "rows": int(grid.shape[0]),
        "scalar_s": round(scalar, 4),
        "first_evaluate_many_s": round(first_pass, 4),
        "evaluate_many_s": round(one_pass, 4),
        "chunked_s": round(chunked, 4),
        "scheduled_vs_scalar": round(speedup, 2),
        "chunked_vs_one_pass": round(chunk_ratio, 2),
    }
    assert speedup >= SCHEDULED_VS_SCALAR_MIN, (
        f"schedule + evaluate_many took {first_pass * 1e3:.0f} ms, only "
        f"{speedup:.2f}x faster than {grid.shape[0]} scalar walks "
        f"({scalar * 1e3:.0f} ms; gate {SCHEDULED_VS_SCALAR_MIN}x)"
    )
    assert chunk_ratio <= CHUNKED_VS_ONE_PASS_MAX, (
        f"evaluate_assignments(chunk_size=1) took {chunked * 1e3:.1f} ms, "
        f"{chunk_ratio:.2f}x one evaluate_many ({one_pass * 1e3:.1f} ms; "
        f"gate {CHUNKED_VS_ONE_PASS_MAX}x)"
    )


#: ``compile_columnar_world`` over one scalar walk of the program it
#: returns (paired median): compile runs in numpy rounds, one per
#: dependency level, so it costs about one replay; a compile that walks
#: the events one at a time costs ~10 replays and fails this gate
COMPILE_VS_EVALUATE_MAX = 3.0


def test_compile_vs_evaluate_ratio_gate():
    """At 4096 ranks: compiling a world costs at most a few scalar
    replays of it."""
    nproc = RANKS[-1]
    if nproc in _WORLDS:
        trace = _WORLDS[nproc][0]
    else:  # standalone invocation of just this test
        app = build_app(f"{FAMILY}-{nproc}", iterations=ITERATIONS)
        trace = app.columnar_trace()
    model = BetaTimeModel(fmax=2.3)
    freqs = _candidates(nproc)[0]
    pairs = []
    for _ in range(9):
        start = time.perf_counter()
        program = compile_columnar_world(trace, MYRINET_LIKE, model)
        compiled = time.perf_counter() - start
        pairs.append((compiled, _wall(lambda: program._walk(freqs))))
    ratio = float(np.median([c / e for c, e in pairs]))
    _REPORT["compile_vs_evaluate"] = {
        "ranks": nproc,
        "instructions": program.n_instructions,
        "compile_s": round(min(c for c, _ in pairs), 4),
        "evaluate_s": round(min(e for _, e in pairs), 4),
        "ratio": round(ratio, 2),
    }
    assert ratio <= COMPILE_VS_EVALUATE_MAX, (
        f"compile took {ratio:.2f}x one scalar walk of its program "
        f"(median of {len(pairs)} pairs; gate {COMPILE_VS_EVALUATE_MAX}x)"
    )



#: one nominal ``evaluate`` of a fresh program, its level schedule built
#: on the way, over one scalar walk of the same tape (paired median): at
#: ~4,000 instructions per level the one-lane level pass must beat the
#: walk by far more than the schedule costs; an ``evaluate`` that walks
#: wide tapes reads ~1.0 and fails this gate
ONE_ROW_VS_WALK_MAX = 0.5


def test_one_row_evaluate_vs_walk_gate():
    """At 4096 ranks: one ``evaluate`` through the level pass, schedule
    build included, costs at most half a scalar walk of the tape."""
    nproc = RANKS[-1]
    if nproc in _WORLDS:
        trace = _WORLDS[nproc][0]
    else:  # standalone invocation of just this test
        app = build_app(f"{FAMILY}-{nproc}", iterations=ITERATIONS)
        trace = app.columnar_trace()
    model = BetaTimeModel(fmax=2.3)
    pairs = []
    for _ in range(9):
        program = compile_columnar_world(trace, MYRINET_LIKE, model)
        one = _wall(lambda: program.evaluate())
        pairs.append((one, _wall(lambda: program._walk(None))))
    ratio = float(np.median([one / walk for one, walk in pairs]))
    _REPORT["one_row_vs_walk"] = {
        "ranks": nproc,
        "evaluate_s": round(min(one for one, _ in pairs), 4),
        "walk_s": round(min(walk for _, walk in pairs), 4),
        "ratio": round(ratio, 2),
    }
    assert ratio <= ONE_ROW_VS_WALK_MAX, (
        f"one nominal evaluate of a fresh program took {ratio:.2f}x a "
        f"scalar walk of its tape (median of {len(pairs)} pairs; gate "
        f"{ONE_ROW_VS_WALK_MAX}x)"
    )

# --------------------------------------------------------------------------
# Out-of-core: the 100k-rank world that must NOT fit comfortably in RAM
# --------------------------------------------------------------------------
#
# Two pipelines price the same 102 400-rank world, each in its own
# subprocess so ``ru_maxrss`` isolates its true high-water mark:
#
#   memory — emit columns in-process, compile, one-pass sweep (the
#            status-quo columnar path)
#   mmap   — generate shard-parallel straight to a binary store, reopen
#            memory-mapped, compile zero-copy, price via the bounded
#            chunked sweep (``evaluate_assignments(chunk_size=1)``)
#
# The contract: bit-identical makespans, at a fraction of the RSS.
# Generation workers are child processes, so RUSAGE_SELF charges the
# mmap pipeline only for what the *consumer* keeps resident.

OOC = BASELINE["world"]["out_of_core"]
MIN_CORES = 4

perf_gated = pytest.mark.skipif(
    (os.cpu_count() or 1) < MIN_CORES,
    reason=f"shard-scaling gate needs >= {MIN_CORES} cores",
)

#: Gathered results for the CI artifact (``REPRO_BENCH_REPORT``).
_REPORT: dict[str, object] = {}

_OOC_PIPELINE = '''\
"""Worker: one full pipeline, printed as JSON (run in a subprocess so
ru_maxrss reflects this pipeline alone)."""
import json, os, resource, sys, tempfile, time

import numpy as np

from repro.apps import build_app
from repro.core.timemodel import BetaTimeModel
from repro.netsim.compiled import CompiledReplayEngine
from repro.netsim.platform import MYRINET_LIKE


def main() -> None:
    mode = sys.argv[1]
    nproc, iters, cands, jobs = (int(a) for a in sys.argv[2:6])
    t0 = time.perf_counter()
    app = build_app(f"BT-MZ-{nproc}", iterations=iters)
    if mode == "memory":
        trace = app.columnar_trace()
    else:
        store = os.path.join(tempfile.mkdtemp(prefix="ooc-"), "world.rpcs")
        trace = app.columnar_trace(jobs=jobs, out=store)
    t1 = time.perf_counter()
    engine = CompiledReplayEngine(MYRINET_LIKE, BetaTimeModel(fmax=2.3))
    program = engine.compile_trace(trace)
    t2 = time.perf_counter()
    rng = np.random.default_rng(2009 + nproc)
    grid = rng.uniform(0.8, 2.3, size=(cands, nproc))
    if mode == "memory":
        makespans = program.evaluate_many(grid)["execution_time"]
    else:
        # the out-of-core serving configuration: chunk_size=1 bounds
        # the sweep's per-candidate state and burst temporaries, and is
        # bit-identical to the one-pass sweep by construction
        makespans = engine.evaluate_assignments(
            trace, grid, chunk_size=1
        )["execution_time"]
    t3 = time.perf_counter()
    print(json.dumps({
        "mode": mode,
        "n_events": trace.n_events,
        "generate_s": round(t1 - t0, 2),
        "compile_s": round(t2 - t1, 2),
        "evaluate_s": round(t3 - t2, 2),
        "rss_gb": round(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024**2, 3
        ),
        "makespans": [float(x).hex() for x in makespans],
    }))


if __name__ == "__main__":
    main()
'''


def _run_pipeline(tmp_path: pathlib.Path, mode: str) -> dict:
    """Run one pipeline subprocess and parse its JSON report.

    The worker must be a real file (not ``-c``/stdin): the shard pool
    uses the ``spawn`` start method, which re-imports ``__main__`` by
    path in every worker.
    """
    script = tmp_path / "ooc_pipeline.py"
    script.write_text(_OOC_PIPELINE)
    argv = [
        sys.executable,
        str(script),
        mode,
        str(OOC["ranks"]),
        str(OOC["iterations"]),
        str(OOC["candidates"]),
        str(OOC["jobs"]),
    ]
    proc = subprocess.run(
        argv, capture_output=True, text=True, timeout=1800
    )
    assert proc.returncode == 0, (
        f"{mode} pipeline failed:\n{proc.stdout}\n{proc.stderr}"
    )
    return json.loads(proc.stdout.splitlines()[-1])


def test_out_of_core_identity_and_rss(tmp_path):
    """102 400 ranks: mmap pipeline prices bit-identically to the
    in-memory pipeline at a fraction of its RSS."""
    memory = _run_pipeline(tmp_path, "memory")
    mapped = _run_pipeline(tmp_path, "mmap")
    _REPORT["out_of_core"] = {"memory": memory, "mmap": mapped}

    assert memory["n_events"] == mapped["n_events"] == OOC["events"]
    assert mapped["makespans"] == memory["makespans"], (
        "mmap pipeline diverged bit-wise from the in-memory pipeline"
    )

    gates = BASELINE["acceptance"]["out_of_core"]
    ratio = mapped["rss_gb"] / memory["rss_gb"]
    assert ratio <= gates["rss_ratio_max"], (
        f"mmap pipeline RSS {mapped['rss_gb']:.2f} GiB is "
        f"{ratio:.2f}x the in-memory {memory['rss_gb']:.2f} GiB "
        f"(gate {gates['rss_ratio_max']}x)"
    )
    assert mapped["rss_gb"] <= gates["rss_gb_max"], (
        f"mmap pipeline RSS {mapped['rss_gb']:.2f} GiB exceeds the "
        f"{gates['rss_gb_max']} GiB absolute ceiling"
    )
    budget = gates["stage_seconds_max"]
    for stage in ("generate_s", "compile_s", "evaluate_s"):
        ceiling = budget[stage.removesuffix("_s")]
        assert mapped[stage] <= ceiling, (
            f"out-of-core {stage} took {mapped[stage]:.1f}s "
            f"(ceiling {ceiling}s in baselines/scale.json)"
        )


def test_balance_report_identity_from_store(tmp_path):
    """`BalanceReport.to_json()` is byte-identical whether the trace is
    priced from in-memory columns or from a memory-mapped store (the
    grid's top size; the 102k case above pins the makespans)."""
    from repro.core.balancer import PowerAwareLoadBalancer
    from repro.core.gears import uniform_gear_set
    from repro.traces.columnar import ColumnarTrace

    nproc = RANKS[-1]
    trace = build_app(f"{FAMILY}-{nproc}", iterations=ITERATIONS)\
        .columnar_trace()
    store = tmp_path / "grid.rpcs"
    trace.save(store)
    mapped = ColumnarTrace.open(store, mmap=True)
    try:
        balancer = PowerAwareLoadBalancer(gear_set=uniform_gear_set(6))
        r_mem = balancer.balance_trace(trace).to_json()
        r_map = balancer.balance_trace(mapped).to_json()
        assert json.dumps(r_mem, sort_keys=True) == json.dumps(
            r_map, sort_keys=True
        ), "balance report diverged between mapped and in-memory columns"
    finally:
        mapped.detach_mapping()


@perf_gated
def test_shard_parallel_generation_scales(tmp_path):
    """Sharded generation beats sequential by the recorded factor on a
    multi-core host (generation itself, store-to-store both ways)."""
    nproc, iters = OOC["ranks"], OOC["iterations"]
    app = build_app(f"BT-MZ-{nproc}", iterations=iters)
    t0 = time.perf_counter()
    seq = app.columnar_trace(jobs=1, out=str(tmp_path / "seq.rpcs"))
    t_seq = time.perf_counter() - t0
    seq.detach_mapping()

    t0 = time.perf_counter()
    par = app.columnar_trace(
        jobs=OOC["jobs"], out=str(tmp_path / "par.rpcs")
    )
    t_par = time.perf_counter() - t0
    par.detach_mapping()

    speedup = t_seq / t_par
    _REPORT["shard_scaling"] = {
        "jobs": OOC["jobs"],
        "sequential_s": round(t_seq, 2),
        "parallel_s": round(t_par, 2),
        "speedup": round(speedup, 2),
    }
    floor = BASELINE["acceptance"]["out_of_core"]["shard_scaling_min"]
    assert speedup >= floor, (
        f"jobs={OOC['jobs']} generation sped up only {speedup:.2f}x "
        f"over jobs=1 (floor {floor}x in baselines/scale.json)"
    )


_LOADS_PROBE = '''\
"""Worker: peak-RSS delta of loads_trace over a pre-read document."""
import json, resource, sys

from repro.traces.jsonio import loads_trace


def _peak_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> None:
    text = open(sys.argv[1], encoding="utf-8").read()
    before = _peak_kb()
    trace = loads_trace(text)
    delta = _peak_kb() - before
    print(json.dumps({
        "text_mb": round(len(text) / 1024**2, 2),
        "delta_mb": round(delta / 1024, 2),
        "n_events": trace.n_events,
    }))


if __name__ == "__main__":
    main()
'''


def test_loads_trace_streams(tmp_path):
    """``loads_trace`` builds columns straight from the document: its
    peak-RSS delta stays below the document size (the old path buffered
    a full second copy through ``StringIO``)."""
    from repro.traces.jsonio import write_trace

    app = build_app("BT-MZ-8192", iterations=2)
    doc = tmp_path / "world.jsonl"
    write_trace(app.columnar_trace(), str(doc))

    script = tmp_path / "loads_probe.py"
    script.write_text(_LOADS_PROBE)
    proc = subprocess.run(
        [sys.executable, str(script), str(doc)],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    _REPORT["loads_trace"] = out

    assert out["n_events"] == 8192 * 20 * 2  # 20 events/rank/iteration
    ceiling = BASELINE["acceptance"]["out_of_core"]["loads_overhead_max"]
    assert out["delta_mb"] <= ceiling * out["text_mb"], (
        f"loads_trace peaked {out['delta_mb']:.1f} MiB over the "
        f"{out['text_mb']:.1f} MiB document (gate {ceiling}x) — "
        "is it buffering a second copy of the text?"
    )


def test_emit_bench_report():
    """Persist the gathered numbers for the CI artifact when asked."""
    path = os.environ.get("REPRO_BENCH_REPORT")
    report = {
        "baseline": "benchmarks/baselines/scale.json",
        "timings_s": {k: round(v, 3) for k, v in sorted(_TIMINGS.items())},
        **_REPORT,
    }
    if path:
        pathlib.Path(path).write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n"
        )
        assert pathlib.Path(path).exists()
