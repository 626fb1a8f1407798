"""Batched balance planner vs the scalar sweep on a placement grid.

The perf claim of :class:`repro.core.batchbalance.BatchBalancePlanner`
is *sharing*: one baseline replay, one stacked frequency matrix, one
chunked vectorised pricing pass and one vectorised energy integration
for K sweep cells, where the scalar path pays K full
``balance_trace`` calls.  This benchmark prices a gearopt-shaped
sweep (``K`` uniform 6-gear sets on a fine ``fmin`` placement grid)
against one recorded BT-MZ-32 trace two ways:

* ``scalar_loop`` — one ``PowerAwareLoadBalancer.balance_trace`` per
  candidate on the *compiled* engine (the fastest pre-planner sweep,
  with the memoised baseline already credited to it);
* ``batched``     — one ``BatchBalancePlanner.plan_trace`` call.

Both sides re-record their per-trace caches each round (compile cost
included on both), produce byte-identical ``to_json()`` payloads
(asserted), and the batched pass must be ≥ 5× faster — the acceptance
criterion recorded in ``benchmarks/baselines/sweep.json``.  Runs
standalone in CI smoke mode (``--benchmark-disable``) via the
``_timed`` wall-clock ledger.

A same-process ratio gate covers the planner's assignment step: the
array-native ``assign`` against the per-rank oracle in
``tests/assign_oracle.py`` on the nominal compute times of the 12
Table-3 worlds × a seeded MAX/AVG/capped cell mix.  Outputs must agree
exactly, and ``assign`` must be ≥ 2.5× faster as the median of 9
back-to-back pairs.
"""

from __future__ import annotations

import json
import random
import time

import numpy as np

from repro.apps import build_app
from repro.apps.registry import TABLE3_INSTANCES
from repro.core.algorithms import AvgAlgorithm, MaxAlgorithm
from repro.core.balancer import PowerAwareLoadBalancer
from repro.core.batchbalance import BatchBalancePlanner, SweepCandidate
from repro.core.gears import exponential_gear_set, uniform_gear_set
from repro.core.power import CpuPowerModel, CpuState
from repro.core.powercap import PowerCapAlgorithm
from repro.core.timemodel import BetaTimeModel
from repro.netsim.platform import MYRINET_LIKE
from repro.netsim.simulator import MpiSimulator
from repro.traces.analysis import compute_times
from tests.assign_oracle import matches, oracle_assign

APP = "BT-MZ-32"
ITERATIONS = 4
K = 250  # sweep cells (acceptance floor is 50)

#: Cross-test wall-clock ledger (tests run in file order).
_TIMINGS: dict[str, float] = {}

_WORLD: dict[str, object] = {}


def _world():
    """(trace, candidate list) for the sweep, built once per session."""
    if not _WORLD:
        app = build_app(APP, iterations=ITERATIONS)
        sim = MpiSimulator(MYRINET_LIKE, BetaTimeModel(fmax=2.3))
        _WORLD["trace"] = sim.run(
            app.programs(), record_trace=True, meta={"name": APP}
        ).trace
        _WORLD["candidates"] = [
            SweepCandidate(uniform_gear_set(6, fmin=float(f)))
            for f in np.linspace(0.8, 1.6, K)
        ]
    return _WORLD["trace"], _WORLD["candidates"]


def _fresh(trace):
    """A cache-free copy, so per-trace memos never hide shared costs."""
    return type(trace).from_streams(
        (s.records for s in trace), meta=trace.meta
    )


def _payloads(reports):
    return [json.dumps(r.to_json(), sort_keys=True) for r in reports]


def _timed(label: str, fn):
    """Run ``fn`` once, recording wall time (works with
    ``--benchmark-disable``, where ``benchmark.stats`` is unset)."""
    start = time.perf_counter()
    out = fn()
    elapsed = time.perf_counter() - start
    _TIMINGS[label] = min(_TIMINGS.get(label, elapsed), elapsed)
    return out


def test_scalar_balance_sweep(benchmark):
    """The pre-planner sweep: one balance_trace call per candidate."""
    trace, candidates = _world()

    def sweep():
        fresh = _fresh(trace)
        return [
            PowerAwareLoadBalancer(
                gear_set=c.gear_set, engine="compiled"
            ).balance_trace(fresh)
            for c in candidates
        ]

    reports = benchmark.pedantic(
        lambda: _timed("scalar_loop", sweep), rounds=1, iterations=1
    )
    assert len(reports) == K
    _WORLD["scalar_payloads"] = _payloads(reports)


def test_batched_planner_sweep(benchmark):
    """One plan_trace call prices the whole grid."""
    trace, candidates = _world()

    def sweep():
        return BatchBalancePlanner(engine="compiled").plan_trace(
            _fresh(trace), candidates
        )

    reports = benchmark.pedantic(
        lambda: _timed("batched", sweep), rounds=3, iterations=1
    )
    assert len(reports) == K

    scalar_payloads = _WORLD.get("scalar_payloads")
    if scalar_payloads is not None:  # full-file run: identity + speedup
        assert _payloads(reports) == scalar_payloads, (
            "batched sweep reports diverged from the scalar path"
        )
        scalar, batched = _TIMINGS["scalar_loop"], _TIMINGS["batched"]
        benchmark.extra_info["sweep_candidates"] = K
        benchmark.extra_info["speedup_vs_scalar"] = round(
            scalar / batched, 1
        )
        assert batched * 5.0 <= scalar, (
            f"batched sweep ({batched * 1e3:.1f} ms) is not 5x faster "
            f"than the scalar loop ({scalar * 1e3:.1f} ms) over {K} "
            "candidates"
        )


# --------------------------------------------------------------------------
# array-native assign vs the per-rank oracle
# --------------------------------------------------------------------------
#: Minimum paired-median speedup of ``assign`` over the per-rank oracle.
ASSIGN_VS_ORACLE_MIN = 2.5
#: Cells per Table-3 world, in MAX : AVG : capped = 3 : 3 : 2.
CELLS_PER_WORLD = 24


def _assign_cells():
    """(algorithm, nominal compute times, gear set) per cell, seeded."""
    rng = random.Random("bench-sweep-assign")
    power = CpuPowerModel()
    kinds = ("max", "avg", "cap", "max", "avg", "cap", "max", "avg")
    cells = []
    for app in TABLE3_INSTANCES:
        times = compute_times(build_app(app).columnar_trace())
        for i in range(CELLS_PER_WORLD):
            family = rng.choice((uniform_gear_set, exponential_gear_set))
            gear_set = family(
                rng.randint(3, 12), fmin=round(rng.uniform(0.8, 1.6), 3)
            )
            kind = kinds[i % len(kinds)]
            if kind == "max":
                algorithm = MaxAlgorithm()
            elif kind == "avg":
                algorithm = AvgAlgorithm()
            else:  # a budget inside the feasible band
                p = [power.power(g, CpuState.COMPUTE) for g in gear_set.gears]
                lo, hi = len(times) * min(p), len(times) * max(p)
                algorithm = PowerCapAlgorithm(
                    lo + rng.uniform(0.05, 1.0) * (hi - lo)
                )
            cells.append((algorithm, times, gear_set))
    return cells


def _wall(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def test_assign_vs_per_rank_oracle_ratio_gate():
    """Identical assignments, and the array rule ≥ 2.5× the per-rank one."""
    cells = _assign_cells()
    model = BetaTimeModel(fmax=2.3)

    def vectorised():
        return [alg.assign(t, gs, model) for alg, t, gs in cells]

    def per_rank():
        return [oracle_assign(alg, t, gs, model) for alg, t, gs in cells]

    got, want = vectorised(), per_rank()
    bad = [
        f"{alg.name}/{gs.name}"
        for (alg, _t, gs), g, w in zip(cells, got, want, strict=True)
        if not matches(g, w)
    ]
    assert not bad, f"assign diverged from the per-rank oracle: {bad[:5]}"
    # paired samples, each side timed right after the other; the median
    # pair ratio shrugs off a stall that hits one side of one pair
    pairs = [(_wall(vectorised), _wall(per_rank)) for _ in range(9)]
    ratio = float(np.median([slow / fast for fast, slow in pairs]))
    assert ratio >= ASSIGN_VS_ORACLE_MIN, (
        f"assign over {len(cells)} cells took "
        f"{min(f for f, _ in pairs) * 1e3:.1f} ms, only {ratio:.2f}x faster "
        f"than the per-rank oracle ({min(s for _, s in pairs) * 1e3:.1f} ms; "
        f"gate {ASSIGN_VS_ORACLE_MIN}x)"
    )
