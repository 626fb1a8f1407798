"""Budget-sweep pricing: batched PowerCapBalancer vs the scalar loop.

The power-cap subsystem's perf claim is that a whole budget grid rides
the same sharing the planner gives MAX/AVG sweeps: one baseline replay,
one stacked frequency matrix, one chunked vectorised pricing pass for K
caps, where the scalar path pays K full ``balance_trace`` calls.  This
benchmark prices a BT-MZ-32 budget grid (K caps spanning tight to
slack) two ways:

* ``scalar_loop`` — one ``PowerAwareLoadBalancer.balance_trace`` per
  cap with ``PowerCapAlgorithm(cap)`` on the *compiled* engine;
* ``batched``     — one ``PowerCapBalancer.cap_sweep_trace`` call.

Both sides re-record their per-trace caches each round, produce
byte-identical ``to_json()`` payloads, power sections included (every
path attaches them where the report is built), and
the batched pass must be ≥ 3× faster — the acceptance criterion
recorded in ``benchmarks/baselines/powercap.json``.  Runs standalone
in CI smoke mode (``--benchmark-disable``) via the ``_timed``
wall-clock ledger.
"""

from __future__ import annotations

import json
import time

import numpy as np

from repro.apps import build_app
from repro.core.balancer import PowerAwareLoadBalancer
from repro.core.gears import uniform_gear_set
from repro.core.power import CpuPowerModel, CpuState
from repro.core.powercap import PowerCapAlgorithm, PowerCapBalancer
from repro.core.timemodel import BetaTimeModel
from repro.netsim.platform import MYRINET_LIKE
from repro.netsim.simulator import MpiSimulator

APP = "BT-MZ-32"
ITERATIONS = 4
K = 250  # budget cells (acceptance floor is 50)

GS = uniform_gear_set(6)

#: Cross-test wall-clock ledger (tests run in file order).
_TIMINGS: dict[str, float] = {}

_WORLD: dict[str, object] = {}


def _world():
    """(trace, cap grid) for the sweep, built once per session."""
    if not _WORLD:
        app = build_app(APP, iterations=ITERATIONS)
        sim = MpiSimulator(MYRINET_LIKE, BetaTimeModel(fmax=2.3))
        trace = sim.run(
            app.programs(), record_trace=True, meta={"name": APP}
        ).trace
        _WORLD["trace"] = trace
        ceiling = trace.nproc * CpuPowerModel().power(
            GS.top_gear(), CpuState.COMPUTE
        )
        # tight-but-feasible (the all-fmin floor is near 26%) to slack
        _WORLD["caps"] = [
            float(f) * ceiling for f in np.linspace(0.30, 1.05, K)
        ]
    return _WORLD["trace"], _WORLD["caps"]


def _fresh(trace):
    """A cache-free copy, so per-trace memos never hide shared costs."""
    return type(trace).from_streams(
        (s.records for s in trace), meta=trace.meta
    )


def _payloads(reports):
    """Sorted-key dumps of every report, power section included."""
    return [json.dumps(r.to_json(), sort_keys=True) for r in reports]


def _timed(label: str, fn):
    """Run ``fn`` once, recording wall time (works with
    ``--benchmark-disable``, where ``benchmark.stats`` is unset)."""
    start = time.perf_counter()
    out = fn()
    elapsed = time.perf_counter() - start
    _TIMINGS[label] = min(_TIMINGS.get(label, elapsed), elapsed)
    return out


def test_scalar_cap_sweep(benchmark):
    """The naive budget sweep: one balance_trace call per cap."""
    trace, caps = _world()

    def sweep():
        fresh = _fresh(trace)
        return [
            PowerAwareLoadBalancer(
                gear_set=GS,
                algorithm=PowerCapAlgorithm(cap),
                engine="compiled",
            ).balance_trace(fresh)
            for cap in caps
        ]

    reports = benchmark.pedantic(
        lambda: _timed("scalar_loop", sweep), rounds=1, iterations=1
    )
    assert len(reports) == K
    _WORLD["scalar_payloads"] = _payloads(reports)


def test_batched_cap_sweep(benchmark):
    """One cap_sweep_trace call prices the whole budget grid."""
    trace, caps = _world()

    def sweep():
        return PowerCapBalancer(
            GS, caps[0], engine="compiled"
        ).cap_sweep_trace(_fresh(trace), caps)

    reports = benchmark.pedantic(
        lambda: _timed("batched", sweep), rounds=3, iterations=1
    )
    assert len(reports) == K
    for cap, r in zip(caps, reports):
        assert r.power["peak_power_w"] <= cap * (1 + 1e-9)

    scalar_payloads = _WORLD.get("scalar_payloads")
    if scalar_payloads is not None:  # full-file run: identity + speedup
        assert _payloads(reports) == scalar_payloads, (
            "batched budget sweep diverged from the scalar path"
        )
        scalar, batched = _TIMINGS["scalar_loop"], _TIMINGS["batched"]
        benchmark.extra_info["budget_cells"] = K
        benchmark.extra_info["speedup_vs_scalar"] = round(
            scalar / batched, 1
        )
        assert batched * 3.0 <= scalar, (
            f"batched budget sweep ({batched * 1e3:.1f} ms) is not 3x "
            f"faster than the scalar loop ({scalar * 1e3:.1f} ms) over "
            f"{K} caps"
        )
        _TIMINGS["speedup"] = scalar / batched
