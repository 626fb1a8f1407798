"""Batched balance planning: price many sweep cells through one tape.

The paper's methodology is inherently a sweep — every table/figure
prices many (algorithm, gear set, headroom) cells against the *same*
recorded trace.  The scalar
:meth:`~repro.core.balancer.PowerAwareLoadBalancer.balance_trace` path
pays K × (baseline replay + scalar modified replay + Python energy
integration) for K cells; the :class:`BatchBalancePlanner` pays for
the shared work once and vectorises the rest:

1. the nominal baseline replay is computed once per trace (memoised
   via :func:`repro.core.balancer.nominal_replay`), as are the per-rank
   compute times, LB and PE — they do not depend on the candidate;
2. every candidate's frequency assignment is computed (cheap Python)
   and stacked into one ``(K, nproc)`` matrix;
3. the matrix is priced by the engine's ``evaluate_assignments`` sweep
   API — chunked compiled ``evaluate_many`` passes when the world is
   supported (chunking bounds peak memory), per-candidate DES replays
   otherwise — so a batch always prices, whatever the world;
4. energy is integrated over the ``(K, nproc)`` result arrays by
   :meth:`~repro.core.energy.EnergyAccountant.run_energy_many`.

Reports are built by :func:`~repro.core.balancer.priced_report`, like
the scalar path's, and are byte-identical (``to_json()``) to running
the scalar path per candidate — pinned by tests/test_batchbalance.py.
:meth:`BatchBalancePlanner.plan_trace` is the one pricing orchestration
behind the experiment ``Runner`` (whose ``balance`` is a one-candidate
``balance_many``), :class:`~repro.core.powercap.PowerCapBalancer` and
the service workers; the scalar balancer stays as the independent
reference the tests price against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, TYPE_CHECKING

import numpy as np

from repro.core.algorithms import FrequencyAlgorithm, MaxAlgorithm
from repro.core.balancer import (
    BalanceReport,
    priced_report,
    record_app,
    trace_baseline,
)
from repro.core.energy import EnergyAccountant
from repro.core.gears import NOMINAL_FMAX, GearSet
from repro.core.power import CpuPowerModel
from repro.core.timemodel import BetaTimeModel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.traces.trace import Trace

__all__ = ["DEFAULT_CHUNK_SIZE", "BatchBalancePlanner", "SweepCandidate"]

#: Default bound on candidates per vectorised tape pass.  Each pass
#: allocates O(chunk × (nproc + messages)) floats, so this caps peak
#: working-set memory for arbitrarily long candidate lists while
#: keeping the vectorisation win — the tape is walked once per chunk,
#: so the bound is deliberately generous (it matches the service's
#: per-request candidate cap: typical sweeps price in a single pass).
DEFAULT_CHUNK_SIZE = 256


@dataclass(frozen=True)
class SweepCandidate:
    """One sweep cell: a gear set, optionally its own algorithm/label.

    ``algorithm=None`` means "use the planner's default"; ``label`` is
    free-form caller bookkeeping (e.g. a headroom percentage or a
    gear-set family name) and does not influence the report.
    """

    gear_set: GearSet
    algorithm: FrequencyAlgorithm | None = None
    label: str = ""


class BatchBalancePlanner:
    """Price an arbitrary candidate list against one trace.

    Construction mirrors
    :class:`~repro.core.balancer.PowerAwareLoadBalancer` minus the gear
    set (each candidate brings its own): same defaults, same engine
    selection, same accountant.  β grids are swept by constructing one
    planner per β (the time model shapes the compiled tape, so each β
    is its own batch); everything else — gear sets, algorithms,
    headroom variants — batches through one planner.
    """

    def __init__(
        self,
        algorithm: FrequencyAlgorithm | None = None,
        power_model: CpuPowerModel | None = None,
        time_model: BetaTimeModel | None = None,
        platform: "Any | None" = None,
        engine: str = "auto",
        chunk_size: int | None = DEFAULT_CHUNK_SIZE,
    ):
        from repro.netsim.engines import make_engine

        self.algorithm = algorithm or MaxAlgorithm()
        self.power_model = power_model or CpuPowerModel()
        self.time_model = time_model or BetaTimeModel(fmax=NOMINAL_FMAX)
        self.engine = engine
        self.chunk_size = chunk_size
        self.simulator = make_engine(
            engine, platform=platform, time_model=self.time_model
        )
        self.accountant = EnergyAccountant(self.power_model)

    # ------------------------------------------------------------------
    def plan_app(
        self, app: "Any", candidates: "Any"
    ) -> list[BalanceReport]:
        """Trace an application skeleton once, then plan the trace."""
        return self.plan_trace(record_app(self.simulator, app), candidates)

    # ------------------------------------------------------------------
    def plan_trace(
        self, trace: "Trace", candidates: "Any"
    ) -> list[BalanceReport]:
        """One report per candidate, byte-identical to the scalar path.

        ``candidates`` is an iterable of :class:`SweepCandidate` (bare
        :class:`~repro.core.gears.GearSet` objects are accepted and
        wrapped).  Report order follows candidate order.
        """
        cands = [
            c if isinstance(c, SweepCandidate) else SweepCandidate(c)
            for c in candidates
        ]
        if not cands:
            return []

        # shared, candidate-independent work: baseline replay + metrics
        base = trace_baseline(self.simulator, self.accountant, trace)

        # per-candidate assignments (cheap Python), stacked into (K, nproc)
        algorithms = [c.algorithm or self.algorithm for c in cands]
        assignments = [
            alg.assign(base.compute_times, c.gear_set, self.time_model)
            for c, alg in zip(cands, algorithms)
        ]
        fmat = np.array([a.frequencies for a in assignments], dtype=float)

        # one batched pricing pass + vectorised energy integration
        batch = self.simulator.evaluate_assignments(
            trace, fmat, chunk_size=self.chunk_size
        )
        exec_times = batch["execution_time"]
        comp_many = batch["compute_times"]
        new_energies = self.accountant.run_energy_many(
            comp_many, exec_times, [list(a.gears) for a in assignments]
        )

        return [
            priced_report(
                trace,
                base,
                cand.gear_set,
                alg,
                assignment,
                self.time_model,
                float(exec_times[k]),
                new_energies[k],
                np.array(comp_many[k]),
            )
            for k, (cand, alg, assignment) in enumerate(
                zip(cands, algorithms, assignments)
            )
        ]
