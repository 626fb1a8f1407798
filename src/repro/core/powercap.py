"""Power-cap scheduling: maximise performance under a cluster budget.

The paper minimises CPU energy at (nearly) fixed execution time; Medhat
et al. ("Power Redistribution for Optimizing Performance in MPI
Clusters", PAPERS.md) invert the objective: given a cluster power
budget, shift frequency headroom toward the critical path.  This module
implements that inversion on top of the existing machinery:

* :class:`PowerCapAlgorithm` — a
  :class:`~repro.core.algorithms.FrequencyAlgorithm` like MAX/AVG, so a
  capped cell prices through every existing path (scalar balancer,
  :class:`~repro.core.batchbalance.BatchBalancePlanner`, Runner,
  service workers) unchanged.  Assignment is a critical-path-first
  greedy with a water-filling fallback:

  1. *greedy* — balance everyone to the fastest attainable completion
     (the critical rank at the set ceiling; off-critical-path ranks
     donate their headroom by dropping to the slowest gear that still
     meets it — the Medhat inversion of the paper's slack reclamation);
  2. *water-filling* — if the donated headroom still busts the budget,
     raise the common target time (the "water level") until the modeled
     all-compute peak fits under the cap.  On discrete sets the level
     is binary-searched over the finite per-rank gear thresholds (the
     only points where the assignment can change); continuous sets use
     exact float bisection.  Either way the search is a deterministic
     pure function, monotone in the cap: tighter budget, higher level,
     slower-or-equal gears per rank.

  An infeasible cap (below the world's all-fmin compute power) raises
  :class:`PowerCapError` carrying the PC001/PC002 diagnostics from the
  shared :func:`~repro.diagnostics.engine.screen_power_cap` screen.

* :func:`attach_power_section` — the report's power section (cap,
  achieved peak/average power, binding ranks, headroom), attached by
  :func:`~repro.core.balancer.priced_report` wherever a capped cell's
  :class:`~repro.core.balancer.BalanceReport` is built, so the report
  never depends on the path that priced it.

* :class:`PowerCapBalancer` — a thin wrapper that prices one cap (or a
  whole budget sweep) through
  :meth:`~repro.core.batchbalance.BatchBalancePlanner.plan_trace`, so
  compiled / columnar / DES-fallback engines and the batch counters in
  ``/metrics`` all work for free.

All powers are in the paper's normalised "model watts" — the same unit
:class:`~repro.core.power.CpuPowerModel` prices report energies in, so
caps are directly comparable to report figures.  The modeled *peak* is
the all-compute worst case ``sum_k P_compute(gear_k)``; the contract —
enforced after pricing — is that an emitted assignment never exceeds
the cap on that metric.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import TYPE_CHECKING, Any

from repro.core.algorithms import FrequencyAlgorithm, FrequencyAssignment
from repro.core.balancer import BalanceReport
from repro.core.gears import NOMINAL_FMAX, Gear, GearSet
from repro.core.power import CpuPowerModel, CpuState
from repro.core.timemodel import BetaTimeModel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.traces.trace import Trace

__all__ = [
    "PowerCapAlgorithm",
    "PowerCapBalancer",
    "PowerCapError",
    "attach_power_section",
    "modeled_peak_power",
]

#: Bisection steps for the water level.  The bracket halves to adjacent
#: float64 values long before this bound, so the loop always terminates
#: on the *exact* boundary float — the cap→level map is a deterministic
#: pure function, monotone in the cap.
_MAX_BISECTIONS = 200

#: Relative slack when verifying the peak-vs-cap contract (float noise
#: from the left-to-right power sum only; the assignment itself is
#: chosen on the same sum, so equality holds bit-for-bit in practice).
_CAP_TOLERANCE = 1e-9


class PowerCapError(ValueError):
    """A cap no assignment can meet (PC001/PC002 territory).

    ``diagnostics`` carries the findings from
    :func:`repro.diagnostics.engine.screen_power_cap`, so callers can
    render the same rule codes and messages the admission layer uses.
    """

    def __init__(self, diagnostics: Sequence[Any]):
        self.diagnostics = list(diagnostics)
        super().__init__(
            "; ".join(f"{d.code}: {d.message}" for d in self.diagnostics)
            or "infeasible power cap"
        )


def modeled_peak_power(
    gears: Sequence[Gear], power_model: CpuPowerModel
) -> float:
    """Worst-case cluster power: every rank computing at once.

    Summed left to right in rank order (determinism convention).
    """
    return sum(power_model.power(g, CpuState.COMPUTE) for g in gears)


class PowerCapAlgorithm(FrequencyAlgorithm):
    """Assign gears maximising performance under a cluster power cap.

    Same interface as MAX/AVG, so capped cells drop into every existing
    pricing path (``SweepCandidate(gear_set, PowerCapAlgorithm(cap))``
    batches through the planner unchanged).  The name embeds the cap
    (``POWERCAP[40]``) so per-cap cells stay distinct in report rows;
    cell identities additionally carry the exact cap (see
    :func:`repro.experiments.cache.cell_identity`).
    """

    def __init__(self, cap: float, power_model: CpuPowerModel | None = None):
        cap = float(cap)
        if cap <= 0.0:
            raise ValueError(f"power cap must be positive, got {cap!r}")
        self.cap = cap
        self.power_model = power_model or CpuPowerModel()
        self.name = f"POWERCAP[{cap:g}]"

    # ------------------------------------------------------------------
    def _peak(self, assignment: FrequencyAssignment) -> float:
        return modeled_peak_power(assignment.gears, self.power_model)

    def screen(self, nproc: int, gear_set: GearSet) -> list[Any]:
        """The shared PC001–PC004 feasibility screen for this cap."""
        from repro.diagnostics.engine import screen_power_cap

        return screen_power_cap(
            self.cap, nproc, gear_set, power_model=self.power_model
        )

    def uncapped_reference(
        self,
        compute_times: Sequence[float],
        gear_set: GearSet,
        model: BetaTimeModel,
    ) -> FrequencyAssignment:
        """The budget-blind optimum: everyone meets the fastest target.

        This is the greedy's starting point and the reference against
        which binding ranks are identified (a rank is *binding* when
        the cap forced it below the gear it would get here).
        """
        times = self._validate(compute_times)
        ceiling = gear_set.fmax
        floor_time = max(model.scale(t, ceiling) for t in times.tolist())
        return self._assign_to_target(
            times, floor_time, gear_set, model, nominal_fmax=model.fmax
        )

    def assign(
        self,
        compute_times: Sequence[float],
        gear_set: GearSet,
        model: BetaTimeModel,
    ) -> FrequencyAssignment:
        from repro.diagnostics.model import Severity

        times = self._validate(compute_times)
        errors = [
            d
            for d in self.screen(times.size, gear_set)
            if d.severity >= Severity.ERROR
        ]
        if errors:
            raise PowerCapError(errors)

        # 1. critical-path-first greedy: the most loaded rank keeps the
        # set ceiling; everyone off the critical path donates first by
        # dropping to the slowest gear that still meets its completion.
        ceiling = gear_set.fmax
        floor_time = max(model.scale(t, ceiling) for t in times.tolist())
        greedy = self._assign_to_target(
            times, floor_time, gear_set, model, nominal_fmax=model.fmax
        )
        if self._peak(greedy) <= self.cap:
            return greedy

        # 2. water-filling fallback: raise the common target time until
        # the all-compute peak fits the budget.  Feasibility is upward
        # closed in the target (a later deadline never needs a faster
        # gear); the screen above guarantees the all-fmin end is
        # feasible.
        lo = floor_time
        hi = max(model.scale(t, gear_set.fmin) for t in times.tolist())
        grid = self._threshold_grid(times, gear_set, model, lo, hi)
        if grid is not None:
            # discrete set: the assignment is a step function of the
            # level that only changes at per-rank gear thresholds, so
            # binary-search the sorted threshold list — ~log2(N*G)
            # cheap vectorised probes instead of a full float bisection
            # (this is what keeps budget grids cheap to price).  The
            # probe peak may differ from the exact left-to-right sum by
            # an ulp; the final guard below re-checks exactly.
            levels, probe_peak = grid
            feasible = len(levels) - 1  # the all-fmin end
            first_infeasible = -1  # below every threshold: the greedy
            while first_infeasible + 1 < feasible:
                mid = (first_infeasible + feasible) // 2
                if probe_peak(levels[mid]) <= self.cap:
                    feasible = mid
                else:
                    first_infeasible = mid
            final = self._assign_to_target(
                times, levels[feasible], gear_set, model,
                nominal_fmax=model.fmax,
            )
        else:
            # continuous set: exact float bisection onto the boundary
            for _ in range(_MAX_BISECTIONS):
                mid = 0.5 * (lo + hi)
                if not (lo < mid < hi):
                    break
                candidate = self._assign_to_target(
                    times, mid, gear_set, model, nominal_fmax=model.fmax
                )
                if self._peak(candidate) <= self.cap:
                    hi = mid
                else:
                    lo = mid
            final = self._assign_to_target(
                times, hi, gear_set, model, nominal_fmax=model.fmax
            )
        if self._peak(final) > self.cap:
            # degenerate numerics: β ≈ 0 makes time frequency-blind, so
            # every threshold rounds onto the greedy target and the
            # search collapses to all-fmax.  The all-floor assignment
            # is feasible whenever the PC002 screen passed — emit it.
            final = self._floor_assignment(times, gear_set, hi)
        return final

    def _floor_assignment(
        self, times: Any, gear_set: GearSet, target: float
    ) -> FrequencyAssignment:
        """Every rank at the set floor — the minimum-peak assignment."""
        sel = gear_set.select(0.0)  # round-up from zero: the floor gear
        n = int(times.size)
        return FrequencyAssignment(
            gears=(sel.gear,) * n,
            target_time=float(target),
            overclocked=(False,) * n,
            attained=(sel.attained,) * n,
            algorithm=self.name,
        )

    def _threshold_grid(
        self, times: Any, gear_set: GearSet, model: BetaTimeModel,
        lo: float, hi: float,
    ) -> tuple[list[float], Any] | None:
        """(sorted water levels, vectorised peak probe) for the search.

        ``None`` for continuous sets (no finite threshold list).  Every
        per-rank completion time ``scale(t_k, f_j)`` in ``(lo, hi]`` is
        a candidate level; the ``hi`` end (all ranks at fmin) is always
        included, so the caller's search space is never empty and its
        upper end is feasible whenever the PC002 screen passed.  The
        probe evaluates the all-compute peak at a level without
        materialising an assignment: rank ``k`` takes the slowest gear
        whose completion meets the level, i.e. gear index = number of
        gears still too slow (rows are descending in gear index).
        """
        import numpy as np

        from repro.core.gears import DiscreteGearSet

        if not isinstance(gear_set, DiscreteGearSet):
            return None
        rows = [
            [model.scale(t, g.frequency) for g in gear_set.gears]
            for t in times.tolist()
        ]
        levels = sorted(v for row in rows for v in row if lo < v <= hi)
        if not levels or levels[-1] < hi:
            levels.append(hi)
        thresh = np.asarray(rows)
        p_comp = np.asarray(
            [
                self.power_model.power(g, CpuState.COMPUTE)
                for g in gear_set.gears
            ]
        )
        top = len(gear_set.gears) - 1

        def probe_peak(level: float) -> float:
            counts = np.minimum((thresh > level).sum(axis=1), top)
            return float(p_comp[counts].sum())

        return levels, probe_peak

    # ------------------------------------------------------------------
    def power_section(
        self,
        report: BalanceReport,
        gear_set: GearSet,
        model: BetaTimeModel,
    ) -> dict[str, Any]:
        """The report's power section (cap, peak/avg power, headroom).

        Average power is the achieved cluster mean over the capped run
        (total energy over execution time); binding ranks are those the
        budget pushed below their uncapped reference gear.
        """
        peak = self._peak(report.assignment)
        new_time = float(report.new_time)
        avg = float(report.new_energy.total) / new_time if new_time > 0 else 0.0
        reference = self.uncapped_reference(
            report.meta["original_compute_times"], gear_set, model
        )
        binding = [
            k
            for k, (got, want) in enumerate(
                zip(report.assignment.gears, reference.gears, strict=True)
            )
            if got.frequency < want.frequency - 1e-12
        ]
        return {
            "cap_w": float(self.cap),
            "peak_power_w": float(peak),
            "avg_power_w": avg,
            "headroom_w": float(self.cap - peak),
            "uncapped_peak_power_w": float(
                modeled_peak_power(reference.gears, self.power_model)
            ),
            "binding_ranks": [int(k) for k in binding],
            "binding_count": len(binding),
            "target_time_s": float(report.assignment.target_time),
        }


def attach_power_section(
    report: BalanceReport,
    algorithm: PowerCapAlgorithm,
    gear_set: GearSet,
    model: BetaTimeModel,
    verify: bool = True,
) -> BalanceReport:
    """Attach the power section in place, enforcing the cap contract.

    Raises ``RuntimeError`` if the priced assignment's modeled peak
    exceeds the cap — the balancer must never emit such a report.
    ``verify=False`` skips the check for reporting-only reattachment
    (re-accounting under a power model the assignment was not chosen
    with may legitimately move the peak across the cap).
    """
    section = algorithm.power_section(report, gear_set, model)
    if verify and section["peak_power_w"] > algorithm.cap * (
        1.0 + _CAP_TOLERANCE
    ):
        raise RuntimeError(
            f"power-cap contract violated: peak "
            f"{section['peak_power_w']:g} model-W exceeds cap "
            f"{algorithm.cap:g} model-W for {report.app}"
        )
    report.power = section
    return report


class PowerCapBalancer:
    """Budget-constrained counterpart of ``PowerAwareLoadBalancer``.

    Same constructor shape (gear set, models, platform, engine) plus
    the ``cap``.  A thin wrapper over
    :class:`~repro.core.batchbalance.BatchBalancePlanner`: every
    balance — one cap or a budget sweep — is one batch of
    ``PowerCapAlgorithm`` candidates, so emitted reports carry the
    power section and respect the cap on the modeled all-compute peak.
    """

    def __init__(
        self,
        gear_set: GearSet,
        cap: float,
        power_model: CpuPowerModel | None = None,
        time_model: BetaTimeModel | None = None,
        platform: "Any | None" = None,
        engine: str = "auto",
        chunk_size: int | None = None,
    ):
        from repro.core.batchbalance import DEFAULT_CHUNK_SIZE, BatchBalancePlanner

        self.gear_set = gear_set
        self.cap = float(cap)
        self.power_model = power_model or CpuPowerModel()
        self.time_model = time_model or BetaTimeModel(fmax=NOMINAL_FMAX)
        self.planner = BatchBalancePlanner(
            power_model=self.power_model,
            time_model=self.time_model,
            platform=platform,
            engine=engine,
            chunk_size=DEFAULT_CHUNK_SIZE if chunk_size is None else chunk_size,
        )

    # ------------------------------------------------------------------
    def balance_trace(self, trace: "Trace") -> BalanceReport:
        """One capped balance, priced through the batched sweep API."""
        return self.cap_sweep_trace(trace, [self.cap])[0]

    def cap_sweep_trace(
        self, trace: "Trace", caps: Sequence[float]
    ) -> list[BalanceReport]:
        """One report per budget, all priced in a single batched pass."""
        from repro.core.batchbalance import SweepCandidate

        return self.planner.plan_trace(trace, [
            SweepCandidate(self.gear_set, PowerCapAlgorithm(cap, self.power_model))
            for cap in caps
        ])
