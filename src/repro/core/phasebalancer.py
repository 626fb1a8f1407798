"""Phase-aware load balancing — the paper's future work, productized.

The paper's §5 identifies PEPC's weakness: "two major computation
phases with different load imbalance in one iteration, while only a
single DVFS setting is used".  The fix it implies — one frequency per
*(rank, phase)* — is implemented here end-to-end:

1. split per-rank computation times by phase label
   (:func:`repro.traces.analysis.compute_times_by_phase`);
2. run the base algorithm (MAX by default) independently per phase;
3. rewrite each compute burst with its phase's gear and replay;
4. integrate energy exactly per phase; the communication/wait residual
   is charged at a per-rank *resting gear* — the compute-time-weighted
   frequency, rounded into the gear set (a DVFS runtime parks the CPU
   wherever its last phase left it; the weighted blend is the
   time-average of that).

On single-phase applications this reduces to the plain balancer; on
PEPC it removes the execution-time penalty entirely (see the
``ablation`` experiment).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, TYPE_CHECKING

from repro.core.algorithms import FrequencyAlgorithm, FrequencyAssignment, MaxAlgorithm
from repro.core.energy import EnergyAccountant
from repro.core.gears import Gear, GearSet, NOMINAL_FMAX
from repro.core.power import CpuPowerModel, CpuState
from repro.core.timemodel import BetaTimeModel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.traces.columnar import ColumnarTrace

__all__ = ["PhaseAwareLoadBalancer", "PhaseBalanceReport"]


@dataclass
class PhaseBalanceReport:
    """Per-phase balancing outcome, normalized to the no-DVFS baseline."""

    app: str
    nproc: int
    algorithm: str
    gear_set: str
    original_time: float
    new_time: float
    original_energy: float
    new_energy: float
    assignments: dict[str, FrequencyAssignment]
    resting_gears: tuple[Gear, ...]
    meta: dict[str, Any] = field(default_factory=dict)

    @property
    def normalized_energy(self) -> float:
        return self.new_energy / self.original_energy

    @property
    def normalized_time(self) -> float:
        return self.new_time / self.original_time

    @property
    def normalized_edp(self) -> float:
        return self.normalized_energy * self.normalized_time

    @property
    def phases(self) -> tuple[str, ...]:
        return tuple(self.assignments)

    def __str__(self) -> str:
        return (
            f"{self.app} [{self.algorithm} / {self.gear_set}] "
            f"energy={self.normalized_energy:.1%} "
            f"time={self.normalized_time:.1%} phases={len(self.assignments)}"
        )


class PhaseAwareLoadBalancer:
    """One gear per (rank, computation phase)."""

    def __init__(
        self,
        gear_set: GearSet,
        algorithm: FrequencyAlgorithm | None = None,
        power_model: CpuPowerModel | None = None,
        time_model: BetaTimeModel | None = None,
        platform: Any | None = None,
    ):
        from repro.netsim.simulator import MpiSimulator

        self.gear_set = gear_set
        self.algorithm = algorithm or MaxAlgorithm()
        self.power_model = power_model or CpuPowerModel()
        self.time_model = time_model or BetaTimeModel(fmax=NOMINAL_FMAX)
        self.simulator = MpiSimulator(platform=platform, time_model=self.time_model)
        self.accountant = EnergyAccountant(self.power_model)

    # ------------------------------------------------------------------
    def assign_phases(self, trace: "ColumnarTrace") -> dict[str, FrequencyAssignment]:
        from repro.traces.analysis import compute_times_by_phase

        phases = compute_times_by_phase(trace)
        if not phases:
            raise ValueError("trace has no compute bursts to balance")
        out: dict[str, FrequencyAssignment] = {}
        for label, times in phases.items():
            if times.max() <= 0.0:
                continue  # nobody computes in this phase: nothing to scale
            out[label] = self.algorithm.assign(times, self.gear_set, self.time_model)
        return out

    def _rewrite(
        self, trace: "ColumnarTrace", assignments: dict[str, FrequencyAssignment]
    ) -> "ColumnarTrace":
        from repro.traces.columnar import ColumnarTrace
        from repro.traces.records import ComputeBurst

        model = self.time_model
        freqs = {
            label: assignment.frequencies.tolist()
            for label, assignment in assignments.items()
        }
        streams = []
        for stream in trace:
            new_records = []
            for rec in stream:
                if isinstance(rec, ComputeBurst) and rec.duration > 0.0:
                    phase_freqs = freqs.get(rec.phase)
                    if phase_freqs is not None:
                        f = phase_freqs[stream.rank]
                        beta = model.beta if rec.beta is None else rec.beta
                        rec = ComputeBurst(
                            rec.duration * model.ratio(f, beta), phase=rec.phase
                        )
                new_records.append(rec)
            streams.append(new_records)
        return ColumnarTrace.from_streams(streams, meta=trace.meta)

    def _resting_gears(
        self,
        trace: "ColumnarTrace",
        assignments: dict[str, FrequencyAssignment],
        nominal: Gear,
    ) -> tuple[Gear, ...]:
        """Per-rank gear charged during communication and waits."""
        from repro.traces.analysis import compute_times_by_phase

        phases = compute_times_by_phase(trace)
        freqs = {
            label: assignment.frequencies.tolist()
            for label, assignment in assignments.items()
        }
        gears: list[Gear] = []
        for rank in range(trace.nproc):
            weighted = 0.0
            total = 0.0
            for label in assignments:
                t = phases[label][rank]
                f = freqs[label][rank]
                t_actual = self.time_model.scale(t, f)
                weighted += t_actual * f
                total += t_actual
            if total <= 0.0:
                gears.append(self.gear_set.select(0.0).gear)
            else:
                gears.append(self.gear_set.select(weighted / total).gear)
        return tuple(gears)

    # ------------------------------------------------------------------
    def balance_trace(self, trace: "ColumnarTrace") -> PhaseBalanceReport:
        nominal = self.power_model.law.gear(self.time_model.fmax)
        pm = self.power_model

        original = self.simulator.run_trace(trace)
        original_energy = self.accountant.run_energy(
            original.compute_times,
            original.execution_time,
            [nominal] * trace.nproc,
        ).total

        assignments = self.assign_phases(trace)
        scaled = self._rewrite(trace, assignments)
        modified = self.simulator.run_trace(scaled)
        resting = self._resting_gears(trace, assignments, nominal)

        # exact per-phase compute energy + comm residual at resting gear
        from repro.traces.analysis import compute_times_by_phase

        phases = compute_times_by_phase(trace)
        gears_by_phase = {
            label: assignment.gears for label, assignment in assignments.items()
        }
        new_energy = 0.0
        for rank in range(trace.nproc):
            compute_seconds = 0.0
            for label, gears in gears_by_phase.items():
                t = phases[label][rank]
                gear = gears[rank]
                t_actual = self.time_model.scale(t, gear.frequency)
                new_energy += t_actual * pm.power(gear, CpuState.COMPUTE)
                compute_seconds += t_actual
            residual = max(modified.execution_time - compute_seconds, 0.0)
            new_energy += residual * pm.power(resting[rank], CpuState.COMM)

        return PhaseBalanceReport(
            app=trace.name,
            nproc=trace.nproc,
            algorithm=f"per-phase-{self.algorithm.name}",
            gear_set=self.gear_set.name,
            original_time=original.execution_time,
            new_time=modified.execution_time,
            original_energy=original_energy,
            new_energy=new_energy,
            assignments=assignments,
            resting_gears=resting,
        )
