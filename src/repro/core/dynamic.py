"""Dynamic DVFS runtimes (related-work baselines, §2).

The paper's MAX is "the static version" of the **Jitter** runtime
(Kappiah, Freeh, Lowenthal, SC'05), which re-decides frequencies every
iteration from the slack observed in the previous one.
:class:`JitterRuntime` implements that loop on top of the replay
simulator.  On the paper's regular workloads it converges to MAX after
one iteration; on *drifting* workloads (heavy ranks move over time —
enable with the skeletons' ``drift_step``) it adapts where a static
assignment cannot.

:class:`CommPhaseScalingRuntime` implements Lim et al.'s idea (SC'06):
drop to a low gear during *communication phases only*, assuming the CPU
is off the critical path there.  Execution time is unchanged up to a
per-MPI-call switching penalty; energy falls with the communication
fraction, making it the natural complement to computation-side
balancing (it shines exactly where MAX/AVG don't: balanced but
communication-bound codes like CG).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.core.algorithms import (
    FrequencyAlgorithm,
    FrequencyAssignment,
    MaxAlgorithm,
)
from repro.core.energy import EnergyAccountant
from repro.core.gears import Gear, GearSet, NOMINAL_FMAX
from repro.core.power import CpuPowerModel, CpuState
from repro.core.timemodel import BetaTimeModel

__all__ = ["CommPhaseScalingRuntime", "DynamicReport", "JitterRuntime"]


@dataclass
class DynamicReport:
    """Result of a dynamic-runtime execution, normalized to no-DVFS."""

    app: str
    runtime: str
    nproc: int
    iterations: int
    original_time: float
    new_time: float
    original_energy: float
    new_energy: float
    assignments: list[FrequencyAssignment] = field(default_factory=list)
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

    def row(self) -> dict[str, Any]:
        return {
            "application": self.app,
            "runtime": self.runtime,
            "normalized_energy": self.normalized_energy,
            "normalized_time": self.normalized_time,
            "normalized_edp": self.normalized_edp,
        }

    def __str__(self) -> str:
        return (
            f"{self.app} [{self.runtime}] energy={self.normalized_energy:.1%} "
            f"time={self.normalized_time:.1%} EDP={self.normalized_edp:.1%}"
        )


class JitterRuntime:
    """Iteration-level adaptive DVFS (the Jitter loop).

    Each iteration *i* runs at the frequencies the assignment algorithm
    derives from a *prediction* of its per-rank computation times; the
    first iteration runs at the top gear (nothing observed yet).
    Iterations are replayed independently and summed — valid for the
    paper's workloads, which end every iteration in a synchronising
    collective.

    Predictors (``predictor`` argument):

    * ``"last"`` (default, the Jitter paper's behaviour) — iteration
      *i−1*'s observed times;
    * ``"ewma"`` — an exponentially weighted moving average
      (``ewma_alpha``): smoother under noisy per-iteration times, one
      extra step of lag under systematic drift.
    """

    name = "Jitter"

    def __init__(
        self,
        gear_set: GearSet,
        algorithm: FrequencyAlgorithm | None = None,
        power_model: CpuPowerModel | None = None,
        time_model: BetaTimeModel | None = None,
        platform: Any | None = None,
        predictor: str = "last",
        ewma_alpha: float = 0.5,
        engine: str = "auto",
    ):
        from repro.netsim.engines import make_engine

        if predictor not in ("last", "ewma"):
            raise ValueError(
                f"predictor must be 'last' or 'ewma', got {predictor!r}"
            )
        if not (0.0 < ewma_alpha <= 1.0):
            raise ValueError(f"ewma_alpha must be in (0, 1], got {ewma_alpha!r}")
        self.gear_set = gear_set
        self.algorithm = algorithm or MaxAlgorithm()
        self.power_model = power_model or CpuPowerModel()
        self.time_model = time_model or BetaTimeModel(fmax=NOMINAL_FMAX)
        self.simulator = make_engine(
            engine, platform=platform, time_model=self.time_model
        )
        self.accountant = EnergyAccountant(self.power_model)
        self.predictor = predictor
        self.ewma_alpha = ewma_alpha
        if predictor == "ewma":
            self.name = f"Jitter[ewma={ewma_alpha:g}]"

    # ------------------------------------------------------------------
    def run(self, trace: "Any") -> DynamicReport:
        from repro.traces.analysis import compute_times, iteration_count
        from repro.traces.transform import cut_iterations

        niter = iteration_count(trace)
        if niter < 2:
            raise ValueError(
                "the Jitter loop needs at least 2 marked iterations "
                f"(got {niter}); add iteration markers to the trace"
            )
        nominal_gear = self.power_model.law.gear(self.time_model.fmax)

        # baseline: the whole trace at the top gear
        baseline = self.simulator.run_trace(trace)
        base_energy = self.accountant.run_energy(
            baseline.compute_times,
            baseline.execution_time,
            [nominal_gear] * trace.nproc,
        ).total

        total_time = 0.0
        total_energy = 0.0
        assignments: list[FrequencyAssignment] = []
        prev_times: np.ndarray | None = None
        prediction: np.ndarray | None = None
        for i in range(niter):
            region = cut_iterations(trace, i, i)
            if self.predictor == "ewma" and prev_times is not None:
                if prediction is None:
                    prediction = prev_times
                else:
                    prediction = (
                        self.ewma_alpha * prev_times
                        + (1.0 - self.ewma_alpha) * prediction
                    )
                prev_times = prediction
            if prev_times is None or prev_times.max() <= 0.0:
                assignment = FrequencyAssignment.from_gears(
                    [nominal_gear] * trace.nproc,
                    target_time=float(compute_times(region).max()),
                    overclocked=[False] * trace.nproc,
                    attained=[True] * trace.nproc,
                    algorithm="warmup",
                )
            else:
                assignment = self.algorithm.assign(
                    prev_times, self.gear_set, self.time_model
                )
            assignments.append(assignment)
            # replay-time scaling is float-identical to the tracefile
            # rewrite (warmup gears are all fmax ⇒ ratio exactly 1.0)
            run = self.simulator.run_trace(
                region, frequencies=assignment.frequencies
            )
            total_time += run.execution_time
            total_energy += self.accountant.run_energy(
                run.compute_times, run.execution_time, list(assignment.gears)
            ).total
            # "observe" this iteration's nominal-speed computation times
            prev_times = compute_times(region)

        return DynamicReport(
            app=trace.name,
            runtime=self.name,
            nproc=trace.nproc,
            iterations=niter,
            original_time=baseline.execution_time,
            new_time=total_time,
            original_energy=base_energy,
            new_energy=total_energy,
            assignments=assignments,
        )


class CommPhaseScalingRuntime:
    """Low gear during MPI phases, top gear during computation.

    ``switch_overhead`` seconds are charged per frequency transition
    (two per MPI region: down and back up); regions are counted from
    the trace's MPI records.  Execution time grows only by that
    overhead — the model assumes communication latency is CPU-frequency
    independent, as in Lim et al. and in this paper's §3.2.
    """

    name = "comm-scaling"

    #: Record kinds that start an MPI region (waits belong to the
    #: region opened by their isend/irecv).
    _MPI_KINDS = ("send", "recv", "isend", "irecv", "collective")

    def __init__(
        self,
        low_gear: Gear | None = None,
        gear_set: GearSet | None = None,
        power_model: CpuPowerModel | None = None,
        time_model: BetaTimeModel | None = None,
        platform: Any | None = None,
        switch_overhead: float = 0.0,
        engine: str = "auto",
    ):
        from repro.netsim.engines import make_engine

        if low_gear is None:
            if gear_set is None:
                raise ValueError("pass either low_gear or gear_set")
            low_gear = gear_set.select(0.0).gear
        if switch_overhead < 0.0:
            raise ValueError("switch overhead must be >= 0")
        self.low_gear = low_gear
        self.power_model = power_model or CpuPowerModel()
        self.time_model = time_model or BetaTimeModel(fmax=NOMINAL_FMAX)
        self.simulator = make_engine(
            engine, platform=platform, time_model=self.time_model
        )
        self.switch_overhead = switch_overhead

    def _mpi_regions(self, trace: "Any") -> np.ndarray:
        """Per-rank count of MPI records (switch-penalty accounting)."""
        return np.array(
            [
                sum(1 for rec in stream if rec.kind in self._MPI_KINDS)
                for stream in trace
            ]
        )

    def run(self, trace: "Any") -> DynamicReport:
        nominal_gear = self.power_model.law.gear(self.time_model.fmax)
        pm = self.power_model

        baseline = self.simulator.run_trace(trace)
        texec = baseline.execution_time
        comp = baseline.compute_times
        comm = np.maximum(texec - comp, 0.0)

        base_energy = float(
            comp.sum() * pm.power(nominal_gear, CpuState.COMPUTE)
            + comm.sum() * pm.power(nominal_gear, CpuState.COMM)
        )

        switches = 2.0 * self._mpi_regions(trace) * self.switch_overhead
        new_time = texec + float(switches.max())
        new_comm = comm + switches  # penalty burned at the low gear
        new_energy = float(
            comp.sum() * pm.power(nominal_gear, CpuState.COMPUTE)
            + new_comm.sum() * pm.power(self.low_gear, CpuState.COMM)
        )

        return DynamicReport(
            app=trace.name,
            runtime=self.name,
            nproc=trace.nproc,
            iterations=0,
            original_time=texec,
            new_time=new_time,
            original_energy=base_energy,
            new_energy=new_energy,
            meta={"low_gear": str(self.low_gear)},
        )
