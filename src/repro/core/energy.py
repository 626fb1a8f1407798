"""CPU energy accounting over a simulated run.

The paper's power-analysis module integrates per-CPU power over the
application's execution.  Each rank spends:

* ``T_compute_k`` seconds computing (at its assigned gear), and
* ``T_exec - T_compute_k`` seconds communicating or blocked in MPI —
  charged at the communication activity factor, still at its gear —

until the *application* finishes at ``T_exec`` (the slowest rank defines
the end; earlier-finishing CPUs keep burning communication-state power
while they wait in the final synchronisation, which is exactly the
behaviour DVFS load balancing removes).
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence
from typing import Any

import numpy as np

from repro.core.gears import Gear, GearTable
from repro.core.power import CpuPowerModel, CpuState

__all__ = ["EnergyAccountant", "EnergyBreakdown"]


@dataclass(frozen=True)
class EnergyBreakdown:
    """Energy of one run, split by state, plus per-rank detail."""

    compute_energy: float
    comm_energy: float
    static_energy: float
    dynamic_energy: float
    per_rank: np.ndarray  # total energy per rank
    execution_time: float

    @property
    def total(self) -> float:
        return self.compute_energy + self.comm_energy

    @property
    def mean_power(self) -> float:
        if self.execution_time <= 0.0:
            return 0.0
        return self.total / (self.execution_time * len(self.per_rank))

    def edp(self) -> float:
        """Energy-delay product of the run."""
        return self.total * self.execution_time


class EnergyAccountant:
    """Integrates :class:`CpuPowerModel` over per-rank compute/comm times."""

    def __init__(self, power_model: CpuPowerModel | None = None):
        self.power_model = power_model or CpuPowerModel()

    def run_energy(
        self,
        compute_times: Sequence[float],
        execution_time: float,
        gears: Sequence[Gear],
    ) -> EnergyBreakdown:
        """Energy of a run.

        Parameters
        ----------
        compute_times:
            Per-rank *actual* compute seconds in the run (i.e. already
            rescaled for each rank's frequency).
        execution_time:
            The run's total execution time (from the replay simulator).
        gears:
            The gear each rank ran at (one per rank, fixed for the run).
        """
        compute = np.asarray(compute_times, dtype=float)
        nproc = compute.size
        if len(gears) != nproc:
            raise ValueError(f"{len(gears)} gears for {nproc} ranks")
        if execution_time < 0.0:
            raise ValueError(f"execution time must be >= 0, got {execution_time!r}")
        over = compute > execution_time * (1.0 + 1e-9)
        if over.any():
            bad = int(np.argmax(over))
            raise ValueError(
                f"rank {bad} computes {compute[bad]:.9g}s but the run only "
                f"lasts {execution_time:.9g}s"
            )

        pm = self.power_model
        p_compute = np.array([pm.power(g, CpuState.COMPUTE) for g in gears])
        p_comm = np.array([pm.power(g, CpuState.COMM) for g in gears])
        p_static = np.array([pm.static_power(g) for g in gears])

        comm = np.maximum(execution_time - compute, 0.0)
        e_compute = p_compute * compute
        e_comm = p_comm * comm
        e_static = p_static * execution_time  # static burns the whole run
        per_rank = e_compute + e_comm

        return EnergyBreakdown(
            compute_energy=float(e_compute.sum()),
            comm_energy=float(e_comm.sum()),
            static_energy=float(e_static.sum()),
            dynamic_energy=float((per_rank - e_static).sum()),
            per_rank=per_rank,
            execution_time=float(execution_time),
        )

    # ------------------------------------------------------------------
    def run_energy_many(
        self,
        compute_times: Any,
        execution_times: Any,
        index_rows: Sequence[Any],
        tables: Sequence[GearTable],
    ) -> list[EnergyBreakdown]:
        """Energy of K runs at once, bit-identical to K :meth:`run_energy`.

        ``compute_times`` is ``(K, nproc)`` and ``execution_times`` is
        ``(K,)``.  Run ``k`` ran rank ``r`` at gear
        ``tables[k]`` entry ``index_rows[k][r]`` — the
        :attr:`~repro.core.algorithms.FrequencyAssignment.index` /
        ``.table`` pair of its assignment.  Each table entry's powers
        come from the *same* scalar :class:`CpuPowerModel` arithmetic
        the scalar path uses (:meth:`GearTable.powers`), fanned out to
        ranks by indexing; the energy products are element-wise
        (row-independent by IEEE semantics), and the per-run reductions
        sum each contiguous row exactly like the scalar path's 1-D sums.
        Validation raises the same errors, labelled with the offending
        run index.
        """
        compute = np.asarray(compute_times, dtype=float)
        exec_t = np.asarray(execution_times, dtype=float)
        if compute.ndim != 2:
            raise ValueError(
                f"compute_times must be (K, nproc), got shape {compute.shape}"
            )
        K, nproc = compute.shape
        if exec_t.shape != (K,):
            raise ValueError(
                f"execution_times shape {exec_t.shape} does not match (K={K},)"
            )
        if len(index_rows) != K or len(tables) != K:
            raise ValueError(
                f"{len(index_rows)} index rows and {len(tables)} gear "
                f"tables for {K} runs"
            )

        pm = self.power_model
        out: list[EnergyBreakdown] = []
        for k in range(K):
            idx = np.asarray(index_rows[k])
            if idx.shape != (nproc,):
                raise ValueError(
                    f"run {k}: {idx.size} gears for {nproc} ranks"
                )
            execution_time = float(exec_t[k])
            row = compute[k]
            if execution_time < 0.0:
                raise ValueError(
                    f"run {k}: execution time must be >= 0, "
                    f"got {execution_time!r}"
                )
            over = row > execution_time * (1.0 + 1e-9)
            if over.any():
                bad = int(np.argmax(over))
                raise ValueError(
                    f"run {k}: rank {bad} computes {row[bad]:.9g}s but the "
                    f"run only lasts {execution_time:.9g}s"
                )
            p_compute, p_comm, p_static = tables[k].powers(pm)[:, idx]
            comm = np.maximum(execution_time - row, 0.0)
            e_compute = p_compute * row
            e_comm = p_comm * comm
            e_static = p_static * execution_time
            per_rank = e_compute + e_comm
            out.append(
                EnergyBreakdown(
                    compute_energy=float(e_compute.sum()),
                    comm_energy=float(e_comm.sum()),
                    static_energy=float(e_static.sum()),
                    dynamic_energy=float((per_rank - e_static).sum()),
                    per_rank=per_rank,
                    execution_time=execution_time,
                )
            )
        return out
