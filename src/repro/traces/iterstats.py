"""Per-iteration trace statistics and the regularity check.

The paper's static approach "basically assumes an iterative application
behavior with fixed computation time ratio among processes so that the
frequencies can be set statically" (§3.1).  This module quantifies how
true that is for a given trace:

* :func:`per_iteration_compute_times` — the (iterations × ranks) matrix
  of computation seconds;
* :func:`iteration_stats` — per-iteration load balance, per-rank
  variability, and a drift measure (how much the heavy-rank pattern
  moves between iterations);
* :func:`is_regular` — the go/no-go check a production runtime would
  perform before trusting a one-shot static assignment.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.traces.analysis import load_balance_from_times
from repro.traces.columnar import ColumnarTrace
from repro.traces.records import ComputeBurst, MarkerRecord

__all__ = [
    "IterationStats",
    "is_regular",
    "iteration_stats",
    "per_iteration_compute_times",
]


def per_iteration_compute_times(trace: ColumnarTrace) -> np.ndarray:
    """(iterations × ranks) computation seconds at nominal frequency.

    Records before the first numbered marker (initialization) are
    excluded, mirroring the paper's region cutting.  Raises when the
    trace carries no iteration markers or ranks disagree on the
    iteration set.
    """
    per_rank: list[dict[int, float]] = []
    for stream in trace:
        acc: dict[int, float] = {}
        current = -1
        for rec in stream:
            if isinstance(rec, MarkerRecord) and rec.iteration >= 0:
                current = rec.iteration
                acc.setdefault(current, 0.0)
            elif isinstance(rec, ComputeBurst) and current >= 0:
                acc[current] = acc.get(current, 0.0) + rec.duration
        per_rank.append(acc)

    iteration_sets = {frozenset(acc) for acc in per_rank}
    if len(iteration_sets) != 1:
        raise ValueError("ranks disagree on the set of iteration indices")
    iterations = sorted(iteration_sets.pop())
    if not iterations:
        raise ValueError("trace carries no iteration markers")
    return np.array(
        [[acc[i] for acc in per_rank] for i in iterations], dtype=float
    )


@dataclass(frozen=True)
class IterationStats:
    """Summary of per-iteration behaviour."""

    iterations: int
    nproc: int
    times: np.ndarray  # (iterations, ranks)
    lb_per_iteration: np.ndarray
    lb_of_totals: float
    max_rank_cv: float  # worst per-rank coefficient of variation
    drift: float  # mean |correlation displacement| between iterations

    @property
    def mean_lb(self) -> float:
        return float(self.lb_per_iteration.mean())

    def row(self) -> dict[str, float]:
        return {
            "iterations": self.iterations,
            "mean_iteration_lb_pct": 100.0 * self.mean_lb,
            "total_lb_pct": 100.0 * self.lb_of_totals,
            "max_rank_cv": self.max_rank_cv,
            "drift": self.drift,
        }


def _pattern_drift(times: np.ndarray) -> float:
    """Mean 1 − Pearson correlation of consecutive iterations' patterns.

    0 for a stationary workload (each iteration loads the same ranks
    the same way); grows toward 1 (and beyond, for anti-correlation)
    as the heavy-rank pattern moves.
    """
    if times.shape[0] < 2:
        return 0.0
    drifts = []
    for a, b in zip(times, times[1:], strict=False):
        sa, sb = a.std(), b.std()
        if sa == 0.0 or sb == 0.0:
            drifts.append(0.0)
            continue
        corr = float(np.corrcoef(a, b)[0, 1])
        drifts.append(1.0 - corr)
    return float(np.mean(drifts))


def iteration_stats(trace: ColumnarTrace) -> IterationStats:
    """Compute the full per-iteration summary for a trace."""
    times = per_iteration_compute_times(trace)
    niter, nproc = times.shape
    lb = np.array([load_balance_from_times(row) for row in times])
    totals = times.sum(axis=0)
    means = times.mean(axis=0)
    stds = times.std(axis=0)
    with np.errstate(invalid="ignore", divide="ignore"):
        cvs = np.where(means > 0.0, stds / means, 0.0)
    return IterationStats(
        iterations=niter,
        nproc=nproc,
        times=times,
        lb_per_iteration=lb,
        lb_of_totals=load_balance_from_times(totals),
        max_rank_cv=float(cvs.max()),
        drift=_pattern_drift(times),
    )


def is_regular(
    trace: ColumnarTrace, cv_tol: float = 0.05, drift_tol: float = 0.05
) -> bool:
    """True when a one-shot static assignment is trustworthy.

    Regular means every rank's per-iteration computation time is stable
    (coefficient of variation ≤ ``cv_tol``) and the imbalance pattern
    does not move between iterations (drift ≤ ``drift_tol``).
    """
    stats = iteration_stats(trace)
    return stats.max_rank_cv <= cv_tol and stats.drift <= drift_tol
