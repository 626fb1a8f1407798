"""Per-rank reference for the frequency-assignment algorithms.

``assign`` applies the paper's §3.1 rule to every rank at once: one
numpy inversion of Eq. 3, one ``GearSet.select_many`` rounding.  This
module keeps the rule the way it reads rank by rank —
``BetaTimeModel.frequency_for`` then ``GearSet.select`` for each rank —
together with the power-cap search built on it (critical-path greedy,
then on discrete sets a binary search over the per-rank gear-threshold
grid, re-checked exactly from the level it finds upward, or on
continuous ones an exact float bisection, then the all-floor fallback).  Tests and the sweep benchmark compare ``assign`` against it
exactly: frequencies, voltages, target time and both per-rank flags.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.algorithms import (
    AvgAlgorithm,
    FrequencyAlgorithm,
    FrequencyAssignment,
    MaxAlgorithm,
    NoDvfsAlgorithm,
)
from repro.core.gears import DiscreteGearSet, Gear, GearSet
from repro.core.power import CpuState
from repro.core.powercap import PowerCapAlgorithm, PowerCapError
from repro.core.timemodel import BetaTimeModel

__all__ = ["OracleAssignment", "matches", "oracle_assign"]

#: Float bisection steps for continuous sets (the bracket collapses to
#: adjacent floats long before).
_MAX_BISECTIONS = 200


@dataclass(frozen=True)
class OracleAssignment:
    gears: tuple[Gear, ...]
    target_time: float
    overclocked: tuple[bool, ...]
    attained: tuple[bool, ...]


def matches(got: FrequencyAssignment, want: OracleAssignment) -> bool:
    """Exact agreement, float for float and flag for flag."""
    return (
        got.frequencies.tolist() == [g.frequency for g in want.gears]
        and got.voltages.tolist() == [g.voltage for g in want.gears]
        and got.target_time == want.target_time
        and got.overclocked == want.overclocked
        and got.attained == want.attained
    )


def _validate(compute_times: Sequence[float]) -> np.ndarray:
    times = np.asarray(compute_times, dtype=float)
    if times.size == 0:
        raise ValueError("need at least one rank")
    if not all(np.isfinite(t) for t in times.tolist()):
        raise ValueError("computation times must be finite")
    if any(t < 0.0 for t in times.tolist()):
        raise ValueError("computation times must be >= 0")
    if max(times.tolist()) <= 0.0:
        raise ValueError("at least one rank must compute")
    return times


def _to_target(
    times: np.ndarray,
    target: float,
    gear_set: GearSet,
    model: BetaTimeModel,
) -> OracleAssignment:
    """Per rank: the slowest gear meeting ``target`` (Eq. 3 inverted,
    rounded up)."""
    gears, over, attained = [], [], []
    for t in times.tolist():
        sel = gear_set.select(model.frequency_for(t, target))
        gears.append(sel.gear)
        over.append(sel.gear.frequency > model.fmax * (1.0 + 1e-12))
        attained.append(sel.attained)
    return OracleAssignment(
        tuple(gears), float(target), tuple(over), tuple(attained)
    )


def _fastest(times: np.ndarray, gear_set: GearSet, model: BetaTimeModel) -> float:
    return max(model.scale(t, gear_set.fmax) for t in times.tolist())


def oracle_assign(
    algorithm: FrequencyAlgorithm,
    compute_times: Sequence[float],
    gear_set: GearSet,
    model: BetaTimeModel,
) -> OracleAssignment:
    """What ``algorithm.assign`` must return, computed rank by rank."""
    if isinstance(algorithm, PowerCapAlgorithm):
        return _powercap(algorithm, compute_times, gear_set, model)
    times = _validate(compute_times)
    if isinstance(algorithm, NoDvfsAlgorithm):
        sel = gear_set.select(model.fmax)
        n = times.size
        return OracleAssignment(
            (sel.gear,) * n, max(times.tolist()), (False,) * n,
            (sel.attained,) * n,
        )
    if isinstance(algorithm, MaxAlgorithm):
        return _to_target(times, max(times.tolist()), gear_set, model)
    if isinstance(algorithm, AvgAlgorithm):
        wanted = {
            "mean": lambda: times.mean(),
            "median": lambda: np.median(times),
            "p90": lambda: np.percentile(times, 90),
        }[algorithm.target]()
        target = max(float(wanted), _fastest(times, gear_set, model))
        return _to_target(times, target, gear_set, model)
    raise TypeError(f"no oracle for {type(algorithm).__name__}")


# ----------------------------------------------------------------------
# the power-cap search, on the per-rank rule
# ----------------------------------------------------------------------
def _powercap(
    algorithm: PowerCapAlgorithm,
    compute_times: Sequence[float],
    gear_set: GearSet,
    model: BetaTimeModel,
) -> OracleAssignment:
    from repro.diagnostics.model import Severity

    times = _validate(compute_times)
    errors = [
        d for d in algorithm.screen(times.size, gear_set)
        if d.severity >= Severity.ERROR
    ]
    if errors:
        raise PowerCapError(errors)
    pm, cap = algorithm.power_model, algorithm.cap

    def peak(a: OracleAssignment) -> float:
        total = 0.0  # left to right (builtin sum compensates on 3.12+)
        for g in a.gears:
            total += pm.power(g, CpuState.COMPUTE)
        return total

    lo = _fastest(times, gear_set, model)
    greedy = _to_target(times, lo, gear_set, model)
    if peak(greedy) <= cap:
        return greedy
    hi = max(model.scale(t, gear_set.fmin) for t in times.tolist())
    if isinstance(gear_set, DiscreteGearSet):
        rows = [
            [model.scale(t, g.frequency) for g in gear_set.gears]
            for t in times.tolist()
        ]
        levels = sorted(v for row in rows for v in row if lo < v <= hi)
        if not levels or levels[-1] < hi:
            levels.append(hi)
        thresh = np.asarray(rows)
        p_comp = np.asarray(
            [pm.power(g, CpuState.COMPUTE) for g in gear_set.gears]
        )
        top = len(gear_set.gears) - 1

        def probe_peak(level: float) -> float:
            counts = np.minimum((thresh > level).sum(axis=1), top)
            return float(p_comp[counts].sum())

        feasible, first_infeasible = len(levels) - 1, -1
        while first_infeasible + 1 < feasible:
            mid = (first_infeasible + feasible) // 2
            if probe_peak(levels[mid]) <= cap:
                feasible = mid
            else:
                first_infeasible = mid
        # the first level from the searched one up that fits exactly
        for level in sorted(set(levels[feasible:])):
            final = _to_target(times, level, gear_set, model)
            if peak(final) <= cap:
                return final
    else:
        for _ in range(_MAX_BISECTIONS):
            mid = 0.5 * (lo + hi)
            if not (lo < mid < hi):
                break
            if peak(_to_target(times, mid, gear_set, model)) <= cap:
                hi = mid
            else:
                lo = mid
        final = _to_target(times, hi, gear_set, model)
        if peak(final) <= cap:
            return final
    sel = gear_set.select(0.0)
    n = times.size
    return OracleAssignment(
        (sel.gear,) * n, float(hi), (False,) * n, (sel.attained,) * n
    )

