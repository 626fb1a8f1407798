"""Frequency-assignment algorithms (paper §3.1).

Both algorithms take the per-rank computation times of one iterative
region (measured at the nominal top frequency) and produce one gear per
rank, fixed for the whole execution:

* :class:`MaxAlgorithm` — the prior-art baseline (static Jitter/Slack):
  stretch every rank's computation to the *maximum* original per-rank
  computation time.  Never exceeds the nominal top frequency.
* :class:`AvgAlgorithm` — the paper's contribution: pull every rank's
  computation toward the *average* original computation time,
  over-clocking the most loaded ranks.  When the imbalance is too high
  for the available ceiling, the target degrades gracefully to "the
  closest attainable time to the average".
* :class:`NoDvfsAlgorithm` — every rank at the top gear (the
  normalisation baseline).

Gear rounding follows §3.1: the selected frequency is the closest gear
*above* the required frequency, so computation never finishes later
than the target (modulo an unattainable target, which is flagged).

The rule is elementwise, and so is the implementation: one numpy
inversion of Eq. 3 over the per-rank times, then one
:meth:`~repro.core.gears.GearSet.select_many` rounding.  An assignment
is a per-rank index into a read-only :class:`~repro.core.gears.GearTable`;
:class:`~repro.core.gears.Gear` objects are built only on request
(:attr:`FrequencyAssignment.gears`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from collections.abc import Sequence
from typing import Any

import numpy as np

from repro.core.gears import Gear, GearSet, GearTable
from repro.core.timemodel import BetaTimeModel

__all__ = [
    "AvgAlgorithm",
    "FrequencyAssignment",
    "FrequencyAlgorithm",
    "MaxAlgorithm",
    "NoDvfsAlgorithm",
]


def _frozen_index(index: Any, size: int) -> np.ndarray:
    """A read-only copy of a gear-index row, in the narrowest unsigned
    dtype that addresses a ``size``-entry table (one byte per rank for
    every discrete set)."""
    idx = np.asarray(index)
    if idx.ndim != 1 or idx.dtype.kind not in "iu":
        raise ValueError(
            f"a gear index must be a 1-D integer array, got "
            f"{idx.dtype} with shape {idx.shape}"
        )
    # negative entries wrap to huge unsigned values: one bound catches both
    if idx.size and idx.astype(np.uintp).max() >= size:
        raise ValueError(f"gear index out of range for {size} table entries")
    out = idx.astype(np.min_scalar_type(max(size - 1, 0)))
    out.setflags(write=False)
    return out


@lru_cache(maxsize=64)
def _uniform_flags(value: bool, n: int) -> tuple[bool, ...]:
    return (value,) * n


def _flags(mask: np.ndarray) -> tuple[bool, ...]:
    """Per-rank flags as a tuple of built-in bools.

    All-equal rows, the common case (nothing over-clocked, every rank
    attained), share one tuple per world size, so the reports a sweep
    keeps do not each hold their own copy.
    """
    hits = int(np.count_nonzero(mask))
    if hits in (0, mask.size):
        return _uniform_flags(hits > 0, mask.size)
    return tuple(mask.tolist())


@dataclass(frozen=True, eq=False)
class FrequencyAssignment:
    """One gear per rank, plus provenance.

    Attributes
    ----------
    index:
        Per-rank gear index into ``table`` (read-only unsigned integer
        array, as narrow as the table allows).
    table:
        The operating points ``index`` points into: the gear set's own
        table for discrete sets, one entry per rank for continuous sets.
    target_time:
        The computation time the algorithm balanced toward.
    overclocked:
        Per-rank flags: gear frequency above the nominal maximum.
    attained:
        Per-rank flags: False where even the fastest/slowest available
        gear could not meet the target (time then exceeds the target).
    algorithm:
        Name of the producing algorithm (reports).

    Equality compares per-rank frequencies and voltages, not table
    layout, so equal assignments from different tables compare equal.
    """

    index: np.ndarray
    table: GearTable
    target_time: float
    overclocked: tuple[bool, ...]
    attained: tuple[bool, ...]
    algorithm: str

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "index", _frozen_index(self.index, len(self.table))
        )

    @classmethod
    def from_gears(
        cls,
        gears: Sequence[Gear],
        target_time: float,
        overclocked: Sequence[bool],
        attained: Sequence[bool],
        algorithm: str,
    ) -> "FrequencyAssignment":
        """An assignment from explicit per-rank gears (one table entry
        per distinct gear)."""
        slots: dict[tuple[float, float], int] = {}
        index = np.array(
            [slots.setdefault((g.frequency, g.voltage), len(slots)) for g in gears],
            dtype=np.intp,
        )
        pairs = list(slots)
        return cls(
            index=index,
            table=GearTable([f for f, _ in pairs], [v for _, v in pairs]),
            target_time=float(target_time),
            overclocked=tuple(bool(x) for x in overclocked),
            attained=tuple(bool(x) for x in attained),
            algorithm=str(algorithm),
        )

    def __getstate__(self) -> dict[str, Any]:
        # the index as raw bytes: unpickles into a read-only view
        return {
            **self.__dict__,
            "index": (self.index.dtype.str, self.index.tobytes()),
        }

    def __setstate__(self, state: dict[str, Any]) -> None:
        if "gears" in state:
            # Reports pickled before assignments became index rows keep
            # a ``gears`` tuple: map it onto index + table, so a cached
            # blob renders the same ``to_json()`` bytes it always did.
            state = dict(state)
            old = FrequencyAssignment.from_gears(
                state.pop("gears"),
                state["target_time"],
                state["overclocked"],
                state["attained"],
                state["algorithm"],
            )
            state.update(old.__dict__)
        else:
            dtype, raw = state["index"]
            state = {**state, "index": np.frombuffer(raw, dtype=dtype)}
        self.__dict__.update(state)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FrequencyAssignment):
            return NotImplemented
        return (
            self.target_time == other.target_time
            and self.overclocked == other.overclocked
            and self.attained == other.attained
            and self.algorithm == other.algorithm
            and np.array_equal(self.frequencies, other.frequencies)
            and np.array_equal(self.voltages, other.voltages)
        )

    def __hash__(self) -> int:
        return hash((
            self.target_time, self.overclocked, self.attained,
            self.algorithm, self.frequencies.tobytes(),
        ))

    @property
    def nproc(self) -> int:
        return len(self.index)

    @property
    def frequencies(self) -> np.ndarray:
        """Per-rank frequencies (a fresh array)."""
        return self.table.frequencies[self.index]

    @property
    def voltages(self) -> np.ndarray:
        """Per-rank voltages (a fresh array)."""
        return self.table.voltages[self.index]

    @property
    def gears(self) -> tuple[Gear, ...]:
        """Per-rank :class:`Gear` objects, built on every access."""
        return tuple(map(Gear, *self.per_rank_lists()))

    def per_rank_lists(self) -> tuple[list[float], list[float]]:
        """Per-rank frequencies and voltages as lists of built-in floats.

        Ranks on one table entry share its float objects, so a report's
        JSON form costs one list slot per rank, not one float each.
        """
        frequencies, voltages = (
            np.array(values.tolist(), dtype=object)[self.index].tolist()
            for values in (self.table.frequencies, self.table.voltages)
        )
        return frequencies, voltages

    @property
    def overclocked_fraction(self) -> float:
        """Fraction of CPUs running above the nominal maximum (Fig. 9)."""
        if not self.overclocked:
            return 0.0
        return sum(self.overclocked) / len(self.overclocked)

    def predicted_compute_times(
        self, compute_times: Sequence[float], model: BetaTimeModel
    ) -> np.ndarray:
        """Per-rank computation time after scaling (model prediction)."""
        compute_times = np.asarray(compute_times, dtype=float)
        if compute_times.shape != self.index.shape:
            raise ValueError(
                f"{compute_times.size} times for {self.nproc} ranks"
            )
        if (compute_times < 0.0).any():
            raise ValueError("time must be >= 0")
        return compute_times * model.ratios(self.frequencies)

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-serialisable form (``repro balance --save-assignment``)."""
        return {
            "algorithm": self.algorithm,
            "target_time": float(self.target_time),
            "gears": [
                list(pair) for pair in zip(*self.per_rank_lists(), strict=True)
            ],
            "overclocked": list(map(bool, self.overclocked)),
            "attained": list(map(bool, self.attained)),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FrequencyAssignment":
        """Inverse of :meth:`to_dict`; raises on malformed input."""
        try:
            return cls.from_gears(
                [Gear(f, v) for f, v in data["gears"]],
                target_time=float(data["target_time"]),
                overclocked=data["overclocked"],
                attained=data["attained"],
                algorithm=str(data["algorithm"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed assignment dict: {exc}") from exc


class FrequencyAlgorithm:
    """Interface for frequency-assignment strategies."""

    name: str = "algorithm"

    def assign(
        self,
        compute_times: Sequence[float],
        gear_set: GearSet,
        model: BetaTimeModel,
    ) -> FrequencyAssignment:
        raise NotImplementedError

    # ------------------------------------------------------------------
    def _assign_to_target(
        self,
        compute_times: np.ndarray,
        target: float,
        gear_set: GearSet,
        model: BetaTimeModel,
        nominal_fmax: float,
    ) -> FrequencyAssignment:
        """Shared core: pick, per rank, the slowest gear meeting ``target``.

        One inversion of Eq. 3 over every rank, then one round-up
        selection on the gear set.
        """
        table, index, attained = gear_set.select_many(
            model.frequencies_for(compute_times, target)
        )
        over = table.frequencies[index] > nominal_fmax * (1.0 + 1e-12)
        return FrequencyAssignment(
            index=index,
            table=table,
            target_time=float(target),
            overclocked=_flags(over),
            attained=_flags(attained),
            algorithm=self.name,
        )

    @staticmethod
    def _validate(compute_times: Sequence[float]) -> np.ndarray:
        times = np.asarray(compute_times, dtype=float)
        if times.size == 0:
            raise ValueError("need at least one rank")
        # min and max propagate NaN, and see both infinities
        lo, hi = float(times.min()), float(times.max())
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError("computation times must be finite")
        if lo < 0.0:
            raise ValueError("computation times must be >= 0")
        if hi <= 0.0:
            raise ValueError("at least one rank must compute")
        return times

    @staticmethod
    def _fastest_time(
        times: np.ndarray, gear_set: GearSet, model: BetaTimeModel
    ) -> float:
        """The slowest rank's completion with every rank at the ceiling."""
        return float((times * model.ratio(gear_set.fmax)).max())


class MaxAlgorithm(FrequencyAlgorithm):
    """Balance every rank to the *maximum* computation time (prior art).

    The most loaded rank keeps the top frequency; everyone else slows
    down just enough to finish with it.  Execution time is (to first
    order) unchanged; CPU energy drops.
    """

    name = "MAX"

    def assign(
        self,
        compute_times: Sequence[float],
        gear_set: GearSet,
        model: BetaTimeModel,
    ) -> FrequencyAssignment:
        times = self._validate(compute_times)
        target = float(times.max())
        return self._assign_to_target(
            times, target, gear_set, model, nominal_fmax=model.fmax
        )


class AvgAlgorithm(FrequencyAlgorithm):
    """Balance every rank toward the *average* computation time (paper).

    Ranks above the average need frequencies above nominal; the gear set
    passed in must therefore include the over-clock headroom (a raised
    continuous ceiling via :func:`repro.core.gears.overclocked`, or a
    discrete set extended with the (2.6 GHz, 1.6 V) gear).

    When even the ceiling cannot bring the most loaded rank down to the
    average, the target becomes the *closest attainable* time to the
    average: ``max(average, min-time-of-every-rank-at-ceiling)``.
    """

    name = "AVG"

    def __init__(self, target: str = "mean"):
        if target not in ("mean", "median", "p90"):
            raise ValueError(
                f"target must be 'mean', 'median' or 'p90', got {target!r}"
            )
        self.target = target
        self.name = "AVG" if target == "mean" else f"AVG[{target}]"

    def _target_time(self, times: np.ndarray) -> float:
        if self.target == "mean":
            return float(times.mean())
        if self.target == "median":
            return float(np.median(times))
        return float(np.percentile(times, 90))

    def assign(
        self,
        compute_times: Sequence[float],
        gear_set: GearSet,
        model: BetaTimeModel,
    ) -> FrequencyAssignment:
        times = self._validate(compute_times)
        wanted = self._target_time(times)
        # Fastest completion attainable for each rank given the ceiling:
        floor_time = self._fastest_time(times, gear_set, model)
        target = max(wanted, floor_time)
        return self._assign_to_target(
            times, target, gear_set, model, nominal_fmax=model.fmax
        )


class NoDvfsAlgorithm(FrequencyAlgorithm):
    """Every rank at the nominal top gear — the normalisation baseline."""

    name = "no-DVFS"

    def assign(
        self,
        compute_times: Sequence[float],
        gear_set: GearSet,
        model: BetaTimeModel,
    ) -> FrequencyAssignment:
        times = self._validate(compute_times)
        table, index, attained = gear_set.select_many([model.fmax])
        return FrequencyAssignment(
            index=np.full(times.size, index[0]),
            table=table,
            target_time=float(times.max()),
            overclocked=(False,) * times.size,
            attained=(bool(attained[0]),) * times.size,
            algorithm=self.name,
        )
