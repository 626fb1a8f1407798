"""DVFS gear sets (paper §3.3).

A *gear* is a (frequency, voltage) pair.  The paper assumes a linear
DVFS law: the voltage of any frequency point lies on the line through
(0.8 GHz, 1.0 V) and (2.3 GHz, 1.5 V)::

    V(f) = 1.0 + (f - 0.8) / 3.0

which reproduces both published gear tables exactly (Table 1, Table 2)
and the AVG extension gear (2.6 GHz, 1.6 V).

Gear sets:

* ``unlimited_continuous_set()`` — any frequency in (0, 2.3] GHz;
* ``limited_continuous_set()`` — any frequency in [0.8, 2.3] GHz;
* ``uniform_gear_set(n)`` — n evenly spaced gears over [0.8, 2.3];
* ``exponential_gear_set(n)`` — n gears whose adjacent frequency gaps
  shrink by a factor of 2 toward the top (more high-frequency gears);
* ``overclocked(base, pct)`` / ``DiscreteGearSet.with_extra_gear`` — the
  AVG algorithm's raised ceiling.

Frequency selection follows the paper: "the new frequency is the closest
*higher* frequency from the gear set" (round up).  An unattainable
request clamps to the set's extreme and is flagged.

:meth:`GearSet.select_many` applies the rule to a whole array of
requests and answers with a :class:`GearTable` (read-only frequency and
voltage arrays) plus one table index per request — the form frequency
assignments carry, so pricing never builds a :class:`Gear` per rank.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from collections.abc import Iterable, Sequence
from typing import Any

import numpy as np

__all__ = [
    "ContinuousGearSet",
    "DiscreteGearSet",
    "Gear",
    "GearSet",
    "GearTable",
    "LinearVoltageLaw",
    "NOMINAL_FMAX",
    "NOMINAL_FMIN",
    "SelectionResult",
    "exponential_gear_set",
    "limited_continuous_set",
    "overclocked",
    "uniform_gear_set",
    "unlimited_continuous_set",
]

#: Manufacturer-specified top frequency (GHz) of the modelled CPU.
NOMINAL_FMAX = 2.3
#: Lowest hardware gear frequency (GHz).
NOMINAL_FMIN = 0.8
#: Voltage at the lowest / highest hardware gear (V).
VOLTAGE_AT_FMIN = 1.0
VOLTAGE_AT_FMAX = 1.5

#: Practical floor for the "unlimited" continuous set.  The paper's set
#: nominally starts at 0 GHz, but a zero frequency is singular in every
#: model (infinite time); any positive epsilon below the frequencies the
#: algorithms ever request behaves identically.
UNLIMITED_FLOOR = 0.01


@dataclass(frozen=True)
class Gear:
    """A DVFS operating point: frequency in GHz, supply voltage in V."""

    frequency: float
    voltage: float

    def __post_init__(self) -> None:
        if self.frequency <= 0.0:
            raise ValueError(f"gear frequency must be positive, got {self.frequency!r}")
        if self.voltage <= 0.0:
            raise ValueError(f"gear voltage must be positive, got {self.voltage!r}")

    def __str__(self) -> str:
        return f"{self.frequency:.3g}GHz@{self.voltage:.3g}V"


@dataclass(frozen=True)
class LinearVoltageLaw:
    """Linear V(f) through two reference points (paper's DVFS scenario)."""

    f0: float = NOMINAL_FMIN
    v0: float = VOLTAGE_AT_FMIN
    f1: float = NOMINAL_FMAX
    v1: float = VOLTAGE_AT_FMAX

    def voltage(self, frequency: float) -> float:
        if frequency <= 0.0:
            raise ValueError(f"frequency must be positive, got {frequency!r}")
        slope = (self.v1 - self.v0) / (self.f1 - self.f0)
        v = self.v0 + (frequency - self.f0) * slope
        if v <= 0.0:
            raise ValueError(
                f"voltage law yields non-physical V={v!r} at f={frequency!r}"
            )
        return v

    def gear(self, frequency: float) -> Gear:
        return Gear(frequency, self.voltage(frequency))

    def voltages(self, frequencies: Any) -> np.ndarray:
        """:meth:`voltage` elementwise: the same floats and checks."""
        f = np.asarray(frequencies, dtype=float)
        bad = f <= 0.0
        if bad.any():
            got = float(f[np.argmax(bad)])
            raise ValueError(f"frequency must be positive, got {got!r}")
        slope = (self.v1 - self.v0) / (self.f1 - self.f0)
        v = self.v0 + (f - self.f0) * slope
        bad = v <= 0.0
        if bad.any():
            k = int(np.argmax(bad))
            raise ValueError(
                f"voltage law yields non-physical V={float(v[k])!r} "
                f"at f={float(f[k])!r}"
            )
        return v


DEFAULT_VOLTAGE_LAW = LinearVoltageLaw()


class GearTable:
    """Read-only operating points that frequency assignments index into.

    ``frequencies`` and ``voltages`` are parallel read-only float64
    arrays; entry ``i`` is the gear ``(frequencies[i], voltages[i])``.
    A discrete set builds its table once; a continuous set builds one
    per selection, one entry per request.
    """

    __slots__ = ("frequencies", "voltages")

    def __init__(self, frequencies: Any, voltages: Any):
        f = np.array(frequencies, dtype=float)
        v = np.array(voltages, dtype=float)
        if f.ndim != 1 or f.shape != v.shape:
            raise ValueError(
                f"need parallel 1-D frequency/voltage arrays, got "
                f"shapes {f.shape} and {v.shape}"
            )
        f.setflags(write=False)
        v.setflags(write=False)
        self.frequencies = f
        self.voltages = v

    @classmethod
    def of(cls, gears: Sequence[Gear]) -> "GearTable":
        return cls([g.frequency for g in gears], [g.voltage for g in gears])

    def __len__(self) -> int:
        return len(self.frequencies)

    def powers(self, power_model: Any) -> np.ndarray:
        """``(3, len)`` compute, comm and static power per entry.

        Each entry is the float the scalar
        :meth:`~repro.core.power.CpuPowerModel.point_powers` call gives:
        the power law is never re-evaluated in array arithmetic, whose
        ``v**2`` may round differently from the scalar ``**``.
        """
        return np.array(
            [
                power_model.point_powers(f, v)
                for f, v in zip(
                    self.frequencies.tolist(), self.voltages.tolist(),
                    strict=True,
                )
            ],
            dtype=float,
        ).T

    def __reduce__(self) -> tuple[Any, ...]:
        # plain float lists: cheaper to unpickle than two ndarrays
        return (
            GearTable, (self.frequencies.tolist(), self.voltages.tolist())
        )


def _checked_requests(required: Any) -> np.ndarray:
    req = np.asarray(required, dtype=float)
    # min propagates NaN: one reduction screens both kinds of bad request
    if req.size and not req.min() >= 0.0:
        bad = np.isnan(req) | (req < 0.0)
        got = float(req[np.argmax(bad)])
        raise ValueError(f"bad required frequency {got!r}")
    return req


@dataclass(frozen=True)
class SelectionResult:
    """Outcome of mapping a required frequency onto a gear set.

    ``attained`` is False when the request exceeded the set's ceiling
    (the paper's "needs an unrealistically high frequency" case) — the
    gear is then the fastest available and the caller's target time is
    missed.
    """

    gear: Gear
    attained: bool


class GearSet:
    """Interface: pick the slowest gear meeting a required frequency."""

    name: str = "gearset"

    @property
    def fmin(self) -> float:
        raise NotImplementedError

    @property
    def fmax(self) -> float:
        raise NotImplementedError

    def select(self, required_frequency: float) -> SelectionResult:
        """Round the request *up* to the next available gear.

        ``required_frequency`` may be ``0`` (any gear works — returns the
        slowest) or ``math.inf`` (unattainable — returns the fastest,
        flagged).
        """
        raise NotImplementedError

    def select_many(
        self, required: Any
    ) -> tuple[GearTable, np.ndarray, np.ndarray]:
        """:meth:`select` for an array of requests at once.

        Returns ``(table, index, attained)``: request ``k`` gets the
        gear at ``table`` entry ``index[k]``, and ``attained[k]`` is
        :attr:`SelectionResult.attained`.  This fallback calls
        :meth:`select` per request, for sets that define only that;
        the paper's sets override it with array operations.
        """
        slots: dict[Gear, int] = {}
        req = np.asarray(required, dtype=float)
        index = np.empty(req.size, dtype=np.intp)
        attained = np.empty(req.size, dtype=bool)
        for k, f in enumerate(req.tolist()):
            sel = self.select(f)
            index[k] = slots.setdefault(sel.gear, len(slots))
            attained[k] = sel.attained
        return GearTable.of(list(slots)), index, attained

    def top_gear(self) -> Gear:
        return self.select(self.fmax).gear


class ContinuousGearSet(GearSet):
    """Any frequency in [fmin, fmax]; voltage from the linear law."""

    def __init__(
        self,
        fmin: float,
        fmax: float,
        law: LinearVoltageLaw = DEFAULT_VOLTAGE_LAW,
        name: str | None = None,
    ):
        if not (0.0 < fmin <= fmax):
            raise ValueError(f"need 0 < fmin <= fmax, got {fmin!r}, {fmax!r}")
        self._fmin = fmin
        self._fmax = fmax
        self.law = law
        self.name = name or f"continuous[{fmin:g},{fmax:g}]"

    @property
    def fmin(self) -> float:
        return self._fmin

    @property
    def fmax(self) -> float:
        return self._fmax

    def select(self, required_frequency: float) -> SelectionResult:
        if math.isnan(required_frequency) or required_frequency < 0.0:
            raise ValueError(f"bad required frequency {required_frequency!r}")
        if required_frequency > self._fmax:
            return SelectionResult(self.law.gear(self._fmax), attained=False)
        f = max(required_frequency, self._fmin)
        return SelectionResult(self.law.gear(f), attained=True)

    def select_many(
        self, required: Any
    ) -> tuple[GearTable, np.ndarray, np.ndarray]:
        """Clamp every request into ``[fmin, fmax]`` and apply the
        voltage law elementwise: a one-entry-per-request table."""
        req = _checked_requests(required)
        attained = ~(req > self._fmax)
        f = np.where(attained, np.maximum(req, self._fmin), self._fmax)
        table = GearTable(f, self.law.voltages(f))
        return table, np.arange(req.size), attained

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"<ContinuousGearSet {self.name}>"


class DiscreteGearSet(GearSet):
    """A finite, sorted set of gears."""

    def __init__(self, gears: Iterable[Gear], name: str | None = None):
        sorted_gears = sorted(gears, key=lambda g: g.frequency)
        if not sorted_gears:
            raise ValueError("a discrete gear set needs at least one gear")
        freqs = [g.frequency for g in sorted_gears]
        if len(set(freqs)) != len(freqs):
            raise ValueError(f"duplicate gear frequencies: {freqs}")
        voltages = [g.voltage for g in sorted_gears]
        if any(b <= a for a, b in zip(voltages, voltages[1:], strict=False)):
            raise ValueError("gear voltages must increase with frequency")
        self.gears: tuple[Gear, ...] = tuple(sorted_gears)
        self.name = name or f"discrete[{len(self.gears)}]"

    @cached_property
    def table(self) -> GearTable:
        """The gears as a read-only :class:`GearTable`, built on first
        use (a set that only names a cell never needs it)."""
        return GearTable.of(self.gears)

    def __len__(self) -> int:
        return len(self.gears)

    def __iter__(self):
        return iter(self.gears)

    @property
    def fmin(self) -> float:
        return self.gears[0].frequency

    @property
    def fmax(self) -> float:
        return self.gears[-1].frequency

    @property
    def frequencies(self) -> tuple[float, ...]:
        return tuple(g.frequency for g in self.gears)

    def select(self, required_frequency: float) -> SelectionResult:
        if math.isnan(required_frequency) or required_frequency < 0.0:
            raise ValueError(f"bad required frequency {required_frequency!r}")
        for gear in self.gears:  # sorted ascending: first match is round-up
            if gear.frequency >= required_frequency - 1e-12:
                return SelectionResult(gear, attained=True)
        return SelectionResult(self.gears[-1], attained=False)

    def select_many(
        self, required: Any
    ) -> tuple[GearTable, np.ndarray, np.ndarray]:
        """Round every request up at once: the first gear at or above
        ``request - 1e-12`` (``searchsorted`` on the sorted
        frequencies), the top gear where none is."""
        req = _checked_requests(required)
        top = len(self.gears) - 1
        index = np.searchsorted(self.table.frequencies, req - 1e-12)
        return self.table, np.minimum(index, top), index <= top

    def with_extra_gear(self, gear: Gear, name: str | None = None) -> "DiscreteGearSet":
        """The AVG extension: same set plus one over-clock gear on top."""
        if gear.frequency <= self.fmax:
            raise ValueError(
                f"extra gear {gear} must be faster than current top {self.fmax:g} GHz"
            )
        return DiscreteGearSet(
            list(self.gears) + [gear], name=name or f"{self.name}+{gear}"
        )

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        freqs = ", ".join(f"{f:g}" for f in self.frequencies)
        return f"<DiscreteGearSet {self.name} [{freqs}] GHz>"


# ----------------------------------------------------------------------
# The paper's concrete sets
# ----------------------------------------------------------------------

def unlimited_continuous_set(law: LinearVoltageLaw = DEFAULT_VOLTAGE_LAW,
                             fmax: float = NOMINAL_FMAX) -> ContinuousGearSet:
    """Continuous frequencies from (effectively) 0 up to ``fmax``."""
    return ContinuousGearSet(UNLIMITED_FLOOR, fmax, law, name="unlimited")


def limited_continuous_set(law: LinearVoltageLaw = DEFAULT_VOLTAGE_LAW,
                           fmin: float = NOMINAL_FMIN,
                           fmax: float = NOMINAL_FMAX) -> ContinuousGearSet:
    """Continuous frequencies in [0.8, 2.3] GHz."""
    return ContinuousGearSet(fmin, fmax, law, name="limited")


def uniform_gear_set(n: int,
                     fmin: float = NOMINAL_FMIN,
                     fmax: float = NOMINAL_FMAX,
                     law: LinearVoltageLaw = DEFAULT_VOLTAGE_LAW) -> DiscreteGearSet:
    """``n`` evenly distributed gears over [fmin, fmax] (Table 1 at n=6)."""
    if n < 2:
        raise ValueError(f"a uniform gear set needs >= 2 gears, got {n}")
    step = (fmax - fmin) / (n - 1)
    freqs = [fmin + i * step for i in range(n)]
    freqs[-1] = fmax  # avoid FP drift on the top gear
    return DiscreteGearSet((law.gear(f) for f in freqs), name=f"uniform-{n}")


def exponential_gear_set(n: int,
                         fmin: float = NOMINAL_FMIN,
                         fmax: float = NOMINAL_FMAX,
                         law: LinearVoltageLaw = DEFAULT_VOLTAGE_LAW) -> DiscreteGearSet:
    """``n`` gears whose adjacent gaps halve toward the top (Table 2 at n=6).

    Gap ``i`` (from the bottom) is proportional to ``2**(n-2-i)``, so the
    set is dense near ``fmax`` — better for well-balanced applications
    that only need mild slow-downs.
    """
    if n < 2:
        raise ValueError(f"an exponential gear set needs >= 2 gears, got {n}")
    span = fmax - fmin
    total_weight = float(2 ** (n - 1) - 1)
    freqs = [fmin]
    for i in range(n - 1):
        gap = span * (2 ** (n - 2 - i)) / total_weight
        freqs.append(freqs[-1] + gap)
    freqs[-1] = fmax
    return DiscreteGearSet((law.gear(f) for f in freqs), name=f"exponential-{n}")


def overclocked(base: GearSet, pct: float) -> GearSet:
    """Raise a continuous set's ceiling by ``pct`` percent (AVG, §5.3.6).

    For discrete sets use :meth:`DiscreteGearSet.with_extra_gear` with
    the paper's (2.6 GHz, 1.6 V) point instead.
    """
    if pct < 0.0:
        raise ValueError(f"over-clock percentage must be >= 0, got {pct!r}")
    if not isinstance(base, ContinuousGearSet):
        raise TypeError(
            "overclocked() extends continuous sets; discrete sets take "
            "DiscreteGearSet.with_extra_gear"
        )
    new_fmax = base.fmax * (1.0 + pct / 100.0)
    return ContinuousGearSet(
        base.fmin, new_fmax, base.law, name=f"{base.name}+oc{pct:g}%"
    )
